//! Deterministic finite automata over the binary alphabet: subset
//! construction, the history-window construction from a cover, Hopcroft
//! minimization and start-state (steady-state) reduction (§4.6–4.7 of the
//! paper).

use crate::budget::{AutomataBudget, AutomataError};
use crate::nfa::Nfa;
use fsmgen_logicmin::Cover;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A complete deterministic finite automaton over the binary alphabet.
///
/// Every state has exactly one successor per input bit, so the automaton
/// doubles as a Moore machine: the per-state output is its accepting flag,
/// which for predictor languages means "the input consumed so far ends in a
/// predict-1 pattern".
///
/// # Examples
///
/// ```
/// use fsmgen_automata::{Dfa, Nfa, Regex};
///
/// // The paper's §4.5 language: anything ending in 1x or x1.
/// let re = Regex::ending_in(vec![
///     Regex::pattern(&[Some(true), None]),
///     Regex::pattern(&[None, Some(true)]),
/// ]);
/// let dfa = Dfa::from_nfa(&Nfa::from_regex(&re)).minimized();
/// assert!(dfa.accepts([true, false]));  // "10"
/// assert!(!dfa.accepts([false, false])); // "00"
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    /// `transitions[s][b]` = successor of state `s` on input bit `b`.
    transitions: Vec<[u32; 2]>,
    /// Per-state accepting flag (the Moore output).
    accept: Vec<bool>,
    start: u32,
}

impl Dfa {
    /// Builds a DFA directly from parts.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, `accept` has a different length, the
    /// start state is out of range, or any transition targets a missing
    /// state.
    #[must_use]
    pub fn from_parts(transitions: Vec<[u32; 2]>, accept: Vec<bool>, start: u32) -> Self {
        assert!(!transitions.is_empty(), "a DFA needs at least one state");
        assert_eq!(
            transitions.len(),
            accept.len(),
            "accept flags must match state count"
        );
        let n = transitions.len() as u32;
        assert!(start < n, "start state {start} out of range");
        for (s, t) in transitions.iter().enumerate() {
            assert!(
                t[0] < n && t[1] < n,
                "state {s} has a transition out of range"
            );
        }
        Dfa {
            transitions,
            accept,
            start,
        }
    }

    /// Subset construction (§4.6): converts an NFA into an equivalent
    /// complete DFA. A non-accepting sink state is added if some subset has
    /// no successors.
    #[must_use]
    pub fn from_nfa(nfa: &Nfa) -> Self {
        match Dfa::from_nfa_checked(nfa, &AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::from_nfa`] under an [`AutomataBudget`]: subset construction
    /// aborts as soon as it materializes more than `max_dfa_states` subsets
    /// or the deadline passes. This is the exponential step of the
    /// pipeline, so the limit is enforced incrementally — the work done
    /// before a violation is proportional to the limit.
    ///
    /// # Errors
    ///
    /// Returns an [`AutomataError`] naming the violated limit.
    pub fn from_nfa_checked(nfa: &Nfa, budget: &AutomataBudget) -> Result<Self, AutomataError> {
        let start_set = nfa.epsilon_closure(&BTreeSet::from([nfa.start()]));
        let mut index: BTreeMap<BTreeSet<u32>, u32> = BTreeMap::new();
        let mut order: Vec<BTreeSet<u32>> = Vec::new();
        let mut queue: VecDeque<BTreeSet<u32>> = VecDeque::new();

        index.insert(start_set.clone(), 0);
        order.push(start_set.clone());
        queue.push_back(start_set);

        let mut transitions: Vec<[u32; 2]> = Vec::new();
        while let Some(set) = queue.pop_front() {
            budget.check_deadline("subset construction")?;
            let mut row = [0u32; 2];
            for bit in [false, true] {
                let next = nfa.epsilon_closure(&nfa.step(&set, bit));
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = order.len() as u32;
                        if let Some(limit) = budget.max_dfa_states {
                            if order.len() + 1 > limit {
                                return Err(AutomataError::DfaStates {
                                    generated: order.len() + 1,
                                    limit,
                                });
                            }
                        }
                        index.insert(next.clone(), id);
                        order.push(next.clone());
                        queue.push_back(next);
                        id
                    }
                };
                row[usize::from(bit)] = id;
            }
            transitions.push(row);
        }
        let accept: Vec<bool> = order.iter().map(|s| s.contains(&nfa.accept())).collect();
        fsmgen_obs::counter("dfa", "subset_states", transitions.len() as u64);
        Ok(Dfa {
            transitions,
            accept,
            start: 0,
        })
    }

    /// Window construction: builds the history-window Moore machine for the
    /// language `Σ*·L(cover)` over a fixed `history`-bit window directly,
    /// with no regex, NFA or subset step.
    ///
    /// Cube variable `i` is the outcome `i` steps back (variable 0 is the
    /// most recent bit), as in the designer's §4.5 regex. The machine has
    /// `2^history − 1` non-accepting start-up states, one per prefix
    /// shorter than the window, then `2^history` window states: window `w`
    /// moves to `((w << 1) | b) & mask` on bit `b` and outputs
    /// `cover.covers_minterm(w)`. States are numbered in BFS order from the
    /// start, so every state is reachable.
    ///
    /// When `history` is the cover's width, the machine accepts exactly the
    /// language of the regex `{0|1}*(p₁|…|pₖ)` built from the cover's
    /// `history`-bit patterns, so [`Dfa::minimized`] maps it to the same
    /// canonical minimal DFA as the paper path through
    /// [`Nfa::from_regex`] and [`Dfa::from_nfa`]. A wider `history` leaves
    /// the extra, older variables free and keeps the start-up states
    /// non-accepting until the whole window is filled.
    ///
    /// # Panics
    ///
    /// Panics if `history` is zero, at least 32, or narrower than the
    /// cover.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsmgen_automata::{Dfa, Nfa, Regex};
    /// use fsmgen_logicmin::Cover;
    ///
    /// // Figure 1: the cover (x1) + (1x) at history 2.
    /// let cover = Cover::from_cubes(2, vec!["-1".parse()?, "1-".parse()?]);
    /// let window = Dfa::from_cover(&cover, 2).minimized();
    /// let re = Regex::ending_in(vec![
    ///     Regex::pattern(&[Some(true), None]),
    ///     Regex::pattern(&[None, Some(true)]),
    /// ]);
    /// assert_eq!(window, Dfa::from_nfa(&Nfa::from_regex(&re)).minimized());
    /// assert_eq!(window.num_states(), 5);
    /// # Ok::<(), fsmgen_logicmin::ParseCubeError>(())
    /// ```
    #[must_use]
    pub fn from_cover(cover: &Cover, history: usize) -> Self {
        match Dfa::from_cover_checked(cover, history, &AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::from_cover`] under an [`AutomataBudget`]: the machine's
    /// `2^(history+1) − 1` states are checked against `max_dfa_states`
    /// before anything is allocated, and the deadline is polled once.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DfaStates`] when the machine would exceed
    /// `max_dfa_states`, or [`AutomataError::DeadlineExpired`].
    ///
    /// # Panics
    ///
    /// As [`Dfa::from_cover`].
    pub fn from_cover_checked(
        cover: &Cover,
        history: usize,
        budget: &AutomataBudget,
    ) -> Result<Self, AutomataError> {
        assert!(
            (1..32).contains(&history),
            "history must be in 1..32, got {history}"
        );
        assert!(
            cover.width() <= history,
            "cover width {} exceeds history {history}",
            cover.width()
        );
        let windows = 1usize << history;
        let states = 2 * windows - 1;
        if let Some(limit) = budget.max_dfa_states {
            if states > limit {
                return Err(AutomataError::DfaStates {
                    generated: states,
                    limit,
                });
            }
        }
        budget.check_deadline("window construction")?;

        // State (k, v) — the last k < history bits read, valued v — is
        // number 2^k − 1 + v; window w is number 2^history − 1 + w. This is
        // exactly BFS order from the empty prefix, bit 0 first.
        let first_window = (windows - 1) as u32;
        let mask = (windows - 1) as u32;
        let mut transitions: Vec<[u32; 2]> = Vec::with_capacity(states);
        for k in 0..history {
            let next_level = (1u32 << (k + 1)) - 1;
            for v in 0..1u32 << k {
                transitions.push([next_level + (v << 1), next_level + (v << 1 | 1)]);
            }
        }
        for w in 0..windows as u32 {
            let shifted = (w << 1) & mask;
            transitions.push([first_window + shifted, first_window + (shifted | 1)]);
        }
        let mut accept = vec![false; states];
        for (w, out) in accept[windows - 1..].iter_mut().enumerate() {
            *out = cover.covers_minterm(w as u32);
        }
        fsmgen_obs::counter("dfa", "window_states", states as u64);
        Ok(Dfa {
            transitions,
            accept,
            start: 0,
        })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Successor of `state` on input `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn step(&self, state: u32, bit: bool) -> u32 {
        self.transitions[state as usize][usize::from(bit)]
    }

    /// The Moore output (accepting flag) of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn output(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// The raw transition table (`[on-0, on-1]` per state).
    #[must_use]
    pub fn transitions(&self) -> &[[u32; 2]] {
        &self.transitions
    }

    /// The raw per-state outputs.
    #[must_use]
    pub fn outputs(&self) -> &[bool] {
        &self.accept
    }

    /// Runs the DFA over `input` from the start state and reports whether
    /// the final state accepts.
    #[must_use]
    pub fn accepts<I: IntoIterator<Item = bool>>(&self, input: I) -> bool {
        let mut s = self.start;
        for b in input {
            s = self.step(s, b);
        }
        self.accept[s as usize]
    }

    /// Removes states unreachable from the start state, renumbering in BFS
    /// order (so results are canonical for equal automata).
    // expect() is fine here: the BFS maps every successor of a visited
    // state when it is discovered, so by construction the lookups below
    // only ever see mapped states.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn trimmed(&self) -> Dfa {
        let mut map: Vec<Option<u32>> = vec![None; self.num_states()];
        let mut order: Vec<u32> = Vec::new();
        let mut queue = VecDeque::from([self.start]);
        map[self.start as usize] = Some(0);
        order.push(self.start);
        while let Some(s) = queue.pop_front() {
            for bit in [false, true] {
                let t = self.step(s, bit);
                if map[t as usize].is_none() {
                    map[t as usize] = Some(order.len() as u32);
                    order.push(t);
                    queue.push_back(t);
                }
            }
        }
        let transitions: Vec<[u32; 2]> = order
            .iter()
            .map(|&s| {
                [
                    map[self.step(s, false) as usize].expect("reachable"),
                    map[self.step(s, true) as usize].expect("reachable"),
                ]
            })
            .collect();
        let accept: Vec<bool> = order.iter().map(|&s| self.accept[s as usize]).collect();
        Dfa {
            transitions,
            accept,
            start: 0,
        }
    }

    /// Hopcroft's partition-refinement minimization (§4.6): removes
    /// unreachable states and merges indistinguishable ones. The result is
    /// the canonical minimal DFA for the language.
    #[must_use]
    pub fn minimized(&self) -> Dfa {
        match self.minimized_checked(&AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::minimized`] under an [`AutomataBudget`]. Hopcroft refinement
    /// is polynomial, so only the deadline applies; it is polled once per
    /// splitter taken off the worklist.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DeadlineExpired`] when the deadline passes
    /// mid-refinement.
    // expect() is fine here: a DFA always has at least one state, so the
    // initial partition always has at least one block.
    #[allow(clippy::expect_used)]
    pub fn minimized_checked(&self, budget: &AutomataBudget) -> Result<Dfa, AutomataError> {
        let trimmed = self.trimmed();
        let n = trimmed.num_states();

        // Reverse transitions in compressed rows: the predecessors of state
        // t on `bit` are rev_src[bit][rev_start[bit][t]..rev_start[bit][t+1]].
        let mut rev_start: [Vec<u32>; 2] = [vec![0; n + 1], vec![0; n + 1]];
        let mut rev_src: [Vec<u32>; 2] = [vec![0; n], vec![0; n]];
        for bit in 0..2 {
            let start = &mut rev_start[bit];
            for row in &trimmed.transitions {
                start[row[bit] as usize + 1] += 1;
            }
            for t in 0..n {
                start[t + 1] += start[t];
            }
            let mut fill = start.clone();
            for (s, row) in trimmed.transitions.iter().enumerate() {
                let slot = &mut fill[row[bit] as usize];
                rev_src[bit][*slot as usize] = s as u32;
                *slot += 1;
            }
        }

        // Initial partition: accepting vs non-accepting.
        let mut block_of: Vec<u32> = trimmed
            .accept
            .iter()
            .map(|&a| if a { 1 } else { 0 })
            .collect();
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for (s, &b) in block_of.iter().enumerate() {
            blocks[b as usize].push(s as u32);
        }
        // Drop an empty initial block.
        if blocks[1].is_empty() {
            blocks.pop();
        } else if blocks[0].is_empty() {
            blocks.swap_remove(0);
            block_of.fill(0);
        }

        // pending[2 * b + bit] mirrors "(b, bit) is on the worklist".
        let mut worklist: VecDeque<(u32, usize)> = VecDeque::new();
        let mut pending: Vec<bool> = vec![false; 2 * blocks.len()];
        for bit in 0..2 {
            // Put the smaller block on the worklist (classic Hopcroft).
            let smaller = (0..blocks.len() as u32)
                .min_by_key(|&b| blocks[b as usize].len())
                .expect("at least one block");
            worklist.push_back((smaller, bit));
            pending[2 * smaller as usize + bit] = true;
        }

        // Scratch reused across splitters: the splitter's preimage X as a
        // mark vector plus the list of marked states, and per-block hit
        // counts plus the list of blocks X crosses.
        let mut in_x = vec![false; n];
        let mut x: Vec<u32> = Vec::new();
        let mut hits: Vec<u32> = vec![0; blocks.len()];
        let mut affected: Vec<u32> = Vec::new();
        while let Some((splitter, bit)) = worklist.pop_front() {
            pending[2 * splitter as usize + bit] = false;
            budget.check_deadline("hopcroft refinement")?;
            // X = states with a transition on `bit` into the splitter block.
            x.clear();
            for &s in &blocks[splitter as usize] {
                let s = s as usize;
                let range = rev_start[bit][s] as usize..rev_start[bit][s + 1] as usize;
                for &p in &rev_src[bit][range] {
                    if !in_x[p as usize] {
                        in_x[p as usize] = true;
                        x.push(p);
                    }
                }
            }
            if x.is_empty() {
                continue;
            }
            // Split every block crossed by X, in ascending block order.
            affected.clear();
            for &s in &x {
                let b = block_of[s as usize] as usize;
                if hits[b] == 0 {
                    affected.push(b as u32);
                }
                hits[b] += 1;
            }
            affected.sort_unstable();
            for &b in &affected {
                let whole = hits[b as usize] as usize == blocks[b as usize].len();
                hits[b as usize] = 0;
                if whole {
                    continue;
                }
                let (inside, outside): (Vec<u32>, Vec<u32>) =
                    blocks[b as usize].iter().partition(|&&s| in_x[s as usize]);
                // Replace block b with `inside`; create a new block with
                // `outside`.
                let new_id = blocks.len() as u32;
                for &s in &outside {
                    block_of[s as usize] = new_id;
                }
                blocks[b as usize] = inside;
                blocks.push(outside);
                pending.extend([false; 2]);
                hits.push(0);
                for wbit in 0..2 {
                    // Standard refinement bookkeeping: if b was pending,
                    // both halves are now pending; otherwise add the
                    // smaller half.
                    let add = if pending[2 * b as usize + wbit]
                        || blocks[b as usize].len() > blocks[new_id as usize].len()
                    {
                        new_id
                    } else {
                        b
                    };
                    worklist.push_back((add, wbit));
                    pending[2 * add as usize + wbit] = true;
                }
            }
            for &s in &x {
                in_x[s as usize] = false;
            }
        }

        // Build the quotient automaton, renumbered in BFS order from the
        // start block for canonical output.
        let quotient_start = block_of[trimmed.start as usize];
        let num_blocks = blocks.len();
        let mut q_trans: Vec<[u32; 2]> = vec![[0; 2]; num_blocks];
        let mut q_accept: Vec<bool> = vec![false; num_blocks];
        for (b, members) in blocks.iter().enumerate() {
            let rep = members[0];
            q_trans[b] = [
                block_of[trimmed.step(rep, false) as usize],
                block_of[trimmed.step(rep, true) as usize],
            ];
            q_accept[b] = trimmed.accept[rep as usize];
        }
        let minimized = Dfa {
            transitions: q_trans,
            accept: q_accept,
            start: quotient_start,
        }
        .trimmed();
        fsmgen_obs::counter(
            "hopcroft",
            "minimized_states",
            minimized.num_states() as u64,
        );
        Ok(minimized)
    }

    /// Start-state reduction (§4.7): removes *start-up states* — states only
    /// visited while the history register is still filling — keeping just
    /// the steady-state core. "There can be up to 2^N start-up states, and
    /// they typically account for around one half of all states."
    ///
    /// The steady-state core is the set of states still visited at
    /// arbitrarily late times. It is computed by iterating the one-step
    /// image of the reachable-set sequence `S₀ = {start}`,
    /// `Sₖ₊₁ = δ(Sₖ, {0,1})` until the (eventually periodic) sequence
    /// cycles, and taking the union over the cycle. The new start state is
    /// the lowest-numbered state in the core.
    ///
    /// As the paper notes, this changes behaviour only on a bounded number
    /// of short strings; every string long enough to fill the history is
    /// classified identically (asserted by tests and the property suite).
    #[must_use]
    pub fn steady_state_reduced(&self) -> Dfa {
        match self.steady_state_reduced_checked(&AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::steady_state_reduced`] under an [`AutomataBudget`]: the
    /// reachable-subset sequence is eventually periodic but its transient
    /// plus cycle can in principle be exponential in the state count, so
    /// its length is capped by `max_dfa_states` and the deadline is polled
    /// each step.
    ///
    /// # Errors
    ///
    /// Returns an [`AutomataError`] naming the violated limit.
    pub fn steady_state_reduced_checked(
        &self,
        budget: &AutomataBudget,
    ) -> Result<Dfa, AutomataError> {
        let trimmed = self.trimmed();
        let mut seen: BTreeMap<BTreeSet<u32>, usize> = BTreeMap::new();
        let mut sequence: Vec<BTreeSet<u32>> = Vec::new();
        let mut current: BTreeSet<u32> = BTreeSet::from([trimmed.start]);
        let cycle_start = loop {
            if let Some(&at) = seen.get(&current) {
                break at;
            }
            budget.check_deadline("steady-state iteration")?;
            if let Some(limit) = budget.max_dfa_states {
                if sequence.len() + 1 > limit {
                    return Err(AutomataError::DfaStates {
                        generated: sequence.len() + 1,
                        limit,
                    });
                }
            }
            seen.insert(current.clone(), sequence.len());
            sequence.push(current.clone());
            let mut next = BTreeSet::new();
            for &s in &current {
                next.insert(trimmed.step(s, false));
                next.insert(trimmed.step(s, true));
            }
            current = next;
        };
        let mut core: BTreeSet<u32> = BTreeSet::new();
        for set in &sequence[cycle_start..] {
            core.extend(set.iter().copied());
        }
        debug_assert!(!core.is_empty());

        // Renumber: keep only core states, start at the lowest-numbered one.
        let order: Vec<u32> = core.iter().copied().collect();
        let map: BTreeMap<u32, u32> = order
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let transitions: Vec<[u32; 2]> = order
            .iter()
            .map(|&s| [map[&trimmed.step(s, false)], map[&trimmed.step(s, true)]])
            .collect();
        let accept: Vec<bool> = order.iter().map(|&s| trimmed.accept[s as usize]).collect();
        fsmgen_obs::counter("reduce", "steady_states", transitions.len() as u64);
        Ok(Dfa {
            transitions,
            accept,
            start: 0,
        })
    }

    /// `true` when the two DFAs accept the same language, decided by BFS
    /// over the product automaton.
    #[must_use]
    pub fn equivalent(&self, other: &Dfa) -> bool {
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut queue = VecDeque::from([(self.start, other.start)]);
        seen.insert((self.start, other.start));
        while let Some((a, b)) = queue.pop_front() {
            if self.accept[a as usize] != other.accept[b as usize] {
                return false;
            }
            for bit in [false, true] {
                let pair = (self.step(a, bit), other.step(b, bit));
                if seen.insert(pair) {
                    queue.push_back(pair);
                }
            }
        }
        true
    }

    /// Graphviz DOT rendering in the style of the paper's figures: each
    /// state is labelled `sN [output]`, edges are labelled with the input
    /// bit, and the start state is marked with an `init` arrow.
    #[must_use]
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  init [shape=none, label=\"init\"];");
        let _ = writeln!(out, "  init -> s{};", self.start);
        for (s, &acc) in self.accept.iter().enumerate() {
            let _ = writeln!(
                out,
                "  s{s} [shape=circle, label=\"s{s}\\n[{}]\"];",
                u8::from(acc)
            );
        }
        for (s, row) in self.transitions.iter().enumerate() {
            if row[0] == row[1] {
                let _ = writeln!(out, "  s{s} -> s{} [label=\"-\"];", row[0]);
            } else {
                let _ = writeln!(out, "  s{s} -> s{} [label=\"0\"];", row[0]);
                let _ = writeln!(out, "  s{s} -> s{} [label=\"1\"];", row[1]);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn dfa_for(re: &Regex) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(re))
    }

    /// The minimized machine for "ends in one of `patterns`" (oldest bit
    /// first) built both ways: the paper path from the figure's regex, and
    /// the window construction from the patterns as a `history`-bit cover
    /// (shorter patterns padded with leading don't-cares).
    fn minimized_both_ways(patterns: &[&[Option<bool>]], history: usize) -> [Dfa; 2] {
        let re = Regex::ending_in(patterns.iter().map(|p| Regex::pattern(p)).collect());
        let cubes = patterns
            .iter()
            .map(|p| {
                let mut cube = fsmgen_logicmin::Cube::universe();
                for (back, lit) in p.iter().rev().enumerate() {
                    if let Some(bit) = lit {
                        cube = cube.with_var(back, *bit);
                    }
                }
                cube
            })
            .collect();
        let cover = Cover::from_cubes(history, cubes);
        [
            dfa_for(&re).minimized(),
            Dfa::from_cover(&cover, history).minimized(),
        ]
    }

    #[test]
    fn subset_construction_matches_nfa() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(true), None]),
            Regex::pattern(&[None, Some(true)]),
        ]);
        let nfa = Nfa::from_regex(&re);
        let dfa = Dfa::from_nfa(&nfa);
        for len in 0..=10usize {
            for v in 0..(1u32 << len.min(16)) {
                let input: Vec<bool> = (0..len).map(|i| v >> i & 1 == 1).collect();
                assert_eq!(dfa.accepts(input.iter().copied()), nfa.accepts(&input));
            }
        }
    }

    #[test]
    fn minimization_preserves_language_and_shrinks() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(false), None, Some(true), None]),
            Regex::pattern(&[Some(false), None, None, Some(true), None]),
        ]);
        let dfa = dfa_for(&re);
        let min = dfa.minimized();
        assert!(min.num_states() <= dfa.num_states());
        assert!(min.equivalent(&dfa));
        // Minimizing twice is idempotent in size.
        assert_eq!(min.minimized().num_states(), min.num_states());
    }

    #[test]
    fn paper_figure1_state_counts() {
        // The §4.2 trace t yields predict-1 histories {01, 10, 11} at N=2.
        // Figure 1: the minimized machine has 5 states including start-up
        // states; removing them leaves 3 states.
        let [paper, window] = minimized_both_ways(&[&[Some(true), None], &[None, Some(true)]], 2);
        assert_eq!(window, paper, "window construction equals the paper path");
        for min in [paper, window] {
            assert_eq!(min.num_states(), 5, "with start-up states");
            let reduced = min.steady_state_reduced();
            assert_eq!(reduced.num_states(), 3, "after start state removal");
        }
    }

    #[test]
    fn steady_state_reduction_preserves_long_string_behaviour() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(true), None]),
            Regex::pattern(&[None, Some(true)]),
        ]);
        let min = dfa_for(&re).minimized();
        let reduced = min.steady_state_reduced();
        // For every string of length >= N (2 here), classification agrees.
        for len in 2..=10usize {
            for v in 0..(1u32 << len) {
                let input: Vec<bool> = (0..len).map(|i| v >> i & 1 == 1).collect();
                assert_eq!(
                    min.accepts(input.iter().copied()),
                    reduced.accepts(input.iter().copied()),
                    "input {input:?}"
                );
            }
        }
    }

    #[test]
    fn figure6_pattern_from_any_state() {
        // Figure 6: the ijpeg FSM capturing "1x" — from ANY state, applying
        // 1 then anything lands on an output-1 state; 0 then anything lands
        // on output-0.
        let [paper, window] = minimized_both_ways(&[&[Some(true), None]], 2);
        assert_eq!(window, paper, "window construction equals the paper path");
        for min in [paper, window] {
            let fsm = min.steady_state_reduced();
            assert_eq!(fsm.num_states(), 4, "paper shows a 4-state machine");
            for s in 0..fsm.num_states() as u32 {
                for second in [false, true] {
                    let end1 = fsm.step(fsm.step(s, true), second);
                    assert!(fsm.output(end1), "1x must predict 1 from state {s}");
                    let end0 = fsm.step(fsm.step(s, false), second);
                    assert!(!fsm.output(end0), "0x must predict 0 from state {s}");
                }
            }
        }
    }

    #[test]
    fn figure7_pattern_from_any_state() {
        // Figure 7: the gs FSM capturing 0x1x | 0xx1x (11 states in the
        // paper). From any state, traversing a matching pattern ends on 1.
        // The 4-bit pattern is padded to the 5-bit window, so the two
        // machines differ on 4-bit inputs but not in steady state.
        let machines = minimized_both_ways(
            &[
                &[Some(false), None, Some(true), None],
                &[Some(false), None, None, Some(true), None],
            ],
            5,
        );
        let [paper, window] = machines.map(|min| min.steady_state_reduced());
        assert_eq!(window, paper, "same steady-state machine both ways");
        for fsm in [paper, window] {
            assert_eq!(fsm.num_states(), 11, "paper shows an 11-state machine");
            // Check the 4-bit pattern property from every state.
            for s in 0..fsm.num_states() as u32 {
                for v in 0..16u32 {
                    let walk = [v & 8 != 0, v & 4 != 0, v & 2 != 0, v & 1 != 0];
                    let mut cur = s;
                    for b in walk {
                        cur = fsm.step(cur, b);
                    }
                    let matches_0x1x = !walk[0] && walk[2];
                    if matches_0x1x {
                        assert!(fsm.output(cur), "0x1x from state {s} must predict 1");
                    }
                }
            }
        }
    }

    #[test]
    fn trimmed_removes_unreachable() {
        let dfa = Dfa::from_parts(
            vec![[0, 1], [1, 0], [2, 2]], // state 2 unreachable
            vec![false, true, true],
            0,
        );
        let t = dfa.trimmed();
        assert_eq!(t.num_states(), 2);
        assert!(t.equivalent(&dfa));
    }

    #[test]
    fn equivalence_detects_difference() {
        let a = dfa_for(&Regex::ending_in(vec![Regex::pattern(&[Some(true)])]));
        let b = dfa_for(&Regex::ending_in(vec![Regex::pattern(&[Some(false)])]));
        assert!(!a.equivalent(&b));
        assert!(a.equivalent(&a));
    }

    #[test]
    fn dot_output_contains_all_states() {
        let re = Regex::ending_in(vec![Regex::pattern(&[Some(true), None])]);
        let fsm = dfa_for(&re).minimized().steady_state_reduced();
        let dot = fsm.to_dot("fig6");
        assert!(dot.starts_with("digraph fig6 {"));
        for s in 0..fsm.num_states() {
            assert!(dot.contains(&format!("s{s} [shape=circle")));
        }
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn from_parts_rejects_empty() {
        let _ = Dfa::from_parts(vec![], vec![], 0);
    }

    #[test]
    fn sud_counter_as_dfa_roundtrip() {
        // A 2-bit saturating counter expressed as a DFA: states 0..=3,
        // predict taken when >= 2.
        let trans: Vec<[u32; 2]> = (0u32..4)
            .map(|s| [s.saturating_sub(1), (s + 1).min(3)])
            .collect();
        let accept = vec![false, false, true, true];
        let dfa = Dfa::from_parts(trans, accept, 0);
        // The 2-bit counter is already minimal and steady.
        assert_eq!(dfa.minimized().num_states(), 4);
        assert_eq!(dfa.steady_state_reduced().num_states(), 4);
    }
}
