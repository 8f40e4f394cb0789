//! `design_cold`: the paper's flow, serial and uncached — trace →
//! Markov model → pattern sets → minimized cover → regex → NFA → DFA →
//! Hopcroft → steady-state reduction — over the six branch benchmarks at
//! histories 8, 10 and 12.
//!
//! The untraced run times `Designer::design_from_trace` whole. The
//! traced run repeats every design stage by stage through the same
//! public functions the designer calls, checks the final machine equals
//! the designer's, and reports each stage's time and size.

use crate::expected::Expected;
use crate::stats::{fastest, ms, Report};
use fsmgen::{Design, Designer, MarkovModel, PatternConfig, PatternSets};
use fsmgen_automata::{machine_to_table, Dfa, Nfa, Regex};
use fsmgen_farm::Fnv1a;
use fsmgen_logicmin::{minimize, Algorithm, Cover};
use fsmgen_traces::{BitTrace, HistoryRegister};
use fsmgen_workloads::{BranchBenchmark, Input};
use std::time::{Duration, Instant};

/// Outcome bits per benchmark trace.
pub const TRACE_LEN: usize = 100_000;
/// The history orders designed for every benchmark.
pub const HISTORIES: [usize; 3] = [8, 10, 12];

/// One outcome trace per benchmark, in `BranchBenchmark::ALL` order.
pub struct Inputs {
    traces: Vec<BitTrace>,
}

/// Benchmark `i`'s trace comes from `Input(seed + i)`.
pub fn inputs(seed: u64) -> Inputs {
    let traces = BranchBenchmark::ALL
        .iter()
        .zip(seed..)
        .map(|(bench, input)| outcome_bits(*bench, input, TRACE_LEN))
        .collect();
    Inputs { traces }
}

/// The first `len` taken/not-taken outcomes of `bench` on `Input(input)`.
pub fn outcome_bits(bench: BranchBenchmark, input: u64, len: usize) -> BitTrace {
    bench
        .trace(Input(input), len)
        .iter()
        .take(len)
        .map(|e| e.taken)
        .collect()
}

/// The (benchmark index, history) pairs of one pass, in run order.
fn pairs() -> Vec<(usize, usize)> {
    (0..BranchBenchmark::ALL.len())
        .flat_map(|b| HISTORIES.iter().map(move |&h| (b, h)))
        .collect()
}

/// FNV-1a of the machine table: the digest `expected.txt` commits.
fn digest(fsm: &Dfa) -> u64 {
    let mut h = Fnv1a::new();
    h.write(machine_to_table(fsm).as_bytes());
    h.finish()
}

fn pair_name(b: usize, h: usize) -> String {
    format!("{}/h{h}", BranchBenchmark::ALL[b].name())
}

/// Index of `(b, h)` in `pairs()`.
fn pair_index(b: usize, h: usize) -> usize {
    b * HISTORIES.len()
        + HISTORIES
            .iter()
            .position(|&x| x == h)
            .expect("a designed history")
}

/// The designs of slot `k`: benchmark `k % 6` at h12, then three
/// sweeps of every benchmark at h8 with one benchmark at h10 between
/// each two. Six slots make a round that designs every pair at least
/// once, and the cheap pairs' samples spread over the whole phase
/// instead of bunching at its end.
fn slot(k: usize) -> Vec<(usize, usize)> {
    let n = BranchBenchmark::ALL.len();
    let h8_sweep = (0..n).map(|b| (b, 8));
    let mut out = vec![(k % n, 12)];
    out.extend(h8_sweep.clone());
    out.push((k % (n / 2), 10));
    out.extend(h8_sweep.clone());
    out.push((k % (n / 2) + n / 2, 10));
    out.extend(h8_sweep);
    out
}

/// Whole designs timed slot by slot, so that the caller can interleave
/// slots with other work and each pair's samples spread over the run.
pub struct Timer<'a> {
    inputs: &'a Inputs,
    samples: Vec<Vec<f64>>,
    results: Vec<Vec<Result<Design, String>>>,
    slots: usize,
    busy: Duration,
}

impl<'a> Timer<'a> {
    /// One untimed design first lets the allocator and caches settle.
    pub fn new(inputs: &'a Inputs) -> Timer<'a> {
        let _ = std::hint::black_box(Designer::new(10).design_from_trace(&inputs.traces[0]));
        let pairs = pairs().len();
        Timer {
            inputs,
            samples: vec![Vec::new(); pairs],
            results: vec![Vec::new(); pairs],
            slots: 0,
            busy: Duration::ZERO,
        }
    }

    /// Designs the next slot.
    pub fn step(&mut self) {
        for (b, h) in slot(self.slots) {
            let t = Instant::now();
            let design = Designer::new(h).design_from_trace(&self.inputs.traces[b]);
            let elapsed = t.elapsed();
            self.busy += elapsed;
            let i = pair_index(b, h);
            self.samples[i].push(ms(elapsed));
            self.results[i].push(design.map_err(|e| e.to_string()));
        }
        self.slots += 1;
    }

    /// The share of `budget` spent so far, or `None` once done: a whole
    /// round at least, and another slot of average length would end
    /// beyond `budget`.
    pub fn progress(&self, budget: Duration) -> Option<f64> {
        let done = self.slots >= BranchBenchmark::ALL.len()
            && self.busy + self.busy / self.slots as u32 > budget;
        (!done).then(|| self.busy.as_secs_f64() / budget.as_secs_f64())
    }

    /// Untraced: `design_wall_s` and the per-history means, plus output
    /// checks on every design. A pair's time is its fastest design, not
    /// the median of its designs: every design of a pair is the same
    /// deterministic work, and on a shared host other tenants slow it in
    /// bursts of a few hundred milliseconds, so the mix of slowed and
    /// unslowed samples, and with it their median, shifts from run to run.
    /// A history's time is the mean over the six benchmarks, not their
    /// median, which would rest on the two middle benchmarks' inputs.
    pub fn report(self, expected: Option<&Expected>) -> Report {
        let (inputs, samples, results) = (self.inputs, self.samples, self.results);
        let mut report = Report::default();
        let pairs = pairs();
        let per_pair: Vec<f64> = samples.iter().map(|s| fastest(s)).collect();
        report.metric("design_wall_s", per_pair.iter().sum::<f64>() / 1e3, "s");
        for h in HISTORIES {
            let at_h: Vec<f64> = pairs
                .iter()
                .zip(&per_pair)
                .filter(|((_, ph), _)| *ph == h)
                .map(|(_, &t)| t)
                .collect();
            let mean = at_h.iter().sum::<f64>() / at_h.len() as f64;
            report.metric(&format!("design_h{h}_ms"), mean, "ms");
        }
        for (i, &(b, h)) in pairs.iter().enumerate() {
            let first = results[i][0].as_ref();
            let first_digest = first.map(|d| digest(d.fsm()));
            for later in &results[i] {
                report.op(match (later, first_digest) {
                    (Err(e), _) => Err(format!("design {}: {e}", pair_name(b, h))),
                    (Ok(d), Ok(first)) if digest(d.fsm()) != first => Err(format!(
                        "design {}: repeat gave another machine",
                        pair_name(b, h)
                    )),
                    (Ok(d), _) => check_design(d, &inputs.traces[b], h)
                        .map_err(|e| format!("design {}: {e}", pair_name(b, h))),
                });
            }
            if let (Some(expected), Ok(digest)) = (expected, first_digest) {
                report.op(expected.check(
                    &format!("design/{}", pair_name(b, h)),
                    &format!("{digest:016x}"),
                ));
            }
        }
        report
    }
}

/// The cover agrees with the pattern sets, and stepped over its own
/// trace the reduced machine outputs cover(last h bits) once h bits are
/// in.
fn check_design(design: &Design, trace: &BitTrace, h: usize) -> Result<(), String> {
    let spec = design.pattern_sets().spec();
    let cover = design.cover();
    if let Some(m) = spec.on_set().iter().find(|&&m| !cover.covers_minterm(m)) {
        return Err(format!("cover misses on-set minterm {m}"));
    }
    if let Some(m) = spec.off_set().iter().find(|&&m| cover.covers_minterm(m)) {
        return Err(format!("cover takes off-set minterm {m}"));
    }
    step_check(design.fsm(), cover, trace, h)
}

fn step_check(fsm: &Dfa, cover: &Cover, trace: &BitTrace, h: usize) -> Result<(), String> {
    let table: Vec<bool> = (0..1u32 << h).map(|m| cover.covers_minterm(m)).collect();
    let mut history = HistoryRegister::new(h);
    let mut state = fsm.start();
    for (step, bit) in trace.iter().enumerate() {
        state = fsm.step(state, bit);
        history.push(bit);
        if step + 1 >= h && fsm.output(state) != table[history.value() as usize] {
            return Err(format!(
                "machine output differs from the cover at step {step}"
            ));
        }
    }
    Ok(())
}

/// Per-stage times and sizes summed over one pass.
#[derive(Default)]
struct Stages {
    markov: f64,
    patterns: f64,
    minimize: f64,
    minimize_h12: f64,
    nfa: f64,
    dfa: f64,
    dfa_h12: f64,
    hopcroft: f64,
    reduce: f64,
    histories: u64,
    cubes: u64,
    literals: u64,
    nfa_states: u64,
    dfa_states: u64,
    hopcroft_states: u64,
    reduced_states: u64,
}

/// Runs one design stage by stage, adding to `acc`, and returns the
/// final machine.
fn staged_design(trace: &BitTrace, h: usize, acc: &mut Stages) -> Result<Dfa, String> {
    let t = Instant::now();
    let model = MarkovModel::from_bit_trace(h, trace).map_err(|e| e.to_string())?;
    acc.markov += ms(t.elapsed());
    acc.histories += model.observed_histories() as u64;

    let t = Instant::now();
    let sets =
        PatternSets::from_model(&model, &PatternConfig::default()).map_err(|e| e.to_string())?;
    acc.patterns += ms(t.elapsed());

    let t = Instant::now();
    let cover = minimize(sets.spec(), Algorithm::default());
    let dt = ms(t.elapsed());
    acc.minimize += dt;
    if h == 12 {
        acc.minimize_h12 += dt;
    }
    acc.cubes += cover.len() as u64;
    acc.literals += u64::from(cover.literal_count());
    if cover.is_empty() {
        // The designer's constant-false machine: no automaton to build.
        return Ok(Dfa::from_parts(vec![[0, 0]], vec![false], 0));
    }

    // Regex building is folded into the NFA stage time.
    let t = Instant::now();
    let patterns: Vec<Regex> = cover
        .cubes()
        .iter()
        .map(|cube| {
            let bits: Vec<Option<bool>> = (0..h).rev().map(|var| cube.var(var)).collect();
            Regex::pattern(&bits)
        })
        .collect();
    let nfa = Nfa::from_regex(&Regex::ending_in(patterns));
    acc.nfa += ms(t.elapsed());
    acc.nfa_states += nfa.num_states() as u64;

    let t = Instant::now();
    let dfa = Dfa::from_nfa(&nfa);
    let dt = ms(t.elapsed());
    acc.dfa += dt;
    if h == 12 {
        acc.dfa_h12 += dt;
    }
    acc.dfa_states += dfa.num_states() as u64;

    let t = Instant::now();
    let minimized = dfa.minimized();
    acc.hopcroft += ms(t.elapsed());
    acc.hopcroft_states += minimized.num_states() as u64;

    let t = Instant::now();
    let reduced = minimized.steady_state_reduced();
    acc.reduce += ms(t.elapsed());
    acc.reduced_states += reduced.num_states() as u64;
    Ok(reduced)
}

/// Traced: one untraced pass for reference, then one pass stage by
/// stage. Every staged machine must equal the designer's.
pub fn run_traced(inputs: &Inputs) -> Report {
    let mut report = Report::default();
    let mut round = Timer::new(inputs);
    while round.progress(Duration::ZERO).is_some() {
        round.step();
    }
    let untraced_ms: f64 = round.samples.iter().map(|s| fastest(s)).sum();
    let results = round.results;

    let mut acc = Stages::default();
    let start = Instant::now();
    let staged: Vec<Result<Dfa, String>> = pairs()
        .iter()
        .map(|&(b, h)| staged_design(&inputs.traces[b], h, &mut acc))
        .collect();
    let traced_ms = ms(start.elapsed());

    for (i, (&(b, h), staged)) in pairs().iter().zip(&staged).enumerate() {
        report.op(match (staged, &results[i][0]) {
            (Ok(fsm), Ok(design)) if fsm == design.fsm() => Ok(()),
            (Ok(_), Ok(_)) => Err(format!(
                "staged {} differs from the designer",
                pair_name(b, h)
            )),
            (Err(e), _) | (_, Err(e)) => Err(format!("staged {}: {e}", pair_name(b, h))),
        });
    }

    report.overhead_frac = Some(traced_ms / untraced_ms - 1.0);
    report.metric("core.markov_ms", acc.markov, "ms");
    report.metric("core.patterns_ms", acc.patterns, "ms");
    report.metric("logicmin.minimize_ms", acc.minimize, "ms");
    report.metric("logicmin.minimize_ms.h12", acc.minimize_h12, "ms");
    report.metric("automata.nfa_ms", acc.nfa, "ms");
    report.metric("automata.dfa_ms", acc.dfa, "ms");
    report.metric("automata.dfa_ms.h12", acc.dfa_h12, "ms");
    report.metric("automata.hopcroft_ms", acc.hopcroft, "ms");
    report.metric("automata.reduce_ms", acc.reduce, "ms");
    report.metric("core.histories", acc.histories as f64, "count");
    report.metric("logicmin.cubes", acc.cubes as f64, "count");
    report.metric("logicmin.literals", acc.literals as f64, "count");
    report.metric("automata.nfa_states", acc.nfa_states as f64, "count");
    report.metric("automata.dfa_states", acc.dfa_states as f64, "count");
    report.metric(
        "automata.hopcroft_states",
        acc.hopcroft_states as f64,
        "count",
    );
    report.metric(
        "automata.reduced_states",
        acc.reduced_states as f64,
        "count",
    );
    report.metric(
        "automata.dfa_useful_ratio",
        acc.hopcroft_states as f64 / acc.dfa_states as f64,
        "ratio",
    );
    report.metric(
        "automata.reduce_ratio",
        acc.reduced_states as f64 / acc.hopcroft_states as f64,
        "ratio",
    );
    report
}

/// `design/<bench>/h<h>` → machine digest, for recording the expected
/// outputs at the default seed.
pub fn digests(inputs: &Inputs) -> Vec<(String, String)> {
    pairs()
        .iter()
        .map(|&(b, h)| {
            let value = match Designer::new(h).design_from_trace(&inputs.traces[b]) {
                Ok(d) => format!("{:016x}", digest(d.fsm())),
                Err(e) => format!("error:{e}"),
            };
            (format!("design/{}", pair_name(b, h)), value)
        })
        .collect()
}
