//! Exact two-level minimization via the Quine–McCluskey procedure.
//!
//! Prime implicants are generated from the on-set plus don't-care set (on a
//! dense table over every cube for up to 16 variables, by level-wise
//! merging beyond), then a minimum cover of the on-set is selected by
//! essential-prime extraction, dominance reduction and branch-and-bound
//! (falling back to a greedy heuristic only for covering tables too large
//! to solve exactly).

use crate::budget::{BudgetError, MinimizeBudget};
use crate::cover::Cover;
use crate::cube::{width_mask, Cube};
use crate::spec::FunctionSpec;
use std::collections::{BTreeMap, BTreeSet};

/// Residual covering problems with at most this many prime columns are
/// solved exactly by branch-and-bound; larger ones fall back to greedy.
const EXACT_COVER_LIMIT: usize = 24;

/// Generates all prime implicants of `spec` (using don't-cares for merging).
///
/// A prime implicant is a cube that covers only on/don't-care minterms and
/// cannot be enlarged (by dropping a literal) without covering an off
/// minterm.
#[must_use]
pub fn prime_implicants(spec: &FunctionSpec) -> Vec<Cube> {
    match prime_implicants_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(primes) => primes,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`prime_implicants`] with a resource budget: the minterm count is checked
/// arithmetically *before* any enumeration, and prime generation aborts
/// with the error the level-wise Quine–McCluskey merge would raise when it
/// grows past `max_primes`, or when the deadline passes.
///
/// Specs up to 16 variables (every history order the designer accepts)
/// are solved on a dense table over all `3^width` cubes, which takes two
/// bitsets: `2·3^width` bits, about 11 MB at width 16. Wider specs use the
/// level-wise merge. Both return the same primes in
/// the same (sorted) order.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn prime_implicants_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Vec<Cube>, BudgetError> {
    let width = spec.width();
    // Every minterm outside the off-set seeds the merge table (on plus
    // explicit and implicit don't-cares), so the seed count is known without
    // enumerating anything.
    let seeds = ((1u64 << width) - spec.off_set().len() as u64) as usize;
    if let Some(limit) = budget.max_minterms {
        if seeds > limit {
            return Err(BudgetError::Minterms {
                required: seeds,
                limit,
            });
        }
    }
    if let Some(limit) = budget.max_primes {
        if seeds > limit {
            return Err(BudgetError::Primes {
                generated: seeds,
                limit,
            });
        }
    }
    budget.check_deadline("prime seeding")?;

    let primes = if width <= DENSE_MAX_WIDTH {
        dense_primes(spec, budget)?
    } else {
        levelwise_primes(spec, budget)?
    };
    fsmgen_obs::counter("minimize", "qm_seed_minterms", seeds as u64);
    fsmgen_obs::counter("minimize", "qm_primes", primes.len() as u64);
    Ok(primes)
}

/// Widest spec [`prime_implicants_checked`] solves on the dense cube table
/// (the designer's `MAX_ORDER`).
const DENSE_MAX_WIDTH: usize = 16;

/// A bitset over the `3^width` cubes of a width-`width` space. Cube
/// `Σ dᵢ·3^i` has digit `dᵢ` = 0 or 1 for a literal on variable `i` and 2
/// for a free variable.
struct CubeBits(Vec<u64>);

impl CubeBits {
    fn new(cells: usize) -> Self {
        // One spare word so `read` may always touch the word after `pos`.
        CubeBits(vec![0; cells.div_ceil(64) + 1])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize, value: bool) {
        let bit = 1u64 << (i % 64);
        if value {
            self.0[i / 64] |= bit;
        } else {
            self.0[i / 64] &= !bit;
        }
    }

    /// The `len <= 64` bits starting at `pos`.
    fn read(&self, pos: usize, len: usize) -> u64 {
        let (word, shift) = (pos / 64, pos % 64);
        let mut bits = self.0[word] >> shift;
        if shift != 0 {
            bits |= self.0[word + 1] << (64 - shift);
        }
        if len < 64 {
            bits &= (1u64 << len) - 1;
        }
        bits
    }

    /// ORs `bits` into the 64 bits starting at `pos`.
    fn or_in(&mut self, pos: usize, bits: u64) {
        let (word, shift) = (pos / 64, pos % 64);
        self.0[word] |= bits << shift;
        if shift != 0 {
            self.0[word + 1] |= bits >> (64 - shift);
        }
    }
}

/// Dense prime generation. `implicant` marks the cubes whose minterms all
/// avoid the off-set, and `hits_on` the cubes covering an on minterm; a
/// cube with a free variable is an implicant iff both of its halves are,
/// and hits the on-set iff either half does. An implicant is prime iff
/// freeing any one of its literals leaves the implicant set.
///
/// QM's level-`k` merge table holds exactly the implicants with `k` free
/// variables, beside the primes already found at lower levels (don't-care
/// only ones included), so the `max_primes` check is replayed level by
/// level from per-level counts.
fn dense_primes(spec: &FunctionSpec, budget: &MinimizeBudget) -> Result<Vec<Cube>, BudgetError> {
    let width = spec.width();
    let pow3: Vec<usize> = (0..=width as u32).map(|i| 3usize.pow(i)).collect();
    let cells = pow3[width];
    // The cube of minterm m: digit i is bit i of m.
    let cube_of = |m: u32| -> usize {
        (0..width)
            .filter(|&i| m >> i & 1 == 1)
            .map(|i| pow3[i])
            .sum()
    };

    let mut implicant = CubeBits::new(cells);
    let mut hits_on = CubeBits::new(cells);
    for m in 0..1u32 << width {
        implicant.set(cube_of(m), true);
    }
    for &m in spec.off_set() {
        implicant.set(cube_of(m), false);
    }
    for &m in spec.on_set() {
        hits_on.set(cube_of(m), true);
    }

    // Fill in the free digits one variable at a time. After variable j,
    // every cube whose digits above j are literals is final: the two
    // halves of a cube with digit j free differ only in digit j, lie in
    // the two stride-long runs just below it, and are already final.
    for j in 0..width {
        budget.check_deadline("prime merging")?;
        let stride = pow3[j];
        for high in 0..1u32 << (width - j - 1) {
            let base = cube_of(high) * pow3[j + 1];
            for offset in (0..stride).step_by(64) {
                let len = (stride - offset).min(64);
                let (zero, one, free) = (
                    base + offset,
                    base + stride + offset,
                    base + 2 * stride + offset,
                );
                implicant.or_in(free, implicant.read(zero, len) & implicant.read(one, len));
                hits_on.or_in(free, hits_on.read(zero, len) | hits_on.read(one, len));
            }
        }
    }

    // Scan the implicants: count them and the primes per free-variable
    // level, keeping primes that cover an on minterm. Cubes decode six
    // digits at a time through a table of every six-digit run.
    const RUN_DIGITS: usize = 6;
    const RUN_CELLS: usize = 729;
    let runs: Vec<(u32, u32)> = (0..RUN_CELLS)
        .map(|mut run| {
            let (mut mask, mut bits) = (0u32, 0u32);
            for i in 0..RUN_DIGITS {
                let digit = (run % 3) as u32;
                run /= 3;
                if digit != 2 {
                    mask |= 1 << i;
                    bits |= digit << i;
                }
            }
            (mask, bits)
        })
        .collect();
    let mut implicants_at = vec![0usize; width + 1];
    let mut primes_at = vec![0usize; width + 1];
    let mut primes: Vec<Cube> = Vec::new();
    for (w, &word) in implicant.0.iter().enumerate() {
        if w % 4096 == 0 {
            budget.check_deadline("prime merging")?;
        }
        let mut word = word;
        while word != 0 {
            let cell = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if cell >= cells {
                break;
            }
            let (mut mask, mut bits, mut rest) = (0u32, 0u32, cell);
            for run in 0..width.div_ceil(RUN_DIGITS) {
                let (run_mask, run_bits) = runs[rest % RUN_CELLS];
                rest /= RUN_CELLS;
                mask |= run_mask << (run * RUN_DIGITS);
                bits |= run_bits << (run * RUN_DIGITS);
            }
            // Digits past the width decoded as literal 0s; drop them.
            mask &= width_mask(width);
            bits &= width_mask(width);
            let free = width - mask.count_ones() as usize;
            implicants_at[free] += 1;
            let mut literals = mask;
            let mut expandable = false;
            while literals != 0 && !expandable {
                let i = literals.trailing_zeros() as usize;
                literals &= literals - 1;
                let to_free = if bits >> i & 1 == 1 { 1 } else { 2 };
                expandable = implicant.get(cell + to_free * pow3[i]);
            }
            if !expandable {
                primes_at[free] += 1;
                if hits_on.get(cell) {
                    primes.push(Cube::new(mask, bits));
                }
            }
        }
    }

    if let Some(limit) = budget.max_primes {
        let mut earlier_primes = 0;
        for k in 0..=width {
            if implicants_at[k] == 0 {
                break;
            }
            let alive = earlier_primes + implicants_at[k];
            if alive > limit {
                return Err(BudgetError::Primes {
                    generated: alive,
                    limit,
                });
            }
            earlier_primes += primes_at[k];
        }
    }
    primes.sort_unstable();
    Ok(primes)
}

/// Level-wise Quine–McCluskey merging, for specs wider than the dense
/// table: merges adjacent cubes level by level until nothing merges.
fn levelwise_primes(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Vec<Cube>, BudgetError> {
    let width = spec.width();
    // Seed with every on and explicit-or-implicit don't-care minterm. Using
    // implicit don't-cares is required for correctness of QM merging.
    let mut current: BTreeSet<Cube> = spec
        .on_set()
        .iter()
        .chain(spec.all_dont_cares().collect::<Vec<_>>().iter())
        .map(|&m| Cube::from_minterm(m, width))
        .collect();

    let mut primes: BTreeSet<Cube> = BTreeSet::new();
    while !current.is_empty() {
        budget.check_deadline("prime merging")?;
        if let Some(limit) = budget.max_primes {
            let alive = primes.len() + current.len();
            if alive > limit {
                return Err(BudgetError::Primes {
                    generated: alive,
                    limit,
                });
            }
        }
        // Group by (mask, ones-count); only cubes in adjacent ones-count
        // groups with identical masks can merge.
        let mut groups: BTreeMap<(u32, u32), Vec<Cube>> = BTreeMap::new();
        for c in &current {
            groups
                .entry((c.mask(), c.bits().count_ones()))
                .or_default()
                .push(*c);
        }
        let mut merged_into_next: BTreeSet<Cube> = BTreeSet::new();
        let mut was_merged: BTreeSet<Cube> = BTreeSet::new();
        for (&(mask, ones), group) in &groups {
            if let Some(next_group) = groups.get(&(mask, ones + 1)) {
                for a in group {
                    for b in next_group {
                        if let Some(m) = a.merge(b) {
                            merged_into_next.insert(m);
                            was_merged.insert(*a);
                            was_merged.insert(*b);
                        }
                    }
                }
            }
        }
        for c in &current {
            if !was_merged.contains(c) {
                primes.insert(*c);
            }
        }
        current = merged_into_next;
    }

    // Keep only primes that cover at least one on minterm: primes covering
    // purely don't-care territory are useless for the cover.
    Ok(primes
        .into_iter()
        .filter(|p| spec.on_set().iter().any(|&m| p.covers_minterm(m)))
        .collect())
}

/// Minimizes `spec` exactly: returns a minimum-cube (then minimum-literal)
/// sum-of-products [`Cover`] of the on-set that avoids the off-set.
///
/// For an empty on-set, returns the empty (constant-false) cover.
///
/// The covering step is exact for residual tables of up to
/// 24 primes after essential extraction and dominance
/// reduction, which comfortably includes every predictor in the paper;
/// beyond that a deterministic greedy selection is used.
#[must_use]
pub fn minimize_exact(spec: &FunctionSpec) -> Cover {
    match minimize_exact_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(cover) => cover,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`minimize_exact`] under a [`MinimizeBudget`].
///
/// Prime generation respects the minterm/prime/deadline limits; the covering
/// step treats `max_cover_nodes` and the deadline as quality limits only —
/// when exceeded it falls back to the deterministic greedy selection, so a
/// cover that got past prime generation is always returned.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn minimize_exact_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Cover, BudgetError> {
    let width = spec.width();
    if spec.on_set().is_empty() {
        return Ok(Cover::new(width));
    }
    let primes = prime_implicants_checked(spec, budget)?;
    let chosen = select_cover(&primes, spec.on_set(), budget);
    Ok(Cover::from_cubes(width, chosen))
}

/// Minimizes `spec` while also minimizing the *effective window*: the
/// highest-numbered variable any chosen cube constrains.
///
/// Minimum-cube covers are not unique, and for FSM predictors the choice
/// matters enormously: a cube constraining variable `k` forces the
/// machine to remember `k+1` input bits, so the state count is governed
/// by the largest constrained variable, not the cube count. This variant
/// finds the smallest window `w` such that primes constraining only
/// variables `0..w` (the most recent `w` inputs) still cover the on-set,
/// then selects a minimum cover within that window.
///
/// For an empty on-set, returns the empty (constant-false) cover.
///
/// # Examples
///
/// ```
/// use fsmgen_logicmin::{qm, FunctionSpec};
///
/// // Period-3 behaviour observed at history 3: the plain minimizer picks
/// // the single cube "1--" (three-bit window); the window-aware one finds
/// // a two-cube cover over the last two bits only.
/// let spec = FunctionSpec::from_sets(3, [0b110, 0b101], [0b011])?;
/// assert_eq!(qm::minimize_exact(&spec).display(), "1--");
/// let short = qm::minimize_short_window(&spec);
/// for cube in short.cubes() {
///     assert!(cube.var(2).is_none(), "oldest bit must be unconstrained");
/// }
/// # Ok::<(), fsmgen_logicmin::SpecError>(())
/// ```
#[must_use]
pub fn minimize_short_window(spec: &FunctionSpec) -> Cover {
    match minimize_short_window_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(cover) => cover,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`minimize_short_window`] under a [`MinimizeBudget`].
///
/// Budget semantics match [`minimize_exact_checked`]: hard limits apply to
/// prime generation, while the covering step degrades to greedy selection
/// instead of failing.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn minimize_short_window_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Cover, BudgetError> {
    let width = spec.width();
    if spec.on_set().is_empty() {
        return Ok(Cover::new(width));
    }
    let primes = prime_implicants_checked(spec, budget)?;
    for window in 1..=width {
        budget.check_deadline("window search")?;
        let mask_limit: u32 = if window >= 32 {
            u32::MAX
        } else {
            (1u32 << window) - 1
        };
        let allowed: Vec<Cube> = primes
            .iter()
            .filter(|p| p.mask() & !mask_limit == 0)
            .copied()
            .collect();
        let covers_all = spec
            .on_set()
            .iter()
            .all(|&m| allowed.iter().any(|p| p.covers_minterm(m)));
        if covers_all {
            return Ok(Cover::from_cubes(
                width,
                select_cover(&allowed, spec.on_set(), budget),
            ));
        }
    }
    // Unreachable: window == width always covers, but keep a safe fallback.
    Ok(Cover::from_cubes(
        width,
        select_cover(&primes, spec.on_set(), budget),
    ))
}

/// Selects a small subset of `primes` covering every minterm in `on`.
///
/// Each round takes the essential primes, then drops dominated columns,
/// until neither makes progress; the cyclic core left is solved by
/// [`exact_cover`] or [`greedy_cover`]. Both scans go through the
/// minterm → covering-primes lists: a minterm's essential prime is among
/// its own covering primes, and a prime `b` whose remaining coverage
/// contains `a`'s must cover `a`'s first remaining minterm.
fn select_cover(primes: &[Cube], on: &BTreeSet<u32>, budget: &MinimizeBudget) -> Vec<Cube> {
    let minterms: Vec<u32> = on.iter().copied().collect();
    let n = minterms.len();
    let words = n.div_ceil(64);
    // coverage[p] = bitset (as Vec<u64>) of minterm indices prime p covers;
    // covering[i] = the primes covering minterm i, ascending.
    let mut coverage: Vec<Vec<u64>> = vec![vec![0u64; words]; primes.len()];
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (p, prime) in primes.iter().enumerate() {
        for (i, &m) in minterms.iter().enumerate() {
            if prime.covers_minterm(m) {
                coverage[p][i / 64] |= 1 << (i % 64);
                covering[i].push(p);
            }
        }
    }

    let mut uncovered: Vec<u64> = vec![0u64; words];
    for i in 0..n {
        uncovered[i / 64] |= 1 << (i % 64);
    }
    let mut chosen: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = (0..primes.len()).collect();
    let mut is_active = vec![true; primes.len()];
    // position[p] = index of prime p in `active` (valid for active primes).
    let mut position: Vec<usize> = (0..primes.len()).collect();

    loop {
        let mut progress = false;

        // Essential primes: a still-uncovered minterm covered by exactly one
        // active prime forces that prime.
        'minterm: for i in 0..n {
            if uncovered[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            let mut only = None;
            for &p in &covering[i] {
                if is_active[p] {
                    if only.is_some() {
                        continue 'minterm;
                    }
                    only = Some(p);
                }
            }
            if let Some(p) = only {
                chosen.push(p);
                for w in 0..words {
                    uncovered[w] &= !coverage[p][w];
                }
                is_active[p] = false;
                progress = true;
            }
        }
        active.retain(|&p| is_active[p]);

        if uncovered.iter().all(|&w| w == 0) {
            break;
        }

        // Column dominance: drop primes whose remaining coverage is a subset
        // of another active prime's (ties broken toward fewer literals,
        // then lower index, to stay deterministic).
        for (a, &p) in active.iter().enumerate() {
            position[p] = a;
        }
        let rem_cov: Vec<Vec<u64>> = active
            .iter()
            .map(|&p| {
                (0..words)
                    .map(|w| coverage[p][w] & uncovered[w])
                    .collect::<Vec<u64>>()
            })
            .collect();
        let mut keep = vec![true; active.len()];
        for a in 0..active.len() {
            let first = rem_cov[a]
                .iter()
                .enumerate()
                .find(|&(_, &word)| word != 0)
                .map(|(w, &word)| w * 64 + word.trailing_zeros() as usize);
            let Some(first) = first else {
                keep[a] = false;
                continue;
            };
            for &q in &covering[first] {
                if !is_active[q] {
                    continue;
                }
                let b = position[q];
                if a == b || !keep[b] {
                    continue;
                }
                let a_subset_b = (0..words).all(|w| rem_cov[a][w] & !rem_cov[b][w] == 0);
                if a_subset_b {
                    let equal = (0..words).all(|w| rem_cov[a][w] == rem_cov[b][w]);
                    let a_cost = primes[active[a]].literal_count();
                    let b_cost = primes[active[b]].literal_count();
                    let dominated = if equal {
                        b_cost < a_cost || (b_cost == a_cost && b < a)
                    } else {
                        b_cost <= a_cost
                    };
                    if dominated {
                        keep[a] = false;
                        progress = true;
                        break;
                    }
                }
            }
        }
        if keep.contains(&false) {
            for (&p, &k) in active.iter().zip(&keep) {
                is_active[p] = k;
            }
            active.retain(|&p| is_active[p]);
        }

        if !progress {
            // Cyclic core: solve exactly if small and within budget,
            // otherwise greedily. Budget exhaustion here only degrades the
            // cover quality — the greedy fallback always completes.
            let picks = if active.len() <= EXACT_COVER_LIMIT {
                exact_cover(&active, &coverage, &uncovered, primes, budget)
            } else {
                None
            };
            match picks {
                Some(picks) => chosen.extend(picks),
                None => greedy_cover(&mut chosen, &active, &coverage, &mut uncovered),
            }
            break;
        }
    }

    let mut result: Vec<Cube> = chosen.into_iter().map(|p| primes[p]).collect();
    result.sort_unstable();
    result.dedup();
    result
}

/// Branch-and-bound over subsets of `active`; returns the minimum-cost pick,
/// or `None` when the node budget or deadline was exhausted first (the
/// caller then falls back to greedy selection).
fn exact_cover(
    active: &[usize],
    coverage: &[Vec<u64>],
    uncovered: &[u64],
    primes: &[Cube],
    budget: &MinimizeBudget,
) -> Option<Vec<usize>> {
    struct Ctx<'a> {
        active: &'a [usize],
        coverage: &'a [Vec<u64>],
        primes: &'a [Cube],
        best: Option<(usize, u32, Vec<usize>)>,
        budget: &'a MinimizeBudget,
        nodes: usize,
        aborted: bool,
    }
    /// Deadline polls are amortized over this many branch nodes.
    const DEADLINE_POLL_NODES: usize = 256;
    fn cost(picks: &[usize], primes: &[Cube]) -> (usize, u32) {
        (
            picks.len(),
            picks.iter().map(|&p| primes[p].literal_count()).sum(),
        )
    }
    fn rec(ctx: &mut Ctx<'_>, idx: usize, uncovered: Vec<u64>, picks: Vec<usize>) {
        if ctx.aborted {
            return;
        }
        ctx.nodes += 1;
        if ctx
            .budget
            .max_cover_nodes
            .is_some_and(|limit| ctx.nodes > limit)
            || (ctx.nodes.is_multiple_of(DEADLINE_POLL_NODES) && ctx.budget.deadline_expired())
        {
            ctx.aborted = true;
            return;
        }
        if uncovered.iter().all(|&w| w == 0) {
            let (c, l) = cost(&picks, ctx.primes);
            let better = match &ctx.best {
                None => true,
                Some((bc, bl, _)) => c < *bc || (c == *bc && l < *bl),
            };
            if better {
                ctx.best = Some((c, l, picks));
            }
            return;
        }
        if idx >= ctx.active.len() {
            return;
        }
        if let Some((bc, _, _)) = &ctx.best {
            if picks.len() + 1 > *bc {
                return; // cannot beat the incumbent
            }
        }
        // Branch on the first uncovered minterm: some covering prime at or
        // after idx must be chosen. Simpler: include/exclude active[idx],
        // pruning branches that skip a prime nothing later can replace.
        let p = ctx.active[idx];
        let helps = (0..uncovered.len()).any(|w| ctx.coverage[p][w] & uncovered[w] != 0);
        if helps {
            let mut next_unc = uncovered.clone();
            for (u, c) in next_unc.iter_mut().zip(&ctx.coverage[p]) {
                *u &= !c;
            }
            let mut next_picks = picks.clone();
            next_picks.push(p);
            rec(ctx, idx + 1, next_unc, next_picks);
        }
        // Exclude branch: only viable if the remaining primes can still
        // cover everything.
        let mut remaining_cover = vec![0u64; uncovered.len()];
        for &q in &ctx.active[idx + 1..] {
            for (r, c) in remaining_cover.iter_mut().zip(&ctx.coverage[q]) {
                *r |= c;
            }
        }
        if (0..uncovered.len()).all(|w| uncovered[w] & !remaining_cover[w] == 0) {
            rec(ctx, idx + 1, uncovered, picks);
        }
    }

    let mut ctx = Ctx {
        active,
        coverage,
        primes,
        best: None,
        budget,
        nodes: 0,
        aborted: false,
    };
    rec(&mut ctx, 0, uncovered.to_vec(), Vec::new());
    if ctx.aborted {
        return None;
    }
    Some(ctx.best.map(|(_, _, picks)| picks).unwrap_or_default())
}

/// Deterministic greedy covering for oversized cyclic cores.
fn greedy_cover(
    chosen: &mut Vec<usize>,
    active: &[usize],
    coverage: &[Vec<u64>],
    uncovered: &mut [u64],
) {
    let words = uncovered.len();
    while uncovered.iter().any(|&w| w != 0) {
        let mut best: Option<(usize, u32)> = None; // (prime, gain)
        for &p in active {
            let gain: u32 = (0..words)
                .map(|w| (coverage[p][w] & uncovered[w]).count_ones())
                .sum();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bp, bg)) => gain > bg || (gain == bg && p < bp),
            };
            if better {
                best = Some((p, gain));
            }
        }
        let Some((p, _)) = best else { break };
        chosen.push(p);
        for w in 0..words {
            uncovered[w] &= !coverage[p][w];
        }
    }
}

/// The covering step as it was before the minterm → primes index: every
/// essential and dominance scan walks all active primes. Kept as the
/// differential oracle for [`select_cover`].
#[cfg(test)]
fn select_cover_reference(
    primes: &[Cube],
    on: &BTreeSet<u32>,
    budget: &MinimizeBudget,
) -> Vec<Cube> {
    let minterms: Vec<u32> = on.iter().copied().collect();
    let n = minterms.len();
    let words = n.div_ceil(64);
    let coverage: Vec<Vec<u64>> = primes
        .iter()
        .map(|p| {
            let mut bits = vec![0u64; words];
            for (i, &m) in minterms.iter().enumerate() {
                if p.covers_minterm(m) {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            bits
        })
        .collect();

    let mut uncovered: Vec<u64> = vec![0u64; words];
    for i in 0..n {
        uncovered[i / 64] |= 1 << (i % 64);
    }
    let mut chosen: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = (0..primes.len()).collect();

    loop {
        let mut progress = false;
        'minterm: for i in 0..n {
            if uncovered[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            let mut only = None;
            for &p in &active {
                if coverage[p][i / 64] & (1 << (i % 64)) != 0 {
                    if only.is_some() {
                        continue 'minterm;
                    }
                    only = Some(p);
                }
            }
            if let Some(p) = only {
                chosen.push(p);
                for w in 0..words {
                    uncovered[w] &= !coverage[p][w];
                }
                active.retain(|&q| q != p);
                progress = true;
            }
        }

        if uncovered.iter().all(|&w| w == 0) {
            break;
        }

        let rem_cov: Vec<Vec<u64>> = active
            .iter()
            .map(|&p| {
                (0..words)
                    .map(|w| coverage[p][w] & uncovered[w])
                    .collect::<Vec<u64>>()
            })
            .collect();
        let mut keep = vec![true; active.len()];
        for a in 0..active.len() {
            if !keep[a] || rem_cov[a].iter().all(|&w| w == 0) {
                keep[a] = rem_cov[a].iter().any(|&w| w != 0);
                continue;
            }
            for b in 0..active.len() {
                if a == b || !keep[b] {
                    continue;
                }
                let a_subset_b = (0..words).all(|w| rem_cov[a][w] & !rem_cov[b][w] == 0);
                if a_subset_b {
                    let equal = (0..words).all(|w| rem_cov[a][w] == rem_cov[b][w]);
                    let a_cost = primes[active[a]].literal_count();
                    let b_cost = primes[active[b]].literal_count();
                    let dominated = if equal {
                        b_cost < a_cost || (b_cost == a_cost && b < a)
                    } else {
                        b_cost <= a_cost
                    };
                    if dominated {
                        keep[a] = false;
                        progress = true;
                        break;
                    }
                }
            }
        }
        let new_active: Vec<usize> = active
            .iter()
            .zip(&keep)
            .filter_map(|(&p, &k)| k.then_some(p))
            .collect();
        if new_active.len() != active.len() {
            active = new_active;
        }

        if !progress {
            let picks = if active.len() <= EXACT_COVER_LIMIT {
                exact_cover(&active, &coverage, &uncovered, primes, budget)
            } else {
                None
            };
            match picks {
                Some(picks) => chosen.extend(picks),
                None => greedy_cover(&mut chosen, &active, &coverage, &mut uncovered),
            }
            break;
        }
    }

    let mut result: Vec<Cube> = chosen.into_iter().map(|p| primes[p]).collect();
    result.sort_unstable();
    result.dedup();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MintermKind;
    use proptest::prelude::*;

    /// Random incompletely specified functions: a width and a per-minterm
    /// classification (0=off, 1=on, 2=dc), as in `tests/prop.rs`.
    fn spec_strategy() -> impl Strategy<Value = FunctionSpec> {
        specs_with_kinds(0u8..3)
    }

    /// As [`spec_strategy`] with nine in ten minterms don't-care, so the
    /// merge table peaks at a higher level than its seeds.
    fn dont_care_heavy_spec_strategy() -> impl Strategy<Value = FunctionSpec> {
        specs_with_kinds((0u8..20).prop_map(|k| k.min(2)))
    }

    fn specs_with_kinds(
        kind: impl Strategy<Value = u8> + Clone + 'static,
    ) -> impl Strategy<Value = FunctionSpec> {
        (2usize..=7).prop_flat_map(move |width| {
            proptest::collection::vec(kind.clone(), 1 << width).prop_map(move |kinds| {
                let of_kind = |kind: u8| {
                    kinds
                        .iter()
                        .enumerate()
                        .filter_map(move |(m, &k)| (k == kind).then_some(m as u32))
                };
                FunctionSpec::from_sets(width, of_kind(1), of_kind(0))
                    .expect("disjoint by construction")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense table returns the level-wise merge's primes, and under
        /// every prime budget in 1..64 the same `Ok`/`Err` value. Past 64,
        /// the budget steps from one failing level's count to the next, so
        /// every level's count is compared exactly.
        #[test]
        fn dense_primes_match_levelwise_merge(
            spec in prop_oneof![spec_strategy(), dont_care_heavy_spec_strategy()],
        ) {
            let unlimited = MinimizeBudget::unlimited();
            prop_assert_eq!(
                dense_primes(&spec, &unlimited),
                levelwise_primes(&spec, &unlimited)
            );
            let with_limit = |limit| MinimizeBudget {
                max_primes: Some(limit),
                ..MinimizeBudget::default()
            };
            for limit in 1..64 {
                prop_assert_eq!(
                    prime_implicants_checked(&spec, &with_limit(limit)),
                    levelwise_primes(&spec, &with_limit(limit)),
                    "max_primes {}", limit
                );
            }
            let mut limit = 64;
            loop {
                let expected = levelwise_primes(&spec, &with_limit(limit));
                prop_assert_eq!(
                    prime_implicants_checked(&spec, &with_limit(limit)),
                    expected.clone(),
                    "max_primes {}", limit
                );
                match expected {
                    Err(BudgetError::Primes { generated, .. }) => limit = generated,
                    _ => break,
                }
            }
        }

        /// The indexed covering step makes every choice the full scans
        /// make, on the exact path and on the greedy fallback.
        #[test]
        fn select_cover_matches_reference(
            spec in spec_strategy(),
            nodes in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        ) {
            let primes = prime_implicants(&spec);
            let budget = MinimizeBudget {
                max_cover_nodes: nodes,
                ..MinimizeBudget::default()
            };
            prop_assert_eq!(
                select_cover(&primes, spec.on_set(), &budget),
                select_cover_reference(&primes, spec.on_set(), &budget)
            );
        }
    }

    fn verify(spec: &FunctionSpec, cover: &Cover) {
        for m in 0..(1u64 << spec.width()) as u32 {
            match spec.kind(m) {
                MintermKind::On => assert!(cover.covers_minterm(m), "on minterm {m:b} uncovered"),
                MintermKind::Off => {
                    assert!(!cover.covers_minterm(m), "off minterm {m:b} covered")
                }
                MintermKind::DontCare => {}
            }
        }
    }

    #[test]
    fn markov_shaped_wide_specs_match_references() {
        // Designer-like specs: most histories unobserved (implicit
        // don't-cares), the observed ones split between on and off. These
        // reach the multi-run cube decode that the 2..=7-wide property
        // specs do not.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for width in 8..=11 {
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for m in 0..1u32 << width {
                match next() % 8 {
                    0 | 1 => on.push(m),
                    2 => off.push(m),
                    _ => {}
                }
            }
            let spec = FunctionSpec::from_sets(width, on, off).unwrap();
            let unlimited = MinimizeBudget::unlimited();
            let primes = dense_primes(&spec, &unlimited).unwrap();
            assert_eq!(primes, levelwise_primes(&spec, &unlimited).unwrap());
            assert_eq!(
                select_cover(&primes, spec.on_set(), &unlimited),
                select_cover_reference(&primes, spec.on_set(), &unlimited),
                "width {width}"
            );
        }
    }

    #[test]
    fn paper_running_example() {
        // {00 -> 0, 01 -> 1, 10 -> 1, 11 -> 1} minimizes to (x1) + (1x).
        let spec = FunctionSpec::from_sets(2, [0b01, 0b10, 0b11], [0b00]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.literal_count(), 2);
        let mut terms: Vec<String> = cover.cubes().iter().map(|c| c.display(2)).collect();
        terms.sort();
        assert_eq!(terms, vec!["-1", "1-"]);
    }

    #[test]
    fn empty_on_set_is_constant_false() {
        let spec = FunctionSpec::from_sets(3, [], [0, 1, 2]).unwrap();
        let cover = minimize_exact(&spec);
        assert!(cover.is_empty());
    }

    #[test]
    fn all_on_is_tautology_cube() {
        let spec = FunctionSpec::from_sets(2, [0, 1, 2, 3], []).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.cubes()[0].literal_count(), 0);
    }

    #[test]
    fn dont_cares_enable_larger_cubes() {
        // on = {111}, off = {000}; everything else dc. A single-literal cube
        // like "1--" suffices.
        let spec = FunctionSpec::from_sets(3, [0b111], [0b000]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.literal_count(), 1);
    }

    #[test]
    fn xor_needs_two_cubes() {
        let spec = FunctionSpec::from_sets(2, [0b01, 0b10], [0b00, 0b11]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.literal_count(), 4);
    }

    #[test]
    fn three_var_xor_worst_case() {
        let on: Vec<u32> = (0u32..8).filter(|m| m.count_ones() % 2 == 1).collect();
        let off: Vec<u32> = (0u32..8).filter(|m| m.count_ones() % 2 == 0).collect();
        let spec = FunctionSpec::from_sets(3, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 4); // parity is incompressible
    }

    #[test]
    fn cyclic_covering_problem() {
        // The classic cyclic core example where no prime is essential.
        // f = Σm(0,1,2,5,6,7) over 3 vars.
        let on = [0, 1, 2, 5, 6, 7];
        let off = [3, 4];
        let spec = FunctionSpec::from_sets(3, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 3, "cyclic core minimum is 3 cubes");
    }

    #[test]
    fn primes_are_maximal() {
        let spec = FunctionSpec::from_sets(3, [0b000, 0b001, 0b011], [0b111, 0b100]).unwrap();
        let primes = prime_implicants(&spec);
        for p in &primes {
            // No prime may be expandable: removing any literal must hit the
            // off-set.
            for var in 0..3 {
                if p.var(var).is_some() {
                    let bigger = p.without_var(var);
                    let hits_off = spec.off_set().iter().any(|&m| bigger.covers_minterm(m));
                    assert!(hits_off, "prime {} expandable at var {var}", p.display(3));
                }
            }
            // And primes must not cover off minterms.
            for &m in spec.off_set() {
                assert!(!p.covers_minterm(m));
            }
        }
    }

    #[test]
    fn minterm_budget_rejects_before_enumeration() {
        // 8 variables, tiny off-set: 256 - 2 = 254 seeds needed.
        let spec = FunctionSpec::from_sets(8, [0b1111_0000], [0, 1]).unwrap();
        let budget = MinimizeBudget {
            max_minterms: Some(100),
            ..MinimizeBudget::default()
        };
        assert_eq!(
            minimize_exact_checked(&spec, &budget),
            Err(BudgetError::Minterms {
                required: 254,
                limit: 100
            })
        );
    }

    #[test]
    fn prime_budget_aborts_merging() {
        let spec = FunctionSpec::from_sets(6, [0b111111], [0]).unwrap();
        let budget = MinimizeBudget {
            max_primes: Some(4),
            ..MinimizeBudget::default()
        };
        assert!(matches!(
            prime_implicants_checked(&spec, &budget),
            Err(BudgetError::Primes { .. })
        ));
    }

    #[test]
    fn cover_node_budget_degrades_to_greedy_but_stays_correct() {
        // Cyclic core with no essentials: a one-node budget forces the
        // greedy fallback, which must still produce a valid cover.
        let spec = FunctionSpec::from_sets(3, [0, 1, 2, 5, 6, 7], [3, 4]).unwrap();
        let budget = MinimizeBudget {
            max_cover_nodes: Some(1),
            ..MinimizeBudget::default()
        };
        let cover = minimize_exact_checked(&spec, &budget).unwrap();
        verify(&spec, &cover);
    }

    #[test]
    fn generous_budget_matches_unlimited() {
        let spec = FunctionSpec::from_sets(3, [0, 1, 2, 5, 6, 7], [3, 4]).unwrap();
        let budget = MinimizeBudget {
            max_minterms: Some(1 << 20),
            max_primes: Some(1 << 20),
            max_cover_nodes: Some(1 << 20),
            deadline: None,
        };
        assert_eq!(
            minimize_exact_checked(&spec, &budget).unwrap(),
            minimize_exact(&spec)
        );
        assert_eq!(
            minimize_short_window_checked(&spec, &budget).unwrap(),
            minimize_short_window(&spec)
        );
    }

    #[test]
    fn expired_deadline_fails_fast() {
        use std::time::{Duration, Instant};
        let spec = FunctionSpec::from_sets(3, [0b111], [0b000]).unwrap();
        let budget = MinimizeBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..MinimizeBudget::default()
        };
        assert!(matches!(
            minimize_exact_checked(&spec, &budget),
            Err(BudgetError::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn wide_sparse_function() {
        // 8 variables, sparse specification like a Markov table would give.
        let on = [0b1111_0000, 0b1111_0001, 0b1111_0011, 0b0000_1111];
        let off = [0b0000_0000, 0b1010_1010, 0b0101_0101];
        let spec = FunctionSpec::from_sets(8, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert!(cover.len() <= 2, "sparse spec should compress, got {cover}");
    }
}
