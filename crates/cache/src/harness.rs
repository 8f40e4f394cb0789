//! Memory-access workload generation and the cache-exclusion experiment
//! harness, including training a custom FSM exclusion policy with the
//! paper's design flow.

use crate::cache::{Cache, CacheStats};
use crate::policy::AllocationPolicy;
use fsmgen::{Design, DesignError, Designer, MarkovModel};
use fsmgen_traces::HistoryRegister;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One memory access: the load/store instruction and the byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// Instruction address.
    pub pc: u64,
    /// Effective byte address.
    pub addr: u64,
}

/// Access-pattern model of one static memory instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Streaming: a new line every time, never reused — the classic
    /// cache-polluting behaviour exclusion targets.
    Stream {
        /// Bytes between consecutive accesses.
        stride: u64,
    },
    /// A resident working set revisited round-robin (reused heavily).
    LoopingArray {
        /// Working-set size in bytes.
        bytes: u64,
        /// Access stride within the array.
        stride: u64,
    },
    /// Uniform random accesses within a (large) region.
    RandomRegion {
        /// Region size in bytes.
        bytes: u64,
    },
}

/// A synthetic memory workload: static instructions executed round-robin.
#[derive(Debug, Clone)]
pub struct MemoryWorkload {
    instructions: Vec<(u64, AccessPattern, u64)>, // (pc, pattern, base)
}

impl MemoryWorkload {
    /// Builds a workload from `(pc, pattern)` pairs; each instruction gets
    /// its own disjoint address region.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is empty.
    #[must_use]
    pub fn new(instructions: Vec<(u64, AccessPattern)>) -> Self {
        assert!(!instructions.is_empty(), "a workload needs instructions");
        MemoryWorkload {
            instructions: instructions
                .into_iter()
                .enumerate()
                .map(|(i, (pc, p))| (pc, p, 0x1000_0000 + (i as u64) * 0x100_0000))
                .collect(),
        }
    }

    /// The mixed workload of the §2.4 story: a resident array being
    /// polluted by streams. Deterministic per seed.
    #[must_use]
    pub fn pollution_mix() -> Self {
        MemoryWorkload::new(vec![
            (
                0x100,
                AccessPattern::LoopingArray {
                    bytes: 6 * 1024,
                    stride: 32,
                },
            ),
            (0x104, AccessPattern::Stream { stride: 64 }),
            (0x108, AccessPattern::Stream { stride: 32 }),
            (
                0x10c,
                AccessPattern::LoopingArray {
                    bytes: 1024,
                    stride: 32,
                },
            ),
            (
                0x110,
                AccessPattern::RandomRegion {
                    bytes: 4 * 1024 * 1024,
                },
            ),
        ])
    }

    /// Generates `n` accesses.
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64) -> Vec<MemoryAccess> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counters = vec![0u64; self.instructions.len()];
        let mut out = Vec::with_capacity(n);
        let mut i = 0usize;
        while out.len() < n {
            let idx = i % self.instructions.len();
            let (pc, pattern, base) = &self.instructions[idx];
            let step = counters[idx];
            counters[idx] += 1;
            let addr = match pattern {
                AccessPattern::Stream { stride } => base + step * stride,
                AccessPattern::LoopingArray { bytes, stride } => {
                    base + (step * stride) % (*bytes).max(1)
                }
                AccessPattern::RandomRegion { bytes } => base + rng.random_range(0..*bytes),
            };
            out.push(MemoryAccess { pc: *pc, addr });
            i += 1;
        }
        out
    }
}

/// Runs a cache with an allocation policy over an access stream.
pub fn run_cache<P: AllocationPolicy + ?Sized>(
    cache: &mut Cache,
    policy: &mut P,
    accesses: &[MemoryAccess],
) -> CacheStats {
    for a in accesses {
        let allocate = cache.probe(a.addr) || policy.should_allocate(a.pc);
        let (_, report) = cache.access(a.pc, a.addr, allocate);
        if let Some(r) = report {
            policy.observe(r);
        }
    }
    *cache.stats()
}

/// Builds the per-instruction reuse Markov model by running the cache
/// with always-allocate and recording, per allocating instruction, the
/// history of "line reused before eviction" bits — the §4 training input
/// for the FSM exclusion policy.
#[must_use]
pub fn reuse_model(cache: &mut Cache, accesses: &[MemoryAccess], order: usize) -> MarkovModel {
    let mut model = MarkovModel::new(order);
    let mut histories: BTreeMap<u64, HistoryRegister> = BTreeMap::new();
    for a in accesses {
        let (_, report) = cache.access(a.pc, a.addr, true);
        if let Some(r) = report {
            let h = histories
                .entry(r.allocator_pc)
                .or_insert_with(|| HistoryRegister::new(order));
            if h.is_full() {
                model.observe(h.value(), r.reused);
            }
            h.push(r.reused);
        }
    }
    model
}

/// Designs an FSM exclusion machine from a training access stream.
///
/// # Errors
///
/// Propagates [`DesignError`] when the reuse stream is too short or
/// unconstrained.
pub fn design_exclusion_fsm(
    training: &[MemoryAccess],
    cache_geometry: &Cache,
    order: usize,
) -> Result<Design, DesignError> {
    let mut cache = cache_geometry.clone();
    let model = reuse_model(&mut cache, training, order);
    // Exclusion costs are asymmetric: wrongly bypassing a reusable line
    // costs a miss plus a later refill, while wrongly allocating a dead
    // line costs one eviction. Also, the training run (always-allocate)
    // under-reports reuse because pollution evicts resident lines early.
    // Both push the operating point toward "allocate unless clearly
    // streaming": predict-allocate whenever P[reused | history] >= 0.3.
    Designer::new(order)
        .prob_threshold(0.3)
        .design_from_model(model)
}

/// [`design_exclusion_fsm`] routed through a design `farm`: the reuse
/// model is built exactly as in the serial flow, then designed as a farm
/// job so repeated geometries and training streams hit the design cache —
/// including warm hits from a durable store the caller attached to the
/// farm.
///
/// # Errors
///
/// Returns [`fsmgen_farm::FarmError`], which wraps the serial flow's
/// [`DesignError`] and adds the farm's own failure modes (contained
/// worker panics, injected faults).
pub fn design_exclusion_fsm_farmed(
    training: &[MemoryAccess],
    cache_geometry: &Cache,
    order: usize,
    farm: &fsmgen_farm::Farm,
) -> Result<Design, fsmgen_farm::FarmError> {
    let mut cache = cache_geometry.clone();
    let model = reuse_model(&mut cache, training, order);
    let designer = Designer::new(order).prob_threshold(0.3);
    let job = fsmgen_farm::DesignJob::from_model(0, model, designer);
    let mut report = farm.design_batch(vec![job]);
    let outcome = report
        .outcomes
        .pop()
        .unwrap_or_else(|| unreachable!("one job in, one outcome out"));
    outcome.result.map(|d| (*d).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysAllocate, CounterExclusion, FsmExclusion};

    #[test]
    fn workload_is_deterministic() {
        let w = MemoryWorkload::pollution_mix();
        assert_eq!(w.generate(1_000, 7), w.generate(1_000, 7));
        assert_ne!(w.generate(1_000, 7), w.generate(1_000, 8));
    }

    #[test]
    fn counter_exclusion_beats_always_allocate_on_pollution() {
        let w = MemoryWorkload::pollution_mix();
        let accesses = w.generate(60_000, 1);
        let base = run_cache(&mut Cache::embedded_8k(), &mut AlwaysAllocate, &accesses);
        let excl = run_cache(
            &mut Cache::embedded_8k(),
            &mut CounterExclusion::new(3, 0),
            &accesses,
        );
        assert!(
            excl.hit_rate() > base.hit_rate() + 0.03,
            "exclusion {:.3} vs baseline {:.3}",
            excl.hit_rate(),
            base.hit_rate()
        );
        assert!(excl.bypasses > 0, "streams must be bypassed");
    }

    #[test]
    fn designed_fsm_exclusion_matches_or_beats_counters() {
        let w = MemoryWorkload::pollution_mix();
        let train = w.generate(60_000, 1);
        let eval = w.generate(60_000, 2);

        let design = design_exclusion_fsm(&train, &Cache::embedded_8k(), 4)
            .expect("reuse stream is long enough");
        let mut fsm_policy = FsmExclusion::new(design.into_fsm(), "fsm-excl-h4");
        let fsm = run_cache(&mut Cache::embedded_8k(), &mut fsm_policy, &eval);

        let counter = run_cache(
            &mut Cache::embedded_8k(),
            &mut CounterExclusion::new(3, 0),
            &eval,
        );
        let base = run_cache(&mut Cache::embedded_8k(), &mut AlwaysAllocate, &eval);

        assert!(
            fsm.hit_rate() > base.hit_rate() + 0.10,
            "FSM must clearly beat always-allocate: {:.3} vs {:.3}",
            fsm.hit_rate(),
            base.hit_rate()
        );
        // The online counter adapts during the run while the FSM is fixed
        // at design time, so a small gap is expected; competitive means
        // within a few points.
        assert!(
            fsm.hit_rate() > counter.hit_rate() - 0.04,
            "FSM {:.3} should be competitive with counters {:.3}",
            fsm.hit_rate(),
            counter.hit_rate()
        );
    }

    #[test]
    fn farmed_exclusion_design_matches_serial_and_warm_starts() {
        let w = MemoryWorkload::pollution_mix();
        let train = w.generate(40_000, 1);
        let dir = std::env::temp_dir().join(format!("fsmgen-cache-warm-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exclusion.flog");
        let store = fsmgen_farm::StoreConfig::default();
        let config = fsmgen_farm::FarmConfig {
            workers: 1,
            cache_capacity: 8,
        };

        let serial = design_exclusion_fsm(&train, &Cache::embedded_8k(), 4)
            .expect("reuse stream is long enough");
        let farm = fsmgen_farm::Farm::new(config);
        farm.attach_store(&path, store).expect("store opens");
        let farmed = design_exclusion_fsm_farmed(&train, &Cache::embedded_8k(), 4, &farm)
            .expect("farmed design succeeds");
        assert_eq!(serial.fsm(), farmed.fsm(), "farmed flow must match serial");
        drop(farm);

        // Round-trip through the durable store: a second farm serves the
        // same design warm, without redesigning.
        let warm_farm = fsmgen_farm::Farm::new(config);
        let recovered = warm_farm.attach_store(&path, store).expect("store reopens");
        assert_eq!(recovered.recovered, 1);
        let warm = design_exclusion_fsm_farmed(&train, &Cache::embedded_8k(), 4, &warm_farm)
            .expect("warm design succeeds");
        assert_eq!(serial.fsm(), warm.fsm(), "warm flow must match serial");
        assert_eq!(warm_farm.cache_stats().snapshot_hits, 1, "served warm");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reuse_model_sees_observations() {
        let w = MemoryWorkload::pollution_mix();
        let accesses = w.generate(20_000, 3);
        let mut cache = Cache::embedded_8k();
        let model = reuse_model(&mut cache, &accesses, 3);
        assert!(model.total_observations() > 1_000);
    }

    #[test]
    #[should_panic(expected = "needs instructions")]
    fn empty_workload_rejected() {
        let _ = MemoryWorkload::new(vec![]);
    }
}
