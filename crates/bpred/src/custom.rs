//! The customized branch prediction architecture (§7.2, Figure 3): an
//! XScale-style BTB extended with per-branch custom FSM predictors that
//! are tag-matched, hard-wired to specific branches, and updated in
//! parallel on every branch.

use crate::sim::{simulate, BranchPredictor};
use crate::xscale::XScaleBtb;
use fsmgen::{Design, Designer, MarkovModel};
use fsmgen_automata::MoorePredictor;
use fsmgen_exec::{BatchEvaluator, CompiledMachine, ExecBackend};
use fsmgen_traces::{BranchTrace, HistoryRegister};
use std::sync::Arc;

/// Bits charged per custom entry for its tag and target fields (the FSM
/// logic itself is costed through the synthesized area model).
pub const CUSTOM_ENTRY_TAG_BITS: usize = 62;

/// One hard-wired custom predictor: the branch address it is locked to and
/// its running FSM instance.
#[derive(Debug, Clone)]
pub struct CustomEntry {
    /// The branch PC this FSM was built for ("locked down by the system
    /// software").
    pub pc: u64,
    /// The running predictor instance.
    pub predictor: MoorePredictor,
}

/// The custom architecture: baseline BTB plus fully-associative custom
/// entries.
///
/// Prediction: a custom tag match wins; otherwise the BTB predicts.
/// Update: the BTB updates as usual and *every* custom FSM transitions on
/// *every* branch outcome — the paper's update-all policy, which
/// guarantees each FSM is in the state determined by the last H global
/// outcomes whenever its branch is fetched (§7.6).
#[derive(Debug, Clone)]
pub struct CustomArchitecture {
    btb: XScaleBtb,
    customs: Vec<CustomEntry>,
    /// When `false`, custom FSMs update only on their own branch — the
    /// ablation mode contrasted with the paper's policy.
    update_all: bool,
    /// The compiled execution bank: one SoA lane per custom entry, in
    /// `customs` order. `None` runs the interpreted reference walk.
    /// While the bank is active the `customs` predictor instances hold
    /// machine metadata only — their interpreted state is not advanced.
    compiled: Option<BatchEvaluator>,
}

impl CustomArchitecture {
    /// Creates the architecture from a baseline BTB and custom entries,
    /// on the interpreted reference backend. Use
    /// [`CustomArchitecture::with_backend`] (or
    /// [`CustomDesigns::architecture`], which defaults to the compiled
    /// backend) to select execution.
    #[must_use]
    pub fn new(btb: XScaleBtb, customs: Vec<CustomEntry>) -> Self {
        CustomArchitecture {
            btb,
            customs,
            update_all: true,
            compiled: None,
        }
    }

    /// Selects the execution backend. `Compiled` lowers every custom
    /// FSM into one batched transition-table bank; if any machine
    /// exceeds the table limit (never for designed machines) this
    /// silently keeps the interpreted walk — the two are differentially
    /// tested bit-identical, so the choice only affects wall-time.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.compiled = match backend {
            ExecBackend::Interpreted => None,
            ExecBackend::Compiled => Self::compile_bank(&self.customs),
        };
        self
    }

    /// Installs an already-compiled bank (the farm's cache-insert
    /// artifacts). Lane order must match `customs` order.
    pub(crate) fn with_compiled_bank(mut self, machines: &[Arc<CompiledMachine>]) -> Self {
        debug_assert_eq!(machines.len(), self.customs.len());
        self.compiled = Some(BatchEvaluator::new(machines));
        self
    }

    fn compile_bank(customs: &[CustomEntry]) -> Option<BatchEvaluator> {
        let machines: Option<Vec<Arc<CompiledMachine>>> = customs
            .iter()
            .map(|c| {
                CompiledMachine::compile(c.predictor.machine())
                    .ok()
                    .map(Arc::new)
            })
            .collect();
        machines.map(|m| BatchEvaluator::new(&m))
    }

    /// The backend this instance is running on.
    #[must_use]
    pub fn backend(&self) -> ExecBackend {
        if self.compiled.is_some() {
            ExecBackend::Compiled
        } else {
            ExecBackend::Interpreted
        }
    }

    /// Switches to updating each custom FSM only on its own branch
    /// (ablation of the paper's update-all-on-every-branch policy).
    #[must_use]
    pub fn with_update_on_match_only(mut self) -> Self {
        self.update_all = false;
        self
    }

    /// The custom entries.
    #[must_use]
    pub fn customs(&self) -> &[CustomEntry] {
        &self.customs
    }

    /// Total states across all custom FSMs (the area driver of §7.4).
    #[must_use]
    pub fn total_custom_states(&self) -> usize {
        self.customs.iter().map(|c| c.predictor.num_states()).sum()
    }
}

impl BranchPredictor for CustomArchitecture {
    fn predict(&mut self, pc: u64) -> bool {
        if let Some(lane) = self.customs.iter().position(|c| c.pc == pc) {
            match &self.compiled {
                Some(bank) => bank.output(lane),
                None => self.customs[lane].predictor.predict(),
            }
        } else {
            self.btb.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.btb.update(pc, taken);
        if let Some(bank) = &mut self.compiled {
            if self.update_all {
                // The paper's every-branch-updates-every-FSM loop is the
                // batched fast path: one branch-free SoA sweep.
                bank.step_all(taken);
            } else if let Some(lane) = self.customs.iter().position(|c| c.pc == pc) {
                bank.step(lane, taken);
            }
        } else if self.update_all {
            for entry in &mut self.customs {
                entry.predictor.update(taken);
            }
        } else if let Some(entry) = self.customs.iter_mut().find(|c| c.pc == pc) {
            entry.predictor.update(taken);
        }
    }

    fn storage_bits(&self) -> usize {
        self.btb.storage_bits() + self.customs.len() * CUSTOM_ENTRY_TAG_BITS
    }

    fn describe(&self) -> String {
        format!("custom-{}fsm", self.customs.len())
    }
}

/// The §7.3 training flow: profile with the baseline, pick the worst
/// branches, build per-branch Markov models over *global* history, and
/// design one FSM per branch.
#[derive(Debug, Clone)]
pub struct CustomTrainer {
    history: usize,
    designer: Designer,
    btb_entries: usize,
}

impl CustomTrainer {
    /// Creates a trainer with the paper's parameters: global history
    /// length 9 and the default design flow.
    #[must_use]
    pub fn paper_default() -> Self {
        CustomTrainer::new(9)
    }

    /// Creates a trainer with the given global-history length.
    ///
    /// # Panics
    ///
    /// Panics if `history` is out of the designer's supported range.
    #[must_use]
    pub fn new(history: usize) -> Self {
        CustomTrainer {
            history,
            designer: Designer::new(history),
            btb_entries: 128,
        }
    }

    /// Replaces the design-flow configuration (keeps the history length in
    /// sync with this trainer).
    #[must_use]
    pub fn designer(mut self, designer: Designer) -> Self {
        assert_eq!(
            designer.history(),
            self.history,
            "designer history must match trainer history"
        );
        self.designer = designer;
        self
    }

    /// Sets the baseline BTB size (default 128, the XScale value).
    #[must_use]
    pub fn btb_entries(mut self, entries: usize) -> Self {
        self.btb_entries = entries;
        self
    }

    /// Steps 1–2 of the training flow: profile with the baseline, pick
    /// the `max_customs` worst branches, and build one Markov model per
    /// branch keyed on global history. Returned worst-first.
    fn profile_and_model(
        &self,
        training: &BranchTrace,
        max_customs: usize,
    ) -> Vec<(u64, MarkovModel)> {
        // Step 1: profile with the baseline predictor.
        let mut baseline = XScaleBtb::new(self.btb_entries);
        let profile = simulate(&mut baseline, training);
        let targets: Vec<u64> = profile
            .worst_branches()
            .into_iter()
            .take(max_customs)
            .filter(|&(_, misses)| misses > 0)
            .map(|(pc, _)| pc)
            .collect();

        // Step 2: per-branch Markov models keyed on global history.
        let mut models: std::collections::BTreeMap<u64, MarkovModel> = targets
            .iter()
            .map(|&pc| (pc, MarkovModel::new(self.history)))
            .collect();
        let mut global = HistoryRegister::new(self.history);
        for event in training {
            if global.is_full() {
                if let Some(model) = models.get_mut(&event.pc) {
                    model.observe(global.value(), event.taken);
                }
            }
            global.push(event.taken);
        }
        targets
            .into_iter()
            .filter_map(|pc| models.remove(&pc).map(|m| (pc, m)))
            .collect()
    }

    /// Trains custom FSMs for the `max_customs` worst branches of
    /// `training`, returning the per-branch designs ordered worst-first.
    ///
    /// Branches whose design fails (e.g. a branch never executed with a
    /// full history) are skipped.
    #[must_use]
    pub fn train(&self, training: &BranchTrace, max_customs: usize) -> CustomDesigns {
        // Step 3: design one FSM per branch.
        let designs: Vec<(u64, Design)> = self
            .profile_and_model(training, max_customs)
            .into_iter()
            .filter_map(|(pc, model)| self.designer.design_from_model(model).ok().map(|d| (pc, d)))
            .collect();
        // Compile once at train time, mirroring the farm path's
        // compile-at-cache-insert: architecture() sweeps reuse these.
        let precompiled = designs
            .iter()
            .map(|(_, d)| CompiledMachine::compile(d.fsm()).ok().map(Arc::new))
            .collect();
        CustomDesigns {
            designs,
            precompiled,
            btb_entries: self.btb_entries,
        }
    }

    /// Like [`CustomTrainer::train`], but designs the per-branch FSMs as
    /// one batch on `farm` — the fleet path. Profiling and model building
    /// (steps 1–2) are shared with the serial flow, so the result is
    /// **identical** to [`CustomTrainer::train`] at any worker count;
    /// repeated hot-branch models across benchmarks hit the farm's design
    /// cache.
    #[must_use]
    pub fn train_parallel(
        &self,
        training: &BranchTrace,
        max_customs: usize,
        farm: &fsmgen_farm::Farm,
    ) -> CustomDesigns {
        self.train_parallel_with_metrics(training, max_customs, farm)
            .0
    }

    /// [`CustomTrainer::train_parallel`] plus the batch's
    /// [`FarmMetrics`](fsmgen_farm::FarmMetrics) — cache hit rate,
    /// throughput, latency quantiles — so experiment drivers can report
    /// the farm's contribution alongside the figures.
    #[must_use]
    pub fn train_parallel_with_metrics(
        &self,
        training: &BranchTrace,
        max_customs: usize,
        farm: &fsmgen_farm::Farm,
    ) -> (CustomDesigns, fsmgen_farm::FarmMetrics) {
        let modeled = self.profile_and_model(training, max_customs);
        let jobs: Vec<fsmgen_farm::DesignJob> = modeled
            .iter()
            .enumerate()
            .map(|(i, (_, model))| {
                fsmgen_farm::DesignJob::from_model(i as u64, model.clone(), self.designer.clone())
            })
            .collect();
        let report = farm.design_batch(jobs);
        // Step 3, batched: keep worst-first order, skip failed designs —
        // exactly the serial `.ok()` semantics. The farm compiled each
        // design at cache-insert, so warm hits arrive ready to run.
        let mut designs = Vec::new();
        let mut precompiled = Vec::new();
        for ((pc, _), outcome) in modeled.into_iter().zip(report.outcomes) {
            if let Ok(d) = outcome.result {
                designs.push((pc, (*d).clone()));
                precompiled.push(outcome.compiled.clone());
            }
        }
        (
            CustomDesigns {
                designs,
                precompiled,
                btb_entries: self.btb_entries,
            },
            report.metrics,
        )
    }
}

/// The result of training: per-branch designs, worst branch first, from
/// which architectures with any number of custom predictors can be
/// instantiated.
#[derive(Debug, Clone)]
pub struct CustomDesigns {
    designs: Vec<(u64, Design)>,
    /// Table artifacts compiled once (at farm cache-insert or at serial
    /// train time), parallel to `designs`. `None` slots compile lazily.
    precompiled: Vec<Option<Arc<CompiledMachine>>>,
    btb_entries: usize,
}

impl CustomDesigns {
    /// The per-branch designs, worst branch first.
    #[must_use]
    pub fn designs(&self) -> &[(u64, Design)] {
        &self.designs
    }

    /// The compiled table artifact for design `i`, if one was produced.
    #[must_use]
    pub fn compiled(&self, i: usize) -> Option<&Arc<CompiledMachine>> {
        self.precompiled.get(i).and_then(|c| c.as_ref())
    }

    /// Number of branches a design was produced for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// `true` when no designs were produced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// Instantiates the architecture using the first `num_customs` designs
    /// (clamped to the available count) — the Figure 5 curve is generated
    /// by sweeping this parameter. Runs on the default backend
    /// ([`ExecBackend::Compiled`]); the interpreted reference walk is
    /// available via [`CustomDesigns::architecture_with_backend`].
    #[must_use]
    pub fn architecture(&self, num_customs: usize) -> CustomArchitecture {
        self.architecture_with_backend(num_customs, ExecBackend::default())
    }

    /// As [`CustomDesigns::architecture`], on an explicit backend.
    #[must_use]
    pub fn architecture_with_backend(
        &self,
        num_customs: usize,
        backend: ExecBackend,
    ) -> CustomArchitecture {
        let take = self.designs.len().min(num_customs);
        let customs: Vec<CustomEntry> = self.designs[..take]
            .iter()
            .map(|(pc, design)| CustomEntry {
                pc: *pc,
                predictor: design.predictor(),
            })
            .collect();
        let arch = CustomArchitecture::new(XScaleBtb::new(self.btb_entries), customs);
        match backend {
            ExecBackend::Interpreted => arch,
            ExecBackend::Compiled => {
                // Prefer the compile-once artifacts; fill gaps here.
                let machines: Option<Vec<Arc<CompiledMachine>>> = (0..take)
                    .map(|i| {
                        self.compiled(i).cloned().or_else(|| {
                            CompiledMachine::compile(self.designs[i].1.fsm())
                                .ok()
                                .map(Arc::new)
                        })
                    })
                    .collect();
                match machines {
                    Some(m) => arch.with_compiled_bank(&m),
                    None => arch,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen_traces::BranchEvent;

    /// A two-branch trace where the second branch copies the first's
    /// outcome and the first alternates — hard for 2-bit counters, trivial
    /// for a global-history FSM.
    fn correlated_trace(n: usize) -> BranchTrace {
        let mut t = BranchTrace::new();
        let mut a = false;
        for _ in 0..n {
            a = !a;
            t.push(BranchEvent {
                pc: 0x100,
                target: 0,
                taken: a,
            });
            t.push(BranchEvent {
                pc: 0x200,
                target: 0,
                taken: a,
            });
        }
        t
    }

    #[test]
    fn trainer_targets_worst_branches_first() {
        let trace = correlated_trace(1000);
        let designs = CustomTrainer::new(4).train(&trace, 2);
        assert_eq!(designs.len(), 2);
        // Both branches alternate so both are ~50% under 2-bit counters.
        let pcs: Vec<u64> = designs.designs().iter().map(|&(pc, _)| pc).collect();
        assert!(pcs.contains(&0x100) && pcs.contains(&0x200));
    }

    #[test]
    fn custom_fsm_fixes_correlated_branch() {
        let trace = correlated_trace(2000);
        let designs = CustomTrainer::new(4).train(&trace, 2);
        let mut baseline = XScaleBtb::xscale();
        let base = simulate(&mut baseline, &trace);
        let mut custom = designs.architecture(2);
        let with = simulate(&mut custom, &trace);
        assert!(
            with.miss_rate() < 0.05,
            "customs should nearly eliminate misses, got {}",
            with.miss_rate()
        );
        assert!(
            base.miss_rate() > 0.4,
            "baseline must thrash, got {}",
            base.miss_rate()
        );
    }

    #[test]
    fn architecture_curve_is_incremental() {
        let trace = correlated_trace(500);
        let designs = CustomTrainer::new(4).train(&trace, 2);
        assert_eq!(designs.architecture(0).customs().len(), 0);
        assert_eq!(designs.architecture(1).customs().len(), 1);
        assert_eq!(designs.architecture(5).customs().len(), 2); // clamped
    }

    #[test]
    fn update_all_policy_keeps_fsm_in_sync() {
        // The FSM for branch B (copies A two back) must be correct even
        // though B is predicted only at its own slots — because every
        // branch updates it (§7.6).
        let trace = correlated_trace(1000);
        let designs = CustomTrainer::new(4).train(&trace, 1);
        let target_pc = designs.designs()[0].0;
        let mut arch = designs.architecture(1);
        let r = simulate(&mut arch, &trace);
        let (execs, misses) = r.per_branch[&target_pc];
        assert!(
            (misses as f64) < 0.05 * execs as f64,
            "custom branch missed {misses}/{execs}"
        );
    }

    /// Like `correlated_trace` but the leader branch is pseudo-random, so
    /// the follower's outcome is unknowable without observing the leader.
    fn random_leader_trace(n: usize) -> BranchTrace {
        let mut t = BranchTrace::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state >> 62 & 1 == 1;
            t.push(BranchEvent {
                pc: 0x100,
                target: 0,
                taken: a,
            });
            t.push(BranchEvent {
                pc: 0x200,
                target: 0,
                taken: a,
            });
        }
        t
    }

    #[test]
    fn match_only_ablation_changes_behaviour() {
        let trace = random_leader_trace(1500);
        let designs = CustomTrainer::new(4).train(&trace, 1);
        let mut all = designs.architecture(1);
        let mut only = designs.architecture(1).with_update_on_match_only();
        let r_all = simulate(&mut all, &trace);
        let r_only = simulate(&mut only, &trace);
        // With match-only updates the FSM sees its own history, not the
        // global one it was trained on — accuracy must degrade here.
        assert!(r_all.miss_rate() < r_only.miss_rate());
    }

    #[test]
    fn parallel_training_matches_serial() {
        let trace = correlated_trace(800);
        let trainer = CustomTrainer::new(4);
        let serial = trainer.train(&trace, 2);
        for workers in [1, 2, 8] {
            let farm = fsmgen_farm::Farm::new(fsmgen_farm::FarmConfig {
                workers,
                cache_capacity: 16,
            });
            let parallel = trainer.train_parallel(&trace, 2, &farm);
            assert_eq!(parallel.len(), serial.len());
            for ((pc_s, d_s), (pc_p, d_p)) in serial.designs().iter().zip(parallel.designs()) {
                assert_eq!(pc_s, pc_p);
                assert_eq!(d_s.fsm(), d_p.fsm(), "workers={workers}");
            }
        }
    }

    #[test]
    fn architecture_defaults_to_compiled_backend() {
        let trace = correlated_trace(500);
        let designs = CustomTrainer::new(4).train(&trace, 2);
        let arch = designs.architecture(2);
        assert_eq!(arch.backend(), ExecBackend::Compiled);
        let slow = designs.architecture_with_backend(2, ExecBackend::Interpreted);
        assert_eq!(slow.backend(), ExecBackend::Interpreted);
        // Serial training precompiled every design.
        assert!(designs.compiled(0).is_some());
        assert!(designs.compiled(1).is_some());
    }

    #[test]
    fn compiled_backend_is_bit_identical_to_interpreted() {
        for (label, trace) in [
            ("correlated", correlated_trace(1200)),
            ("random-leader", random_leader_trace(1200)),
        ] {
            let designs = CustomTrainer::new(4).train(&trace, 2);
            let mut fast = designs.architecture_with_backend(2, ExecBackend::Compiled);
            let mut slow = designs.architecture_with_backend(2, ExecBackend::Interpreted);
            let r_fast = simulate(&mut fast, &trace);
            let r_slow = simulate(&mut slow, &trace);
            assert_eq!(r_fast, r_slow, "{label}: update-all backends diverged");

            let mut fast = designs
                .architecture_with_backend(2, ExecBackend::Compiled)
                .with_update_on_match_only();
            let mut slow = designs
                .architecture_with_backend(2, ExecBackend::Interpreted)
                .with_update_on_match_only();
            let r_fast = simulate(&mut fast, &trace);
            let r_slow = simulate(&mut slow, &trace);
            assert_eq!(r_fast, r_slow, "{label}: match-only backends diverged");
        }
    }

    #[test]
    fn farm_outcomes_carry_compiled_artifacts() {
        let trace = correlated_trace(800);
        let trainer = CustomTrainer::new(4);
        let farm = fsmgen_farm::Farm::new(fsmgen_farm::FarmConfig {
            workers: 2,
            cache_capacity: 16,
        });
        let designs = trainer.train_parallel(&trace, 2, &farm);
        for i in 0..designs.len() {
            let compiled = designs.compiled(i).expect("farm compiles at insert");
            assert_eq!(
                compiled.num_states() as usize,
                designs.designs()[i].1.fsm().num_states()
            );
        }
        // The architecture built from farm artifacts matches serial.
        let serial = trainer.train(&trace, 2);
        let mut a = designs.architecture(2);
        let mut b = serial.architecture(2);
        assert_eq!(simulate(&mut a, &trace), simulate(&mut b, &trace));
    }

    #[test]
    fn storage_accounting() {
        let trace = correlated_trace(200);
        let designs = CustomTrainer::new(3).train(&trace, 2);
        let arch = designs.architecture(2);
        assert_eq!(
            arch.storage_bits(),
            XScaleBtb::xscale().storage_bits() + 2 * CUSTOM_ENTRY_TAG_BITS
        );
        assert!(arch.total_custom_states() >= 2);
    }
}
