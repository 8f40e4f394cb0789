//! Figure 2: value-prediction confidence — coverage vs accuracy for
//! saturating up/down counters against cross-trained custom FSMs.
//!
//! For each benchmark, the SUD points sweep 60 counter configurations and
//! the FSM curves sweep the design flow's probability threshold at history
//! lengths 2..=10. FSMs are *cross-trained*: "for each application in our
//! suite, we combine the traces from all of the other programs excluding
//! the application to be used for reporting results" (§6.3).

use crate::profiling::{BackendTiming, FarmRunStats};
use fsmgen::{Designer, MarkovModel, PatternConfig};
use fsmgen_farm::{DesignJob, Farm, FarmConfig};
use fsmgen_traces::BitTrace;
use fsmgen_vpred::{
    correctness_trace, per_entry_correctness_model, run_confidence, run_confidence_fsm,
    FsmConfidence, SudConfidence, SudConfig, TwoDeltaStride,
};
use fsmgen_workloads::{Input, ValueBenchmark};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One accuracy/coverage point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidencePoint {
    /// Configuration label (e.g. `sud-m10-p2-t80` or `fsm-h4-t0.90`).
    pub label: String,
    /// Accuracy (fraction), `None` if nothing was marked confident.
    pub accuracy: Option<f64>,
    /// Coverage (fraction), `None` if nothing was predicted correctly.
    pub coverage: Option<f64>,
}

/// The Figure 2 panel for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Panel {
    /// The evaluated benchmark.
    pub benchmark: String,
    /// SUD counter sweep points.
    pub sud: Vec<ConfidencePoint>,
    /// FSM curves keyed by history length, each swept over thresholds.
    pub fsm: BTreeMap<usize, Vec<ConfidencePoint>>,
    /// Farm statistics of the FSM design batch behind this panel.
    pub farm: FarmRunStats,
    /// Wall-time of one representative FSM confidence run per execution
    /// backend (zeroed when every design in the batch failed).
    pub backend_timing: BackendTiming,
}

/// Parameters of the Figure 2 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Config {
    /// Dynamic loads per benchmark trace.
    pub trace_len: usize,
    /// FSM history lengths (the paper uses 2..=10).
    pub histories: Vec<usize>,
    /// Probability thresholds sweeping each FSM curve.
    pub thresholds: Vec<f64>,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            trace_len: 60_000,
            histories: vec![2, 4, 6, 8, 10],
            thresholds: vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
        }
    }
}

impl Fig2Config {
    /// A reduced configuration for fast tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig2Config {
            trace_len: 12_000,
            histories: vec![2, 4],
            thresholds: vec![0.5, 0.8, 0.95],
        }
    }
}

/// The §6.3 cross-training model: the merged per-entry Markov model of the
/// correctness streams of every benchmark except `held_out`. Per-entry
/// histories are used because the deployed estimators are per-entry (one
/// per value-table slot), exactly like the SUD counters of §6.1.
#[must_use]
pub fn cross_training_model(
    held_out: ValueBenchmark,
    order: usize,
    trace_len: usize,
) -> MarkovModel {
    let mut merged = MarkovModel::new(order);
    for bench in ValueBenchmark::ALL {
        if bench == held_out {
            continue;
        }
        let loads = bench.trace(Input::TRAIN, trace_len);
        let model =
            per_entry_correctness_model(&mut TwoDeltaStride::paper_default(), &loads, order);
        merged.merge(&model);
    }
    merged
}

/// Runs the full Figure 2 experiment.
#[must_use]
pub fn run(config: &Fig2Config) -> Vec<Fig2Panel> {
    ValueBenchmark::ALL
        .iter()
        .map(|&bench| run_panel(bench, config))
        .collect()
}

/// Runs one benchmark's panel.
#[must_use]
pub fn run_panel(bench: ValueBenchmark, config: &Fig2Config) -> Fig2Panel {
    let eval = bench.trace(Input::EVAL, config.trace_len);

    // SUD sweep.
    let sud = SudConfig::figure2_sweep()
        .into_iter()
        .map(|cfg| {
            let mut table = TwoDeltaStride::paper_default();
            let mut est = SudConfidence::new(table.len(), cfg);
            let stats = run_confidence(&mut table, &mut est, &eval);
            ConfidencePoint {
                label: fsmgen_vpred::ConfidenceEstimator::describe(&est),
                accuracy: stats.accuracy(),
                coverage: stats.coverage(),
            }
        })
        .collect();

    // FSM curves: one design per (history, threshold), cross-trained and
    // designed as one farm batch (submission order is preserved by the
    // farm, so outcomes zip back onto the grid).
    let mut jobs = Vec::new();
    let mut grid = Vec::new();
    for &h in &config.histories {
        let model = cross_training_model(bench, h, config.trace_len);
        for &thr in &config.thresholds {
            let designer = Designer::new(h).pattern_config(PatternConfig {
                prob_threshold: thr,
                dont_care_fraction: 0.01,
            });
            jobs.push(DesignJob::from_model(
                grid.len() as u64,
                model.clone(),
                designer,
            ));
            grid.push((h, thr));
        }
    }
    let farm = Farm::new(FarmConfig::default());
    let report = farm.design_batch(jobs);
    let farm_stats = FarmRunStats::from(&report.metrics);

    let mut fsm: BTreeMap<usize, Vec<ConfidencePoint>> =
        config.histories.iter().map(|&h| (h, Vec::new())).collect();
    let mut timing_machine: Option<std::sync::Arc<fsmgen_automata::Dfa>> = None;
    for ((h, thr), outcome) in grid.into_iter().zip(report.outcomes) {
        // Failed designs are skipped, matching the serial `.ok()` flow.
        let Ok(design) = outcome.result else {
            continue;
        };
        if timing_machine.is_none() {
            timing_machine = Some(std::sync::Arc::new((*design).clone().into_fsm()));
        }
        let label = format!("fsm-h{h}-t{thr:.2}");
        let mut table = TwoDeltaStride::paper_default();
        let mut est =
            FsmConfidence::per_entry(table.len(), (*design).clone().into_fsm(), label.clone());
        let stats = run_confidence(&mut table, &mut est, &eval);
        if let Some(points) = fsm.get_mut(&h) {
            points.push(ConfidencePoint {
                label,
                accuracy: stats.accuracy(),
                coverage: stats.coverage(),
            });
        }
    }

    // Re-run one representative design on each backend purely for
    // wall-time; the accuracy numbers above are backend-independent
    // (the backends are differentially tested bit-identical).
    let backend_timing = timing_machine
        .map(|machine| {
            BackendTiming::measure(|backend| {
                run_confidence_fsm(
                    &mut TwoDeltaStride::paper_default(),
                    std::sync::Arc::clone(&machine),
                    "timing",
                    backend,
                    &eval,
                );
            })
        })
        .unwrap_or_default();

    Fig2Panel {
        benchmark: bench.name().to_string(),
        sud,
        fsm,
        farm: farm_stats,
        backend_timing,
    }
}

/// Best SUD coverage at or above an accuracy floor — the paper's headline
/// comparison ("at a target accuracy of 80%, the best configuration of
/// saturating up-down counter gets a coverage of less than 10%" for gcc).
#[must_use]
pub fn best_coverage_at_accuracy(points: &[ConfidencePoint], floor: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.accuracy.is_some_and(|a| a >= floor))
        .filter_map(|p| p.coverage)
        .fold(None, |best, c| Some(best.map_or(c, |b: f64| b.max(c))))
}

/// Convenience: the correctness bit-stream of one benchmark, used by the
/// ablation benches.
#[must_use]
pub fn correctness_bits(bench: ValueBenchmark, input: Input, trace_len: usize) -> BitTrace {
    let loads = bench.trace(input, trace_len);
    correctness_trace(&mut TwoDeltaStride::paper_default(), &loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_has_both_families() {
        let panel = run_panel(ValueBenchmark::Li, &Fig2Config::quick());
        assert_eq!(panel.sud.len(), 60);
        assert_eq!(panel.fsm.len(), 2);
        // At least some points must be well-defined.
        assert!(panel.sud.iter().any(|p| p.accuracy.is_some()));
        assert!(panel.fsm[&4].iter().any(|p| p.accuracy.is_some()));
        // The FSM grid ran farm-backed: 2 histories × 3 thresholds.
        assert_eq!(panel.farm.jobs, 6);
        assert_eq!(panel.farm.succeeded, 6);
        assert!(panel.farm.wall_ms > 0.0);
        // Both execution backends were timed on a representative design.
        assert!(panel.backend_timing.interpreted_ms > 0.0);
        assert!(panel.backend_timing.compiled_ms > 0.0);
    }

    #[test]
    fn fsm_threshold_raises_accuracy() {
        let panel = run_panel(ValueBenchmark::Perl, &Fig2Config::quick());
        let curve = &panel.fsm[&4];
        let first = curve.first().and_then(|p| p.accuracy);
        let last = curve.last().and_then(|p| p.accuracy);
        if let (Some(lo), Some(hi)) = (first, last) {
            assert!(
                hi >= lo - 0.05,
                "higher threshold should not lower accuracy much: {lo} -> {hi}"
            );
        }
    }

    #[test]
    fn best_coverage_helper() {
        let pts = vec![
            ConfidencePoint {
                label: "a".into(),
                accuracy: Some(0.9),
                coverage: Some(0.2),
            },
            ConfidencePoint {
                label: "b".into(),
                accuracy: Some(0.7),
                coverage: Some(0.8),
            },
            ConfidencePoint {
                label: "c".into(),
                accuracy: Some(0.95),
                coverage: Some(0.3),
            },
        ];
        assert_eq!(best_coverage_at_accuracy(&pts, 0.8), Some(0.3));
        assert_eq!(best_coverage_at_accuracy(&pts, 0.99), None);
    }
}
