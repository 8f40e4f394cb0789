//! Figure 5: misprediction rate versus estimated area for the six branch
//! benchmarks, comparing the XScale baseline, gshare, the local/global
//! chooser and the customized FSM architecture (custom-same and
//! custom-diff).

use crate::profiling::{BackendTiming, FarmRunStats};
use fsmgen_bpred::{
    simulate, BranchPredictor, CustomDesigns, CustomTrainer, Gshare, LocalGlobalChooser, XScaleBtb,
    CUSTOM_ENTRY_TAG_BITS,
};
use fsmgen_farm::{Farm, FarmConfig};
use fsmgen_synth::LinearAreaModel;
use fsmgen_traces::BranchTrace;
use fsmgen_workloads::{BranchBenchmark, Input};
use serde::{Deserialize, Serialize};

/// Area units charged per SRAM storage bit of table predictors, relative
/// to the NAND2 gate-equivalents the FSM area model produces. A 6T SRAM
/// cell is roughly one NAND2 of area.
pub const GATES_PER_SRAM_BIT: f64 = 1.0;

/// One predictor evaluation point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Predictor description.
    pub label: String,
    /// Estimated total area (gate equivalents).
    pub area: f64,
    /// Misprediction rate on the evaluation trace.
    pub miss_rate: f64,
}

/// One benchmark's panel: curves per predictor family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Panel {
    /// Benchmark name.
    pub benchmark: String,
    /// The XScale baseline point.
    pub xscale: Fig5Point,
    /// gshare size sweep.
    pub gshare: Vec<Fig5Point>,
    /// Local/global chooser size sweep.
    pub lgc: Vec<Fig5Point>,
    /// Customs trained on the evaluation input (limit study).
    pub custom_same: Vec<Fig5Point>,
    /// Customs trained on a different input (the realistic case).
    pub custom_diff: Vec<Fig5Point>,
    /// Farm statistics of the two custom training batches.
    pub farm: FarmRunStats,
    /// Wall-time of the full custom architecture simulation per execution
    /// backend (zeroed when training produced no designs).
    pub backend_timing: BackendTiming,
}

/// Parameters of the Figure 5 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Dynamic branches per trace.
    pub trace_len: usize,
    /// Global history length for the custom FSMs (the paper uses 9).
    pub history: usize,
    /// Maximum number of custom FSM predictors per benchmark.
    pub max_customs: usize,
    /// gshare table sizes (entries).
    pub gshare_sizes: Vec<usize>,
    /// LGC configurations: (local entries, local bits, global entries).
    pub lgc_sizes: Vec<(usize, usize, usize)>,
    /// The fitted area-per-state line from the Figure 4 experiment.
    pub area_model: LinearAreaModel,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            trace_len: 60_000,
            history: 9,
            max_customs: 8,
            gshare_sizes: vec![1 << 10, 1 << 12, 1 << 14, 1 << 16],
            lgc_sizes: vec![(128, 10, 1 << 10), (512, 10, 1 << 12), (1024, 10, 1 << 14)],
            area_model: LinearAreaModel {
                slope: 10.0,
                intercept: 8.0,
            },
        }
    }
}

impl Fig5Config {
    /// Reduced configuration for fast tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig5Config {
            trace_len: 15_000,
            history: 6,
            max_customs: 3,
            gshare_sizes: vec![1 << 10, 1 << 14],
            lgc_sizes: vec![(128, 10, 1 << 10)],
            ..Fig5Config::default()
        }
    }
}

fn table_point<P: BranchPredictor>(mut p: P, eval: &BranchTrace) -> Fig5Point {
    let r = simulate(&mut p, eval);
    Fig5Point {
        label: p.describe(),
        area: p.storage_bits() as f64 * GATES_PER_SRAM_BIT,
        miss_rate: r.miss_rate(),
    }
}

/// The custom curve: adding FSM predictors one at a time, pricing each
/// architecture as BTB storage + per-entry tag storage + synthesized FSM
/// area estimated from the fitted line (§7.4-§7.5).
fn custom_curve(
    designs: &CustomDesigns,
    eval: &BranchTrace,
    area_model: &LinearAreaModel,
    label: &str,
) -> Vec<Fig5Point> {
    let mut points = Vec::new();
    for k in 1..=designs.len() {
        let mut arch = designs.architecture(k);
        let fsm_area: f64 = designs
            .designs()
            .iter()
            .take(k)
            .map(|(_, d)| area_model.estimate(d.fsm().num_states()))
            .sum();
        let tag_area = (k * CUSTOM_ENTRY_TAG_BITS) as f64 * GATES_PER_SRAM_BIT;
        let base_area = XScaleBtb::xscale().storage_bits() as f64 * GATES_PER_SRAM_BIT;
        let r = simulate(&mut arch, eval);
        points.push(Fig5Point {
            label: format!("{label}-{k}fsm"),
            area: base_area + tag_area + fsm_area,
            miss_rate: r.miss_rate(),
        });
    }
    points
}

/// Runs one benchmark's panel.
#[must_use]
pub fn run_panel(bench: BranchBenchmark, config: &Fig5Config) -> Fig5Panel {
    let train = bench.trace(Input::TRAIN, config.trace_len);
    let eval = bench.trace(Input::EVAL, config.trace_len);

    let xscale = table_point(XScaleBtb::xscale(), &eval);
    let gshare = config
        .gshare_sizes
        .iter()
        .map(|&n| table_point(Gshare::new(n), &eval))
        .collect();
    let lgc = config
        .lgc_sizes
        .iter()
        .map(|&(le, lb, ge)| table_point(LocalGlobalChooser::new(le, lb, ge), &eval))
        .collect();

    // Both custom training passes run on one farm: identical hot-branch
    // models between the train and eval inputs hit the design cache.
    let farm = Farm::new(FarmConfig::default());
    let mut farm_stats = FarmRunStats::default();
    let trainer = CustomTrainer::new(config.history);
    let (designs_diff, metrics_diff) =
        trainer.train_parallel_with_metrics(&train, config.max_customs, &farm);
    farm_stats.accumulate(&metrics_diff);
    let (designs_same, metrics_same) =
        trainer.train_parallel_with_metrics(&eval, config.max_customs, &farm);
    farm_stats.accumulate(&metrics_same);

    // Time the widest custom architecture on each backend; accuracy is
    // backend-independent (differentially tested bit-identical).
    let backend_timing = if !designs_diff.is_empty() {
        BackendTiming::measure(|backend| {
            let mut arch = designs_diff.architecture_with_backend(designs_diff.len(), backend);
            simulate(&mut arch, &eval);
        })
    } else {
        BackendTiming::default()
    };

    Fig5Panel {
        benchmark: bench.name().to_string(),
        xscale,
        gshare,
        lgc,
        custom_same: custom_curve(&designs_same, &eval, &config.area_model, "custom-same"),
        custom_diff: custom_curve(&designs_diff, &eval, &config.area_model, "custom-diff"),
        farm: farm_stats,
        backend_timing,
    }
}

/// Runs the full Figure 5 experiment over all six benchmarks.
#[must_use]
pub fn run(config: &Fig5Config) -> Vec<Fig5Panel> {
    BranchBenchmark::ALL
        .iter()
        .map(|&b| run_panel(b, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ijpeg_customs_beat_baseline() {
        let panel = run_panel(BranchBenchmark::Ijpeg, &Fig5Config::quick());
        let best_custom = panel
            .custom_diff
            .iter()
            .map(|p| p.miss_rate)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_custom < panel.xscale.miss_rate,
            "customs {best_custom} vs xscale {}",
            panel.xscale.miss_rate
        );
        // Both execution backends were timed on the widest architecture.
        assert!(panel.backend_timing.interpreted_ms > 0.0);
        assert!(panel.backend_timing.compiled_ms > 0.0);
    }

    #[test]
    fn custom_curve_area_grows() {
        let panel = run_panel(BranchBenchmark::Vortex, &Fig5Config::quick());
        for w in panel.custom_diff.windows(2) {
            assert!(w[1].area > w[0].area, "area must grow with more FSMs");
        }
    }

    #[test]
    fn custom_same_not_worse_than_diff_on_average() {
        let panel = run_panel(BranchBenchmark::Gsm, &Fig5Config::quick());
        let avg = |pts: &[Fig5Point]| {
            pts.iter().map(|p| p.miss_rate).sum::<f64>() / pts.len().max(1) as f64
        };
        // The paper finds "little to no difference"; allow slack but same
        // should not be dramatically worse.
        assert!(avg(&panel.custom_same) <= avg(&panel.custom_diff) + 0.05);
    }
}
