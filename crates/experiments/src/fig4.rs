//! Figure 4: synthesized area versus number of states for a sample of the
//! custom FSM predictors, with the fitted linear bound used to estimate
//! area everywhere else (§7.4).

use crate::profiling::FarmRunStats;
use fsmgen_bpred::CustomTrainer;
use fsmgen_farm::{Farm, FarmConfig};
use fsmgen_synth::{synthesize_area, Encoding, LinearAreaModel};
use fsmgen_workloads::{BranchBenchmark, Input};
use serde::{Deserialize, Serialize};

/// The Figure 4 dataset: `(states, area)` samples and the fitted line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// One sample per synthesized FSM predictor.
    pub samples: Vec<AreaSample>,
    /// Least-squares fit `area = slope * states + intercept`.
    pub slope: f64,
    /// Fit intercept.
    pub intercept: f64,
    /// Farm statistics aggregated over all per-benchmark design batches.
    pub farm: FarmRunStats,
}

/// One synthesized predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaSample {
    /// Source benchmark.
    pub benchmark: String,
    /// Branch PC the FSM targets.
    pub pc: u64,
    /// History length the FSM was designed with.
    pub history: usize,
    /// States in the final machine.
    pub states: usize,
    /// Synthesized area (gate equivalents).
    pub area: f64,
}

impl Fig4Result {
    /// The fitted linear model.
    #[must_use]
    pub fn model(&self) -> LinearAreaModel {
        LinearAreaModel {
            slope: self.slope,
            intercept: self.intercept,
        }
    }
}

/// Parameters for the Figure 4 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Config {
    /// Dynamic branches per training trace.
    pub trace_len: usize,
    /// Custom FSMs designed per benchmark.
    pub fsms_per_benchmark: usize,
    /// History lengths sampled (varying history varies machine size, like
    /// the paper's population of generated predictors).
    pub histories: Vec<usize>,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            trace_len: 40_000,
            fsms_per_benchmark: 8,
            histories: vec![3, 5, 7, 9],
        }
    }
}

impl Fig4Config {
    /// Reduced configuration for fast tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig4Config {
            trace_len: 8_000,
            fsms_per_benchmark: 3,
            histories: vec![3, 5],
        }
    }
}

/// Generates custom FSMs across all branch benchmarks, synthesizes each,
/// and fits the linear area bound.
#[must_use]
pub fn run(config: &Fig4Config) -> Fig4Result {
    let mut samples = Vec::new();
    // One shared farm across benchmarks and histories: repeated hot-branch
    // models hit the design cache, and the metrics accumulate per batch.
    let farm = Farm::new(FarmConfig::default());
    let mut farm_stats = FarmRunStats::default();
    for bench in BranchBenchmark::ALL {
        let trace = bench.trace(Input::TRAIN, config.trace_len);
        for &h in &config.histories {
            let (designs, metrics) = CustomTrainer::new(h).train_parallel_with_metrics(
                &trace,
                config.fsms_per_benchmark,
                &farm,
            );
            farm_stats.accumulate(&metrics);
            for (pc, design) in designs.designs() {
                let fsm = design.fsm();
                let est = synthesize_area(fsm, Encoding::Binary);
                samples.push(AreaSample {
                    benchmark: bench.name().to_string(),
                    pc: *pc,
                    history: h,
                    states: fsm.num_states(),
                    area: est.area,
                });
            }
        }
    }
    let points: Vec<(usize, f64)> = samples.iter().map(|s| (s.states, s.area)).collect();
    let model = LinearAreaModel::fit(&points);
    Fig4Result {
        samples,
        slope: model.slope,
        intercept: model.intercept,
        farm: farm_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_samples_and_positive_slope() {
        let result = run(&Fig4Config::quick());
        assert!(result.samples.len() >= 10, "got {}", result.samples.len());
        assert!(result.slope > 0.0, "area must grow with states");
        // The population must include machines of different sizes.
        let min = result.samples.iter().map(|s| s.states).min().unwrap();
        let max = result.samples.iter().map(|s| s.states).max().unwrap();
        assert!(max > min, "all machines the same size");
        // Farm-backed: every sample came from a farm design job.
        assert!(result.farm.jobs >= result.samples.len());
        assert!(result.farm.wall_ms > 0.0);
    }

    #[test]
    fn estimates_are_usable() {
        let result = run(&Fig4Config::quick());
        let model = result.model();
        assert!(model.estimate(10) > 0.0);
        assert!(model.estimate(50) > model.estimate(5));
    }
}
