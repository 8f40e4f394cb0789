//! Profiling hooks for the experiment drivers: per-figure stage
//! breakdowns via `fsmgen-obs` and serializable farm-run statistics
//! derived from [`FarmMetrics`].
//!
//! The figure drivers run their design sweeps farm-backed and attach a
//! [`FarmRunStats`] to their results; [`profiled`] wraps any driver call
//! to capture the per-stage [`PipelineProfile`] of everything it
//! designed and simulated.

use fsmgen_farm::FarmMetrics;
use fsmgen_obs::PipelineProfile;
use serde::{Deserialize, Serialize};

/// Re-export of the obs profiling hook: runs `f` with a collecting sink
/// installed on the current thread and returns `(result, profile)`.
///
/// Used by drivers and tests to record per-figure stage breakdowns and
/// assert budget attribution (a tight-budget design shows its rung
/// events attributed to the failing stage in the profile).
pub fn profiled<R>(f: impl FnOnce() -> R) -> (R, PipelineProfile) {
    fsmgen_obs::profiled(f)
}

/// Runs `f` with a stamped JSONL obs sink installed process-globally,
/// streaming every span/counter event — including those from farm
/// worker threads — to `path`. The file is exportable with
/// `fsmgen trace export`; lines carry `ts_us`/`tid` stamps and the sink
/// flushes at every root-span close, so even a crashed run leaves a
/// parseable trace.
///
/// # Errors
///
/// Returns the I/O error when `path` cannot be created.
pub fn with_trace_jsonl<R>(path: &std::path::Path, f: impl FnOnce() -> R) -> std::io::Result<R> {
    let file = std::fs::File::create(path)?;
    let sink = std::sync::Arc::new(fsmgen_obs::JsonlObsSink::new(std::io::BufWriter::new(file)));
    fsmgen_obs::install_global(
        std::sync::Arc::clone(&sink) as std::sync::Arc<dyn fsmgen_obs::ObsSink>
    );
    let result = f();
    fsmgen_obs::clear_global();
    sink.flush();
    Ok(result)
}

/// Serializable summary of the farm batches behind one figure: how much
/// the design cache helped and how fast the fleet ran. Derived from
/// [`FarmMetrics`] (which itself is not serde-serializable because the
/// vendored serde has no serializer for its nested types) and
/// accumulated across per-benchmark batches.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FarmRunStats {
    /// Design jobs submitted across all batches.
    pub jobs: usize,
    /// Jobs that produced a design.
    pub succeeded: usize,
    /// Jobs whose design degraded.
    pub degraded: usize,
    /// Design-cache hits across all batches.
    pub cache_hits: usize,
    /// Design-cache misses across all batches.
    pub cache_misses: usize,
    /// Summed batch wall clock in milliseconds.
    pub wall_ms: f64,
}

/// Wall-time of one identical simulation on each execution backend.
///
/// The backends are differentially tested bit-identical, so a figure
/// panel reports a single accuracy result plus these two times — the
/// compiled engine's win made visible per figure rather than only in
/// the bench suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendTiming {
    /// Wall-time of the interpreted reference walk, in milliseconds.
    pub interpreted_ms: f64,
    /// Wall-time of the compiled transition-table path, in milliseconds.
    pub compiled_ms: f64,
}

impl BackendTiming {
    /// Runs `work` once per backend (interpreted first), timing each.
    #[must_use]
    pub fn measure(mut work: impl FnMut(fsmgen_exec::ExecBackend)) -> Self {
        let mut time = |backend| {
            let start = std::time::Instant::now();
            work(backend);
            start.elapsed().as_secs_f64() * 1e3
        };
        let interpreted_ms = time(fsmgen_exec::ExecBackend::Interpreted);
        let compiled_ms = time(fsmgen_exec::ExecBackend::Compiled);
        BackendTiming {
            interpreted_ms,
            compiled_ms,
        }
    }

    /// Interpreted over compiled wall-time; `None` when degenerate.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        (self.compiled_ms > 0.0 && self.interpreted_ms > 0.0)
            .then(|| self.interpreted_ms / self.compiled_ms)
    }

    /// One-line report suffix, e.g.
    /// `backends: interpreted 12.4 ms, compiled 3.1 ms (4.0x)`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        match self.speedup() {
            Some(s) => format!(
                "backends: interpreted {:.1} ms, compiled {:.1} ms ({s:.1}x)",
                self.interpreted_ms, self.compiled_ms
            ),
            None => "backends: not timed".to_string(),
        }
    }
}

impl FarmRunStats {
    /// Folds one batch's metrics into the running totals.
    pub fn accumulate(&mut self, metrics: &FarmMetrics) {
        self.jobs += metrics.jobs;
        self.succeeded += metrics.succeeded;
        self.degraded += metrics.degraded;
        self.cache_hits += metrics.cache.hits as usize;
        self.cache_misses += metrics.cache.misses as usize;
        self.wall_ms += metrics.batch_wall.as_secs_f64() * 1e3;
    }

    /// Cache hit rate across all batches, 0.0 when nothing was looked up.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Completed design jobs per second of summed batch wall clock, 0.0
    /// for an empty run.
    #[must_use]
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.succeeded as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// One-line report suffix, e.g.
    /// `farm: 12 jobs, 33.3% cache hits, 450.0 jobs/s`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "farm: {} jobs, {:.1}% cache hits, {:.1} jobs/s",
            self.jobs,
            100.0 * self.cache_hit_rate(),
            self.throughput_jobs_per_sec()
        )
    }
}

impl From<&FarmMetrics> for FarmRunStats {
    fn from(metrics: &FarmMetrics) -> Self {
        let mut stats = FarmRunStats::default();
        stats.accumulate(metrics);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen::{DesignBudget, Designer};
    use fsmgen_traces::BitTrace;

    fn trace() -> BitTrace {
        "0011".repeat(16).parse().unwrap()
    }

    #[test]
    fn profiled_records_every_pipeline_stage() {
        let (design, profile) = profiled(|| Designer::new(4).design_from_trace(&trace()));
        assert!(design.is_ok());
        let names = profile.stage_names();
        for stage in [
            "markov", "patterns", "minimize", "regex", "nfa", "dfa", "hopcroft", "reduce",
        ] {
            assert!(names.iter().any(|n| n == stage), "missing stage {stage}");
        }
        // Stage walls account for nearly all of the design root's time.
        assert!(
            profile.coverage() > 0.5,
            "coverage {:.3} too low",
            profile.coverage()
        );
        assert!(profile.rungs().is_empty());
    }

    #[test]
    fn profiled_attributes_budget_degradation_to_the_failing_stage() {
        let budget = DesignBudget {
            max_minterms: Some(1),
            ..DesignBudget::default()
        };
        let (design, profile) =
            profiled(|| Designer::new(4).budget(budget).design_from_trace(&trace()));
        assert!(design.is_ok());
        assert!(!profile.rungs().is_empty());
        // The minterm budget fails in the minimizer, so every rung is
        // attributed there.
        for rung in profile.rungs() {
            assert_eq!(rung.stage, "minimize", "misattributed rung {rung:?}");
        }
    }

    #[test]
    fn farm_run_stats_accumulate_and_rate() {
        let mut stats = FarmRunStats {
            jobs: 4,
            succeeded: 4,
            degraded: 0,
            cache_hits: 1,
            cache_misses: 3,
            wall_ms: 10.0,
        };
        let more = FarmRunStats {
            jobs: 2,
            succeeded: 1,
            degraded: 1,
            cache_hits: 1,
            cache_misses: 1,
            wall_ms: 10.0,
        };
        // Accumulate via a round-trip through FarmMetrics is covered in
        // the fig tests; here just the arithmetic.
        stats.jobs += more.jobs;
        stats.succeeded += more.succeeded;
        stats.cache_hits += more.cache_hits;
        stats.cache_misses += more.cache_misses;
        stats.wall_ms += more.wall_ms;
        assert!((stats.cache_hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((stats.throughput_jobs_per_sec() - 250.0).abs() < 1e-9);
        assert!(stats.summary_line().contains("6 jobs"));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let stats = FarmRunStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        assert_eq!(stats.throughput_jobs_per_sec(), 0.0);
    }
}
