//! Aggregated batch metrics: throughput, latency percentiles, cache
//! effectiveness and the degradation-rung histogram.
//!
//! Metrics are derived once per batch from the per-job results; the JSON
//! emitter is hand-rolled (the workspace's serde vendor has no
//! serializer) and produces a stable, machine-readable summary for the
//! CLI's `--metrics-json` flag and the benchmark artifacts.

use crate::cache::{CacheStats, SnapshotLoadReport};
use crate::store::StoreStats;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Summary of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmMetrics {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that produced a design.
    pub succeeded: usize,
    /// Jobs that failed with a [`FarmError`](crate::FarmError).
    pub failed: usize,
    /// Jobs whose design took at least one degradation rung.
    pub degraded: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Design-cache accounting for the batch's cache.
    pub cache: CacheStats,
    /// What warm-starting from the durable store did (zeros when no store
    /// is attached). Rendered as the `snapshot` JSON block.
    pub snapshot: SnapshotLoadReport,
    /// Durability counters of the attached log-structured store (zeros
    /// when no store is attached). Cumulative for the store handle, not
    /// per batch.
    pub store: StoreStats,
    /// Cached designs at the end of the batch.
    pub cache_entries: usize,
    /// The cache's capacity bound.
    pub cache_capacity: usize,
    /// Wall clock for the whole batch.
    pub batch_wall: Duration,
    /// Median per-job design latency (in-worker time, queue wait
    /// excluded). Nearest-rank; [`Duration::ZERO`] for an empty batch
    /// and the sole sample for a 1-job batch.
    pub latency_p50: Duration,
    /// 95th-percentile per-job design latency (same tiny-batch
    /// convention as `latency_p50`).
    pub latency_p95: Duration,
    /// Worst per-job design latency.
    pub latency_max: Duration,
    /// Completed jobs per second of batch wall clock.
    pub throughput_jobs_per_sec: f64,
    /// Count of designs per final degradation rung (rung display name →
    /// occurrences). Empty when nothing degraded.
    pub rung_histogram: BTreeMap<String, usize>,
}

/// Nearest-rank percentile of a sorted duration slice.
///
/// Convention for tiny batches (documented so `p50`/`p95` are always
/// well-defined):
///
/// - empty slice → [`Duration::ZERO`] (there is no latency to report);
/// - one element → that element for every quantile (rank `⌈q·1⌉ = 1`);
/// - otherwise the nearest-rank element `sorted[⌈q·n⌉ - 1]`, with the
///   rank clamped to `[1, n]` so `q = 0.0` and `q = 1.0` are also safe.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Raw per-batch inputs to [`FarmMetrics::aggregate`]: counts and cache
/// accounting, `walls` one in-worker duration per completed job, `rungs`
/// one final-rung name per degraded job.
#[derive(Debug)]
pub(crate) struct BatchTally<'a> {
    pub jobs: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub workers: usize,
    pub cache: CacheStats,
    pub snapshot: SnapshotLoadReport,
    pub store: StoreStats,
    pub cache_entries: usize,
    pub cache_capacity: usize,
    pub batch_wall: Duration,
    pub walls: &'a [Duration],
    pub rungs: &'a [String],
}

impl FarmMetrics {
    /// Aggregates one batch's raw tally into the summary.
    #[must_use]
    pub(crate) fn aggregate(tally: BatchTally<'_>) -> Self {
        let mut sorted = tally.walls.to_vec();
        sorted.sort_unstable();
        let mut rung_histogram = BTreeMap::new();
        for rung in tally.rungs {
            *rung_histogram.entry(rung.clone()).or_insert(0) += 1;
        }
        let secs = tally.batch_wall.as_secs_f64();
        FarmMetrics {
            jobs: tally.jobs,
            succeeded: tally.succeeded,
            failed: tally.failed,
            degraded: tally.rungs.len(),
            workers: tally.workers,
            cache: tally.cache,
            snapshot: tally.snapshot,
            store: tally.store,
            cache_entries: tally.cache_entries,
            cache_capacity: tally.cache_capacity,
            batch_wall: tally.batch_wall,
            latency_p50: percentile(&sorted, 0.50),
            latency_p95: percentile(&sorted, 0.95),
            latency_max: sorted.last().copied().unwrap_or(Duration::ZERO),
            throughput_jobs_per_sec: if secs > 0.0 {
                tally.succeeded as f64 / secs
            } else {
                0.0
            },
            rung_histogram,
        }
    }

    /// Renders the summary as one stable JSON object (2-space indented).
    ///
    /// The leading `"version"` field follows the shared obs/farm schema
    /// version ([`fsmgen_obs::SCHEMA_VERSION`]); the full schema is
    /// documented in `DESIGN.md`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut rungs = String::new();
        for (i, (rung, count)) in self.rung_histogram.iter().enumerate() {
            if i > 0 {
                rungs.push_str(", ");
            }
            rungs.push_str(&format!("{}: {count}", json_string(rung)));
        }
        format!(
            "{{\n  \"version\": {},\n  \"kind\": \"farm_metrics\",\n  \"jobs\": {},\n  \"succeeded\": {},\n  \"failed\": {},\n  \"degraded\": {},\n  \"workers\": {},\n  \"cache\": {{\"hits\": {}, \"snapshot_hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"insertions\": {}, \"evictions\": {}, \"stale\": {}, \"compiled\": {}, \"entries\": {}, \"capacity\": {}}},\n  \"snapshot\": {{\"loaded\": {}, \"skipped\": {}}},\n  \"store\": {{\"appends\": {}, \"flushes\": {}, \"recovered\": {}, \"skipped\": {}, \"truncated\": {}, \"compacted\": {}, \"migrated\": {}}},\n  \"wall_ms\": {:.3},\n  \"throughput_jobs_per_sec\": {:.3},\n  \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"max\": {:.3}}},\n  \"degradation_rungs\": {{{}}}\n}}\n",
            fsmgen_obs::SCHEMA_VERSION,
            self.jobs,
            self.succeeded,
            self.failed,
            self.degraded,
            self.workers,
            self.cache.hits,
            self.cache.snapshot_hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.insertions,
            self.cache.evictions,
            self.cache.stale,
            self.cache.compiled,
            self.cache_entries,
            self.cache_capacity,
            self.snapshot.loaded,
            self.snapshot.skipped,
            self.store.appends,
            self.store.flushes,
            self.store.recovered,
            self.store.skipped,
            self.store.truncated,
            self.store.compacted,
            self.store.migrated,
            ms(self.batch_wall),
            self.throughput_jobs_per_sec,
            ms(self.latency_p50),
            ms(self.latency_p95),
            ms(self.latency_max),
            rungs
        )
    }
}

/// Quotes and escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for FarmMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} jobs on {} workers in {:.1} ms ({:.1} jobs/s)",
            self.jobs,
            self.workers,
            self.batch_wall.as_secs_f64() * 1e3,
            self.throughput_jobs_per_sec
        )?;
        writeln!(
            f,
            "  succeeded {}, failed {}, degraded {}",
            self.succeeded, self.failed, self.degraded
        )?;
        writeln!(
            f,
            "  cache: {} hits + {} warm / {} misses ({:.1}% hit rate), {} entries (cap {})",
            self.cache.hits,
            self.cache.snapshot_hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache_entries,
            self.cache_capacity
        )?;
        if self.snapshot.loaded > 0 || self.snapshot.skipped > 0 || self.cache.stale > 0 {
            writeln!(
                f,
                "  snapshot: {} loaded, {} skipped, {} stale",
                self.snapshot.loaded, self.snapshot.skipped, self.cache.stale
            )?;
        }
        if self.store != StoreStats::default() {
            writeln!(
                f,
                "  store: {} appends in {} flushes, {} recovered, {} migrated, \
                 {} skipped, {} truncated, {} compacted",
                self.store.appends,
                self.store.flushes,
                self.store.recovered,
                self.store.migrated,
                self.store.skipped,
                self.store.truncated,
                self.store.compacted
            )?;
        }
        write!(
            f,
            "  latency: p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms",
            self.latency_p50.as_secs_f64() * 1e3,
            self.latency_p95.as_secs_f64() * 1e3,
            self.latency_max.as_secs_f64() * 1e3
        )?;
        for (rung, count) in &self.rung_histogram {
            write!(f, "\n  degraded via {rung}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FarmMetrics {
        FarmMetrics::aggregate(BatchTally {
            jobs: 4,
            succeeded: 3,
            failed: 1,
            workers: 2,
            cache: CacheStats {
                hits: 1,
                misses: 3,
                insertions: 3,
                evictions: 0,
                ..CacheStats::default()
            },
            snapshot: SnapshotLoadReport::default(),
            store: StoreStats::default(),
            cache_entries: 3,
            cache_capacity: 64,
            batch_wall: Duration::from_millis(100),
            walls: &[
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(30),
            ],
            rungs: &["saturating-counter fallback".into()],
        })
    }

    #[test]
    fn aggregation() {
        let m = sample();
        assert_eq!(m.jobs, 4);
        assert_eq!(m.succeeded, 3);
        assert_eq!(m.failed, 1);
        assert_eq!(m.degraded, 1);
        assert_eq!(m.latency_p50, Duration::from_millis(20));
        assert_eq!(m.latency_p95, Duration::from_millis(30));
        assert_eq!(m.latency_max, Duration::from_millis(30));
        assert!((m.throughput_jobs_per_sec - 30.0).abs() < 1e-9);
        assert_eq!(m.rung_histogram["saturating-counter fallback"], 1);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"jobs\": 4"));
        assert!(json.contains("\"hit_rate\": 0.2500"));
        assert!(json.contains("\"saturating-counter fallback\": 1"));
        // Balanced braces (no nesting surprises).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_carries_snapshot_accounting() {
        let mut m = sample();
        assert!(m
            .to_json()
            .contains("\"snapshot\": {\"loaded\": 0, \"skipped\": 0}"));
        assert!(m.to_json().contains("\"snapshot_hits\": 0"));
        m.snapshot = SnapshotLoadReport {
            loaded: 6,
            skipped: 2,
        };
        m.cache.snapshot_hits = 5;
        m.cache.stale = 2;
        let json = m.to_json();
        assert!(
            json.contains("\"snapshot\": {\"loaded\": 6, \"skipped\": 2}"),
            "{json}"
        );
        assert!(json.contains("\"snapshot_hits\": 5"), "{json}");
        assert!(json.contains("\"stale\": 2"), "{json}");
        // Warm hits count toward the hit rate: (1 + 5) / (1 + 5 + 3).
        assert!(json.contains("\"hit_rate\": 0.6667"), "{json}");
    }

    #[test]
    fn display_mentions_snapshot_only_when_used() {
        let mut m = sample();
        assert!(!m.to_string().contains("snapshot:"));
        m.snapshot.loaded = 3;
        assert!(m
            .to_string()
            .contains("snapshot: 3 loaded, 0 skipped, 0 stale"));
    }

    #[test]
    fn empty_batch_metrics() {
        let m = FarmMetrics::aggregate(BatchTally {
            jobs: 0,
            succeeded: 0,
            failed: 0,
            workers: 1,
            cache: CacheStats::default(),
            snapshot: SnapshotLoadReport::default(),
            store: StoreStats::default(),
            cache_entries: 0,
            cache_capacity: 0,
            batch_wall: Duration::ZERO,
            walls: &[],
            rungs: &[],
        });
        assert_eq!(m.latency_p50, Duration::ZERO);
        assert_eq!(m.throughput_jobs_per_sec, 0.0);
        assert!(m.to_json().contains("\"degradation_rungs\": {}"));
    }

    #[test]
    fn json_carries_store_accounting() {
        let mut m = sample();
        assert!(m.to_json().contains(
            "\"store\": {\"appends\": 0, \"flushes\": 0, \"recovered\": 0, \"skipped\": 0, \
             \"truncated\": 0, \"compacted\": 0, \"migrated\": 0}"
        ));
        assert!(!m.to_string().contains("store:"), "quiet without a store");
        m.store = StoreStats {
            appends: 9,
            flushes: 3,
            recovered: 4,
            skipped: 1,
            truncated: 1,
            compacted: 2,
            migrated: 5,
        };
        let json = m.to_json();
        assert!(
            json.contains(
                "\"store\": {\"appends\": 9, \"flushes\": 3, \"recovered\": 4, \"skipped\": 1, \
                 \"truncated\": 1, \"compacted\": 2, \"migrated\": 5}"
            ),
            "{json}"
        );
        // The snapshot block must stay ahead of the store block: CLI
        // tests extract `loaded`/`skipped` by first occurrence.
        assert!(json.find("\"snapshot\"").unwrap() < json.find("\"store\"").unwrap());
        assert!(m.to_string().contains("store: 9 appends in 3 flushes"));
    }

    #[test]
    fn json_carries_schema_version() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"version\": 1,"), "{json}");
        assert!(json.contains("\"kind\": \"farm_metrics\""));
    }

    #[test]
    fn percentiles_on_empty_slice_are_zero() {
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[], q), Duration::ZERO);
        }
    }

    #[test]
    fn percentiles_on_single_element_return_it() {
        let only = [Duration::from_millis(7)];
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&only, q), only[0]);
        }
    }

    #[test]
    fn single_job_batch_has_well_defined_quantiles() {
        let m = FarmMetrics::aggregate(BatchTally {
            jobs: 1,
            succeeded: 1,
            failed: 0,
            workers: 1,
            cache: CacheStats::default(),
            snapshot: SnapshotLoadReport::default(),
            store: StoreStats::default(),
            cache_entries: 1,
            cache_capacity: 8,
            batch_wall: Duration::from_millis(5),
            walls: &[Duration::from_millis(5)],
            rungs: &[],
        });
        assert_eq!(m.latency_p50, Duration::from_millis(5));
        assert_eq!(m.latency_p95, Duration::from_millis(5));
        assert_eq!(m.latency_max, Duration::from_millis(5));
    }

    #[test]
    fn two_element_percentiles_use_nearest_rank() {
        let sorted = [Duration::from_millis(1), Duration::from_millis(9)];
        assert_eq!(percentile(&sorted, 0.50), sorted[0]);
        assert_eq!(percentile(&sorted, 0.95), sorted[1]);
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn display_summary_mentions_cache() {
        let text = sample().to_string();
        assert!(text.contains("hit rate"));
        assert!(text.contains("p95"));
    }
}
