//! Structured farm events and the pluggable sink they flow through.
//!
//! Every job's lifecycle emits [`FarmEvent`]s — queued, started,
//! cache-hit, degraded, finished or failed — through an [`EventSink`]
//! shared by all workers. Sinks must be cheap and non-blocking in spirit:
//! they are called from worker threads on the design hot path. The
//! provided sinks are [`NullSink`] (drop everything, the default),
//! [`CollectingSink`] (buffer in memory, for tests and post-hoc analysis)
//! and [`StderrSink`] (line-oriented live progress, for the CLI's verbose
//! mode).

use fsmgen_obs::{ObsEvent, ObsSink};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One structured event in a batch run's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FarmEvent {
    /// A job was accepted into the batch, before any scheduling.
    JobQueued {
        /// The job's caller-chosen id.
        id: u64,
    },
    /// A worker picked the job up.
    JobStarted {
        /// The job's caller-chosen id.
        id: u64,
    },
    /// The job's fingerprint was found in the design cache; the cached
    /// design is returned without running the flow.
    CacheHit {
        /// The job's caller-chosen id.
        id: u64,
        /// The content fingerprint that matched.
        fingerprint: u64,
    },
    /// The design completed but took at least one degradation-ladder rung.
    JobDegraded {
        /// The job's caller-chosen id.
        id: u64,
        /// Human-readable name of the final rung taken.
        rung: String,
    },
    /// The job produced a design.
    JobFinished {
        /// The job's caller-chosen id.
        id: u64,
        /// Whether the design came from the cache.
        cache_hit: bool,
        /// Wall-clock time the job spent in a worker (queue wait
        /// excluded).
        wall: Duration,
        /// States in the final machine.
        states: usize,
    },
    /// The job failed with a typed error.
    JobFailed {
        /// The job's caller-chosen id.
        id: u64,
        /// The rendered [`FarmError`](crate::FarmError).
        error: String,
    },
    /// A durable store was attached and crash recovery ran.
    StoreRecovered {
        /// The store file.
        path: String,
        /// Valid log records replayed into the cache.
        recovered: usize,
        /// Records migrated from a legacy snapshot-format file.
        migrated: usize,
        /// Corrupt-but-framed records skipped.
        skipped: usize,
        /// Torn-tail truncation events (0 or 1 per open).
        truncated: usize,
    },
    /// The attached store was compacted online.
    StoreCompacted {
        /// The store file.
        path: String,
        /// Records surviving the rewrite.
        kept: usize,
        /// Records dropped (duplicates, stale generations, corruption).
        dropped: usize,
    },
}

impl FarmEvent {
    /// The id of the job the event concerns, or `None` for farm-level
    /// events (store recovery and compaction) that belong to no single job.
    #[must_use]
    pub fn job_id(&self) -> Option<u64> {
        match *self {
            FarmEvent::JobQueued { id }
            | FarmEvent::JobStarted { id }
            | FarmEvent::CacheHit { id, .. }
            | FarmEvent::JobDegraded { id, .. }
            | FarmEvent::JobFinished { id, .. }
            | FarmEvent::JobFailed { id, .. } => Some(id),
            FarmEvent::StoreRecovered { .. } | FarmEvent::StoreCompacted { .. } => None,
        }
    }
}

/// Receives [`FarmEvent`]s from every worker thread.
pub trait EventSink: Send + Sync {
    /// Records one event. Called from worker threads; implementations
    /// should be fast and must not panic.
    fn record(&self, event: &FarmEvent);
}

/// Discards every event — the default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &FarmEvent) {}
}

/// Buffers every event in memory, in arrival order.
///
/// Arrival order interleaves worker threads nondeterministically; tests
/// should assert on per-job event sequences (see [`CollectingSink::for_job`])
/// or on counts, not on global order.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<FarmEvent>>,
}

impl CollectingSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// A snapshot of everything recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<FarmEvent> {
        self.lock().clone()
    }

    /// The recorded events for one job, in arrival order (which *is*
    /// deterministic per job: queued, started, then the outcome events).
    #[must_use]
    pub fn for_job(&self, id: u64) -> Vec<FarmEvent> {
        self.lock()
            .iter()
            .filter(|e| e.job_id() == Some(id))
            .cloned()
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<FarmEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EventSink for CollectingSink {
    fn record(&self, event: &FarmEvent) {
        self.lock().push(event.clone());
    }
}

/// Prints one line per event to stderr — live progress for CLI runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn record(&self, event: &FarmEvent) {
        match event {
            FarmEvent::JobQueued { .. } | FarmEvent::JobStarted { .. } => {}
            FarmEvent::CacheHit { id, fingerprint } => {
                eprintln!("farm: job {id} cache hit ({fingerprint:#018x})");
            }
            FarmEvent::JobDegraded { id, rung } => {
                eprintln!("farm: job {id} degraded ({rung})");
            }
            FarmEvent::JobFinished {
                id,
                cache_hit,
                wall,
                states,
            } => {
                eprintln!(
                    "farm: job {id} finished in {:.2} ms ({states} states{})",
                    wall.as_secs_f64() * 1e3,
                    if *cache_hit { ", cached" } else { "" }
                );
            }
            FarmEvent::JobFailed { id, error } => {
                eprintln!("farm: job {id} FAILED: {error}");
            }
            FarmEvent::StoreRecovered {
                path,
                recovered,
                migrated,
                skipped,
                truncated,
            } => {
                eprintln!(
                    "farm: store {path}: {recovered} recovered, {migrated} migrated, \
                     {skipped} skipped, {truncated} torn tail(s) truncated"
                );
            }
            FarmEvent::StoreCompacted {
                path,
                kept,
                dropped,
            } => {
                eprintln!("farm: store {path}: compacted to {kept} records ({dropped} dropped)");
            }
        }
    }
}

/// Bridges farm lifecycle events into the `fsmgen-obs` event stream, so
/// one [`ObsSink`] (e.g. a JSONL writer) receives both the pipeline's
/// stage spans and the farm's job lifecycle through a single versioned
/// schema.
///
/// Lifecycle events become `mark` events in the `"farm"` scope (name =
/// snake_case event kind, detail = human-readable summary); a
/// [`FarmEvent::JobDegraded`] additionally mirrors the per-attempt rung
/// events the designer emits.
#[derive(Clone)]
pub struct ObsBridgeSink {
    sink: Arc<dyn ObsSink>,
}

impl ObsBridgeSink {
    /// Forwards every farm event to `sink` as an [`ObsEvent`].
    #[must_use]
    pub fn new(sink: Arc<dyn ObsSink>) -> Self {
        ObsBridgeSink { sink }
    }
}

impl std::fmt::Debug for ObsBridgeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsBridgeSink").finish_non_exhaustive()
    }
}

impl EventSink for ObsBridgeSink {
    fn record(&self, event: &FarmEvent) {
        self.sink.record(&to_obs_event(event));
    }
}

/// Converts one farm lifecycle event to its obs-schema equivalent.
#[must_use]
pub fn to_obs_event(event: &FarmEvent) -> ObsEvent {
    let mark = |name: &str, detail: String| ObsEvent::Mark {
        scope: "farm".to_string(),
        name: name.to_string(),
        detail,
    };
    match event {
        FarmEvent::JobQueued { id } => mark("job_queued", format!("job {id}")),
        FarmEvent::JobStarted { id } => mark("job_started", format!("job {id}")),
        FarmEvent::CacheHit { id, fingerprint } => mark(
            "cache_hit",
            format!("job {id} fingerprint {fingerprint:#018x}"),
        ),
        FarmEvent::JobDegraded { id, rung } => ObsEvent::Rung {
            rung: rung.clone(),
            stage: "farm".to_string(),
            reason: format!("job {id} degraded"),
        },
        FarmEvent::JobFinished {
            id,
            cache_hit,
            wall,
            states,
        } => mark(
            "job_finished",
            format!(
                "job {id} in {:.3} ms, {states} states{}",
                wall.as_secs_f64() * 1e3,
                if *cache_hit { ", cached" } else { "" }
            ),
        ),
        FarmEvent::JobFailed { id, error } => mark("job_failed", format!("job {id}: {error}")),
        FarmEvent::StoreRecovered {
            path,
            recovered,
            migrated,
            skipped,
            truncated,
        } => mark(
            "store_recover",
            format!(
                "{path}: {recovered} recovered, {migrated} migrated, \
                 {skipped} skipped, {truncated} truncated"
            ),
        ),
        FarmEvent::StoreCompacted {
            path,
            kept,
            dropped,
        } => mark(
            "store_compact",
            format!("{path}: {kept} kept, {dropped} dropped"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_buffers_in_order() {
        let sink = CollectingSink::new();
        sink.record(&FarmEvent::JobQueued { id: 1 });
        sink.record(&FarmEvent::JobStarted { id: 1 });
        sink.record(&FarmEvent::JobQueued { id: 2 });
        assert_eq!(sink.events().len(), 3);
        let one = sink.for_job(1);
        assert_eq!(
            one,
            vec![
                FarmEvent::JobQueued { id: 1 },
                FarmEvent::JobStarted { id: 1 }
            ]
        );
    }

    #[test]
    fn job_id_extraction() {
        assert_eq!(
            FarmEvent::JobFailed {
                id: 9,
                error: "x".into()
            }
            .job_id(),
            Some(9)
        );
        assert_eq!(
            FarmEvent::CacheHit {
                id: 3,
                fingerprint: 0
            }
            .job_id(),
            Some(3)
        );
        assert_eq!(
            FarmEvent::StoreCompacted {
                path: "designs.flog".into(),
                kept: 4,
                dropped: 1
            }
            .job_id(),
            None
        );
    }

    #[test]
    fn null_sink_is_a_no_op() {
        NullSink.record(&FarmEvent::JobQueued { id: 0 });
    }

    #[test]
    fn obs_bridge_forwards_lifecycle_as_marks_and_rungs() {
        let obs = Arc::new(fsmgen_obs::CollectingObsSink::new());
        let bridge = ObsBridgeSink::new(obs.clone());
        bridge.record(&FarmEvent::JobQueued { id: 7 });
        bridge.record(&FarmEvent::JobDegraded {
            id: 7,
            rung: "saturating-counter fallback".into(),
        });
        bridge.record(&FarmEvent::JobFinished {
            id: 7,
            cache_hit: true,
            wall: Duration::from_millis(2),
            states: 3,
        });
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[0], ObsEvent::Mark { scope, name, detail }
                if scope == "farm" && name == "job_queued" && detail == "job 7"));
        assert!(matches!(&events[1], ObsEvent::Rung { rung, stage, .. }
                if rung == "saturating-counter fallback" && stage == "farm"));
        assert!(matches!(&events[2], ObsEvent::Mark { name, detail, .. }
                if name == "job_finished" && detail.contains("cached")));
    }

    #[test]
    fn bridged_events_render_as_versioned_jsonl() {
        let line = to_obs_event(&FarmEvent::JobFailed {
            id: 1,
            error: "boom".into(),
        })
        .to_jsonl();
        assert!(line.starts_with("{\"v\": 1, \"type\": \"mark\""), "{line}");
        assert!(line.contains("job 1: boom"), "{line}");
    }
}
