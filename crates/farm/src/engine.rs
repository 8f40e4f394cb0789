//! The batch design engine: a work-stealing pool behind a content-addressed
//! design cache, with structured events and aggregate metrics.

use crate::cache::{CacheStats, DesignCache, SnapshotLoadReport};
use crate::error::FarmError;
use crate::events::{EventSink, FarmEvent, NullSink};
use crate::job::{DesignJob, JobInput};
use crate::metrics::FarmMetrics;
use crate::pool;
use crate::store::{
    CompactPolicy, CompactReport, DesignStore, StoreConfig, StoreError, StoreRecord, StoreStats,
};
use fsmgen::{failpoints, Design, DesignBudget, DesignError, Designer, SweepPoint};
use fsmgen_exec::CompiledMachine;
use fsmgen_obs as obs;
use fsmgen_traces::BitTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads for a batch. `1` runs every job inline on the
    /// calling thread (the sequential fallback).
    pub workers: usize,
    /// Bound on the design cache, in designs. `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for FarmConfig {
    /// One worker per available hardware thread and a 1024-design cache.
    fn default() -> Self {
        FarmConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache_capacity: 1024,
        }
    }
}

/// The outcome of one job, keyed by the id it was submitted under.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's caller-chosen id.
    pub id: u64,
    /// The finished design, or why it failed. Designs are shared: a cache
    /// hit and the job that populated the entry return the same `Arc`.
    pub result: Result<Arc<Design>, FarmError>,
    /// Whether the design came out of the cache.
    pub cache_hit: bool,
    /// The design's machine lowered to a dense transition table. Tables
    /// are compiled once at cache-insert, so hits — warm or cold — hand
    /// back the shared ready-to-run artifact; uncacheable jobs compile
    /// inline. `None` only when the job failed.
    pub compiled: Option<Arc<CompiledMachine>>,
    /// In-worker wall clock (queue wait excluded).
    pub wall: Duration,
}

/// Everything a batch run produced: per-job outcomes in submission order
/// plus the aggregate metrics.
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate throughput/latency/cache metrics for this batch.
    pub metrics: FarmMetrics,
}

impl BatchReport {
    /// The design produced for job `id`, if that job succeeded.
    #[must_use]
    pub fn design(&self, id: u64) -> Option<&Arc<Design>> {
        self.outcomes
            .iter()
            .find(|o| o.id == id)
            .and_then(|o| o.result.as_ref().ok())
    }

    /// The ready-to-run compiled machine for job `id`, if that job
    /// succeeded and its machine fit the compiled-table limits.
    #[must_use]
    pub fn compiled(&self, id: u64) -> Option<&Arc<CompiledMachine>> {
        self.outcomes
            .iter()
            .find(|o| o.id == id)
            .and_then(|o| o.compiled.as_ref())
    }
}

/// The batch design engine (the "farm").
///
/// A farm owns a design cache that persists across batches and a
/// configuration for the worker pool; [`Farm::design_batch`] runs one
/// batch of [`DesignJob`]s to completion. Results are **deterministic**:
/// outcomes come back in submission order and each job's design is
/// independent of the worker count and of scheduling (cache hits return a
/// design bit-identical to a fresh run of the same job).
///
/// # Examples
///
/// ```
/// use fsmgen::Designer;
/// use fsmgen_farm::{DesignJob, Farm, FarmConfig};
/// use fsmgen_traces::BitTrace;
/// use std::sync::Arc;
///
/// let trace: Arc<BitTrace> = Arc::new("0000 1000 1011 1101 1110 1111".parse().unwrap());
/// let farm = Farm::new(FarmConfig { workers: 2, cache_capacity: 16 });
/// let jobs = vec![
///     DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(2)),
///     DesignJob::from_trace(1, Arc::clone(&trace), Designer::new(2)), // cache hit
/// ];
/// let report = farm.design_batch(jobs);
/// assert_eq!(report.metrics.succeeded, 2);
/// assert_eq!(report.metrics.cache.hits + report.metrics.cache.misses, 2);
/// let d0 = report.design(0).unwrap();
/// assert_eq!(d0.fsm().num_states(), 3); // Figure 1's machine
/// ```
pub struct Farm {
    config: FarmConfig,
    /// Cache and single-flight claims under ONE mutex (a monitor): the
    /// atomic claim-or-lookup is what makes the dedup race-free.
    state: Mutex<CacheState>,
    /// Signalled (with the `state` lock held) whenever a claimed
    /// fingerprint is released.
    pending_done: std::sync::Condvar,
    sink: Arc<dyn EventSink>,
}

/// The shared mutable state workers coordinate through.
struct CacheState {
    cache: DesignCache,
    /// Fingerprints currently being designed — single-flight dedup: a
    /// worker hitting a pending fingerprint waits for the computer and
    /// takes the cached result instead of duplicating the design run.
    pending: std::collections::HashSet<u64>,
    /// Accumulated store warm-start accounting, copied into every batch's
    /// metrics (as the `snapshot` block) so warm-start provenance shows up
    /// in reports.
    snapshot_load: SnapshotLoadReport,
    /// The durable log-structured store, when one is attached: every
    /// computed design is appended at its cache-publish point. The handle
    /// is shared so several farms (the shards of a
    /// [`ShardedFarm`](crate::ShardedFarm)) can append to ONE log while
    /// keeping independent in-memory cache front-ends.
    store: Option<SharedStore>,
}

/// A durable store handle shareable across farms: one log, many
/// in-memory front-ends. Lock ordering is always `Farm::state` →
/// store (publish path) or store alone (flush/compact/stats), so
/// shards never deadlock on the shared log.
pub type SharedStore = Arc<Mutex<DesignStore>>;

/// Locks a shared store handle, riding through poisoning like the
/// farm's own state lock does.
pub(crate) fn lock_shared_store(store: &SharedStore) -> std::sync::MutexGuard<'_, DesignStore> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinated cache lookup decided for a job.
enum Lookup {
    /// Design it here; `claimed` says a single-flight claim must be
    /// released after publishing.
    Compute { claimed: bool },
    /// Served from the cache, with its compile-at-insert table artifact.
    Hit(Arc<Design>, Option<Arc<CompiledMachine>>),
}

impl std::fmt::Debug for Farm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Farm")
            .field("config", &self.config)
            .field("cache", &self.lock_state().cache)
            .finish_non_exhaustive()
    }
}

impl Default for Farm {
    fn default() -> Self {
        Farm::new(FarmConfig::default())
    }
}

impl Farm {
    /// Creates a farm with no event sink.
    #[must_use]
    pub fn new(config: FarmConfig) -> Self {
        Farm::with_sink(config, Arc::new(NullSink))
    }

    /// Creates a farm that reports every job's lifecycle to `sink`.
    #[must_use]
    pub fn with_sink(config: FarmConfig, sink: Arc<dyn EventSink>) -> Self {
        Farm {
            config,
            state: Mutex::new(CacheState {
                cache: DesignCache::new(config.cache_capacity),
                pending: std::collections::HashSet::new(),
                snapshot_load: SnapshotLoadReport::default(),
                store: None,
            }),
            pending_done: std::sync::Condvar::new(),
            sink,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Cumulative cache accounting since the farm was created.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_state().cache.stats()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches a durable log-structured store at `path`, running crash
    /// recovery and warm-starting the cache from the recovered records.
    /// This is how a farm persists designs and starts warm.
    ///
    /// Every restored design becomes a warm entry: it is served only after
    /// its stored verification digest matches the requesting job's
    /// [`verify_hash`](DesignJob::verify_hash), so a cross-process
    /// fingerprint collision degrades to a recompute instead of a wrong
    /// design. Restores count into the `snapshot` load accounting of the
    /// batch metrics. Once attached, every design the farm computes is
    /// appended to the log at its cache-publish point.
    ///
    /// Missing files become fresh stores; legacy snapshot files migrate
    /// in place; torn tails are truncated (see
    /// [`DesignStore::open`]). Reported as a `store_recover` span with
    /// `recovered`/`migrated`/`skipped`/`truncated` counters and a
    /// [`FarmEvent::StoreRecovered`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only when the file cannot serve as a
    /// store at all (I/O failure, foreign magic); callers should log it
    /// and continue cold. No store is attached on error.
    pub fn attach_store(&self, path: &Path, config: StoreConfig) -> Result<StoreStats, StoreError> {
        let _span = obs::span("store_recover");
        let (store, records) = DesignStore::open(path, config)?;
        let stats = store.stats();
        self.adopt_store(Arc::new(Mutex::new(store)), records, stats.skipped as usize);
        obs::counter("store_recover", "recovered", stats.recovered);
        obs::counter("store_recover", "migrated", stats.migrated);
        obs::counter("store_recover", "skipped", stats.skipped);
        obs::counter("store_recover", "truncated", stats.truncated);
        self.sink.record(&FarmEvent::StoreRecovered {
            path: path.display().to_string(),
            recovered: stats.recovered as usize,
            migrated: stats.migrated as usize,
            skipped: stats.skipped as usize,
            truncated: stats.truncated as usize,
        });
        Ok(stats)
    }

    /// Adopts an already-open (possibly shared) store handle,
    /// warm-starting this farm's cache from `records` — the shard-level
    /// building block behind [`Farm::attach_store`] and
    /// [`ShardedFarm::attach_store`](crate::ShardedFarm::attach_store):
    /// a sharded deployment opens the log once, partitions the recovered
    /// records by fingerprint and hands every shard the same handle.
    ///
    /// `skipped` is the recovery-time corrupt-record count attributed to
    /// this farm's warm-start accounting.
    pub fn adopt_store(&self, store: SharedStore, records: Vec<StoreRecord>, skipped: usize) {
        let mut state = self.lock_state();
        state.snapshot_load.loaded += records.len();
        state.snapshot_load.skipped += skipped;
        for rec in records {
            state
                .cache
                .insert_warm(rec.fingerprint, rec.verify, rec.design);
        }
        state.store = Some(store);
    }

    /// The shared handle to the attached store, if any.
    #[must_use]
    pub fn store_handle(&self) -> Option<SharedStore> {
        self.lock_state().store.clone()
    }

    /// Forces the attached store's unflushed appends to disk. A no-op
    /// without an attached store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the fsync fails.
    pub fn flush_store(&self) -> Result<(), StoreError> {
        let store = self.lock_state().store.clone();
        match store {
            Some(store) => lock_shared_store(&store).flush(),
            None => Ok(()),
        }
    }

    /// Compacts the attached store online (see [`DesignStore::compact`]):
    /// newest record per fingerprint, bounded by `policy`. Returns
    /// `None` without an attached store. Reported as a `store_compact`
    /// span with `kept`/`dropped` counters and a
    /// [`FarmEvent::StoreCompacted`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the rewrite fails; the previous log
    /// survives unless the atomic rename completed.
    pub fn compact_store(
        &self,
        policy: &CompactPolicy,
    ) -> Result<Option<CompactReport>, StoreError> {
        let Some(store) = self.lock_state().store.clone() else {
            return Ok(None);
        };
        let (report, path) = {
            let mut store = lock_shared_store(&store);
            let _span = obs::span("store_compact");
            let report = store.compact(policy)?;
            (report, store.path().display().to_string())
        };
        obs::counter("store_compact", "kept", report.kept as u64);
        obs::counter("store_compact", "dropped", report.dropped as u64);
        self.sink.record(&FarmEvent::StoreCompacted {
            path,
            kept: report.kept,
            dropped: report.dropped,
        });
        Ok(Some(report))
    }

    /// The attached store's cumulative durability counters, if any.
    #[must_use]
    pub fn store_stats(&self) -> Option<StoreStats> {
        let store = self.lock_state().store.clone();
        store.map(|store| lock_shared_store(&store).stats())
    }

    /// Designs every job in the batch, concurrently, and returns outcomes
    /// in submission order plus aggregate metrics.
    ///
    /// Failed jobs (typed [`FarmError`]s) never stall or poison the rest
    /// of the batch. Per-job results are deterministic in the worker
    /// count; only timing-derived metrics vary run to run.
    #[must_use]
    pub fn design_batch(&self, jobs: Vec<DesignJob>) -> BatchReport {
        let stats_before = self.lock_state().cache.stats();
        let batch_start = Instant::now();
        for job in &jobs {
            self.sink.record(&FarmEvent::JobQueued { id: job.id });
        }

        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|job| move || self.run_job(job))
            .collect();
        let outcomes = pool::run_batch(self.config.workers, tasks);

        let batch_wall = batch_start.elapsed();
        let stats_after = self.lock_state().cache.stats();
        let cache = CacheStats {
            hits: stats_after.hits - stats_before.hits,
            snapshot_hits: stats_after.snapshot_hits - stats_before.snapshot_hits,
            misses: stats_after.misses - stats_before.misses,
            insertions: stats_after.insertions - stats_before.insertions,
            evictions: stats_after.evictions - stats_before.evictions,
            stale: stats_after.stale - stats_before.stale,
            compiled: stats_after.compiled - stats_before.compiled,
        };
        let walls: Vec<Duration> = outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| o.wall)
            .collect();
        let rungs: Vec<String> = outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .filter_map(|d| d.degradation().final_rung())
            .map(|r| r.to_string())
            .collect();
        let succeeded = walls.len();
        let (entries, capacity, snapshot, store) = {
            let state = self.lock_state();
            (
                state.cache.len(),
                state.cache.capacity(),
                state.snapshot_load,
                state
                    .store
                    .as_ref()
                    .map(|s| lock_shared_store(s).stats())
                    .unwrap_or_default(),
            )
        };
        let metrics = FarmMetrics::aggregate(crate::metrics::BatchTally {
            jobs: outcomes.len(),
            succeeded,
            failed: outcomes.len() - succeeded,
            workers: self.config.workers,
            cache,
            snapshot,
            store,
            cache_entries: entries,
            cache_capacity: capacity,
            batch_wall,
            walls: &walls,
            rungs: &rungs,
        });
        BatchReport { outcomes, metrics }
    }

    /// The online-redesign entry: designs a fresh machine from a window
    /// of live outcomes and returns the ready-to-swap compiled artifact.
    ///
    /// This is a one-job [`Farm::design_batch`], so the content-addressed
    /// cache, single-flight dedup, durable store and obs events all apply
    /// — a hot-swap redesign of a window the farm has seen before is a
    /// cache hit.
    ///
    /// # Errors
    ///
    /// Returns the job's [`FarmError`] (e.g. the window is shorter than
    /// the history order), or a wrapped [`DesignError::BadConfig`] if the
    /// designed machine could not be compiled to a dense table.
    pub fn redesign(
        &self,
        id: u64,
        window: &[bool],
        designer: Designer,
    ) -> Result<Arc<CompiledMachine>, FarmError> {
        let trace: Arc<BitTrace> = Arc::new(window.iter().copied().collect());
        let report = self.design_batch(vec![DesignJob::from_trace(id, trace, designer)]);
        let Some(outcome) = report.outcomes.into_iter().next() else {
            return Err(FarmError::Design(DesignError::BadConfig(
                "redesign batch produced no outcome".into(),
            )));
        };
        outcome.result?;
        outcome.compiled.ok_or_else(|| {
            FarmError::Design(DesignError::BadConfig(
                "designed machine does not fit the compiled-table limits".into(),
            ))
        })
    }

    /// Runs one job on the current (worker) thread.
    fn run_job(&self, job: DesignJob) -> JobOutcome {
        let id = job.id;
        self.sink.record(&FarmEvent::JobStarted { id });
        let start = Instant::now();

        // The farm-worker failpoint: `error` poisons this job with a hard
        // injected fault; `budget` collapses the job's resource envelope,
        // which exercises the degradation ladder (or the typed budget
        // error when degradation is off) end to end through the farm.
        let mut job = job;
        match failpoints::fire("farm-worker") {
            Some(failpoints::FailAction::Error) => {
                let error = FarmError::InjectedFault {
                    reason: "injected fault at farm-worker".into(),
                };
                self.sink.record(&FarmEvent::JobFailed {
                    id,
                    error: error.to_string(),
                });
                return JobOutcome {
                    id,
                    result: Err(error),
                    cache_hit: false,
                    compiled: None,
                    wall: start.elapsed(),
                };
            }
            Some(failpoints::FailAction::BudgetExceeded) => {
                job.designer = job.designer.clone().budget(DesignBudget {
                    max_minterms: Some(1),
                    ..DesignBudget::default()
                });
            }
            None => {}
        }

        // Coordinated cache lookup with single-flight dedup, all under
        // the one state lock: while a fingerprint is pending, wait; once
        // it is not, do exactly one (counted) cache lookup — a hit serves
        // the waiter, a miss claims the fingerprint for this worker.
        // Waiting is pointless with no cache to publish through
        // (capacity 0), so identical jobs then just compute in parallel.
        let fingerprint = job.fingerprint();
        // The independent verification digest: `Some` exactly when the
        // fingerprint is. Warm (snapshot-restored) cache entries are only
        // served when their stored digest matches this one.
        let verify = job.verify_hash().unwrap_or_default();
        let lookup = match fingerprint {
            None => Lookup::Compute { claimed: false },
            Some(fp) => {
                let mut state = self.lock_state();
                if state.cache.capacity() == 0 {
                    let _ = state.cache.get(fp); // records the miss
                    Lookup::Compute { claimed: false }
                } else {
                    loop {
                        if state.pending.contains(&fp) {
                            // Another worker is designing this exact job:
                            // wait for it to publish (or fail), then
                            // re-decide.
                            state = self
                                .pending_done
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner);
                            continue;
                        }
                        match state.cache.get_verified(fp, verify) {
                            Some(design) => {
                                let compiled = state.cache.compiled_of(fp);
                                break Lookup::Hit(design, compiled);
                            }
                            None => {
                                state.pending.insert(fp);
                                break Lookup::Compute { claimed: true };
                            }
                        }
                    }
                }
            }
        };
        let claimed = match lookup {
            Lookup::Hit(design, compiled) => {
                let fp = fingerprint.unwrap_or_default();
                self.sink.record(&FarmEvent::CacheHit {
                    id,
                    fingerprint: fp,
                });
                let wall = start.elapsed();
                self.sink.record(&FarmEvent::JobFinished {
                    id,
                    cache_hit: true,
                    wall,
                    states: design.fsm().num_states(),
                });
                return JobOutcome {
                    id,
                    result: Ok(design),
                    cache_hit: true,
                    compiled,
                    wall,
                };
            }
            Lookup::Compute { claimed } => claimed,
        };

        let DesignJob {
            input, designer, ..
        } = job;
        let computed: Result<Result<Design, DesignError>, FarmError> =
            catch_unwind(AssertUnwindSafe(move || match input {
                JobInput::Trace(trace) => designer.design_from_trace(&trace),
                JobInput::Model(model) => designer.design_from_model(model),
            }))
            .map_err(|payload| FarmError::WorkerPanic {
                reason: panic_message(payload.as_ref()),
            });
        let result: Result<Arc<Design>, FarmError> = match computed {
            Ok(Ok(design)) => Ok(Arc::new(design)),
            Ok(Err(e)) => Err(FarmError::Design(e)),
            Err(e) => Err(e),
        };
        let wall = start.elapsed();

        // Publish the design and release any single-flight claim in one
        // critical section, waking the workers waiting on it. With a
        // durable store attached the publish also appends to the log —
        // an append failure degrades durability, never the job.
        let mut compiled = None;
        if let Some(fp) = fingerprint {
            let mut state = self.lock_state();
            let CacheState {
                cache,
                store,
                pending,
                ..
            } = &mut *state;
            if let Ok(design) = &result {
                cache.insert_verified(fp, verify, Arc::clone(design));
                // Share the compile-at-insert artifact with this outcome.
                compiled = cache.compiled_of(fp);
                if let Some(store) = store.as_ref() {
                    let _span = obs::span("store_append");
                    match lock_shared_store(store).append(fp, verify, design) {
                        Ok(()) => obs::counter("store_append", "records", 1),
                        Err(err) => obs::mark("farm", "store_append_failed", &err.to_string()),
                    }
                }
            }
            if claimed {
                pending.remove(&fp);
                self.pending_done.notify_all();
            }
        }

        match &result {
            Ok(design) => {
                if let Some(rung) = design.degradation().final_rung() {
                    self.sink.record(&FarmEvent::JobDegraded {
                        id,
                        rung: rung.to_string(),
                    });
                }
                self.sink.record(&FarmEvent::JobFinished {
                    id,
                    cache_hit: false,
                    wall,
                    states: design.fsm().num_states(),
                });
            }
            Err(error) => {
                self.sink.record(&FarmEvent::JobFailed {
                    id,
                    error: error.to_string(),
                });
            }
        }
        // Uncacheable jobs (no fingerprint) and capacity-0 caches still
        // deliver a ready table; only failed jobs go without.
        if compiled.is_none() {
            if let Ok(design) = &result {
                compiled = CompiledMachine::compile(design.fsm()).ok().map(Arc::new);
            }
        }
        JobOutcome {
            id,
            result,
            cache_hit: false,
            compiled,
            wall,
        }
    }

    /// The farm-backed history sweep: same signature and semantics as
    /// [`fsmgen::sweep_histories`], with designs computed on the farm's
    /// worker pool. With `workers = 1` this *is* the sequential sweep.
    ///
    /// Results are bit-identical to the sequential sweep at any worker
    /// count (the determinism tests pin this at 1, 2 and 8 workers).
    ///
    /// # Errors
    ///
    /// Exactly as the sequential sweep: the first non-length-related
    /// [`DesignError`] in history order; lengths the trace cannot fill are
    /// skipped.
    pub fn sweep_histories(
        &self,
        trace: &BitTrace,
        histories: impl IntoIterator<Item = usize>,
        configure: impl Fn(Designer) -> Designer,
    ) -> Result<Vec<SweepPoint>, DesignError> {
        if self.config.workers <= 1 {
            return fsmgen::sweep_histories(trace, histories, configure);
        }
        let lengths: Vec<usize> = histories.into_iter().collect();
        let shared = Arc::new(trace.clone());
        let jobs: Vec<DesignJob> = lengths
            .iter()
            .enumerate()
            .map(|(i, &history)| {
                let designer = configure(Designer::new(history));
                debug_assert_eq!(
                    designer.history(),
                    history,
                    "configure must keep the history"
                );
                DesignJob::from_trace(i as u64, Arc::clone(&shared), designer)
            })
            .collect();
        let report = self.design_batch(jobs);

        let mut points = Vec::new();
        for (history, outcome) in lengths.into_iter().zip(report.outcomes) {
            match outcome.result {
                Ok(design) => {
                    let training_accuracy = replay(&design, trace, history);
                    points.push(SweepPoint {
                        history,
                        design: (*design).clone(),
                        training_accuracy,
                    });
                }
                Err(FarmError::Design(DesignError::TraceTooShort { .. })) => {}
                Err(FarmError::Design(e)) => return Err(e),
                Err(e) => {
                    return Err(DesignError::Internal {
                        stage: "farm-worker",
                        reason: e.to_string(),
                    })
                }
            }
        }
        Ok(points)
    }
}

/// Replays a design over a trace, counting predictions after the warmup
/// window — mirrors the sequential sweep's evaluation exactly.
fn replay(design: &Design, trace: &BitTrace, warmup: usize) -> f64 {
    let mut p = design.predictor();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, bit) in trace.iter().enumerate() {
        if i >= warmup {
            total += 1;
            if p.predict() == bit {
                correct += 1;
            }
        }
        p.update(bit);
    }
    correct as f64 / total.max(1) as f64
}

/// Renders a panic payload as a message when it was a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Free-function convenience for the farm-backed sweep: designs each
/// history length on `workers` threads. `workers = 1` falls back to the
/// sequential [`fsmgen::sweep_histories`].
///
/// # Errors
///
/// Exactly as [`fsmgen::sweep_histories`].
pub fn sweep_histories_parallel(
    trace: &BitTrace,
    histories: impl IntoIterator<Item = usize>,
    configure: impl Fn(Designer) -> Designer,
    workers: usize,
) -> Result<Vec<SweepPoint>, DesignError> {
    Farm::new(FarmConfig {
        workers,
        cache_capacity: 0,
    })
    .sweep_histories(trace, histories, configure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectingSink;

    fn paper_trace() -> Arc<BitTrace> {
        Arc::new("0000 1000 1011 1101 1110 1111".parse().unwrap())
    }

    #[test]
    fn batch_designs_and_caches() {
        let sink = Arc::new(CollectingSink::new());
        let farm = Farm::with_sink(
            FarmConfig {
                workers: 2,
                cache_capacity: 8,
            },
            Arc::clone(&sink) as Arc<dyn EventSink>,
        );
        let trace = paper_trace();
        let jobs: Vec<DesignJob> = (0..4)
            .map(|i| DesignJob::from_trace(i, Arc::clone(&trace), Designer::new(2)))
            .collect();
        let report = farm.design_batch(jobs);
        assert_eq!(report.metrics.jobs, 4);
        assert_eq!(report.metrics.succeeded, 4);
        // All four jobs are identical: single-flight guarantees exactly
        // one computes (one miss) and the other three hit, whatever the
        // schedule.
        let cache = report.metrics.cache;
        assert_eq!(cache.misses, 1, "single-flight must dedup: {cache:?}");
        assert_eq!(cache.hits, 3, "single-flight must dedup: {cache:?}");
        // Every outcome carries Figure 1's 3-state machine.
        for o in &report.outcomes {
            let design = o.result.as_ref().expect("job succeeded");
            assert_eq!(design.fsm().num_states(), 3);
        }
        // Per-job event order is queued → started → … → finished.
        for id in 0..4 {
            let events = sink.for_job(id);
            assert!(matches!(events.first(), Some(FarmEvent::JobQueued { .. })));
            assert!(matches!(events.last(), Some(FarmEvent::JobFinished { .. })));
        }
    }

    #[test]
    fn outcomes_keep_submission_order_with_mixed_ids() {
        let farm = Farm::new(FarmConfig {
            workers: 4,
            cache_capacity: 0,
        });
        let trace = paper_trace();
        let ids = [42u64, 7, 19, 3, 27];
        let jobs: Vec<DesignJob> = ids
            .iter()
            .map(|&id| DesignJob::from_trace(id, Arc::clone(&trace), Designer::new(2)))
            .collect();
        let report = farm.design_batch(jobs);
        let got: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(got, ids);
        assert!(report.design(19).is_some());
        assert!(report.design(99).is_none());
    }

    #[test]
    fn failed_job_does_not_poison_batch() {
        let farm = Farm::new(FarmConfig {
            workers: 2,
            cache_capacity: 8,
        });
        let trace = paper_trace();
        let tiny: Arc<BitTrace> = Arc::new("01".parse().unwrap());
        let jobs = vec![
            DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(2)),
            // History 6 cannot be filled by a 2-bit trace: typed failure.
            DesignJob::from_trace(1, tiny, Designer::new(6)),
            DesignJob::from_trace(2, trace, Designer::new(3)),
        ];
        let report = farm.design_batch(jobs);
        assert_eq!(report.metrics.succeeded, 2);
        assert_eq!(report.metrics.failed, 1);
        assert!(matches!(
            report.outcomes[1].result,
            Err(FarmError::Design(DesignError::TraceTooShort { .. }))
        ));
        assert!(report.outcomes[0].result.is_ok());
        assert!(report.outcomes[2].result.is_ok());
    }

    #[test]
    fn model_jobs_design_like_trace_jobs() {
        let trace = paper_trace();
        let model = fsmgen::MarkovModel::from_bit_trace(2, &trace).unwrap();
        let farm = Farm::new(FarmConfig {
            workers: 2,
            cache_capacity: 4,
        });
        let report = farm.design_batch(vec![
            DesignJob::from_model(0, model, Designer::new(2)),
            DesignJob::from_trace(1, trace, Designer::new(2)),
        ]);
        let a = report.design(0).expect("model job");
        let b = report.design(1).expect("trace job");
        assert_eq!(a.fsm(), b.fsm());
    }

    #[test]
    fn degraded_jobs_are_counted_and_reported() {
        let sink = Arc::new(CollectingSink::new());
        let farm = Farm::with_sink(
            FarmConfig {
                workers: 2,
                cache_capacity: 4,
            },
            Arc::clone(&sink) as Arc<dyn EventSink>,
        );
        let trace = paper_trace();
        let budget = DesignBudget {
            max_minterms: Some(1),
            ..DesignBudget::default()
        };
        let report = farm.design_batch(vec![DesignJob::from_trace(
            0,
            trace,
            Designer::new(4).budget(budget),
        )]);
        assert_eq!(report.metrics.degraded, 1);
        assert_eq!(
            report.metrics.rung_histogram["saturating-counter fallback"],
            1
        );
        assert!(sink
            .for_job(0)
            .iter()
            .any(|e| matches!(e, FarmEvent::JobDegraded { .. })));
    }

    #[test]
    fn sweep_matches_sequential_semantics_on_short_trace() {
        let trace: BitTrace = "0110 1".parse().unwrap(); // 5 bits
        let farm = Farm::new(FarmConfig {
            workers: 4,
            cache_capacity: 0,
        });
        let points = farm.sweep_histories(&trace, 2..=8, |d| d).unwrap();
        let lengths: Vec<usize> = points.iter().map(|p| p.history).collect();
        assert_eq!(lengths, vec![2, 3, 4]);
    }

    #[test]
    fn sweep_propagates_config_errors() {
        let trace: BitTrace = "0101".repeat(20).parse().unwrap();
        let err =
            sweep_histories_parallel(&trace, 2..=3, |d| d.prob_threshold(2.0), 3).unwrap_err();
        assert!(matches!(err, DesignError::BadConfig(_)));
    }

    #[test]
    fn store_append_on_insert_survives_restart() {
        let dir = std::env::temp_dir().join(format!("fsmgen-farm-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("designs.flog");
        let _ = std::fs::remove_file(&path);
        let trace = paper_trace();
        let job = || DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(2));
        let config = StoreConfig {
            flush_every: 1,
            ..StoreConfig::default()
        };

        // Cold farm: the computed design is appended at publish time —
        // no explicit save step.
        let cold = Farm::new(FarmConfig {
            workers: 2,
            cache_capacity: 16,
        });
        cold.attach_store(&path, config).unwrap();
        let cold_report = cold.design_batch(vec![job()]);
        let cold_design = Arc::clone(cold_report.design(0).unwrap());
        assert_eq!(cold_report.metrics.store.appends, 1);
        assert!(cold_report.metrics.store.flushes >= 1);
        drop(cold);

        // Warm farm over the same store: recovery repopulates the cache.
        let sink = Arc::new(CollectingSink::new());
        let warm = Farm::with_sink(
            FarmConfig {
                workers: 2,
                cache_capacity: 16,
            },
            Arc::clone(&sink) as Arc<dyn EventSink>,
        );
        let stats = warm.attach_store(&path, config).unwrap();
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.truncated, 0);
        let warm_report = warm.design_batch(vec![job()]);
        assert!(warm_report.outcomes[0].cache_hit);
        assert_eq!(warm_report.metrics.cache.snapshot_hits, 1);
        assert_eq!(warm_report.metrics.snapshot.loaded, 1);
        assert_eq!(**warm_report.design(0).unwrap(), *cold_design);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, FarmEvent::StoreRecovered { recovered: 1, .. })));

        // Online compaction through the farm: dedup leaves one record.
        let report = warm
            .compact_store(&CompactPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(report.kept, 1);
        assert!(warm.store_stats().is_some());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_attach_keeps_most_recent_records() {
        let dir = std::env::temp_dir().join(format!("fsmgen-farm-bound-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("designs.flog");
        let _ = std::fs::remove_file(&path);
        let trace = paper_trace();
        let job = |history| DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(history));
        let histories = 2..=7usize;

        // Six records, appended oldest (h2) to newest (h7).
        let cold = Farm::new(FarmConfig {
            workers: 1,
            cache_capacity: 8,
        });
        cold.attach_store(&path, StoreConfig::default()).unwrap();
        for h in histories.clone() {
            assert_eq!(cold.design_batch(vec![job(h)]).metrics.succeeded, 1);
        }
        drop(cold);

        // A capacity-2 farm replays all six and keeps the two newest.
        let warm = Farm::new(FarmConfig {
            workers: 1,
            cache_capacity: 2,
        });
        let stats = warm.attach_store(&path, StoreConfig::default()).unwrap();
        assert_eq!(stats.recovered, 6);
        let newest = warm.design_batch(vec![job(6), job(7)]);
        assert_eq!(newest.metrics.snapshot.loaded, 6);
        assert_eq!(newest.metrics.cache.snapshot_hits, 2);
        assert_eq!(newest.metrics.cache.misses, 0);
        let older = warm.design_batch(histories.take(4).map(job).collect());
        assert_eq!(older.metrics.cache.snapshot_hits, 0);
        assert_eq!(older.metrics.cache.misses, 4);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_persists_across_batches() {
        let farm = Farm::new(FarmConfig {
            workers: 2,
            cache_capacity: 16,
        });
        let trace = paper_trace();
        let job = || DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(2));
        let first = farm.design_batch(vec![job()]);
        assert_eq!(first.metrics.cache.hits, 0);
        let second = farm.design_batch(vec![job()]);
        assert_eq!(second.metrics.cache.hits, 1);
        assert_eq!(second.metrics.cache.misses, 0);
        assert!(second.outcomes[0].cache_hit);
    }
}
