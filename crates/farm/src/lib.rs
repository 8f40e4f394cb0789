//! # fsmgen-farm — the parallel, cache-aware batch design engine
//!
//! Sherwood & Calder's design flow ([`fsmgen`]) turns one behaviour trace
//! into one FSM predictor. Real customization workloads run the flow in
//! *fleets*: one design per hot branch, per benchmark, per history length,
//! per threshold sweep point — hundreds of jobs that are independent,
//! CPU-bound and frequently **identical** (the same hot branch shows up in
//! every input set; sweeps revisit the same configuration).
//!
//! This crate batches those runs behind three cooperating pieces:
//!
//! - a dependency-free **work-stealing thread pool** (internal) that
//!   designs a batch of [`DesignJob`]s concurrently while keeping
//!   results **deterministic**: outcomes come back in submission order and
//!   every design is bit-identical whatever the worker count or schedule;
//! - a **content-addressed design cache** ([`DesignCache`]) in front of
//!   the flow, keyed by a stable 64-bit FNV-1a [fingerprint]
//!   (`DesignJob::fingerprint`) over the trace bits (or model counts) and
//!   every configuration field that affects the output, with an LRU bound
//!   and hit/miss/eviction accounting ([`CacheStats`]);
//! - **structured events** ([`FarmEvent`]) flowing through a pluggable
//!   [`EventSink`], aggregated per batch into a [`FarmMetrics`] summary
//!   (throughput, p50/p95/max latency, cache hit rate and the
//!   degradation-rung histogram) with a stable JSON rendering;
//! - a **durable log-structured store** ([`DesignStore`], behind
//!   [`Farm::attach_store`]), the one persistence format: an append log
//!   fsync'd incrementally while serving, so a later process starts warm.
//!   Recovery truncates torn tails and skips and counts corrupt records
//!   rather than failing; warm entries are re-verified against an
//!   independent digest ([`DesignJob::verify_hash`]) before being served.
//!   Records are generation-stamped, and online compaction
//!   ([`DesignStore::compact`]) applies size and generation-TTL policies.
//!   Legacy v1 snapshot files are read only to migrate them, once, into
//!   the log ([`decode_snapshot`]);
//! - a **sharded cache front-end** ([`ShardedFarm`]): N farms behind one
//!   fingerprint-routed facade (`fingerprint % shards`), killing the
//!   single cache lock for high-fanout serving while every shard appends
//!   to the same durable log.
//!
//! Failures stay contained: a job that fails — typed [`FarmError`],
//! including faults injected at the `farm-worker` failpoint and contained
//! worker panics — never stalls or corrupts the rest of its batch.
//!
//! The farm-backed [`Farm::sweep_histories`] (and the free function
//! [`sweep_histories_parallel`]) mirrors [`fsmgen::sweep_histories`]
//! exactly, falling back to the sequential implementation at one worker.
//!
//! ```
//! use fsmgen::Designer;
//! use fsmgen_farm::{DesignJob, Farm, FarmConfig};
//! use fsmgen_traces::BitTrace;
//! use std::sync::Arc;
//!
//! let trace: Arc<BitTrace> = Arc::new("0000 1000 1011 1101 1110 1111".parse().unwrap());
//! let farm = Farm::new(FarmConfig { workers: 4, cache_capacity: 64 });
//! let jobs = (0..8)
//!     .map(|id| DesignJob::from_trace(id, Arc::clone(&trace), Designer::new(2)))
//!     .collect();
//! let report = farm.design_batch(jobs);
//! assert_eq!(report.metrics.succeeded, 8);
//! assert!(report.metrics.cache.hits >= 1); // identical jobs hit the cache
//! println!("{}", report.metrics.to_json());
//! ```
//!
//! [fingerprint]: DesignJob::fingerprint

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod engine;
mod error;
mod events;
mod fnv;
mod job;
mod metrics;
mod pool;
mod sharded;
mod snapshot;
mod store;

pub use cache::{CacheStats, DesignCache, SnapshotLoadReport};
pub use engine::{
    sweep_histories_parallel, BatchReport, Farm, FarmConfig, JobOutcome, SharedStore,
};
pub use error::FarmError;
pub use events::{
    to_obs_event, CollectingSink, EventSink, FarmEvent, NullSink, ObsBridgeSink, StderrSink,
};
pub use fnv::Fnv1a;
pub use job::{DesignJob, JobInput};
pub use metrics::FarmMetrics;
pub use sharded::ShardedFarm;
pub use snapshot::{
    decode_design, decode_snapshot, encode_design, encode_snapshot, DecodedSnapshot, SnapshotError,
    SnapshotRecord, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{
    read_design_file, CompactPolicy, CompactReport, DecodedStore, DesignStore, StoreConfig,
    StoreError, StoreFormat, StoreRecord, StoreStats, STORE_MAGIC, STORE_VERSION,
};
