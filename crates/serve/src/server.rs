//! The TCP design server, in two interchangeable architectures over the
//! same protocol and farm:
//!
//! - **Threaded** (`shards = 0`): the original thread-per-connection
//!   accept loop — one blocking handler thread per peer. Kept as the
//!   bench baseline and for the lowest-latency single-client paths.
//! - **Sharded event-driven** (`shards >= 1`): N shard threads, each a
//!   non-blocking poll loop multiplexing many connections. The accept
//!   loop only dispatches sockets round-robin; each shard reads as many
//!   *pipelined* frames as a connection has sent, answers them in
//!   request order, and batches the writes. Design requests route to a
//!   fingerprint-partitioned [`ShardedFarm`], so the old single cache
//!   lock disappears while the durable store stays ONE log.
//!
//! Both architectures share bounded concurrency, per-connection
//! progress deadlines (the slow-loris guard), backpressure, codec
//! negotiation (JSON v1 / binary v2), graceful drain on shutdown and
//! the durable append-only design store: every cache insert is appended
//! (and periodically fsync'd) while serving, so an unclean death loses
//! at most one flush interval of designs; a graceful drain compacts the
//! log in place.
//!
//! The process has no dependency-free way to trap signals, so graceful
//! shutdown is driven two equivalent ways: a [`Request::Shutdown`]
//! protocol message, or [`ServerHandle::shutdown`] from the embedding
//! process. Both set a flag and nudge the blocked `accept()` with a
//! loopback connection.

use crate::metrics::ServeMetrics;
use crate::predictor::{LivePredictor, RedesignConfig};
use crate::proto::{self, Codec, ProtoError, Request, Response, DEFAULT_MAX_FRAME};
use crate::shard;
use fsmgen::{failpoints, Designer, MAX_ORDER};
use fsmgen_automata::machine_to_table;
use fsmgen_farm::{CompactPolicy, DesignJob, FarmConfig, ShardedFarm, StoreConfig};
use fsmgen_obs as obs;
use fsmgen_traces::BitTrace;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Everything that shapes a running server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7450`. Port `0` asks the OS for a
    /// free port; read it back via [`Server::local_addr`].
    pub addr: String,
    /// Farm worker threads (`1` designs inline on the connection thread).
    pub workers: usize,
    /// Design-cache bound, in designs.
    pub cache_capacity: usize,
    /// Concurrent connections admitted before new ones are turned away.
    pub max_connections: usize,
    /// Design requests in flight before backpressure rejects with
    /// retry-after.
    pub queue_limit: usize,
    /// Per-read timeout: a peer that dribbles bytes slower than this is
    /// disconnected (the slow-loris guard). Also bounds idle keep-alive.
    pub read_timeout: Duration,
    /// Largest accepted frame payload, in bytes.
    pub max_frame_bytes: usize,
    /// Durable design store: recovered (or migrated from a legacy
    /// snapshot) before accepting, appended to on every cache insert
    /// while serving, compacted after draining.
    pub cache_file: Option<PathBuf>,
    /// Where to write the final `serve_metrics` JSON on shutdown.
    pub metrics_json: Option<PathBuf>,
    /// The backoff hint sent with backpressure rejections.
    pub retry_after_ms: u64,
    /// Store appends accumulated before an fsync is forced (`1` syncs
    /// every append).
    pub flush_every: usize,
    /// Upper bound on how long an appended design may sit unsynced —
    /// the most an unclean death can lose.
    pub flush_interval: Duration,
    /// Online redesign: when set, the server keeps a live predictor
    /// that clients stream outcomes through, monitors its windowed hit
    /// rate, and hot-swaps in a farm redesign on collapse.
    pub redesign: Option<RedesignConfig>,
    /// Event-loop shards. `0` runs the threaded thread-per-connection
    /// architecture (the baseline); `N >= 1` runs N non-blocking shard
    /// event loops with pipelined connections and a design cache
    /// partitioned by `fingerprint % N`.
    pub shards: usize,
}

impl Default for ServeConfig {
    /// Loopback on an OS-assigned port, modest bounds suitable for tests.
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_capacity: 1024,
            max_connections: 64,
            queue_limit: 256,
            read_timeout: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME,
            cache_file: None,
            metrics_json: None,
            retry_after_ms: 50,
            flush_every: 8,
            flush_interval: Duration::from_millis(200),
            redesign: None,
            shards: 0,
        }
    }
}

/// State shared between the accept loop, connection handlers (threads
/// or shard event loops) and handles.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    /// Always a sharded farm: the threaded architecture runs it with a
    /// single shard, which is exactly the old one-lock behaviour.
    pub(crate) farm: ShardedFarm,
    pub(crate) metrics: ServeMetrics,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) active_conns: AtomicUsize,
    pub(crate) in_flight: AtomicUsize,
    /// The hot-swappable live predictor (None without `redesign`).
    pub(crate) live: Option<LivePredictor>,
}

/// A bound, not-yet-running server. [`Server::run`] blocks until
/// shutdown; grab a [`ServerHandle`] first to stop it from another
/// thread.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cheap clone-able remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Requests shutdown: stop accepting, drain in-flight work, compact
    /// the durable store. Idempotent.
    pub fn shutdown(&self) {
        signal_shutdown(&self.shared, self.addr);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }
}

pub(crate) fn signal_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        // Unblock the accept loop. A failed nudge is fine: the loop also
        // notices the flag on its next natural wakeup.
        let _nudge = TcpStream::connect(addr);
    }
}

/// Decrements a counter when dropped, so connection accounting survives
/// every early return.
pub(crate) struct CountGuard<'a>(pub(crate) &'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the listener, builds the farm and — when configured —
    /// attaches the durable design store, replaying its log into the
    /// cache. A missing store file is not an error (first boot creates
    /// it); a legacy snapshot is migrated in place; a torn tail is
    /// truncated and counted. A store that cannot be opened (e.g. a
    /// foreign file at the path) falls back to serving cold, with the
    /// failure reported through an obs mark.
    ///
    /// # Errors
    ///
    /// Only the TCP bind can fail.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The threaded architecture (shards = 0) runs a 1-shard farm —
        // identical semantics to the old single Farm, one cache lock.
        let farm = ShardedFarm::new(
            config.shards.max(1),
            FarmConfig {
                workers: config.workers.max(1),
                cache_capacity: config.cache_capacity,
            },
        );
        if let Some(path) = &config.cache_file {
            let store_config = StoreConfig {
                flush_every: config.flush_every,
                flush_interval: config.flush_interval,
            };
            if let Err(err) = farm.attach_store(path, store_config) {
                obs::mark("serve", "store_open_failed", &err.to_string());
            }
        }
        let live = match config.redesign {
            Some(redesign) => Some(LivePredictor::new(redesign).map_err(io::Error::other)?),
            None => None,
        };
        let metrics = ServeMetrics::with_shards(config.shards);
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                config,
                farm,
                metrics,
                shutting_down: AtomicBool::new(false),
                active_conns: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
                live,
            }),
        })
    }

    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A remote control for stopping this server.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr,
        }
    }

    /// The live service counters (shared with every connection thread).
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Renders the current `serve_metrics` JSON document.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.shared)
    }

    /// Runs the accept loop until shutdown is requested, then drains
    /// in-flight connections, compacts the durable store and writes the
    /// metrics JSON. While running, a background flusher bounds how long
    /// appended designs may sit unsynced to one flush interval.
    ///
    /// # Errors
    ///
    /// Store/metrics persistence failures at shutdown; accept-loop
    /// I/O errors on individual connections are absorbed.
    pub fn run(&self) -> io::Result<()> {
        let _serve_span = obs::span("serve");
        let flusher = self.shared.config.cache_file.as_ref().map(|_| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || flusher_loop(&shared))
        });
        // Event-driven mode: spawn the shard loops, keep their senders.
        let mut shard_txs: Vec<mpsc::Sender<TcpStream>> = Vec::new();
        let mut shard_threads = Vec::new();
        for index in 0..self.shared.config.shards {
            let (tx, rx) = mpsc::channel();
            shard_txs.push(tx);
            let shared = Arc::clone(&self.shared);
            let addr = self.local_addr;
            shard_threads.push(std::thread::spawn(move || {
                shard::run_shard(&shared, index, &rx, addr);
            }));
        }
        let mut next_shard = 0usize;
        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if self.shared.shutting_down.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let admitted = self.shared.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
            if admitted > self.shared.config.max_connections {
                self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                self.shared
                    .metrics
                    .conns_rejected
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter("serve", "conn_rejected", 1);
                reject_connection(stream, self.shared.config.retry_after_ms);
                continue;
            }
            if shard_txs.is_empty() {
                // Threaded architecture: one handler thread per peer.
                let shared = Arc::clone(&self.shared);
                let addr = self.local_addr;
                std::thread::spawn(move || {
                    let _guard = CountGuard(&shared.active_conns);
                    handle_connection(&shared, stream, addr);
                });
            } else {
                // Event-driven architecture: hand the socket to a shard
                // round-robin. A closed channel means the shard died;
                // the connection is dropped and un-counted.
                let target = next_shard % shard_txs.len();
                next_shard = next_shard.wrapping_add(1);
                if shard_txs[target].send(stream).is_err() {
                    self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        self.drain();
        drop(shard_txs);
        for thread in shard_threads {
            let _joined = thread.join();
        }
        if let Some(flusher) = flusher {
            let _joined = flusher.join();
        }
        self.persist()
    }

    /// Waits (bounded) for in-flight connections to finish.
    fn drain(&self) {
        let deadline =
            std::time::Instant::now() + self.shared.config.read_timeout + Duration::from_secs(5);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn persist(&self) -> io::Result<()> {
        if self.shared.config.cache_file.is_some() {
            // Graceful drain: dedup the log and drop anything the
            // bounded cache would not readmit anyway.
            let policy = CompactPolicy {
                keep: Some(self.shared.config.cache_capacity.max(1)),
                max_generations: None,
            };
            self.shared
                .farm
                .compact_store(&policy)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        if let Some(path) = &self.shared.config.metrics_json {
            std::fs::write(path, self.metrics_json())?;
        }
        Ok(())
    }
}

/// Renders the `serve_metrics` document from the shared state (also the
/// reply to a [`Request::Stats`]).
fn metrics_json(shared: &Shared) -> String {
    let store = shared.farm.store_stats().unwrap_or_default();
    shared.metrics.to_json(&shared.farm.cache_stats(), &store)
}

/// The background flusher: bounds unsynced-append exposure to one flush
/// interval even when traffic stops mid-batch. Sleeps in short steps so
/// shutdown is noticed promptly regardless of the configured interval.
fn flusher_loop(shared: &Shared) {
    let interval = shared.config.flush_interval.max(Duration::from_millis(1));
    let step = interval.min(Duration::from_millis(50));
    let mut since_flush = Duration::ZERO;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        since_flush += step;
        if since_flush >= interval {
            since_flush = Duration::ZERO;
            if let Err(err) = shared.farm.flush_store() {
                obs::mark("serve", "store_flush_failed", &err.to_string());
            }
        }
    }
}

/// Sends a backpressure rejection to a connection we will not service.
fn reject_connection(mut stream: TcpStream, retry_after_ms: u64) {
    let payload = Response::Rejected {
        id: 0,
        retry_after_ms,
    }
    .encode();
    let _ignored = proto::write_frame(&mut stream, &payload);
}

/// Reads the next frame, transparently negotiating the codec on the
/// very first bytes of the connection: a `FSMB` preamble switches the
/// connection to binary v2, anything else is a JSON v1 length prefix.
/// A preamble with the wrong version surfaces as
/// [`ProtoError::Malformed`].
fn read_negotiated_frame(
    stream: &mut TcpStream,
    codec: &mut Option<Codec>,
    max_frame: usize,
) -> Result<Vec<u8>, ProtoError> {
    if codec.is_some() {
        return proto::read_frame(stream, max_frame);
    }
    let prefix = proto::read_prefix(stream)?;
    if prefix == proto::BINARY_MAGIC {
        let mut version_bytes = [0u8; 4];
        stream
            .read_exact(&mut version_bytes)
            .map_err(ProtoError::Io)?;
        let version = u32::from_be_bytes(version_bytes);
        if version != proto::PROTOCOL_VERSION {
            // Reply in the codec the client asked for: it clearly
            // speaks binary, just the wrong revision of it.
            *codec = Some(Codec::BinaryV2);
            return Err(ProtoError::Malformed(format!(
                "unsupported binary protocol version {version} (this server speaks {})",
                proto::PROTOCOL_VERSION
            )));
        }
        *codec = Some(Codec::BinaryV2);
        proto::read_frame(stream, max_frame)
    } else {
        *codec = Some(Codec::JsonV1);
        proto::read_frame_after_prefix(stream, prefix, max_frame)
    }
}

/// What to do with a connection after answering one request.
pub(crate) enum Handled {
    /// Send the response, keep serving.
    Reply(Response),
    /// Send the ack, then initiate server shutdown and close.
    Shutdown,
}

/// Answers one decoded request — the dispatch shared by the threaded
/// handler and the shard event loops. `shard` indexes the per-shard
/// metrics block in event-driven mode.
pub(crate) fn handle_request(
    shared: &Arc<Shared>,
    shard: Option<usize>,
    request: Request,
) -> Handled {
    if let Some(metrics) = shard.and_then(|s| shared.metrics.shard(s)) {
        metrics.frames.fetch_add(1, Ordering::Relaxed);
    }
    let response = match request {
        Request::Ping => {
            shared.metrics.pings.fetch_add(1, Ordering::Relaxed);
            Response::Pong
        }
        Request::Stats => {
            shared
                .metrics
                .stats_requests
                .fetch_add(1, Ordering::Relaxed);
            Response::Stats(metrics_json(shared))
        }
        Request::Shutdown => return Handled::Shutdown,
        Request::Design {
            id,
            trace,
            history,
            threshold,
            dont_care,
        } => design_response(shared, shard, id, &trace, history, threshold, dont_care),
        Request::Predict { id, bits } => predict_response(shared, id, &bits),
    };
    Handled::Reply(response)
}

/// Serves one connection: a loop of frames until disconnect, error or
/// shutdown. Never panics on peer input — every failure path is a
/// structured reply or a clean close, plus a counter.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, addr: SocketAddr) {
    shared
        .metrics
        .conns_accepted
        .fetch_add(1, Ordering::Relaxed);
    obs::counter("serve", "conn_accepted", 1);
    if let Some(action) = failpoints::fire("serve-conn") {
        // Injected connection fault: both actions model an I/O layer
        // failure, so the connection is dropped without a reply.
        let _ = action;
        shared
            .metrics
            .injected_faults
            .fetch_add(1, Ordering::Relaxed);
        obs::counter("serve", "conn_fault_injected", 1);
        return;
    }
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
    {
        return;
    }
    // The connection's codec: negotiated on the first bytes, then fixed.
    let mut negotiated: Option<Codec> = None;
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_negotiated_frame(
            &mut stream,
            &mut negotiated,
            shared.config.max_frame_bytes,
        ) {
            Ok(payload) => payload,
            Err(ProtoError::Disconnected) => return,
            Err(ProtoError::Oversized { advertised, limit }) => {
                shared
                    .metrics
                    .oversized_frames
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter("serve", "oversized_frame", 1);
                // The advertised payload was never read, so the stream
                // is out of sync: reply then close.
                send(
                    &mut stream,
                    negotiated.unwrap_or_default(),
                    &Response::ProtocolError {
                        error: format!(
                            "frame of {advertised} bytes exceeds the {limit}-byte limit"
                        ),
                    },
                );
                return;
            }
            Err(err) if err.is_timeout() => {
                shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                obs::counter("serve", "read_timeout", 1);
                send(
                    &mut stream,
                    negotiated.unwrap_or_default(),
                    &Response::ProtocolError {
                        error: "read timed out".into(),
                    },
                );
                return;
            }
            Err(ProtoError::Malformed(reason)) => {
                // A bad negotiation preamble: reply then close.
                shared
                    .metrics
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter("serve", "malformed_frame", 1);
                send(
                    &mut stream,
                    negotiated.unwrap_or_default(),
                    &Response::ProtocolError { error: reason },
                );
                return;
            }
            Err(ProtoError::Io(_)) => return,
        };
        let codec = negotiated.unwrap_or_default();
        let _request_span = obs::span("serve_request");
        let request_started = Instant::now();
        let request = {
            let _parse_span = obs::span("serve_parse");
            Request::decode_with(codec, &payload)
        };
        let request = match request {
            Ok(request) => request,
            Err(reason) => {
                shared
                    .metrics
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                obs::counter("serve", "malformed_frame", 1);
                // The frame itself was well-delimited, so the stream is
                // still in sync: reply and keep serving.
                if !send(
                    &mut stream,
                    codec,
                    &Response::ProtocolError { error: reason },
                ) {
                    return;
                }
                continue;
            }
        };
        let response = match handle_request(shared, None, request) {
            Handled::Reply(response) => response,
            Handled::Shutdown => {
                send(&mut stream, codec, &Response::ShutdownAck);
                signal_shutdown(shared, addr);
                return;
            }
        };
        let delivered = {
            let _respond_span = obs::span("serve_respond");
            send(&mut stream, codec, &response)
        };
        shared
            .metrics
            .request_latency
            .record(request_started.elapsed());
        if !delivered {
            return;
        }
    }
}

/// Runs one design request through the farm, honouring backpressure.
pub(crate) fn design_response(
    shared: &Shared,
    shard: Option<usize>,
    id: u64,
    trace_text: &str,
    history: usize,
    threshold: Option<f64>,
    dont_care: Option<f64>,
) -> Response {
    let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    let _guard = CountGuard(&shared.in_flight);
    if in_flight > shared.config.queue_limit {
        shared
            .metrics
            .rejected_backpressure
            .fetch_add(1, Ordering::Relaxed);
        obs::counter("serve", "rejected_backpressure", 1);
        return Response::Rejected {
            id,
            retry_after_ms: shared.config.retry_after_ms,
        };
    }
    let fail = |error: String| {
        shared
            .metrics
            .requests_failed
            .fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = shard.and_then(|s| shared.metrics.shard(s)) {
            metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
        }
        obs::counter("serve", "request_failed", 1);
        Response::DesignError { id, error }
    };
    if history == 0 || history > MAX_ORDER {
        return fail(format!("history must be in 1..={MAX_ORDER}, got {history}"));
    }
    let trace: BitTrace = match trace_text.parse() {
        Ok(trace) => trace,
        Err(err) => return fail(format!("bad trace: {err}")),
    };
    let mut designer = Designer::new(history);
    if let Some(t) = threshold {
        designer = designer.prob_threshold(t);
    }
    if let Some(d) = dont_care {
        designer = designer.dont_care_fraction(d);
    }
    let job = DesignJob::from_trace(id, Arc::new(trace), designer);
    let outcome = {
        let _design_span = obs::span("serve_design");
        shared.farm.design(job)
    };
    match &outcome.result {
        Ok(design) => {
            shared.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = shard.and_then(|s| shared.metrics.shard(s)) {
                metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
            }
            obs::counter("serve", "request_ok", 1);
            Response::DesignOk {
                id,
                states: design.fsm().num_states(),
                cache_hit: outcome.cache_hit,
                wall_ms: outcome.wall.as_secs_f64() * 1e3,
                machine: machine_to_table(design.fsm()),
            }
        }
        Err(err) => fail(err.to_string()),
    }
}

/// Streams one chunk of outcome bits through the live predictor and,
/// when the collapse monitor fires, kicks off a background redesign that
/// hot-swaps the machine once the farm delivers it.
fn predict_response(shared: &Arc<Shared>, id: u64, bits: &str) -> Response {
    let Some(live) = &shared.live else {
        shared
            .metrics
            .requests_failed
            .fetch_add(1, Ordering::Relaxed);
        return Response::ProtocolError {
            error: "predict requires a server started with redesign enabled".into(),
        };
    };
    let mut outcomes = Vec::with_capacity(bits.len());
    for c in bits.chars() {
        match c {
            '0' => outcomes.push(false),
            '1' => outcomes.push(true),
            c if c.is_ascii_whitespace() => {}
            c => {
                shared
                    .metrics
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                return Response::ProtocolError {
                    error: format!("predict bits must be 0/1, got {c:?}"),
                };
            }
        }
    }
    let chunk = live.feed(outcomes);
    shared
        .metrics
        .predict_requests
        .fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .predict_bits
        .fetch_add(chunk.total, Ordering::Relaxed);
    shared
        .metrics
        .predict_hits
        .fetch_add(chunk.correct, Ordering::Relaxed);
    if chunk.swapped {
        shared
            .metrics
            .predictor_generation
            .store(chunk.generation, Ordering::Relaxed);
    }
    if let Some(window) = chunk.redesign_window {
        shared
            .metrics
            .redesigns_triggered
            .fetch_add(1, Ordering::Relaxed);
        obs::mark(
            "serve",
            "redesign_triggered",
            &format!("window={} request={id}", window.len()),
        );
        let shared = Arc::clone(shared);
        std::thread::spawn(move || run_redesign(&shared, id, &window));
    }
    Response::PredictOk {
        id,
        total: chunk.total,
        correct: chunk.correct,
        generation: chunk.generation,
        swapped: chunk.swapped,
    }
}

/// The background redesign: trains on the collapse window through the
/// farm (cache, dedup and durable store all apply) and publishes the
/// compiled machine into the live slot.
fn run_redesign(shared: &Shared, id: u64, window: &[bool]) {
    let Some(live) = &shared.live else { return };
    let history = live.config().history.clamp(1, MAX_ORDER);
    let result = {
        let _redesign_span = obs::span("serve_redesign");
        shared.farm.redesign(id, window, Designer::new(history))
    };
    match result {
        Ok(compiled) => {
            let generation = live.install(compiled);
            shared
                .metrics
                .predictor_swaps
                .fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .predictor_generation
                .store(generation, Ordering::Relaxed);
            obs::mark(
                "serve",
                "predictor_swapped",
                &format!("generation={generation}"),
            );
        }
        Err(err) => {
            live.abort_redesign();
            shared
                .metrics
                .requests_failed
                .fetch_add(1, Ordering::Relaxed);
            obs::mark("serve", "redesign_failed", &err.to_string());
        }
    }
}

/// Writes one response frame in the connection's codec; false when the
/// peer is gone.
fn send(stream: &mut TcpStream, codec: Codec, response: &Response) -> bool {
    let payload = response.encode_with(codec);
    if proto::write_frame(stream, &payload).is_err() {
        return false;
    }
    stream.flush().is_ok()
}
