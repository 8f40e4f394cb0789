//! `serve_hot_cold`: a fresh single-shard design server with an empty
//! durable store, driven over two connections that share its one shard.
//!
//! - **hot**: open loop at [`HOT_RATE`] requests/s, pipelined, binary v2,
//!   one write per frame with `TCP_NODELAY`, asking for warm history-6
//!   designs of a [`POOL`]-trace pool designed during set-up;
//! - **cold**: a `ServeClient` sending never-seen history-10 traces at
//!   [`COLD_RATE`] requests/s.
//!
//! Every request is timed from when it was due, from raw samples. Every
//! reply's machine must equal a local `Designer` design of its trace.

use crate::design::outcome_bits;
use crate::stats::{median, ms, quantile, Report};
use fsmgen::{Design, Designer};
use fsmgen_automata::machine_to_table;
use fsmgen_farm::{DesignJob, DesignStore, StoreConfig};
use fsmgen_obs::json::{self, Json};
use fsmgen_serve::{Codec, Request, Response, ServeClient, ServeConfig, Server};
use fsmgen_traces::BitTrace;
use fsmgen_workloads::BranchBenchmark;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot requests per second.
pub const HOT_RATE: u64 = 1000;
/// Distinct warm traces the hot connection draws from.
pub const POOL: usize = 32;
/// Bits per warm trace.
pub const POOL_LEN: usize = 4096;
/// History of the warm designs.
pub const POOL_HISTORY: usize = 6;
/// Cold requests per second.
pub const COLD_RATE: f64 = 2.0;
/// Bits per cold trace.
pub const COLD_LEN: usize = 20_000;
/// History of the cold designs.
pub const COLD_HISTORY: usize = 10;
/// The program the cold user designs for. One program, so cold designs
/// block the shard for similar times and `hot_p99_ms` rests on all of
/// them, not on the slowest benchmark's few.
pub const COLD_BENCHMARK: BranchBenchmark = BranchBenchmark::Gsm;
/// The hot p99 latency limit the notes judge against, in ms.
pub const HOT_P99_LIMIT_MS: f64 = 20.0;
/// How long to wait for late replies after the last request is due.
const DRAIN: Duration = Duration::from_secs(30);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One trace with the machine a local design of it gives.
struct Case {
    text: String,
    machine: String,
}

fn case(trace: &BitTrace, history: usize) -> Result<Case, String> {
    let design = Designer::new(history)
        .design_from_trace(trace)
        .map_err(|e| e.to_string())?;
    Ok(Case {
        text: trace.to_string(),
        machine: machine_to_table(design.fsm()),
    })
}

/// `count` warm traces: trace `j` is benchmark `j % 6` on
/// `Input(base + j)`.
fn pool_traces(base: u64, count: usize, len: usize) -> Vec<BitTrace> {
    (0..count)
        .map(|j| {
            let bench = BranchBenchmark::ALL[j % BranchBenchmark::ALL.len()];
            outcome_bits(bench, base + j as u64, len)
        })
        .collect()
}

/// The inputs of one run: the warm pool (with local designs) and the
/// cold traces (designed locally only after the timed section).
pub struct Inputs {
    pool: Vec<Case>,
    cold: Vec<BitTrace>,
}

/// Warm traces come from `Input(seed + 1000 + j)`, cold ones from
/// [`COLD_BENCHMARK`] on `Input(seed + 2000 + j)`.
pub fn inputs(seed: u64, duration: Duration) -> Result<Inputs, String> {
    let pool = pool_traces(seed + 1000, POOL, POOL_LEN)
        .iter()
        .map(|t| case(t, POOL_HISTORY))
        .collect::<Result<Vec<_>, _>>()?;
    let cold_count = (duration.as_secs_f64() * COLD_RATE).ceil() as usize;
    let cold = (0..cold_count.max(1) as u64)
        .map(|j| outcome_bits(COLD_BENCHMARK, seed + 2000 + j, COLD_LEN))
        .collect();
    Ok(Inputs { pool, cold })
}

/// A server child process on an empty store in its own directory.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the child's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    dir: PathBuf,
}

impl ServerProcess {
    /// Starts `<this executable> serve-child --cache-file <dir>/store`
    /// and waits for its `listening on` banner.
    pub fn start(dir: &Path) -> Result<ServerProcess, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg("--cache-file")
            .arg(dir.join("store.fslog"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProcess {
                child,
                _stdout: stdout,
                addr,
                dir: dir.to_path_buf(),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server printed no banner: {banner:?}"))
            }
        }
    }

    /// Asks the server to shut down, waits for it (killing it after
    /// ten seconds) and removes its directory.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = ServeClient::connect(&self.addr, IO_TIMEOUT)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| format!("shutdown request: {e}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break Err("server did not exit after shutdown; killed".to_string());
                }
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        asked?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("server exited with {s}")),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The body of `serve-child`: the same server `fsmgen serve --shards 1
/// --cache-file PATH` runs.
pub fn serve_child(cache_file: &str) -> Result<(), String> {
    let config = ServeConfig {
        shards: 1,
        cache_file: Some(cache_file.into()),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// A pipelined binary-v2 connection writing each frame in one write.
struct HotConn {
    stream: TcpStream,
    outbuf: Vec<u8>,
    inbuf: Vec<u8>,
}

impl HotConn {
    fn connect(addr: &str) -> Result<HotConn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("hot connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .write_all(&fsmgen_serve::proto::binary_preamble())
            .map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(HotConn {
            stream,
            outbuf: Vec::new(),
            inbuf: Vec::new(),
        })
    }

    /// Queues one frame (prefix and payload together) and writes what
    /// the socket takes.
    fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        let len = u32::try_from(payload.len()).map_err(|_| "frame too large")?;
        self.outbuf.extend_from_slice(&len.to_be_bytes());
        self.outbuf.extend_from_slice(payload);
        self.flush()
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err("hot connection closed".into()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("hot write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads what has arrived; returns whether any bytes did.
    fn fill(&mut self) -> Result<bool, String> {
        let mut buf = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("hot connection closed by server".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("hot read: {e}")),
            }
        }
    }

    /// Takes one complete frame payload off the input buffer.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        let prefix: [u8; 4] = self.inbuf.get(..4)?.try_into().ok()?;
        let len = u32::from_be_bytes(prefix) as usize;
        if self.inbuf.len() < 4 + len {
            return None;
        }
        let payload = self.inbuf[4..4 + len].to_vec();
        self.inbuf.drain(..4 + len);
        Some(payload)
    }
}

/// xorshift64*: the seeded pick of warm traces.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

fn design_request(id: u64, text: &str, history: usize) -> Request {
    Request::Design {
        id,
        trace: text.to_string(),
        history,
        threshold: None,
        dont_care: None,
    }
}

/// The machine of a `design_ok` reply, or why there is none.
fn machine_of(response: &Response) -> Result<&str, String> {
    match response {
        Response::DesignOk { machine, .. } => Ok(machine),
        other => Err(format!("reply is not design_ok: {other:?}")),
    }
}

/// Designs every pool trace once over the hot connection, so the
/// timed section's hot requests are warm.
pub fn warm(conn_addr: &str, inputs: &Inputs) -> Result<(), String> {
    let mut conn = HotConn::connect(conn_addr)?;
    for (i, case) in inputs.pool.iter().enumerate() {
        conn.send(
            &design_request(i as u64, &case.text, POOL_HISTORY).encode_with(Codec::BinaryV2),
        )?;
    }
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut got = 0;
    while got < inputs.pool.len() {
        conn.flush()?;
        if !conn.fill()? {
            if Instant::now() > deadline {
                return Err("warm-up replies timed out".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        while let Some(payload) = conn.next_frame() {
            let response = Response::decode_with(Codec::BinaryV2, &payload)?;
            if machine_of(&response)? != inputs.pool[got].machine {
                return Err(format!(
                    "warm-up design {got} differs from the local design"
                ));
            }
            got += 1;
        }
    }
    Ok(())
}

/// What the hot connection measured.
#[derive(Default)]
struct Hot {
    latency_ms: Vec<f64>,
    /// Requests due in the run; each one without a matching reply fails.
    due: u64,
    sent: u64,
    matched: u64,
    failed: Vec<String>,
    lag_max_ms: f64,
    backlog_max: usize,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// The open-loop hot load generator: request `i` is due at `start + i/HOT_RATE`.
fn drive_hot(
    addr: &str,
    inputs: &Inputs,
    seed: u64,
    start: Instant,
    duration: Duration,
    traced: bool,
) -> Hot {
    let mut hot = Hot {
        due: 1,
        ..Hot::default()
    };
    let mut conn = match HotConn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            hot.failed.push(e);
            return hot;
        }
    };
    let total = (duration.as_secs_f64() * HOT_RATE as f64) as u64;
    hot.due = total;
    let gap = Duration::from_secs_f64(1.0 / HOT_RATE as f64);
    let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut outstanding: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut received = 0u64;
    let end = start + duration + DRAIN;
    while received < total {
        let now = Instant::now();
        if now > end {
            hot.failed.push(format!(
                "{} hot replies missing at the deadline",
                total - received
            ));
            break;
        }
        let mut progress = false;
        while hot.sent < total {
            let due = start + gap * hot.sent as u32;
            if due > now {
                break;
            }
            let pick = rng.below(inputs.pool.len());
            let request = design_request(hot.sent, &inputs.pool[pick].text, POOL_HISTORY);
            let t = Instant::now();
            let payload = request.encode_with(Codec::BinaryV2);
            if traced {
                hot.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            if let Err(e) = conn.send(&payload) {
                hot.failed.push(e);
                return hot;
            }
            hot.lag_max_ms = hot.lag_max_ms.max(ms(Instant::now() - due));
            outstanding.push_back((due, pick));
            hot.sent += 1;
            hot.backlog_max = hot.backlog_max.max(outstanding.len());
            progress = true;
        }
        let read = conn.flush().and_then(|()| conn.fill());
        match read {
            Ok(any) => progress |= any,
            Err(e) => {
                hot.failed.push(e);
                return hot;
            }
        }
        let arrived = Instant::now();
        while let Some(payload) = conn.next_frame() {
            let Some((due, pick)) = outstanding.pop_front() else {
                hot.failed.push("hot reply without a request".into());
                return hot;
            };
            received += 1;
            hot.latency_ms.push(ms(arrived - due));
            let t = Instant::now();
            let response = Response::decode_with(Codec::BinaryV2, &payload);
            if traced {
                hot.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            match response.as_ref().map_err(Clone::clone).and_then(machine_of) {
                Ok(m) if m == inputs.pool[pick].machine => hot.matched += 1,
                Ok(_) => hot.failed.push(format!(
                    "hot reply {} differs from the local design",
                    received - 1
                )),
                Err(e) => hot.failed.push(format!("hot reply {}: {e}", received - 1)),
            }
        }
        if !progress {
            let next_due = start + gap * hot.sent as u32;
            let idle = next_due.saturating_duration_since(Instant::now());
            std::thread::sleep(idle.min(Duration::from_micros(50)));
        }
    }
    hot
}

/// What the cold connection measured: latency from due time and the
/// reply (or error) per cold trace.
struct Cold {
    latency_ms: Vec<f64>,
    replies: Vec<Result<Response, String>>,
    client: ServeClient,
}

fn drive_cold(
    mut client: ServeClient,
    inputs: &Inputs,
    start: Instant,
    duration: Duration,
) -> Cold {
    let gap = Duration::from_secs_f64(1.0 / COLD_RATE);
    // Spread the cold requests over the run, half a gap in.
    let first = gap / 2;
    let mut latency_ms = Vec::new();
    let mut replies = Vec::new();
    for (j, trace) in inputs.cold.iter().enumerate() {
        let due = start + first + gap * j as u32;
        if due > start + duration {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let reply = client
            .call(&design_request(
                1_000_000 + j as u64,
                &trace.to_string(),
                COLD_HISTORY,
            ))
            .map_err(|e| e.to_string());
        latency_ms.push(ms(Instant::now() - due));
        replies.push(reply);
    }
    Cold {
        latency_ms,
        replies,
        client,
    }
}

/// Local designs of the cold traces, with each design's time in ms, on
/// two threads (this runs after the timed section).
fn local_designs(traces: &[BitTrace]) -> Vec<(Result<Design, String>, f64)> {
    let design = |trace: &BitTrace| {
        let t = Instant::now();
        let local = Designer::new(COLD_HISTORY)
            .design_from_trace(trace)
            .map_err(|e| e.to_string());
        (local, ms(t.elapsed()))
    };
    let half = traces.len().div_ceil(2);
    let (first, second) = std::thread::scope(|s| {
        let second = s.spawn(|| traces[half..].iter().map(design).collect::<Vec<_>>());
        let first: Vec<_> = traces[..half].iter().map(design).collect();
        (first, second.join().expect("local design thread panicked"))
    });
    first.into_iter().chain(second).collect()
}

/// Server counters read from a `stats` reply.
#[derive(Default, Clone, Copy)]
struct Counters {
    requests_ok: u64,
    requests_failed: u64,
    rejected_backpressure: u64,
    timeouts: u64,
    cache_hits: u64,
    cache_misses: u64,
    store_appends: u64,
    store_flushes: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
}

fn counters(client: &mut ServeClient) -> Result<Counters, String> {
    let text = match client.call(&Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats(text) => text,
        other => return Err(format!("stats reply: {other:?}")),
    };
    let doc = json::parse(&text).map_err(|e| format!("stats JSON: {e}"))?;
    let field = |path: &[&str]| -> Result<u64, String> {
        let mut at: &Json = &doc;
        for key in path {
            at = at
                .get(key)
                .ok_or_else(|| format!("stats lack {}", path.join(".")))?;
        }
        at.as_u64()
            .ok_or_else(|| format!("stats {} is not a count", path.join(".")))
    };
    Ok(Counters {
        requests_ok: field(&["requests_ok"])?,
        requests_failed: field(&["requests_failed"])?,
        rejected_backpressure: field(&["rejected_backpressure"])?,
        timeouts: field(&["timeouts"])?,
        cache_hits: field(&["cache", "hits"])?,
        cache_misses: field(&["cache", "misses"])?,
        store_appends: field(&["store", "appends"])?,
        store_flushes: field(&["store", "flushes"])?,
        latency_p50_us: field(&["latency_us", "p50"])?,
        latency_p99_us: field(&["latency_us", "p99"])?,
    })
}

/// One timed section against a warmed server: hot and cold traffic for
/// `duration`, then the output checks. `traced` adds the per-layer
/// metrics.
pub fn run(
    server: &ServerProcess,
    inputs: &Inputs,
    seed: u64,
    duration: Duration,
    traced: bool,
) -> Report {
    let mut report = Report::default();
    let mut client = match ServeClient::connect(&server.addr, IO_TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            report.op(Err(format!("cold connect: {e}")));
            return report;
        }
    };
    let before = counters(&mut client);
    let start = Instant::now() + Duration::from_millis(20);
    let (hot, cold) = std::thread::scope(|s| {
        let cold = s.spawn(|| drive_cold(client, inputs, start, duration));
        let hot = drive_hot(&server.addr, inputs, seed, start, duration, traced);
        (hot, cold.join().expect("cold client thread panicked"))
    });
    let mut client = cold.client;
    let after = counters(&mut client);

    // Output checks, outside the timed section.
    report.attempted += hot.due;
    report.failed += hot.due - hot.matched;
    report.failures.extend(hot.failed.iter().take(20).cloned());
    let locals = local_designs(&inputs.cold[..cold.replies.len()]);
    let cold_design_ms: Vec<f64> = locals.iter().map(|(_, t)| *t).collect();
    let mut local_designs = Vec::new();
    for ((trace, reply), (local, _)) in inputs.cold.iter().zip(&cold.replies).zip(locals) {
        report.op(match (reply, &local) {
            (Ok(response), Ok(local)) => match machine_of(response) {
                Ok(m) if m == machine_to_table(local.fsm()) => Ok(()),
                Ok(_) => Err("cold reply differs from the local design".into()),
                Err(e) => Err(format!("cold reply: {e}")),
            },
            (Err(e), _) | (_, Err(e)) => Err(format!("cold request: {e}")),
        });
        local_designs.extend(local.ok().map(|d| (trace, d)));
    }

    let mut hot_ms = hot.latency_ms.clone();
    let mut cold_ms = cold.latency_ms.clone();
    let hot_p99 = quantile(&mut hot_ms, 0.99);
    eprintln!(
        "hot p99 {hot_p99:.2} ms over {} samples: {} the {HOT_P99_LIMIT_MS} ms limit",
        hot_ms.len(),
        if hot_p99 <= HOT_P99_LIMIT_MS {
            "meets"
        } else {
            "breaks"
        }
    );
    report.metric("hot_p50_ms", quantile(&mut hot_ms, 0.50), "ms");
    report.metric("hot_p99_ms", hot_p99, "ms");
    report.metric("cold_p50_ms", quantile(&mut cold_ms, 0.50), "ms");

    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            report.op(Err(e));
            return report;
        }
    };
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    report.op(
        if hits == hot.latency_ms.len() as u64 && misses == cold.replies.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "cache saw {hits} hits / {misses} misses for {} hot / {} cold requests",
                hot.latency_ms.len(),
                cold.replies.len()
            ))
        },
    );
    if !traced {
        return report;
    }

    report.metric("serve.encode_us", median(&hot.encode_us), "us");
    report.metric("serve.decode_us", median(&hot.decode_us), "us");
    report.metric(
        "serve.requests_ok",
        (after.requests_ok - before.requests_ok) as f64,
        "count",
    );
    report.metric(
        "serve.requests_failed",
        (after.requests_failed - before.requests_failed) as f64,
        "count",
    );
    report.metric(
        "serve.rejected_backpressure",
        (after.rejected_backpressure - before.rejected_backpressure) as f64,
        "count",
    );
    report.metric(
        "serve.timeouts",
        (after.timeouts - before.timeouts) as f64,
        "count",
    );
    report.metric("serve.server_p50_us", after.latency_p50_us as f64, "us");
    report.metric("serve.server_p99_us", after.latency_p99_us as f64, "us");
    report.metric("farm.cache_hits", hits as f64, "count");
    report.metric("farm.cache_misses", misses as f64, "count");
    report.metric(
        "farm.cache_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    report.metric(
        "farm.store_appends",
        (after.store_appends - before.store_appends) as f64,
        "count",
    );
    report.metric(
        "farm.store_flushes",
        (after.store_flushes - before.store_flushes) as f64,
        "count",
    );
    report.metric("core.cold_design_ms", median(&cold_design_ms), "ms");
    report.metric("loadgen.lag_max_ms", hot.lag_max_ms, "ms");
    report.metric("loadgen.backlog_max", hot.backlog_max as f64, "count");

    // The public client on a warm trace: one request per call.
    let mut calls = Vec::new();
    for i in 0..10 {
        let request = design_request(i, &inputs.pool[i as usize].text, POOL_HISTORY);
        let t = Instant::now();
        let reply = client.call(&request).map_err(|e| e.to_string());
        calls.push(ms(t.elapsed()));
        report.op(reply.and_then(|r| match machine_of(&r) {
            Ok(m) if m == inputs.pool[i as usize].machine => Ok(()),
            Ok(_) => Err("client call reply differs from the local design".into()),
            Err(e) => Err(e),
        }));
    }
    report.metric("serve.client_call_ms", median(&calls), "ms");

    match store_costs(&server.dir, &local_designs) {
        Ok((append_us, flush_ms)) => {
            report.metric("farm.store_append_us", append_us, "us");
            report.metric("farm.store_flush_ms", flush_ms, "ms");
        }
        Err(e) => report.op(Err(e)),
    }
    report
}

/// Median `DesignStore::append` (µs) and `flush` (ms) of the cold
/// designs, each append flushed, in a scratch store.
fn store_costs(dir: &Path, designs: &[(&BitTrace, Design)]) -> Result<(f64, f64), String> {
    let path = dir.join("scratch.fslog");
    let config = StoreConfig {
        flush_every: usize::MAX,
        flush_interval: Duration::from_secs(3600),
    };
    let (mut store, _) = DesignStore::open(&path, config).map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    let mut flush_ms = Vec::new();
    for (trace, design) in designs {
        let job = DesignJob::from_trace(0, Arc::new((*trace).clone()), Designer::new(COLD_HISTORY));
        let (fp, verify) = (
            job.fingerprint().unwrap_or(0),
            job.verify_hash().unwrap_or(0),
        );
        let t = Instant::now();
        store
            .append(fp, verify, design)
            .map_err(|e| e.to_string())?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        store.flush().map_err(|e| e.to_string())?;
        flush_ms.push(ms(t.elapsed()));
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
    Ok((median(&append_us), median(&flush_ms)))
}
