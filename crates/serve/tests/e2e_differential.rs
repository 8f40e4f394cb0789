//! End-to-end differential harness for the design service: spawn a real
//! `fsmgen-served` process, drive it with concurrent clients over the
//! canonical workload×history matrix, and assert that every Moore
//! machine returned over TCP is byte-identical to one designed locally
//! in this process. A second server run over the same store file must
//! serve (nearly) everything from the warm cache.

use fsmgen::Designer;
use fsmgen_automata::machine_to_table;
use fsmgen_serve::json::{self, Json};
use fsmgen_serve::{Request, Response, ServeClient};
use fsmgen_testkit::{workload_matrix, HISTORIES};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;

/// A running server process, killed on drop so a failing assertion never
/// leaks a listener.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(extra_args: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fsmgen-served"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fsmgen-served");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("server prints a banner")
            .expect("banner is UTF-8");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr, Duration::from_secs(10)).expect("connect")
    }

    /// Protocol-level shutdown, then wait for a clean exit.
    fn shutdown(mut self) {
        let mut client = self.client();
        match client.call(&Request::Shutdown).expect("shutdown call") {
            Response::ShutdownAck => {}
            other => panic!("expected shutdown_ack, got {other:?}"),
        }
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "server exited with {status:?}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmgen-serve-e2e-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The matrix as (request, locally-designed table text) pairs. Ids are
/// stable across calls so the warm run re-requests identical work.
fn matrix_with_expected_tables() -> Vec<(Request, String)> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for (_name, trace) in workload_matrix() {
        for history in HISTORIES {
            let design = Designer::new(history)
                .design_from_trace(&trace)
                .expect("local design succeeds");
            out.push((
                Request::Design {
                    id,
                    trace: trace.iter().map(|b| if b { '1' } else { '0' }).collect(),
                    history,
                    threshold: None,
                    dont_care: None,
                },
                machine_to_table(design.fsm()),
            ));
            id += 1;
        }
    }
    out
}

/// Drives the whole matrix through `CLIENTS` concurrent connections and
/// checks byte-identity of every returned machine. Returns the number of
/// requests answered with `cache_hit: true`.
fn drive_matrix(server: &ServerProc, expect_all_cached: bool) -> usize {
    let matrix = Arc::new(matrix_with_expected_tables());
    let mut handles = Vec::new();
    for worker in 0..CLIENTS {
        let matrix = Arc::clone(&matrix);
        let addr = server.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
            let mut cached = 0usize;
            // Each client walks the full matrix, offset so concurrent
            // clients collide on the same jobs (exercising dedup).
            for step in 0..matrix.len() {
                let (request, expected_table) = &matrix[(step + worker * 3) % matrix.len()];
                let response = client
                    .design_with_retry(request, 20)
                    .expect("design request");
                match response {
                    Response::DesignOk {
                        id,
                        machine,
                        cache_hit,
                        ..
                    } => {
                        let Request::Design { id: want, .. } = request else {
                            unreachable!()
                        };
                        assert_eq!(id, *want, "response id echo");
                        assert_eq!(
                            &machine, expected_table,
                            "served machine differs from the local design for job {id}"
                        );
                        if cache_hit {
                            cached += 1;
                        }
                        if expect_all_cached {
                            assert!(cache_hit, "warm server recomputed job {id}");
                        }
                    }
                    other => panic!("unexpected response: {other:?}"),
                }
            }
            cached
        }));
    }
    handles.into_iter().map(|h| h.join().expect("client")).sum()
}

fn stats(server: &ServerProc) -> Json {
    let mut client = server.client();
    match client.call(&Request::Stats).expect("stats call") {
        Response::Stats(text) => json::parse(&text).expect("stats JSON parses"),
        other => panic!("expected stats, got {other:?}"),
    }
}

fn cache_counters(stats: &Json) -> BTreeMap<&'static str, u64> {
    let cache = stats.get("cache").expect("cache block");
    ["hits", "snapshot_hits", "misses"]
        .into_iter()
        .map(|k| (k, cache.get(k).and_then(Json::as_u64).expect(k)))
        .collect()
}

#[test]
fn served_designs_are_bit_identical_and_warm_restart_stays_warm() {
    let dir = tmp_dir("matrix");
    let cache_file = dir.join("serve-cache.fsnap");
    let cache_flag = cache_file.to_str().unwrap();
    let metrics_file = dir.join("serve-metrics.json");
    let metrics_flag = metrics_file.to_str().unwrap();

    // Cold run: every unique job is designed exactly once (single-flight
    // dedup), every response is bit-identical to the local design.
    let cold = ServerProc::spawn(&["--cache-file", cache_flag, "--metrics-json", metrics_flag]);
    drive_matrix(&cold, false);
    let cold_stats = stats(&cold);
    let cold_cache = cache_counters(&cold_stats);
    let unique = workload_matrix().len() * HISTORIES.len();
    assert_eq!(
        cold_cache["misses"], unique as u64,
        "cold server must design each unique job exactly once: {cold_cache:?}"
    );
    assert!(
        cold_stats
            .get("requests_ok")
            .and_then(Json::as_u64)
            .unwrap() as usize
            >= CLIENTS * unique,
        "every request must succeed"
    );
    cold.shutdown();
    assert!(cache_file.exists(), "shutdown must persist the store");
    assert!(metrics_file.exists(), "shutdown must write metrics JSON");

    // Warm restart over the same snapshot: ≥90% of lookups must be cache
    // hits (here: all of them), and the designs stay byte-identical.
    let warm = ServerProc::spawn(&["--cache-file", cache_flag]);
    drive_matrix(&warm, true);
    let warm_cache = cache_counters(&stats(&warm));
    let hits = warm_cache["hits"] + warm_cache["snapshot_hits"];
    let lookups = hits + warm_cache["misses"];
    assert!(
        hits as f64 >= 0.9 * lookups as f64,
        "warm restart must serve >=90% from cache: {warm_cache:?}"
    );
    assert!(
        warm_cache["snapshot_hits"] >= unique as u64,
        "every unique job must come from the snapshot: {warm_cache:?}"
    );
    warm.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ping_stats_and_design_share_one_connection() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    let request = Request::Design {
        id: 9,
        trace: "0000 1000 1011 1101 1110 1111".into(),
        history: 2,
        threshold: None,
        dont_care: None,
    };
    match client.call(&request).unwrap() {
        Response::DesignOk { id, states, .. } => {
            assert_eq!(id, 9);
            assert_eq!(states, 3, "the paper trace designs to 3 states at h=2");
        }
        other => panic!("unexpected: {other:?}"),
    }
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(text) => {
            let parsed = json::parse(&text).expect("stats parse");
            assert_eq!(
                parsed.get("kind").and_then(Json::as_str),
                Some("serve_metrics")
            );
            assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(1));
        }
        other => panic!("unexpected: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn design_errors_are_structured_not_fatal() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    // history out of range must come back as a design error, not a
    // panic or disconnect...
    let bad = Request::Design {
        id: 1,
        trace: "1010".into(),
        history: 99,
        threshold: None,
        dont_care: None,
    };
    match client.call(&bad).unwrap() {
        Response::DesignError { id, error } => {
            assert_eq!(id, 1);
            assert!(error.contains("history"), "{error}");
        }
        other => panic!("unexpected: {other:?}"),
    }
    // ...and a bad trace likewise...
    let bad_trace = Request::Design {
        id: 2,
        trace: "10x1".into(),
        history: 2,
        threshold: None,
        dont_care: None,
    };
    match client.call(&bad_trace).unwrap() {
        Response::DesignError { id, error } => {
            assert_eq!(id, 2);
            assert!(error.contains("trace"), "{error}");
        }
        other => panic!("unexpected: {other:?}"),
    }
    // ...while the same connection keeps serving good requests.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    server.shutdown();
}
