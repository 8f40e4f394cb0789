//! Crash-drill differential harness: a real `fsmgen-served` process is
//! SIGKILL'd mid-traffic and must restart from its durable store,
//! recover (truncating the torn tail we inject), and serve designs
//! byte-identical to the uninterrupted local reference across the
//! workload×history matrix. A second drill checks the one-time
//! migration of a legacy v1 snapshot file into the log format.

use fsmgen::{Design, Designer};
use fsmgen_automata::machine_to_table;
use fsmgen_farm::{encode_snapshot, DesignJob, STORE_MAGIC};
use fsmgen_serve::json::{self, Json};
use fsmgen_serve::{Request, Response, ServeClient};
use fsmgen_testkit::{workload_matrix, HISTORIES};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

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

    /// Unclean death: SIGKILL, no drain, no compaction, no final fsync
    /// beyond what the append path already forced.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL the server");
        let _ = self.child.wait();
        std::mem::forget(self);
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
    let dir = std::env::temp_dir().join(format!("fsmgen-crash-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The matrix as (request, locally-designed table text) pairs — the
/// uninterrupted reference every served design must match byte-for-byte.
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

/// Drives a slice of the matrix through one connection, byte-checking
/// every machine against the local reference. Returns cache-hit count.
fn drive(server: &ServerProc, matrix: &[(Request, String)], expect_all_cached: bool) -> usize {
    let mut client = server.client();
    let mut cached = 0usize;
    for (request, expected_table) in matrix {
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
                    "served machine differs from the local reference for job {id}"
                );
                if cache_hit {
                    cached += 1;
                }
                if expect_all_cached {
                    assert!(cache_hit, "recovered server recomputed job {id}");
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    cached
}

fn stats(server: &ServerProc) -> Json {
    let mut client = server.client();
    match client.call(&Request::Stats).expect("stats call") {
        Response::Stats(text) => json::parse(&text).expect("stats JSON parses"),
        other => panic!("expected stats, got {other:?}"),
    }
}

fn counter(stats: &Json, block: &str, key: &str) -> u64 {
    stats
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{block}.{key} in stats"))
}

#[test]
fn sigkilled_server_recovers_truncates_torn_tail_and_serves_identical_designs() {
    sigkill_drill("sigkill", &[]);
}

/// The same unclean-death drill against the sharded event-driven
/// architecture: shards share ONE durable log, and recovery must
/// re-partition it so a different shard count still serves everything
/// warm and byte-identical.
#[test]
fn sigkilled_sharded_server_recovers_from_the_shared_log() {
    sigkill_drill("sigkill-sharded", &["--shards", "4"]);
}

fn sigkill_drill(tag: &str, arch_flags: &[&str]) {
    let dir = tmp_dir(tag);
    let store_file = dir.join("crash-store.fsnap");
    let store_flag = store_file.to_str().unwrap();
    let matrix = matrix_with_expected_tables();

    // Phase 1: a server syncing every append (so the kill loses nothing)
    // serves the whole matrix, then dies by SIGKILL — no drain, no
    // compaction, no graceful anything.
    let mut victim_flags = vec!["--cache-file", store_flag, "--flush-every", "1"];
    victim_flags.extend_from_slice(arch_flags);
    let victim = ServerProc::spawn(&victim_flags);
    drive(&victim, &matrix, false);
    let victim_stats = stats(&victim);
    assert!(
        counter(&victim_stats, "store", "appends") >= matrix.len() as u64,
        "every unique design must have been appended before the kill"
    );
    victim.sigkill();
    assert!(store_file.exists(), "the store survives the kill");

    // Simulate the torn write a crash can leave behind: a partial frame
    // prefix at the tail (shorter than the 24-byte record framing).
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&store_file)
            .unwrap();
        file.write_all(&[0xAB; 12]).unwrap();
    }
    let torn_len = std::fs::metadata(&store_file).unwrap().len();

    // Phase 2: restart on the same store. Recovery must truncate the
    // torn tail (counted, not fatal) and serve every matrix job from the
    // recovered cache, byte-identical to the uninterrupted reference.
    let mut survivor_flags = vec!["--cache-file", store_flag];
    survivor_flags.extend_from_slice(arch_flags);
    let survivor = ServerProc::spawn(&survivor_flags);
    drive(&survivor, &matrix, true);
    let survivor_stats = stats(&survivor);
    assert!(
        counter(&survivor_stats, "store", "recovered") >= matrix.len() as u64,
        "all appended designs must be recovered: {survivor_stats:?}"
    );
    assert_eq!(
        counter(&survivor_stats, "store", "truncated"),
        1,
        "the torn tail must be counted in store.truncated"
    );
    assert!(
        counter(&survivor_stats, "cache", "snapshot_hits") >= matrix.len() as u64,
        "every matrix job must be served from the recovered store"
    );
    assert!(
        std::fs::metadata(&store_file).unwrap().len() < torn_len,
        "recovery must physically truncate the torn tail"
    );
    survivor.shutdown();

    // The graceful exit compacted: a third boot still serves everything.
    // Deliberately spawned WITHOUT the architecture flags: the sharded
    // variant's log, written by 4 shards, must recover into the
    // single-shard threaded server too (the shard count is not part of
    // the on-disk format).
    let third = ServerProc::spawn(&["--cache-file", store_flag]);
    drive(&third, &matrix, true);
    let third_stats = stats(&third);
    assert_eq!(
        counter(&third_stats, "store", "truncated"),
        0,
        "a compacted store has no torn tail left"
    );
    third.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn legacy_snapshot_file_is_migrated_once_and_served_warm() {
    let dir = tmp_dir("legacy");
    let store_file = dir.join("legacy.fsnap");
    let matrix = matrix_with_expected_tables();

    // Produce a genuine snapshot-v1 file with the frozen reference
    // encoder, keyed by the same jobs' fingerprint and verify digests. Job
    // ids are not part of the fingerprint, so the server's lookups match.
    let designed: Vec<(DesignJob, Design)> = workload_matrix()
        .into_iter()
        .flat_map(|(_name, trace)| {
            let trace = Arc::new(trace);
            HISTORIES
                .into_iter()
                .map(move |history| {
                    let designer = Designer::new(history);
                    let design = designer.design_from_trace(&trace).expect("local design");
                    (
                        DesignJob::from_trace(0, Arc::clone(&trace), designer),
                        design,
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(designed.len(), matrix.len(), "one snapshot record per job");
    let records = designed.iter().map(|(job, design)| {
        let fingerprint = job.fingerprint().expect("cacheable job");
        let verify = job.verify_hash().expect("cacheable job");
        (fingerprint, verify, design)
    });
    std::fs::write(&store_file, encode_snapshot(records)).expect("legacy write");

    // A server pointed at the legacy file migrates it in place and
    // serves every job from the migrated cache.
    let server = ServerProc::spawn(&["--cache-file", store_file.to_str().unwrap()]);
    drive(&server, &matrix, true);
    let migrated_stats = stats(&server);
    assert_eq!(
        counter(&migrated_stats, "store", "migrated"),
        matrix.len() as u64,
        "every legacy record must be migrated: {migrated_stats:?}"
    );
    assert!(
        counter(&migrated_stats, "cache", "snapshot_hits") >= matrix.len() as u64,
        "every job must be served from the migrated store"
    );
    server.shutdown();

    // The file is now a log — the migration happened exactly once.
    let bytes = std::fs::read(&store_file).unwrap();
    assert_eq!(&bytes[..8], &STORE_MAGIC, "migrated file must be log v1");

    std::fs::remove_dir_all(&dir).unwrap();
}
