//! Cross-process persistence: two separate `fsmgen farm` invocations
//! sharing a `--cache-file` store. The second (warm) process must be
//! served almost entirely from the store and must produce byte-identical
//! machine-table artifacts, and a deliberately corrupted store record
//! must be skipped gracefully — never a crash.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fsmgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fsmgen"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmgen-cachep-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("can clear stale temp dir");
    }
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

/// Runs one `fsmgen farm` pass against a shared store, returning the
/// parsed-out metrics JSON text.
fn run_farm(dir: &Path, pass: &str) -> String {
    let metrics = dir.join(format!("metrics-{pass}.json"));
    let out = fsmgen()
        .args([
            "farm",
            "--benchmarks",
            "gsm,compress",
            "--histories",
            "2,3",
            "--len",
            "3000",
            "--jobs",
            "2",
            "--cache-file",
            dir.join("designs.fsnap").to_str().expect("utf8 path"),
            "--metrics-json",
            metrics.to_str().expect("utf8 path"),
            "--dump-machines",
            dir.join(format!("machines-{pass}"))
                .to_str()
                .expect("utf8 path"),
        ])
        .output()
        .expect("farm runs");
    assert!(
        out.status.success(),
        "farm {pass} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&metrics).expect("metrics json written")
}

/// Pulls a `"name": <integer>` field out of the flat metrics JSON.
fn json_u64(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {json}"));
    json[at + key.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer in {json}"))
}

#[test]
fn second_process_is_served_from_the_snapshot_with_identical_artifacts() {
    let dir = tmpdir("warm");

    let cold = run_farm(&dir, "cold");
    assert_eq!(json_u64(&cold, "snapshot_hits"), 0, "{cold}");
    let loaded = json_u64(&cold, "loaded");
    assert_eq!(loaded, 0, "cold run must not load anything: {cold}");

    let warm = run_farm(&dir, "warm");
    let jobs = json_u64(&warm, "jobs");
    let snapshot_hits = json_u64(&warm, "snapshot_hits");
    assert!(jobs > 0, "{warm}");
    assert!(
        snapshot_hits * 10 >= jobs * 9,
        "warm run must hit the snapshot for >=90% of jobs \
         ({snapshot_hits}/{jobs}): {warm}"
    );
    assert_eq!(json_u64(&warm, "misses"), 0, "{warm}");
    assert_eq!(json_u64(&warm, "skipped"), 0, "{warm}");

    // Byte-identical machine tables between the cold and warm processes.
    let cold_dir = dir.join("machines-cold");
    let warm_dir = dir.join("machines-warm");
    let mut names: Vec<String> = std::fs::read_dir(&cold_dir)
        .expect("cold machines dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8")
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "cold run dumped no machines");
    for name in &names {
        let cold_bytes = std::fs::read(cold_dir.join(name)).expect("cold table");
        let warm_bytes = std::fs::read(warm_dir.join(name)).expect("warm table");
        assert_eq!(cold_bytes, warm_bytes, "{name}: artifacts differ");
    }

    // `fsmgen cache verify` agrees the snapshot is intact.
    let out = fsmgen()
        .args([
            "cache",
            "verify",
            "--cache-file",
            dir.join("designs.fsnap").to_str().expect("utf8 path"),
        ])
        .output()
        .expect("cache verify runs");
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupted_snapshot_is_skipped_not_fatal() {
    let dir = tmpdir("corrupt");
    let snap = dir.join("designs.fsnap");

    let _ = run_farm(&dir, "cold");

    // Flip a byte in the middle of the first record's payload.
    let mut bytes = std::fs::read(&snap).expect("snapshot exists");
    assert!(bytes.len() > 64, "snapshot too small to corrupt");
    bytes[40] ^= 0xFF;
    std::fs::write(&snap, &bytes).expect("rewrite snapshot");

    // `cache verify` flags it with a nonzero exit.
    let out = fsmgen()
        .args([
            "cache",
            "verify",
            "--cache-file",
            snap.to_str().expect("utf8"),
        ])
        .output()
        .expect("cache verify runs");
    assert!(!out.status.success(), "verify must fail on corruption");

    // A warm farm run still succeeds; the bad record is just skipped and
    // its job recomputed as a plain miss.
    let warm = run_farm(&dir, "warm");
    assert!(json_u64(&warm, "skipped") >= 1, "{warm}");
    assert!(json_u64(&warm, "misses") >= 1, "{warm}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
