//! CLI durability drills for the persistent design store: `fsmgen farm`
//! must write the log format, `fsmgen cache verify`/`info` must exit
//! nonzero (after printing a damage report, never panicking) on
//! truncated or bit-flipped stores, `cache compact` must heal a torn
//! tail in place, and `cache gc` must migrate a legacy snapshot file.

use fsmgen::Designer;
use fsmgen_farm::{encode_snapshot, SNAPSHOT_MAGIC, STORE_MAGIC};
use fsmgen_traces::BitTrace;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fsmgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fsmgen"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmgen-cached-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("can clear stale temp dir");
    }
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

fn run_farm(store: &Path) {
    let out = fsmgen()
        .args([
            "farm",
            "--benchmarks",
            "gsm",
            "--histories",
            "2,3",
            "--len",
            "2000",
            "--jobs",
            "2",
            "--cache-file",
            store.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("farm runs");
    assert!(
        out.status.success(),
        "farm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn cache_cmd(action: &str, store: &Path, extra: &[&str]) -> Output {
    fsmgen()
        .args([
            "cache",
            action,
            "--cache-file",
            store.to_str().expect("utf8"),
        ])
        .args(extra)
        .output()
        .expect("cache command runs")
}

#[test]
fn truncated_and_corrupt_stores_fail_verify_and_info_with_a_report() {
    let dir = tmpdir("damage");
    let store = dir.join("designs.fsnap");
    run_farm(&store);

    // The farm now writes the append-log format.
    let bytes = std::fs::read(&store).expect("store exists");
    assert_eq!(&bytes[..8], &STORE_MAGIC, "farm must write log v1");

    // Pristine: info and verify both exit 0 and name the format.
    let info = cache_cmd("info", &store, &[]);
    assert!(info.status.success(), "info on a pristine store");
    let stdout = String::from_utf8_lossy(&info.stdout);
    assert!(stdout.contains("log v1"));
    // The machine summary: state-count spread plus how many records
    // would spill past the compiled backend's u8 table width.
    assert!(
        stdout.contains("states min") && stdout.contains("u8 table width"),
        "info must print the machine state-count summary: {stdout}"
    );
    assert!(cache_cmd("verify", &store, &[]).status.success());

    // dd-style truncation mid-record: a torn tail.
    let full_len = bytes.len() as u64;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&store)
        .expect("open store");
    file.set_len(full_len - 7).expect("truncate");
    drop(file);

    // Both read-only actions exit nonzero with a report — no panic, no
    // silent 0 — and neither mutates the file.
    let verify = cache_cmd("verify", &store, &[]);
    assert!(!verify.status.success(), "verify must fail on a torn tail");
    assert!(
        String::from_utf8_lossy(&verify.stderr).contains("torn tail"),
        "stderr must report the damage: {}",
        String::from_utf8_lossy(&verify.stderr)
    );
    let info = cache_cmd("info", &store, &[]);
    assert!(!info.status.success(), "info must fail on a torn tail");
    assert!(
        String::from_utf8_lossy(&info.stdout).contains("torn tail"),
        "info still prints its report first"
    );
    assert_eq!(
        std::fs::metadata(&store).expect("store").len(),
        full_len - 7,
        "read-only actions must not mutate the store"
    );

    // `cache compact` heals: the tail is truncated, survivors rewritten.
    let compact = cache_cmd("compact", &store, &[]);
    assert!(
        compact.status.success(),
        "compact must heal a torn tail: {}",
        String::from_utf8_lossy(&compact.stderr)
    );
    assert!(cache_cmd("verify", &store, &[]).status.success());

    // A bit-flip inside a record payload: framed corruption.
    let mut bytes = std::fs::read(&store).expect("store");
    assert!(bytes.len() > 48, "store too small to corrupt");
    bytes[40] ^= 0xFF;
    std::fs::write(&store, &bytes).expect("rewrite");
    let verify = cache_cmd("verify", &store, &[]);
    assert!(!verify.status.success(), "verify must fail on corruption");
    assert!(
        String::from_utf8_lossy(&verify.stderr).contains("corrupt record"),
        "stderr must count the corrupt record: {}",
        String::from_utf8_lossy(&verify.stderr)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn gc_migrates_a_legacy_snapshot_to_the_log_format() {
    let dir = tmpdir("legacy");
    let store = dir.join("legacy.fsnap");

    // A genuine snapshot-v1 file, from the frozen reference encoder.
    let trace: BitTrace = "0000 1000 1011 1101 1110 1111".parse().expect("trace");
    let designs: Vec<_> = [2usize, 3]
        .iter()
        .map(|&h| {
            Designer::new(h)
                .design_from_trace(&trace)
                .expect("local design")
        })
        .collect();
    std::fs::write(
        &store,
        encode_snapshot(
            designs
                .iter()
                .enumerate()
                .map(|(i, d)| (i as u64 + 1, 0u64, d)),
        ),
    )
    .expect("write legacy snapshot");
    let bytes = std::fs::read(&store).expect("snapshot");
    assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC, "precondition: legacy format");

    // `cache gc` opens (migrating) and compacts; the file comes out as a
    // log and verifies clean.
    let gc = cache_cmd("gc", &store, &["--keep", "10"]);
    assert!(
        gc.status.success(),
        "gc on a legacy snapshot: {}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let bytes = std::fs::read(&store).expect("store");
    assert_eq!(&bytes[..8], &STORE_MAGIC, "gc must migrate to log v1");
    assert!(cache_cmd("verify", &store, &[]).status.success());
    let info = cache_cmd("info", &store, &[]);
    assert!(info.status.success());
    let report = String::from_utf8_lossy(&info.stdout);
    assert!(
        report.contains("2 record(s) decoded"),
        "both legacy records must survive migration: {report}"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
