//! End-to-end test of `fsmgen serve` + `fsmgen client` as real processes:
//! the served machine table must be byte-identical to `fsmgen design`'s
//! table for the same trace and history, control requests must work, and
//! a protocol shutdown must exit the server cleanly and persist the
//! cache snapshot.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn fsmgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fsmgen"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmgen-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const PAPER_TRACE: &str = "0000 1000 1011 1101 1110 1111";

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(extra: &[&str]) -> ServerProc {
        let mut child = fsmgen()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fsmgen serve");
        let stdout = child.stdout.take().expect("stdout");
        let banner = std::io::BufReader::new(stdout)
            .lines()
            .next()
            .expect("banner line")
            .expect("banner utf8");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    fn client(&self, extra: &[&str]) -> Output {
        fsmgen()
            .args(["client", "--addr", &self.addr])
            .args(extra)
            .output()
            .expect("run fsmgen client")
    }

    fn shutdown(mut self) {
        let output = self.client(&["--shutdown"]);
        assert!(output.status.success(), "shutdown: {output:?}");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "server exit status {status:?}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stdout_text(output: &Output) -> String {
    assert!(
        output.status.success(),
        "command failed: {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn cli_serve_and_client_round_trip_matches_local_design() {
    let dir = tmp_dir();
    let trace_file = dir.join("trace.txt");
    std::fs::write(&trace_file, PAPER_TRACE).unwrap();
    let trace_flag = trace_file.to_str().unwrap();
    let cache_file = dir.join("cli-serve.fsnap");
    let cache_flag = cache_file.to_str().unwrap();

    // The local ground truth: fsmgen design --format table.
    let local = stdout_text(
        &fsmgen()
            .args(["design", "--history", "2", "--format", "table", trace_flag])
            .output()
            .expect("run fsmgen design"),
    );

    let server = ServerProc::spawn(&["--cache-file", cache_flag]);

    // Control plane.
    assert_eq!(stdout_text(&server.client(&["--ping"])).trim(), "pong");
    let stats = stdout_text(&server.client(&["--stats"]));
    assert!(stats.contains("\"kind\": \"serve_metrics\""), "{stats}");

    // Served table == local table, byte for byte.
    let served = stdout_text(&server.client(&["--history", "2", "--format", "table", trace_flag]));
    assert_eq!(served, local, "served table differs from local design");

    // Batch mode over one connection; the repeated job is a cache hit.
    let batch_file = dir.join("batch.txt");
    std::fs::write(
        &batch_file,
        format!("# history trace\n2 {PAPER_TRACE}\n3 {PAPER_TRACE}\n2 {PAPER_TRACE}\n"),
    )
    .unwrap();
    let batch_out = stdout_text(&server.client(&["--batch", batch_file.to_str().unwrap()]));
    let lines: Vec<&str> = batch_out.lines().collect();
    assert_eq!(lines.len(), 3, "{batch_out}");
    assert!(lines[0].contains("job 0 (h=2)"), "{batch_out}");
    assert!(lines[2].contains("cache=hit"), "{batch_out}");

    // A design error surfaces as a nonzero client exit, not a wedge.
    let bad = server.client(&["--history", "99", trace_flag]);
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("history"),
        "{bad:?}"
    );

    server.shutdown();
    assert!(cache_file.exists(), "shutdown must persist the store");

    // Warm restart: the same design must now be a cache hit.
    let warm = ServerProc::spawn(&["--cache-file", cache_flag]);
    let summary = stdout_text(&warm.client(&["--history", "2", trace_flag]));
    assert!(
        summary.contains("cache=hit"),
        "warm restart missed: {summary}"
    );
    warm.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_client_requires_addr() {
    let output = fsmgen().args(["client", "--ping"]).output().expect("run");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--addr"),
        "{output:?}"
    );
}
