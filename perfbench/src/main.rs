//! The fsmgen benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_cold --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Every run sets up all inputs from `--seed`, then runs the three
//! phases — cold design, the Figure 5 fleet and the hot/cold design
//! service — so that every run reports every end-to-end metric. The
//! workload names the phase in focus: it measures for half of
//! `--seconds`, the other two phases for a quarter each, every phase
//! repeating its unit of work and reporting medians. `--trace 1` replaces the end-to-end
//! metrics with the per-layer ones, measured stage by stage from outside
//! the crates. The last stdout line is the JSON result; progress and
//! failure reasons go to stderr. See `perfbench/NOTES.md`.

mod design;
mod expected;
mod fleet;
mod service;
mod stats;

use expected::{Expected, DEFAULT_SEED};
use stats::{median, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: fsmgen-perfbench --workload NAME --seed N --seconds S --trace 0|1
       fsmgen-perfbench --record --seed N     (print expected.txt for seed N)
       fsmgen-perfbench serve-child --cache-file PATH

workloads: design_cold, serve_hot_cold";

const DESIGN: &str = "design_cold";
const SERVE: &str = "serve_hot_cold";

/// Metrics of an untraced run, as BENCHMARK.json declares them.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "design_wall_s",
    "design_h8_ms",
    "design_h10_ms",
    "design_h12_ms",
    "fig5_train_s",
    "sim_mbranch_per_s",
    "fig5_wall_s",
    "hot_p50_ms",
    "hot_p99_ms",
    "cold_p50_ms",
];

/// Metrics of a traced run, as BENCHMARK.json declares them.
const PER_LAYER: [&str; 50] = [
    "automata.dfa_ms",
    "automata.dfa_ms.h12",
    "logicmin.minimize_ms",
    "logicmin.minimize_ms.h12",
    "automata.hopcroft_ms",
    "automata.reduce_ms",
    "automata.nfa_ms",
    "core.markov_ms",
    "core.patterns_ms",
    "core.histories",
    "logicmin.cubes",
    "logicmin.literals",
    "automata.nfa_states",
    "automata.dfa_states",
    "automata.hopcroft_states",
    "automata.reduced_states",
    "automata.dfa_useful_ratio",
    "automata.reduce_ratio",
    "workloads.tracegen_ms",
    "farm.batch_ms",
    "farm.job_p50_ms",
    "farm.job_max_ms",
    "farm.jobs",
    "farm.degraded",
    "farm.busy_frac",
    "bpred.table_sim_ms",
    "bpred.custom_sim_ms",
    "bpred.custom_extra_ns_per_branch",
    "exec.step_ns",
    "exec.compile_us",
    "serve.encode_us",
    "serve.decode_us",
    "serve.client_call_ms",
    "serve.requests_ok",
    "serve.requests_failed",
    "serve.rejected_backpressure",
    "serve.timeouts",
    "serve.server_p50_us",
    "serve.server_p99_us",
    "farm.cache_hits",
    "farm.cache_misses",
    "farm.cache_hit_ratio",
    "farm.store_appends",
    "farm.store_flushes",
    "farm.store_append_us",
    "farm.store_flush_ms",
    "core.cold_design_ms",
    "loadgen.lag_max_ms",
    "loadgen.backlog_max",
    "trace.overhead_frac",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            out.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag}: {v}"));
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = number(value)?,
            "--seconds" => out.seconds = number(value)?.max(4),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace: {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !out.record && ![DESIGN, SERVE].contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return match args.get(1..3) {
            Some([flag, path]) if flag == "--cache-file" => match service::serve_child(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve-child: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fsmgen-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        record(args.seed);
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fsmgen-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory for stores, next to this executable (so inside
/// the build directory of the checkout).
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<Report, String> {
    let focus = args.workload.as_str();
    // The phase in focus measures for half the time, the other two
    // for a quarter each.
    let quarter = Duration::from_secs(args.seconds) / 4;
    let budget = |phase: &str| if phase == focus { 2 * quarter } else { quarter };
    let serve_for = budget(SERVE);
    let expected = (args.seed == DEFAULT_SEED).then(Expected::committed);
    let expected = expected.as_ref();
    let tmp = scratch_dir()?;

    // Set-up: every input from the seed, several times over.
    let mut setup_s = Vec::new();
    let mut tracegen_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t = Instant::now();
        let design_inputs = design::inputs(args.seed);
        let fleet_inputs = fleet::inputs(args.seed);
        tracegen_ms.push(stats::ms(t.elapsed()));
        let serve_inputs = service::inputs(args.seed, serve_for)?;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some((design_inputs, fleet_inputs, serve_inputs));
    }
    let (design_inputs, fleet_inputs, serve_inputs) = inputs.expect("at least one set-up");

    let mut report = Report::default();
    let mut server_setup_s = Vec::new();
    let mut serve = |traced: bool| {
        serve_section(
            &tmp,
            &serve_inputs,
            args.seed,
            serve_for,
            traced,
            &mut server_setup_s,
        )
    };
    if !args.trace {
        // Design slots and fleet panels take turns, each phase's next
        // step going to whichever has spent less of its budget, so that
        // both phases' samples spread over the same stretch of time.
        eprintln!("[{focus}] design and fleet phases");
        let mut designs = design::Timer::new(&design_inputs);
        let mut passes = fleet::Timer::new(&fleet_inputs);
        loop {
            match (designs.progress(budget(DESIGN)), passes.progress(quarter)) {
                (None, None) => break,
                (Some(d), Some(f)) if f < d => passes.step(),
                (Some(_), _) => designs.step(),
                (None, Some(_)) => passes.step(),
            }
        }
        report.merge(designs.report(expected));
        report.merge(passes.report(expected));
        eprintln!("[{focus}] serve phase");
        report.merge(serve(false)?);
        report.metric("setup_s", median(&setup_s) + median(&server_setup_s), "s");
    } else {
        eprintln!("[{focus}] design phase");
        let traced = design::run_traced(&design_inputs);
        let mut overhead = traced.overhead_frac.filter(|_| focus == DESIGN);
        report.merge(traced);
        eprintln!("[{focus}] fleet phase");
        report.merge(fleet::run_traced(&fleet_inputs, expected));
        eprintln!("[{focus}] serve phase");
        if focus == SERVE {
            // The serve phase's overhead: its hot median, traced against
            // an untraced section on another fresh server.
            let hot_p50 = |r: &Report| {
                r.metrics
                    .iter()
                    .find(|m| m.name == "hot_p50_ms")
                    .map(|m| m.value)
            };
            let reference = serve(false)?;
            let traced = serve(true)?;
            overhead = hot_p50(&traced)
                .zip(hot_p50(&reference))
                .map(|(t, u)| t / u - 1.0);
            report.merge(reference);
            report.merge(traced);
        } else {
            report.merge(serve(true)?);
        }
        report
            .metrics
            .retain(|m| PER_LAYER.contains(&m.name.as_str()));
        report.metric("workloads.tracegen_ms", median(&tracegen_ms), "ms");
        report.metric("trace.overhead_frac", overhead.unwrap_or(f64::NAN), "ratio");
    }
    let _ = std::fs::remove_dir_all(&tmp);
    check_metric_set(&report, if args.trace { &PER_LAYER } else { &END_TO_END })?;
    Ok(report)
}

/// Fresh servers on empty stores, started and warmed `SETUP_REPEATS`
/// times (each start-up adds to `setup_s`); the last one serves the
/// timed section and is then shut down.
fn serve_section(
    tmp: &Path,
    inputs: &service::Inputs,
    seed: u64,
    duration: Duration,
    traced: bool,
    setup_s: &mut Vec<f64>,
) -> Result<Report, String> {
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            service::ServerProcess::stop(previous)?;
        }
        let t = Instant::now();
        let started = service::ServerProcess::start(&tmp.join("server"))?;
        service::warm(&started.addr, inputs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let mut report = service::run(&server, inputs, seed, duration, traced);
    report.op(server.stop());
    Ok(report)
}

/// The run must report exactly the declared metrics, each a finite
/// number.
fn check_metric_set(report: &Report, declared: &[&str]) -> Result<(), String> {
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number: {}", m.name, m.value));
        }
    }
    let mut got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want = declared.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("metrics {got:?} differ from the declared {want:?}"));
    }
    Ok(())
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            eprintln!("{:<36} {:>16} {}", m.name, m.value, m.unit);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Prints the outputs `expected.txt` commits for `seed`.
fn record(seed: u64) {
    println!("# Outputs at seed {seed}: design_cold machine digests (FNV-1a of the");
    println!("# machine table) and Figure 5 fleet miss rates (tables, then customs k = 1..).");
    for (key, value) in design::digests(&design::inputs(seed)) {
        println!("{key} {value}");
    }
    for (key, value) in fleet::recorded(&fleet::inputs(seed)) {
        println!("{key} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen_obs::json;

    /// The names this program prints are the names BENCHMARK.json
    /// declares, section by section.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |section: &str| -> Vec<String> {
            let mut names: Vec<String> = doc
                .get(section)
                .and_then(json::Json::as_array)
                .expect("section is an array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect();
            names.sort();
            names
        };
        let sorted = |list: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(names("end_to_end"), sorted(&END_TO_END));
        assert_eq!(names("per_layer"), sorted(&PER_LAYER));
        assert_eq!(names("workloads"), sorted(&[DESIGN, SERVE]));
    }
}
