//! Value-prediction confidence estimation (§6): train cross-benchmark FSM
//! confidence estimators and compare their accuracy/coverage trade-off
//! against the saturating up/down counter sweep — one panel of Figure 2.
//!
//! Run with: `cargo run --release --example value_confidence [benchmark]`
//! where `benchmark` is one of groff, gcc, li, go, perl (default gcc).

use fsmgen_suite::experiments::fig2::{best_coverage_at_accuracy, run_panel, Fig2Config};
use fsmgen_suite::experiments::report::fig2_table;
use fsmgen_suite::workloads::ValueBenchmark;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_string());
    let bench = ValueBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == which)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark {which:?}, using gcc");
            ValueBenchmark::Gcc
        });

    let config = Fig2Config {
        trace_len: 40_000,
        histories: vec![2, 4, 6, 8, 10],
        thresholds: vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
    };
    println!(
        "cross-training FSM confidence for {bench}: trained on all other \
         benchmarks, evaluated on {bench}\n"
    );
    let panel = run_panel(bench, &config);
    print!("{}", fig2_table(&panel));

    // The paper's headline comparison, at an 80% accuracy target.
    let sud_cov = best_coverage_at_accuracy(&panel.sud, 0.8);
    let fsm_cov = panel
        .fsm
        .values()
        .filter_map(|curve| best_coverage_at_accuracy(curve, 0.8))
        .fold(None, |best: Option<f64>, c| {
            Some(best.map_or(c, |b| b.max(c)))
        });
    println!("\nbest coverage at >= 80% accuracy:");
    println!(
        "  saturating up/down counters: {}",
        sud_cov.map_or("-".to_string(), |c| format!("{:.1}%", c * 100.0))
    );
    println!(
        "  custom FSM estimators:       {}",
        fsm_cov.map_or("-".to_string(), |c| format!("{:.1}%", c * 100.0))
    );
}
