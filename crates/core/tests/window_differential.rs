//! Differential test of the designer's window construction against the
//! paper path: for every design, the machine before start-state reduction
//! must equal `Dfa::from_nfa(&Nfa::from_regex(regex)).minimized()` (the
//! Thompson NFA → subset construction → Hopcroft route of §4.6), and the
//! final machine its `steady_state_reduced()`, bit for bit.
//!
//! The default cases stay quick in debug builds. The history-12 case over
//! all six benchmarks is `#[ignore]`d; run it in release with
//! `cargo test --release -p fsmgen --test window_differential -- --include-ignored`.

use fsmgen::{Design, Designer};
use fsmgen_automata::{Dfa, Nfa};
use fsmgen_testkit::{workload_matrix, HISTORIES};
use fsmgen_traces::BitTrace;
use fsmgen_workloads::{BranchBenchmark, Input};

/// Asserts that `design`'s machines are the paper path's for its regex.
fn assert_matches_paper_path(design: &Design, label: &str) {
    assert!(
        !design.degradation().is_degraded(),
        "{label}: an unbudgeted design must not degrade"
    );
    match design.regex() {
        Some(regex) => {
            let paper = Dfa::from_nfa(&Nfa::from_regex(regex)).minimized();
            assert_eq!(
                design.minimized_with_startup(),
                &paper,
                "{label}: machine before start-state reduction"
            );
            assert_eq!(
                design.fsm(),
                &paper.steady_state_reduced(),
                "{label}: steady-state machine"
            );
        }
        None => {
            // An empty cover: the paper path has no regex and the designer
            // returns the constant predict-0 machine.
            assert!(design.cover().is_empty(), "{label}: no regex, so no cover");
            assert_eq!(design.fsm().num_states(), 1, "{label}");
            assert!(!design.fsm().output(0), "{label}");
        }
    }
}

/// The first `len` outcomes of `bench` on its first input.
fn benchmark_bits(bench: BranchBenchmark, len: usize) -> BitTrace {
    bench
        .trace(Input(0), len)
        .iter()
        .take(len)
        .map(|e| e.taken)
        .collect()
}

fn check_benchmarks(histories: &[usize], len: usize) {
    for bench in BranchBenchmark::ALL {
        let trace = benchmark_bits(bench, len);
        for &h in histories {
            let design = Designer::new(h)
                .design_from_trace(&trace)
                .expect("benchmark traces design");
            assert_matches_paper_path(&design, &format!("{}/h{h}", bench.name()));
        }
    }
}

#[test]
fn workload_matrix_matches_paper_path() {
    for (name, trace) in workload_matrix() {
        for h in HISTORIES {
            let design = Designer::new(h)
                .design_from_trace(&trace)
                .expect("matrix traces design");
            assert_matches_paper_path(&design, &format!("{name}/h{h}"));
        }
    }
}

#[test]
fn branch_benchmarks_match_paper_path() {
    check_benchmarks(&[2, 5, 8, 10], 20_000);
}

#[test]
#[ignore = "paper-path oracle at history 12 is slow in debug builds; run with --release"]
fn branch_benchmarks_match_paper_path_at_history_12() {
    check_benchmarks(&[12], 100_000);
}
