//! Programmatic verification of the paper's headline claims: each claim
//! from §6.4/§7.5/§8 is computed on the synthetic substrate and reported
//! as holds / does-not-hold, giving EXPERIMENTS.md a regenerable source
//! of truth.

use crate::fig2::{best_coverage_at_accuracy, run_panel, Fig2Config};
use fsmgen_bpred::{simulate, CustomTrainer, Gshare, LocalGlobalChooser, XScaleBtb};
use fsmgen_workloads::{BranchBenchmark, Input, ValueBenchmark};
use serde::{Deserialize, Serialize};

/// One verified claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// Where the claim comes from, e.g. `"§7.5 compress"`.
    pub source: String,
    /// The claim, paraphrased.
    pub claim: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the claim holds on the synthetic substrate.
    pub holds: bool,
}

/// Configuration: trace length per benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeadlineConfig {
    /// Dynamic events per trace.
    pub trace_len: usize,
}

impl Default for HeadlineConfig {
    fn default() -> Self {
        HeadlineConfig { trace_len: 40_000 }
    }
}

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Computes every headline claim.
#[must_use]
pub fn run(config: &HeadlineConfig) -> Vec<Headline> {
    let mut out = Vec::new();
    let len = config.trace_len;

    // -- §7.5 per-benchmark custom results ------------------------------
    struct BenchResult {
        base: f64,
        curve: Vec<f64>,
        best_table: f64,
        lgc_mid: f64,
    }
    let bench_result = |bench: BranchBenchmark| {
        let train = bench.trace(Input::TRAIN, len);
        let eval = bench.trace(Input::EVAL, len);
        let base = simulate(&mut XScaleBtb::xscale(), &eval).miss_rate();
        let designs = CustomTrainer::paper_default().train(&train, 8);
        let curve: Vec<f64> = (1..=designs.len())
            .map(|k| simulate(&mut designs.architecture(k), &eval).miss_rate())
            .collect();
        let best_table = [
            simulate(&mut Gshare::new(1 << 12), &eval).miss_rate(),
            simulate(&mut Gshare::new(1 << 16), &eval).miss_rate(),
            simulate(&mut LocalGlobalChooser::new(512, 10, 1 << 12), &eval).miss_rate(),
            simulate(&mut LocalGlobalChooser::new(1024, 10, 1 << 14), &eval).miss_rate(),
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        let lgc_mid = simulate(&mut LocalGlobalChooser::new(512, 10, 1 << 12), &eval).miss_rate();
        BenchResult {
            base,
            curve,
            best_table,
            lgc_mid,
        }
    };

    let compress = bench_result(BranchBenchmark::Compress);
    let first_gain = compress.base - compress.curve[0];
    let rest_gain = compress.curve[0] - compress.curve.last().copied().unwrap_or(0.0);
    out.push(Headline {
        source: "§7.5 compress".to_string(),
        claim: "all the custom benefit comes from one branch".to_string(),
        measured: format!(
            "first FSM gains {}, the remaining seven gain {}",
            pct(first_gain),
            pct(rest_gain)
        ),
        holds: first_gain > 0.0 && rest_gain < first_gain * 0.25,
    });
    out.push(Headline {
        source: "§7.5 compress".to_string(),
        claim: "a moderate LGC outperforms the customized predictor".to_string(),
        measured: format!(
            "LGC {} vs best custom {}",
            pct(compress.lgc_mid),
            pct(compress.curve.iter().copied().fold(f64::INFINITY, f64::min))
        ),
        holds: compress.lgc_mid < compress.curve.iter().copied().fold(f64::INFINITY, f64::min),
    });

    for bench in [
        BranchBenchmark::Ijpeg,
        BranchBenchmark::Gsm,
        BranchBenchmark::Vortex,
    ] {
        let r = bench_result(bench);
        let best_custom = r.curve.iter().copied().fold(f64::INFINITY, f64::min);
        out.push(Headline {
            source: format!("§7.5 {}", bench.name()),
            claim: "customs beat every general-purpose table examined".to_string(),
            measured: format!(
                "xscale {} -> custom {}, best table {}",
                pct(r.base),
                pct(best_custom),
                pct(r.best_table)
            ),
            holds: best_custom < r.best_table,
        });
    }

    let g721 = bench_result(BranchBenchmark::G721);
    let g721_custom = g721.curve.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(Headline {
        source: "§7.5 g721".to_string(),
        claim: "XScale is already good; customs shave about a point".to_string(),
        measured: format!("{} -> {}", pct(g721.base), pct(g721_custom)),
        holds: g721_custom < g721.base && g721.base - g721_custom < 0.04,
    });

    // -- §6.4 confidence estimation --------------------------------------
    let panel = run_panel(
        ValueBenchmark::Gcc,
        &Fig2Config {
            trace_len: len.min(40_000),
            histories: vec![4, 8, 10],
            thresholds: vec![0.5, 0.7, 0.9],
        },
    );
    let sud = best_coverage_at_accuracy(&panel.sud, 0.78).unwrap_or(0.0);
    let fsm = panel
        .fsm
        .values()
        .filter_map(|c| best_coverage_at_accuracy(c, 0.78))
        .fold(0.0f64, f64::max);
    out.push(Headline {
        source: "§6.4 gcc".to_string(),
        claim: "at a high accuracy target the FSM estimator covers far more than any SUD"
            .to_string(),
        measured: format!(
            "SUD {} vs FSM {} coverage at >= 78% accuracy",
            pct(sud),
            pct(fsm)
        ),
        holds: fsm > sud + 0.10,
    });

    out
}

/// Renders the claims as an aligned table.
#[must_use]
pub fn table(headlines: &[Headline]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:<8} claim / measured", "source", "holds");
    for h in headlines {
        let _ = writeln!(
            out,
            "{:<16} {:<8} {}",
            h.source,
            if h.holds { "yes" } else { "NO" },
            h.claim
        );
        let _ = writeln!(out, "{:<16} {:<8}   measured: {}", "", "", h.measured);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_headlines_hold_at_test_scale() {
        let headlines = run(&HeadlineConfig { trace_len: 20_000 });
        assert!(headlines.len() >= 7);
        for h in &headlines {
            assert!(
                h.holds,
                "claim failed: {} — {} ({})",
                h.source, h.claim, h.measured
            );
        }
        let t = table(&headlines);
        assert!(t.contains("§7.5 compress"));
        assert!(!t.contains(" NO "), "table should show no failures:\n{t}");
    }
}
