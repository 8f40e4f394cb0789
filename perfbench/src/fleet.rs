//! The fleet phase: Figure 5 at the paper's history 9 with up to 8 custom
//! FSMs per benchmark. Customs are trained through a `Farm` on TRAIN
//! traces; then XScale, gshare, the local/global chooser and
//! the custom architectures k = 1..8 are simulated over EVAL traces.

use crate::expected::Expected;
use crate::stats::{median, ms, Report};
use fsmgen_bpred::{
    simulate, BranchPredictor, CustomDesigns, CustomTrainer, Gshare, LocalGlobalChooser, XScaleBtb,
};
use fsmgen_exec::{CompiledMachine, CompiledPredictor};
use fsmgen_farm::{CollectingSink, Farm, FarmConfig, FarmEvent, FarmMetrics};
use fsmgen_traces::BranchTrace;
use fsmgen_workloads::{BranchBenchmark, Input};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Branches per TRAIN trace.
pub const TRAIN_LEN: usize = 60_000;
/// Branches per EVAL trace.
pub const EVAL_LEN: usize = 750_000;
/// Global history of the custom FSMs (the paper's value).
pub const HISTORY: usize = 9;
/// Custom FSMs trained per benchmark.
pub const MAX_CUSTOMS: usize = 8;
/// Farm workers training the customs. One: on a shared two-core host a
/// two-worker batch measures whether the second core is free, and that
/// changes for minutes at a time.
pub const FARM_WORKERS: usize = 1;
/// Benchmarks on which the customs must beat XScale for any seed.
const MUST_BEAT_XSCALE: [&str; 3] = ["ijpeg", "gsm", "vortex"];

/// TRAIN and EVAL traces per benchmark.
pub struct Inputs {
    benches: Vec<(BranchBenchmark, BranchTrace, BranchTrace)>,
}

/// Benchmark `k` trains on `Input(seed + 2k)` and is evaluated on
/// `Input(seed + 2k + 1)`.
pub fn inputs(seed: u64) -> Inputs {
    let benches = BranchBenchmark::ALL
        .iter()
        .zip((seed..).step_by(2))
        .map(|(&bench, input)| {
            (
                bench,
                bench.trace(Input(input), TRAIN_LEN),
                bench.trace(Input(input + 1), EVAL_LEN),
            )
        })
        .collect();
    Inputs { benches }
}

/// The table predictors of Figure 5: XScale first, then the gshare and
/// local/global chooser size sweeps.
fn table_predictors() -> Vec<Box<dyn BranchPredictor>> {
    let mut out: Vec<Box<dyn BranchPredictor>> = vec![Box::new(XScaleBtb::xscale())];
    for n in [1 << 10, 1 << 12, 1 << 14, 1 << 16] {
        out.push(Box::new(Gshare::new(n)));
    }
    for (le, lb, ge) in [(128, 10, 1 << 10), (512, 10, 1 << 12), (1024, 10, 1 << 14)] {
        out.push(Box::new(LocalGlobalChooser::new(le, lb, ge)));
    }
    out
}

/// One benchmark's results in one pass.
struct Panel {
    name: &'static str,
    /// Table predictor miss rates, XScale first.
    tables: Vec<f64>,
    /// Custom architecture miss rates, k = 1..
    customs: Vec<f64>,
    designs: CustomDesigns,
    farm: FarmMetrics,
    train_ms: f64,
    table_ms: f64,
    xscale_ms: f64,
    custom_ms: f64,
    custom_branches: u64,
}

/// What one pass measured.
struct Pass {
    panels: Vec<Panel>,
    /// The pass's own time: its panels, not the work between them.
    wall_ms: f64,
    /// In-worker wall of every finished farm job.
    job_ms: Vec<f64>,
}

impl Pass {
    fn train_ms(&self) -> f64 {
        self.panels.iter().map(|p| p.train_ms).sum()
    }
    fn sim_ms(&self) -> f64 {
        self.panels.iter().map(|p| p.table_ms + p.custom_ms).sum()
    }
    fn simulated_branches(&self, eval_len: usize) -> u64 {
        self.panels
            .iter()
            .map(|p| (p.tables.len() * eval_len) as u64 + p.custom_branches)
            .sum()
    }
}

/// A pass under way, one benchmark's panel per [`PassRun::step`], so
/// that its panels can interleave with other work. Each pass trains on
/// a fresh `Farm`, so no pass reuses another's cached designs.
struct PassRun {
    farm: Farm,
    sink: Arc<CollectingSink>,
    trainer: CustomTrainer,
    panels: Vec<Panel>,
    /// Time spent in this pass's panels (and in making its farm).
    busy: Duration,
}

impl PassRun {
    fn new() -> PassRun {
        let t = Instant::now();
        let sink = Arc::new(CollectingSink::new());
        let farm = Farm::with_sink(
            FarmConfig {
                workers: FARM_WORKERS,
                cache_capacity: 1024,
            },
            sink.clone(),
        );
        PassRun {
            farm,
            sink,
            trainer: CustomTrainer::new(HISTORY),
            panels: Vec::new(),
            busy: t.elapsed(),
        }
    }

    /// Trains and simulates the next benchmark's panel.
    fn step(&mut self, inputs: &Inputs) {
        let start = Instant::now();
        let (bench, train, eval) = &inputs.benches[self.panels.len()];
        let t = Instant::now();
        let (designs, farm_metrics) =
            self.trainer
                .train_parallel_with_metrics(train, MAX_CUSTOMS, &self.farm);
        let train_ms = ms(t.elapsed());

        let mut tables = Vec::new();
        let mut xscale_ms = 0.0;
        let t = Instant::now();
        for mut predictor in table_predictors() {
            let tp = Instant::now();
            tables.push(simulate(predictor.as_mut(), eval).miss_rate());
            if tables.len() == 1 {
                xscale_ms = ms(tp.elapsed());
            }
        }
        let table_ms = ms(t.elapsed());

        let t = Instant::now();
        let customs: Vec<f64> = (1..=designs.len())
            .map(|k| simulate(&mut designs.architecture(k), eval).miss_rate())
            .collect();
        let custom_ms = ms(t.elapsed());
        self.panels.push(Panel {
            name: bench.name(),
            tables,
            custom_branches: (customs.len() * eval.len()) as u64,
            customs,
            designs,
            farm: farm_metrics,
            train_ms,
            table_ms,
            xscale_ms,
            custom_ms,
        });
        self.busy += start.elapsed();
    }

    fn is_complete(&self, inputs: &Inputs) -> bool {
        self.panels.len() == inputs.benches.len()
    }

    fn finish(self) -> Pass {
        let job_ms = self
            .sink
            .events()
            .iter()
            .filter_map(|e| match e {
                FarmEvent::JobFinished { wall, .. } => Some(ms(*wall)),
                _ => None,
            })
            .collect();
        Pass {
            panels: self.panels,
            wall_ms: ms(self.busy),
            job_ms,
        }
    }
}

/// One whole pass, uninterrupted.
fn run_pass(inputs: &Inputs) -> Pass {
    let mut pass = PassRun::new();
    while !pass.is_complete(inputs) {
        pass.step(inputs);
    }
    pass.finish()
}

/// `fig5/<bench>/<i>` → miss rate, tables first then customs k = 1...
fn miss_rates(pass: &Pass) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in &pass.panels {
        for (i, rate) in p.tables.iter().chain(&p.customs).enumerate() {
            out.push((format!("fig5/{}/{i}", p.name), format!("{rate:?}")));
        }
    }
    out
}

fn check_pass(pass: &Pass, expected: Option<&Expected>, report: &mut Report) {
    for p in &pass.panels {
        report.attempted += (p.tables.len() + p.customs.len()) as u64;
        if p.farm.failed > 0 {
            report.fail(format!(
                "fig5 {}: {} farm jobs failed",
                p.name, p.farm.failed
            ));
        }
        if MUST_BEAT_XSCALE.contains(&p.name) {
            match p.customs.last() {
                Some(&best) if best < p.tables[0] => {}
                best => report.fail(format!(
                    "fig5 {}: customs {best:?} do not beat XScale {}",
                    p.name, p.tables[0]
                )),
            }
        }
    }
    if let Some(expected) = expected {
        for (key, value) in miss_rates(pass) {
            if let Err(e) = expected.check(&key, &value) {
                report.fail(e);
            }
        }
    }
}

/// Passes an untraced run makes at least.
const MIN_PASSES: usize = 2;

/// Untraced passes made panel by panel, so that the caller can
/// interleave them with other work and each pass's time spreads over
/// the run.
pub struct Timer<'a> {
    inputs: &'a Inputs,
    passes: Vec<Pass>,
    current: Option<PassRun>,
    busy: Duration,
}

impl<'a> Timer<'a> {
    pub fn new(inputs: &'a Inputs) -> Timer<'a> {
        Timer {
            inputs,
            passes: Vec::new(),
            current: None,
            busy: Duration::ZERO,
        }
    }

    /// Runs the next panel, starting a pass first if none is under way.
    pub fn step(&mut self) {
        let start = Instant::now();
        let pass = self.current.get_or_insert_with(PassRun::new);
        pass.step(self.inputs);
        if pass.is_complete(self.inputs) {
            let pass = self.current.take().expect("a pass under way");
            self.passes.push(pass.finish());
        }
        self.busy += start.elapsed();
    }

    /// The share of `budget` spent so far, or `None` once done: at
    /// least [`MIN_PASSES`] whole passes, and another pass of average
    /// length would end beyond `budget`.
    pub fn progress(&self, budget: Duration) -> Option<f64> {
        let done = self.current.is_none()
            && self.passes.len() >= MIN_PASSES
            && self.busy + self.busy / self.passes.len() as u32 > budget;
        (!done).then(|| self.busy.as_secs_f64() / budget.as_secs_f64())
    }

    /// Medians over the passes, and the output checks: every pass must
    /// reproduce the first pass's miss rates.
    pub fn report(self, expected: Option<&Expected>) -> Report {
        let passes = self.passes;
        let mut report = Report::default();
        let sim_branches = passes[0].simulated_branches(EVAL_LEN) as f64;
        let train: Vec<f64> = passes.iter().map(|p| p.train_ms() / 1e3).collect();
        let rate: Vec<f64> = passes
            .iter()
            .map(|p| sim_branches / p.sim_ms() / 1e3)
            .collect();
        let wall: Vec<f64> = passes.iter().map(|p| p.wall_ms / 1e3).collect();
        report.metric("fig5_train_s", median(&train), "s");
        report.metric("sim_mbranch_per_s", median(&rate), "Mbranch/s");
        report.metric("fig5_wall_s", median(&wall), "s");

        check_pass(&passes[0], expected, &mut report);
        let first = miss_rates(&passes[0]);
        for later in &passes[1..] {
            report.op(if miss_rates(later) == first {
                Ok(())
            } else {
                Err("fig5: a repeated pass gave other miss rates".into())
            });
        }
        report
    }
}

/// Traced: one pass with farm, simulator and executor breakdowns.
pub fn run_traced(inputs: &Inputs, expected: Option<&Expected>) -> Report {
    let mut report = Report::default();
    let pass = run_pass(inputs);
    check_pass(&pass, expected, &mut report);

    let batch_ms: f64 = pass.panels.iter().map(|p| ms(p.farm.batch_wall)).sum();
    let jobs: usize = pass.panels.iter().map(|p| p.farm.jobs).sum();
    let degraded: usize = pass.panels.iter().map(|p| p.farm.degraded).sum();
    let busy_ms: f64 = pass.job_ms.iter().sum();
    let mut job_ms = pass.job_ms.clone();
    report.metric("farm.batch_ms", batch_ms, "ms");
    report.metric("farm.job_p50_ms", median(&job_ms), "ms");
    job_ms.sort_by(f64::total_cmp);
    report.metric(
        "farm.job_max_ms",
        job_ms.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    report.metric("farm.jobs", jobs as f64, "count");
    report.metric("farm.degraded", degraded as f64, "count");
    report.metric(
        "farm.busy_frac",
        busy_ms / (FARM_WORKERS as f64 * batch_ms),
        "ratio",
    );

    let table_ms: f64 = pass.panels.iter().map(|p| p.table_ms).sum();
    let custom_ms: f64 = pass.panels.iter().map(|p| p.custom_ms).sum();
    let xscale_ms: f64 = pass.panels.iter().map(|p| p.xscale_ms).sum();
    let custom_branches: u64 = pass.panels.iter().map(|p| p.custom_branches).sum();
    let xscale_ns = xscale_ms * 1e6 / (pass.panels.len() * EVAL_LEN) as f64;
    report.metric("bpred.table_sim_ms", table_ms, "ms");
    report.metric("bpred.custom_sim_ms", custom_ms, "ms");
    report.metric(
        "bpred.custom_extra_ns_per_branch",
        custom_ms * 1e6 / custom_branches as f64 - xscale_ns,
        "ns",
    );

    // The executor alone: each trained machine compiled, then stepped
    // over its benchmark's whole EVAL outcome sequence.
    let mut compile_us = Vec::new();
    let mut step_ns = 0.0;
    let mut steps = 0u64;
    let mut correct = 0u64;
    for (p, (_, _, eval)) in pass.panels.iter().zip(&inputs.benches) {
        for (_, design) in p.designs.designs() {
            let t = Instant::now();
            let compiled = CompiledMachine::compile(design.fsm());
            compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(compiled) = compiled else {
                report.op(Err(format!("fig5 {}: a design did not compile", p.name)));
                continue;
            };
            let mut predictor = CompiledPredictor::new(compiled);
            let t = Instant::now();
            correct += predictor.run(eval.iter().map(|e| e.taken)) as u64;
            step_ns += t.elapsed().as_secs_f64() * 1e9;
            steps += eval.len() as u64;
        }
    }
    std::hint::black_box(correct);
    report.metric("exec.compile_us", median(&compile_us), "us");
    report.metric("exec.step_ns", step_ns / steps as f64, "ns");
    report
}

/// Miss rates for recording the expected outputs at the default seed.
pub fn recorded(inputs: &Inputs) -> Vec<(String, String)> {
    miss_rates(&run_pass(inputs))
}
