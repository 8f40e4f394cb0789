//! Differential harness: cache-backed (warm-store) designs must be
//! bit-identical to cold designs, across a matrix of workloads and
//! history lengths — and the warm run must not touch the design pipeline
//! at all (zero minimize/QM/espresso activity, asserted via obs events).

use fsmgen::Designer;
use fsmgen_farm::{DesignJob, Farm, FarmConfig, StoreConfig};
use fsmgen_obs::{CollectingObsSink, ObsEvent};
use fsmgen_synth::{synthesize_area, Encoding};
use fsmgen_testkit::{workload_matrix, HISTORIES};
use fsmgen_traces::BitTrace;
use std::path::PathBuf;
use std::sync::Arc;

fn jobs() -> Vec<(String, DesignJob)> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    // The canonical deterministic workload matrix, shared with the serve
    // e2e differential so both harnesses pin the same designs.
    for (name, trace) in workload_matrix() {
        for history in HISTORIES {
            jobs.push((
                format!("{name}/h{history}"),
                DesignJob::from_trace(id, Arc::clone(&trace), Designer::new(history)),
            ));
            id += 1;
        }
    }
    jobs
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmgen-diff-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("designs.flog")
}

#[test]
fn warm_designs_are_bit_identical_to_cold_and_skip_the_pipeline() {
    let path = tmp_store("matrix");
    let labels: Vec<String> = jobs().iter().map(|(l, _)| l.clone()).collect();

    // Cold pass: design the whole matrix from scratch; the attached store
    // appends every design as it is computed.
    let cold = Farm::new(FarmConfig {
        workers: 2,
        cache_capacity: 64,
    });
    cold.attach_store(&path, StoreConfig::default()).unwrap();
    let cold_report = cold.design_batch(jobs().into_iter().map(|(_, j)| j).collect());
    assert_eq!(cold_report.metrics.failed, 0, "cold matrix must succeed");
    assert_eq!(
        cold_report.metrics.store.appends as usize,
        labels.len(),
        "every unique job should be persisted"
    );
    drop(cold);

    // Warm pass: one worker so every job runs inline on this thread,
    // which a thread-local obs sink then observes completely.
    let warm = Farm::new(FarmConfig {
        workers: 1,
        cache_capacity: 64,
    });
    let recovered = warm.attach_store(&path, StoreConfig::default()).unwrap();
    assert_eq!(recovered.recovered as usize, labels.len());
    assert_eq!(recovered.skipped, 0);

    let obs_sink = Arc::new(CollectingObsSink::new());
    let _guard = fsmgen_obs::install(Arc::clone(&obs_sink) as Arc<dyn fsmgen_obs::ObsSink>);
    let warm_report = warm.design_batch(jobs().into_iter().map(|(_, j)| j).collect());
    drop(_guard);

    // Every job must be served from the store.
    assert_eq!(
        warm_report.metrics.cache.snapshot_hits as usize,
        labels.len(),
        "warm run must serve everything from the store: {:?}",
        warm_report.metrics.cache
    );
    assert_eq!(warm_report.metrics.cache.misses, 0);
    assert_eq!(warm_report.metrics.cache.stale, 0);
    assert_eq!(warm_report.metrics.store.appends, 0, "nothing new to log");

    // Zero design-pipeline activity: no minimize span, no QM/espresso
    // counters, in fact no design span at all.
    for event in obs_sink.events() {
        match event {
            ObsEvent::SpanStart { name, .. } | ObsEvent::SpanEnd { name, .. } => {
                assert!(
                    !matches!(
                        name,
                        "design" | "patterns" | "minimize" | "regex" | "nfa" | "dfa"
                    ),
                    "warm run entered pipeline stage {name:?}"
                );
            }
            ObsEvent::Counter { span, name, .. } => {
                assert_ne!(span, "minimize", "warm run ran the minimizer ({name})");
            }
            _ => {}
        }
    }

    // Bit-identical designs: states, outputs, start, area, degradation.
    for (i, label) in labels.iter().enumerate() {
        let id = i as u64;
        let cold_design = cold_report
            .design(id)
            .unwrap_or_else(|| panic!("{label} cold"));
        let warm_design = warm_report
            .design(id)
            .unwrap_or_else(|| panic!("{label} warm"));
        assert_eq!(
            cold_design.fsm().transitions(),
            warm_design.fsm().transitions(),
            "{label}: transition tables differ"
        );
        assert_eq!(
            cold_design.fsm().outputs(),
            warm_design.fsm().outputs(),
            "{label}: outputs differ"
        );
        assert_eq!(
            cold_design.fsm().start(),
            warm_design.fsm().start(),
            "{label}"
        );
        assert_eq!(
            cold_design.degradation().final_rung(),
            warm_design.degradation().final_rung(),
            "{label}: degradation rungs differ"
        );
        assert_eq!(
            cold_design.effective_history(),
            warm_design.effective_history(),
            "{label}: effective history differs"
        );
        // The synthesized area estimate is a pure function of the machine,
        // so equality here pins the whole downstream cost model.
        let cold_area = synthesize_area(cold_design.fsm(), Encoding::Binary);
        let warm_area = synthesize_area(warm_design.fsm(), Encoding::Binary);
        assert_eq!(cold_area.flip_flops, warm_area.flip_flops, "{label}");
        assert_eq!(
            cold_area.area.to_bits(),
            warm_area.area.to_bits(),
            "{label}: area estimates differ bitwise"
        );
        // And the full structural equality, covering every retained
        // intermediate artifact (model, pattern sets, cover, regex).
        assert_eq!(**cold_design, **warm_design, "{label}: designs differ");
    }

    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn warm_start_composes_with_new_jobs() {
    // A store covering part of a batch: the covered jobs hit warm, the
    // rest compute fresh, and both kinds are in the store afterwards.
    let path = tmp_store("compose");
    let trace: Arc<BitTrace> = Arc::new(fsmgen_testkit::periodic_trace(40));

    let cold = Farm::new(FarmConfig {
        workers: 1,
        cache_capacity: 16,
    });
    cold.attach_store(&path, StoreConfig::default()).unwrap();
    let _ = cold.design_batch(vec![DesignJob::from_trace(
        0,
        Arc::clone(&trace),
        Designer::new(2),
    )]);
    drop(cold);

    let warm = Farm::new(FarmConfig {
        workers: 1,
        cache_capacity: 16,
    });
    warm.attach_store(&path, StoreConfig::default()).unwrap();
    let report = warm.design_batch(vec![
        DesignJob::from_trace(0, Arc::clone(&trace), Designer::new(2)), // warm hit
        DesignJob::from_trace(1, Arc::clone(&trace), Designer::new(3)), // fresh
    ]);
    assert_eq!(report.metrics.cache.snapshot_hits, 1);
    assert_eq!(report.metrics.cache.misses, 1);
    assert_eq!(report.metrics.succeeded, 2);

    // Only the fresh design was appended; the store now holds both.
    assert_eq!(report.metrics.store.appends, 1);
    drop(warm);
    let third = Farm::new(FarmConfig {
        workers: 1,
        cache_capacity: 16,
    });
    assert_eq!(
        third
            .attach_store(&path, StoreConfig::default())
            .unwrap()
            .recovered,
        2
    );

    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
