//! End-to-end determinism across executor thread counts.
//!
//! Simulation, clustering, and sweeps all fan out over the shared
//! `subset3d-exec` pool; every result must be bit-identical whether the
//! pool runs one worker, two, or as many as the machine offers (the same
//! counts `SUBSET3D_THREADS` can pin). Metric recording must be equally
//! invisible: the same runs repeat with `subset3d_obs` enabled and are
//! held to the same reference. A single `#[test]` drives all thread
//! counts because the pool (and the metrics registry) is process-global.

use subset3d_core::{SubsetConfig, Subsetter, SubsettingOutcome};
use subset3d_gpusim::{
    sweep_configs, sweep_frequencies, ArchConfig, ConfigPoint, FrequencySweep, Simulator,
    SweepPoint, SweepSession, WorkloadCost,
};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

struct Observed {
    cost: WorkloadCost,
    outcome: SubsettingOutcome,
    freq_points: Vec<SweepPoint>,
    config_points: Vec<ConfigPoint>,
    session_points: Vec<ConfigPoint>,
    warm_session_points: Vec<ConfigPoint>,
}

fn observe(workload: &Workload) -> Observed {
    let sim = Simulator::new(ArchConfig::baseline());
    let candidates = ArchConfig::pathfinding_candidates();
    let session = SweepSession::new(&candidates).unwrap();
    Observed {
        cost: sim.simulate_workload(workload).unwrap(),
        outcome: Subsetter::new(SubsetConfig::default())
            .run(workload, &sim)
            .unwrap(),
        freq_points: sweep_frequencies(
            workload,
            &ArchConfig::baseline(),
            &FrequencySweep::standard(),
        )
        .unwrap(),
        config_points: sweep_configs(workload, &candidates).unwrap(),
        session_points: session.sweep(workload).unwrap(),
        // The second sweep is served from the batch caches, its keys
        // digested on the pool frame by frame.
        warm_session_points: session.sweep(workload).unwrap(),
    }
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // Large enough that simulate_workload takes its parallel path.
    let workload = GameProfile::shooter("det")
        .frames(6)
        .draws_per_frame(250)
        .build(9)
        .generate();
    assert!(workload.total_draws() >= 1000);

    let candidates = ArchConfig::pathfinding_candidates().len() as u64;
    let batches = |w: &Workload| -> u64 {
        w.frames()
            .iter()
            .map(|f| {
                f.draw_count()
                    .div_ceil(subset3d_gpusim::DEFAULT_BATCH_WIDTH) as u64
            })
            .sum()
    };
    let session_batches = batches(&workload) * candidates;
    let max = subset3d_exec::default_threads().max(4);
    subset3d_exec::set_thread_count(1);
    let reference = observe(&workload);

    for threads in [2, max] {
        subset3d_exec::set_thread_count(threads);
        let observed = observe(&workload);
        compare(&observed, &reference, threads);
    }

    // Metrics observe, they never steer: with recording enabled the
    // results must still match the metrics-off reference bit for bit,
    // at every thread count.
    for threads in [1, 2, 8] {
        subset3d_exec::set_thread_count(threads);
        subset3d_obs::reset();
        subset3d_obs::set_enabled(true);
        let observed = observe(&workload);
        let snapshot = subset3d_obs::snapshot();
        subset3d_obs::set_enabled(false);
        compare(&observed, &reference, threads);
        // Only the sweep session retains batches: its cold sweep misses
        // every batch of every candidate and its warm sweep hits each
        // one, whatever the thread count.
        assert_eq!(
            (
                snapshot.counter("gpusim.batch_cache.misses"),
                snapshot.counter("gpusim.batch_cache.hits"),
            ),
            (Some(session_batches), Some(session_batches)),
            "instrumented run miscounted batch-cache traffic at {threads} threads: {snapshot:?}"
        );
    }

    // An iterated sweep session replays identical frames into warm
    // caches; the snapshot must show every batch missed once and hit
    // once.
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    let small = GameProfile::shooter("warm")
        .frames(4)
        .draws_per_frame(50)
        .build(2)
        .generate();
    let session = SweepSession::new(&ArchConfig::pathfinding_candidates()).unwrap();
    let first = session.sweep(&small).unwrap();
    let second = session.sweep(&small).unwrap();
    let snapshot = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);
    assert_eq!(first, second, "warm sweep must be bit-identical");
    let small_batches = batches(&small) * candidates;
    assert_eq!(
        snapshot.counter("gpusim.batch_cache.hits"),
        Some(small_batches),
        "iterated sweep must hit the batch cache: {snapshot:?}"
    );
    assert_eq!(
        snapshot
            .histograms
            .get("gpusim.sweep.digest_ns")
            .map(|h| h.count),
        Some(2),
        "each sweep digests its batch keys once: {snapshot:?}"
    );
    assert_eq!(
        snapshot.counter("gpusim.batch_cache.misses"),
        Some(small_batches),
        "only the cold sweep may evaluate: {snapshot:?}"
    );

    // Traced, the same iterated sweep splits digest time from evaluation
    // time: one `sweep.digest` span and one batch-major `sweep.evaluate`
    // span (all candidates at once) per sweep, in a timeline that
    // validates.
    subset3d_obs::start_tracing(subset3d_obs::TraceMode::Full);
    let candidates = ArchConfig::pathfinding_candidates();
    let traced = SweepSession::new(&candidates).unwrap();
    assert_eq!(traced.sweep(&small).unwrap(), first);
    assert_eq!(traced.sweep(&small).unwrap(), first);
    let events = subset3d_obs::stop_tracing();
    let stages = subset3d_obs::self_time(&events);
    let count = |name: &str| {
        stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    };
    assert_eq!(count("sweep.digest"), 2);
    assert_eq!(count("sweep.evaluate"), 2);
    for ev in events.iter().filter(|e| e.name == "sweep.evaluate") {
        assert_eq!(
            (ev.arg_key, ev.arg_val, ev.arg2_key, ev.arg2_val),
            (
                "candidates",
                candidates.len() as u64,
                "frames",
                small.frames().len() as u64
            )
        );
    }
    let chrome = subset3d_obs::export_chrome(&events, &subset3d_obs::thread_names());
    subset3d_obs::validate_chrome(&chrome).unwrap();
}

fn compare(observed: &Observed, reference: &Observed, threads: usize) {
    {
        assert_eq!(
            observed.cost, reference.cost,
            "WorkloadCost at {threads} threads"
        );
        assert_eq!(
            observed.outcome, reference.outcome,
            "pipeline outcome at {threads} threads"
        );
        assert_eq!(
            observed.freq_points, reference.freq_points,
            "frequency sweep at {threads} threads"
        );
        assert_eq!(
            observed.config_points, reference.config_points,
            "config sweep at {threads} threads"
        );
        assert_eq!(
            observed.session_points, reference.session_points,
            "sweep session at {threads} threads"
        );
        assert_eq!(
            observed.warm_session_points, reference.warm_session_points,
            "warm sweep session at {threads} threads"
        );
        assert_eq!(
            reference.warm_session_points, reference.session_points,
            "warm sweep session diverged from its cold pass"
        );
    }
}
