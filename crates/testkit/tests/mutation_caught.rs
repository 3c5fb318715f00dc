//! Proves the differential oracle has teeth: with the test-only
//! `fault-injection` hook armed, a batch-cache hit returns its stored
//! costs with `time_ns` flipped by one ulp — the smallest possible
//! corruption — and the oracle must still name it. A sweep session,
//! which streams batch-cache hits straight into candidate totals, must
//! surface the same flip in at least one total.
//!
//! Gated behind `required-features = ["fault-injection"]`: plain
//! `cargo test` never compiles the hook. Run via
//! `cargo test -p subset3d-testkit --features fault-injection`.

use std::sync::{Mutex, MutexGuard};
use subset3d_gpusim::{fault, ArchConfig, CacheMode, ConfigPoint, Simulator, SweepSession};
use subset3d_testkit::corpus::golden_corpus;
use subset3d_testkit::oracle::run_oracle;

/// Disarms the hook even if an assertion below panics, so a failure here
/// cannot poison other tests in a shared process. Also holds the lock
/// that keeps one test's armed pass out of another's disarmed passes
/// (the switch is process-global; tests run on parallel threads).
struct Disarm {
    _lock: MutexGuard<'static, ()>,
}

impl Disarm {
    fn take() -> Self {
        static FAULT: Mutex<()> = Mutex::new(());
        Disarm {
            _lock: FAULT.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

#[test]
fn one_ulp_memo_corruption_is_caught() {
    let _guard = Disarm::take();
    let (_, workload) = golden_corpus().remove(0);
    let sim = Simulator::new(ArchConfig::baseline());
    sim.set_cache_mode(CacheMode::On);

    // Pass 1, disarmed: populates the batch cache; oracle must be clean.
    run_oracle("mutation/populate", &workload, &sim)
        .unwrap()
        .assert_clean();
    let populated = sim.cache_stats();
    assert!(
        populated.batch_misses > 0,
        "populate pass must retain batches"
    );

    // Pass 2, armed: every draw served from a batch hit carries a one-ulp
    // flip in time_ns. The bitwise oracle must report it.
    fault::arm();
    let report = run_oracle("mutation/armed", &workload, &sim).unwrap();
    fault::disarm();
    assert!(
        sim.cache_stats().batch_hits > populated.batch_hits,
        "armed pass must be served from the batch cache or this test is vacuous"
    );
    assert!(
        !report.is_clean(),
        "armed one-ulp memo corruption went undetected"
    );
    assert!(
        report.divergences.iter().any(|d| d.field == "time_ns"),
        "corruption should surface as a time_ns divergence, got: {}",
        report.divergences[0]
    );

    // Disarmed again on a fresh simulator: clean, proving the divergence
    // above came from the armed hook and nothing else.
    let fresh = Simulator::new(ArchConfig::baseline());
    fresh.set_cache_mode(CacheMode::On);
    run_oracle("mutation/disarmed", &workload, &fresh)
        .unwrap()
        .assert_clean();
}

/// `total_ns` bit patterns of a sweep's points.
fn total_bits(points: &[ConfigPoint]) -> Vec<u64> {
    points.iter().map(|p| p.total_ns.to_bits()).collect()
}

#[test]
fn one_ulp_corruption_of_streamed_sweep_hits_is_caught() {
    let _guard = Disarm::take();
    let (_, workload) = golden_corpus().remove(0);
    let session = SweepSession::new(&ArchConfig::pathfinding_candidates()).unwrap();

    // Cold pass, disarmed: fills every candidate's batch cache.
    let cold = session.sweep(&workload).unwrap();
    let filled = session.cache_stats();
    assert!(filled.batch_misses > 0 && filled.batch_hits == 0);

    // Warm pass, armed: every batch is a hit streamed into the frame
    // totals, and every streamed draw time carries a one-ulp flip. At
    // least one candidate's total must move.
    fault::arm();
    let armed = session.sweep(&workload).unwrap();
    fault::disarm();
    let served = session.cache_stats();
    assert_eq!(served.batch_hits, filled.batch_misses, "warm pass must hit");
    assert_eq!(
        served.batch_misses, filled.batch_misses,
        "the warm pass must evaluate nothing, or this test is not about hits"
    );
    assert!(
        total_bits(&armed)
            .iter()
            .zip(total_bits(&cold))
            .any(|(&a, c)| a != c),
        "armed one-ulp corruption of streamed batch hits went undetected"
    );

    // Warm again, disarmed: the totals return to the cold pass's bits,
    // so the divergence above came from the armed hook alone.
    let warm = session.sweep(&workload).unwrap();
    assert_eq!(total_bits(&warm), total_bits(&cold));
}
