//! Sweep oracle matrix: every multi-configuration path — sweep sessions
//! cold, warm and uncached, `sweep_configs` and `sweep_frequencies` —
//! against the naive reference, candidate by candidate and bitwise.
//!
//! Sweeps evaluate their candidates batch-major: each batch's
//! configuration-independent draw work is computed once and costed per
//! candidate. The matrix runs the golden profiles at 1, 2 and 8 threads,
//! so every total must survive every way of fanning frames out. (Batch
//! widths other than the default are covered inside gpusim, by
//! `sim::tests::batch_major_totals_match_collected_totals`.)
//!
//! One `#[test]` on purpose: the thread count is process-global.

use subset3d_gpusim::ArchConfig;
use subset3d_testkit::corpus::golden_corpus;
use subset3d_testkit::oracle::{run_sweep_oracle, ORACLE_SWEEP_MHZ};

#[test]
fn sweep_oracle_matrix_is_clean() {
    let corpus = golden_corpus();
    let candidates = ArchConfig::pathfinding_candidates();
    // Three session sweeps plus `sweep_configs` per candidate, and one
    // total per swept clock.
    let totals = 4 * candidates.len() + ORACLE_SWEEP_MHZ.len();
    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            for (name, workload) in &corpus {
                let report = run_sweep_oracle(name, workload, &candidates)
                    .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
                report.assert_clean();
                assert_eq!(report.draws_compared, totals * workload.total_draws());
            }
        });
    }
}
