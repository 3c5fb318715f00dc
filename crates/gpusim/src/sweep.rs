//! Sweep drivers: simulate a workload across frequencies or design points.

use crate::config::ArchConfig;
use crate::error::SimError;
use crate::freq::FrequencySweep;
use crate::memo::{CacheMode, CacheStats};
use crate::sim::{evaluate, Pass, Simulator, DEFAULT_BATCH_WIDTH};
use serde::{Deserialize, Serialize};
use subset3d_obs::LazyHistogram;
use subset3d_trace::Workload;

/// Time a [`SweepSession`] spends digesting a workload's batch keys, once
/// per sweep, before any candidate runs.
static OBS_SWEEP_DIGEST: LazyHistogram = LazyHistogram::new("gpusim.sweep.digest_ns");

/// One point of a frequency sweep result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Core clock of the point in MHz.
    pub core_clock_mhz: f64,
    /// Simulated total workload time in nanoseconds.
    pub total_ns: f64,
}

/// One point of a design-space sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Name of the design point.
    pub name: String,
    /// Simulated total workload time in nanoseconds.
    pub total_ns: f64,
}

/// Simulates `workload` at every core clock of `sweep` on the `base` design.
///
/// All points share one batch-major traversal (see [`SweepSession`]):
/// each draw's configuration-independent work is computed once and
/// costed per clock, frames fanned out over the shared [`subset3d_exec`]
/// pool. The result order and every value are identical at any thread
/// count, and each total equals a fresh [`Simulator`]'s
/// `simulate_workload` at that clock bit for bit.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when the workload references shaders
/// missing from its own library, and [`SimError::InvalidConfig`] for an
/// invalid `base` design.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{sweep_frequencies, ArchConfig, FrequencySweep};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(15).build(1).generate();
/// let points = sweep_frequencies(&w, &ArchConfig::baseline(), &FrequencySweep::standard())?;
/// assert_eq!(points.len(), 9);
/// // Higher clock never makes the workload slower.
/// assert!(points.windows(2).all(|p| p[1].total_ns <= p[0].total_ns));
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub fn sweep_frequencies(
    workload: &Workload,
    base: &ArchConfig,
    sweep: &FrequencySweep,
) -> Result<Vec<SweepPoint>, SimError> {
    let configs = sweep.configs(base);
    Ok(configs
        .iter()
        .zip(one_shot_totals(workload, &configs)?)
        .map(|(config, total_ns)| SweepPoint {
            core_clock_mhz: config.core_clock_mhz,
            total_ns,
        })
        .collect())
}

/// Simulates `workload` on every candidate design point in one
/// batch-major traversal (see [`SweepSession`]), frames fanned out over
/// the shared [`subset3d_exec`] pool; the result order and every value
/// are identical at any thread count, and each total equals a fresh
/// [`Simulator`]'s `simulate_workload` on that candidate bit for bit.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when the workload references shaders
/// missing from its own library, and [`SimError::InvalidConfig`] for an
/// invalid candidate.
pub fn sweep_configs(
    workload: &Workload,
    candidates: &[ArchConfig],
) -> Result<Vec<ConfigPoint>, SimError> {
    Ok(candidates
        .iter()
        .zip(one_shot_totals(workload, candidates)?)
        .map(|(config, total_ns)| ConfigPoint {
            name: config.name.clone(),
            total_ns,
        })
        .collect())
}

/// Every candidate's total time on `workload`: one uncached batch-major
/// traversal at the default batch width.
fn one_shot_totals(workload: &Workload, candidates: &[ArchConfig]) -> Result<Vec<f64>, SimError> {
    // Validate up front so an invalid candidate is reported before any
    // simulation work is spent (and `from_ref` below cannot panic).
    if let Some(config) = candidates.iter().find(|c| !c.is_valid()) {
        return Err(SimError::InvalidConfig {
            name: config.name.clone(),
        });
    }
    let sims: Vec<Simulator<&ArchConfig>> = candidates.iter().map(Simulator::from_ref).collect();
    evaluate(&sims, &Pass::new(workload, DEFAULT_BATCH_WIDTH), None)
}

/// A reusable design-space sweep: one persistent [`Simulator`] per
/// candidate, so repeated sweeps reuse memoized batch costs.
///
/// Architecture pathfinding is iterative — the same workloads are swept
/// again and again while candidates are compared, and validation flows
/// sweep both a parent trace and its subset (whose frames are verbatim
/// copies of parent frames). With a session, every batch re-simulated
/// after the first pass is served wholesale from the batch cache, so
/// later sweeps cost a fraction of the first; results are bit-identical
/// to [`sweep_configs`].
///
/// Simulators are created in [`CacheMode::On`]: re-simulation is the
/// point of keeping a session, so batch costs are retained from the
/// cold first pass onwards.
///
/// Nothing about a draw but its cost depends on the candidate, so a
/// sweep does every configuration-independent step once. A batch's key
/// — shader resolution, warmth and the shape digest of every member —
/// is digested once per sweep, fanned out over frames, and shared by
/// every candidate. The candidates are then evaluated **batch-major**:
/// frames fan out over the shared [`subset3d_exec`] pool, and each batch
/// is visited once for all candidates. A candidate whose batch cache
/// holds the key streams the retained draw times, in order, into its
/// frame's [`subset3d_stats::KahanSum`]. On the batch's first miss the
/// draws' configuration-independent work (footprints, surviving
/// primitives, shaded pixels, traffic terms) is read off the columns
/// once; every candidate that missed costs that work on its own
/// configuration — a few dozen flops per draw — retains the costs and
/// streams them the same way. No per-draw cost is copied and no
/// [`crate::FrameCost`] is built. The candidate's total is
/// [`subset3d_stats::sum_iter`] over its frame totals — the exact
/// operations, in the exact order, of [`crate::FrameCost::from_draws`]
/// and [`crate::WorkloadCost::from_frames`] — so every point equals
/// [`sweep_configs`] bit for bit, in both cache modes and at any thread
/// count.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{ArchConfig, SweepSession};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(15).build(1).generate();
/// let session = SweepSession::new(&ArchConfig::pathfinding_candidates())?;
/// let first = session.sweep(&w)?;
/// let second = session.sweep(&w)?; // served from the batch caches
/// assert_eq!(first, second);
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub struct SweepSession {
    sims: Vec<Simulator>,
}

impl SweepSession {
    /// Creates a session over candidate design points (each config is
    /// cloned once, amortised over every subsequent sweep).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid candidate.
    pub fn new(candidates: &[ArchConfig]) -> Result<Self, SimError> {
        if let Some(config) = candidates.iter().find(|c| !c.is_valid()) {
            return Err(SimError::InvalidConfig {
                name: config.name.clone(),
            });
        }
        let sims: Vec<Simulator> = candidates
            .iter()
            .map(|config| {
                let sim = Simulator::new(config.clone());
                sim.set_cache_mode(CacheMode::On);
                sim
            })
            .collect();
        Ok(SweepSession { sims })
    }

    /// Sets the memoization policy of every candidate's simulator
    /// (benchmarks use [`CacheMode::Off`] for an uncached baseline).
    pub fn set_cache_mode(&self, mode: CacheMode) {
        for sim in &self.sims {
            sim.set_cache_mode(mode);
        }
    }

    /// Simulates `workload` on every candidate in one batch-major
    /// traversal (see the type docs). Result order and every value are
    /// identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when the workload references
    /// shaders missing from its own library.
    pub fn sweep(&self, workload: &Workload) -> Result<Vec<ConfigPoint>, SimError> {
        // Every candidate shares one cache mode.
        let Some(first) = self.sims.first() else {
            return Ok(Vec::new());
        };
        let pass = Pass::new(workload, DEFAULT_BATCH_WIDTH);
        let timer = subset3d_obs::span(&OBS_SWEEP_DIGEST);
        let span = subset3d_obs::trace_span_arg(
            "gpusim",
            "sweep.digest",
            "frames",
            workload.frames().len() as u64,
        );
        let keys = first.pass_keys(&pass)?;
        span.end();
        timer.end();
        Ok(self
            .sims
            .iter()
            .zip(evaluate(&self.sims, &pass, keys.as_deref())?)
            .map(|(sim, total_ns)| ConfigPoint {
                name: sim.config().name.clone(),
                total_ns,
            })
            .collect())
    }

    /// Aggregated hit/miss counters across every candidate's caches.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for sim in &self.sims {
            let s = sim.cache_stats();
            total.batch_hits += s.batch_hits;
            total.batch_misses += s.batch_misses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(3)
            .draws_per_frame(30)
            .build(4)
            .generate()
    }

    #[test]
    fn frequency_sweep_is_monotone_nonincreasing() {
        let points = sweep_frequencies(
            &workload(),
            &ArchConfig::baseline(),
            &FrequencySweep::standard(),
        )
        .unwrap();
        assert!(points.windows(2).all(|p| p[1].total_ns <= p[0].total_ns));
    }

    #[test]
    fn frequency_sweep_is_sublinear() {
        // 3× clock gives < 3× speedup because memory does not scale.
        let points = sweep_frequencies(
            &workload(),
            &ArchConfig::baseline(),
            &FrequencySweep::new(vec![400.0, 1200.0]),
        )
        .unwrap();
        let speedup = points[0].total_ns / points[1].total_ns;
        assert!(speedup > 1.2 && speedup < 3.0, "speedup {speedup}");
    }

    #[test]
    fn config_sweep_reports_all_candidates() {
        let points = sweep_configs(&workload(), &ArchConfig::pathfinding_candidates()).unwrap();
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.total_ns > 0.0));
    }

    #[test]
    fn config_sweep_rejects_invalid_candidate() {
        let mut bad = ArchConfig::baseline();
        bad.rop_rate = 0;
        let err = sweep_configs(&workload(), &[bad]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn large_config_beats_small() {
        let points =
            sweep_configs(&workload(), &[ArchConfig::small(), ArchConfig::large()]).unwrap();
        assert!(points[1].total_ns < points[0].total_ns);
    }

    #[test]
    fn session_matches_one_shot_sweep_and_hits_on_repeat() {
        let w = workload();
        let candidates = ArchConfig::pathfinding_candidates();
        let session = SweepSession::new(&candidates).unwrap();

        let first = session.sweep(&w).unwrap();
        assert_eq!(first, sweep_configs(&w, &candidates).unwrap());
        let cold = session.cache_stats();
        // 30 draws per frame < one 64-wide batch, so every frame is one
        // (ragged) batch per candidate.
        let batches = (w.frames().len() * candidates.len()) as u64;
        assert_eq!(cold.batch_misses, batches);

        // The second sweep re-sees every batch: served wholesale from the
        // batch caches, bit-identical points, no new evaluation.
        let second = session.sweep(&w).unwrap();
        let warm = session.cache_stats();
        assert_eq!(second, first);
        assert_eq!(warm.batch_hits, batches);
        assert_eq!(warm.batch_misses, cold.batch_misses);
    }

    /// `(name, total_ns bits)` of every point: equality is bit equality.
    fn bits(points: &[ConfigPoint]) -> Vec<(String, u64)> {
        points
            .iter()
            .map(|p| (p.name.clone(), p.total_ns.to_bits()))
            .collect()
    }

    #[test]
    fn session_streams_multi_batch_frames_bit_identically() {
        // 150 draws per frame: two full 64-draw batches plus a ragged
        // 22-draw tail, so every frame total streams from several
        // retained slices.
        let generated = GameProfile::shooter("multi")
            .frames(3)
            .draws_per_frame(200)
            .build(8)
            .generate();
        let w = Workload::new(
            generated.name.clone(),
            generated
                .frames()
                .iter()
                .map(|f| subset3d_trace::Frame::new(f.id, f.to_draws()[..150].to_vec()))
                .collect(),
            generated.shaders().clone(),
            generated.textures().clone(),
            generated.states().clone(),
        );
        let candidates = ArchConfig::pathfinding_candidates();
        let session = SweepSession::new(&candidates).unwrap();
        let batches = w
            .frames()
            .iter()
            .map(|f| f.draw_count().div_ceil(crate::DEFAULT_BATCH_WIDTH) as u64)
            .sum::<u64>()
            * candidates.len() as u64;
        assert_eq!(batches, 3 * 3 * 6);

        let cold = session.sweep(&w).unwrap();
        assert_eq!(bits(&cold), bits(&sweep_configs(&w, &candidates).unwrap()));
        let stats = session.cache_stats();
        assert_eq!((stats.batch_hits, stats.batch_misses), (0, batches));

        let warm = session.sweep(&w).unwrap();
        assert_eq!(bits(&warm), bits(&cold));
        let stats = session.cache_stats();
        assert_eq!((stats.batch_hits, stats.batch_misses), (batches, batches));

        // A dangling shader in the second batch of the last frame: the
        // warm session must report it even though every other batch
        // would be served from its caches, and so must an `Off` session,
        // exactly as the one-shot sweep does.
        let mut frames = w.frames().to_vec();
        let last = frames.len() - 1;
        let mut draws = frames[last].to_draws();
        draws[100].pixel_shader = subset3d_trace::ShaderId(9999);
        frames[last] = subset3d_trace::Frame::new(frames[last].id, draws);
        let bad = Workload::new(
            w.name.clone(),
            frames,
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        );
        let expected = sweep_configs(&bad, &candidates).unwrap_err();
        assert!(matches!(expected, SimError::UnknownShader { .. }));
        assert_eq!(session.sweep(&bad).unwrap_err(), expected);
        session.set_cache_mode(CacheMode::Off);
        assert_eq!(session.sweep(&bad).unwrap_err(), expected);
        assert_eq!(bits(&session.sweep(&w).unwrap()), bits(&cold));
    }

    #[test]
    fn session_rejects_invalid_candidate() {
        let mut bad = ArchConfig::baseline();
        bad.eu_count = 0;
        assert!(matches!(
            SweepSession::new(&[ArchConfig::baseline(), bad]),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
