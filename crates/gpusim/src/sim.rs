//! The analytical simulator front-end: fixed-width columnar batch
//! execution with cross-draw warmth tracking.
//!
//! Frames store draws column-major ([`subset3d_trace::DrawColumns`]);
//! the simulator walks each frame in fixed-width batches of
//! [`DEFAULT_BATCH_WIDTH`] draws. Per batch it streams the columns
//! directly — shader resolution through a dense per-pass table, texture
//! footprints through another, warmth from the texture pool, batch-key
//! shape digests straight off the column words — into each draw's
//! configuration-independent [`DrawWork`], which is then costed on a
//! configuration; no [`DrawCall`] is materialised. Batches are also the
//! unit of parallel fan-out and of batch-grain memoization (see
//! [`crate::memo`]).
//!
//! There are two traversals. The single-configuration one behind
//! [`Simulator::simulate_workload`] and [`Simulator::simulate_frame`]
//! collects every draw's cost. The multi-configuration one behind every
//! design sweep ([`crate::SweepSession`], [`crate::sweep_configs`],
//! [`crate::sweep_frequencies`]) is batch-major: each batch's draw work
//! is computed once and costed per candidate, and only each candidate's
//! running total is kept. Both serve each batch through one copy of the
//! batch-cache protocol (`Simulator::serve_batch`) and perform the same
//! floating-point operations per draw and per total, so a sweep's
//! totals equal `simulate_workload` on each candidate bit for bit.

use crate::analytic::{analyze_draw, DrawWork, ShaderTerms, TextureTable};
use crate::config::ArchConfig;
use crate::cost::{DrawCost, FrameCost, WorkloadCost};
use crate::error::SimError;
use crate::memo::{
    BatchCostCache, BatchKey, CacheMode, CacheStats, DrawShape, RegistryFingerprint, ShapeHasher,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use subset3d_stats::KahanSum;
use subset3d_trace::{DrawCall, DrawColumns, DrawId, Frame, ShaderId, ShaderProgram, Workload};

/// How many preceding draws contribute to texture-cache warmth.
const WARMTH_WINDOW: usize = 6;

/// Draws per fixed-width simulation batch: the unit of parallel fan-out
/// and of batch-grain memoization. Wide enough that one batch-cache
/// probe amortises over many draws and the per-batch setup (shader
/// resolution, warmth) stays a small fraction of the model work; narrow
/// enough that a frame splits into several tasks for the pool.
pub const DEFAULT_BATCH_WIDTH: usize = 64;

/// Analytical GPU performance simulator.
///
/// Simulation is deterministic and O(1) per draw; on one thread of a
/// 2-vCPU Xeon VM, `simulate_workload` over the full 832,779-draw
/// standard corpus takes ~175 ms in a release build (median of five
/// passes, two rounds).
///
/// In [`CacheMode::On`] whole batch costs are retained by content, so
/// re-simulating a workload (sweep sessions, validation flows) is served
/// batch-wholesale. The batch cache is keyed on exact bit patterns,
/// making memoized results indistinguishable from uncached ones; it is
/// shared across simulation worker threads and scoped to the current
/// architecture configuration.
///
/// The config is held through [`Borrow`], so a simulator can own its
/// [`ArchConfig`] (the default, via [`Simulator::new`]) or borrow one
/// (via [`Simulator::from_ref`]) when the caller already owns the config,
/// as design sweeps do.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{ArchConfig, Simulator};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(20).build(1).generate();
/// let sim = Simulator::new(ArchConfig::baseline());
/// let frame_cost = sim.simulate_frame(&w.frames()[0], &w)?;
/// assert_eq!(frame_cost.draws.len(), w.frames()[0].draw_count());
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub struct Simulator<C: Borrow<ArchConfig> = ArchConfig> {
    config: C,
    batches: BatchCostCache,
    /// Whether evaluated batches are retained ([`CacheMode::On`]).
    retain: AtomicBool,
    batch_width: AtomicUsize,
}

impl Simulator {
    /// Creates a simulator owning an architecture configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`ArchConfig::is_valid`]
    /// to pre-check untrusted configs.
    pub fn new(config: ArchConfig) -> Self {
        assert!(
            config.is_valid(),
            "invalid architecture configuration '{}'",
            config.name
        );
        Simulator {
            config,
            batches: BatchCostCache::new(),
            retain: AtomicBool::new(false),
            batch_width: AtomicUsize::new(DEFAULT_BATCH_WIDTH),
        }
    }

    /// Replaces the architecture configuration. Memoized batch costs
    /// belong to the old config and are invalidated.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn set_config(&mut self, config: ArchConfig) {
        assert!(
            config.is_valid(),
            "invalid architecture configuration '{}'",
            config.name
        );
        self.config = config;
        self.batches.clear();
    }
}

impl<'a> Simulator<&'a ArchConfig> {
    /// Creates a simulator borrowing an architecture configuration,
    /// avoiding a clone when the caller keeps ownership (as config
    /// sweeps do).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn from_ref(config: &'a ArchConfig) -> Self {
        assert!(
            config.is_valid(),
            "invalid architecture configuration '{}'",
            config.name
        );
        Simulator {
            config,
            batches: BatchCostCache::new(),
            retain: AtomicBool::new(false),
            batch_width: AtomicUsize::new(DEFAULT_BATCH_WIDTH),
        }
    }
}

impl<C: Borrow<ArchConfig>> Simulator<C> {
    /// The simulated architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        self.config.borrow()
    }

    /// Sets the memoization policy (default: [`CacheMode::Off`]).
    /// [`CacheMode::Off`] does not drop retained batches; passes simply
    /// stop consulting them, which is how benchmarks measure the uncached
    /// baseline. Results are bit-identical under every mode.
    pub fn set_cache_mode(&self, mode: CacheMode) {
        self.retain.store(mode == CacheMode::On, Ordering::Relaxed);
    }

    /// The current memoization policy.
    pub fn cache_mode(&self) -> CacheMode {
        if self.retain.load(Ordering::Relaxed) {
            CacheMode::On
        } else {
            CacheMode::Off
        }
    }

    /// Sets the fixed batch width (clamped to at least 1). Purely an
    /// execution parameter: results are bit-identical at every width.
    /// Different widths produce different batch-cache keys, so changing
    /// it mid-session forfeits batch reuse.
    pub fn set_batch_width(&self, width: usize) {
        self.batch_width.store(width.max(1), Ordering::Relaxed);
    }

    /// The current fixed batch width.
    pub fn batch_width(&self) -> usize {
        self.batch_width.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the batch-cost cache.
    pub fn cache_stats(&self) -> CacheStats {
        let (batch_hits, batch_misses) = self.batches.counters();
        CacheStats {
            batch_hits,
            batch_misses,
        }
    }

    /// Number of batch costs currently retained (populated only in
    /// [`CacheMode::On`]).
    pub fn cached_batches(&self) -> usize {
        self.batches.len()
    }

    /// Simulates a single draw in isolation (cold caches, no warmth).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when the draw references shaders
    /// missing from the workload's library.
    pub fn simulate_draw(
        &self,
        draw: &DrawCall,
        workload: &Workload,
    ) -> Result<DrawCost, SimError> {
        let vs = workload
            .shaders()
            .get(draw.vertex_shader)
            .ok_or(SimError::UnknownShader {
                draw: draw.id,
                shader: draw.vertex_shader,
            })?;
        let ps = workload
            .shaders()
            .get(draw.pixel_shader)
            .ok_or(SimError::UnknownShader {
                draw: draw.id,
                shader: draw.pixel_shader,
            })?;
        Ok(analyze_draw(
            draw,
            vs,
            ps,
            workload.textures(),
            self.config.borrow(),
            0.0,
        ))
    }

    /// Simulates one frame, tracking cross-draw texture warmth in
    /// submission order, batch by batch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when a draw references shaders
    /// missing from the workload's library.
    pub fn simulate_frame(
        &self,
        frame: &Frame,
        workload: &Workload,
    ) -> Result<FrameCost, SimError> {
        let pass = Pass::new(workload, self.batch_width());
        let keys = match self.cache_mode() {
            CacheMode::On => Some(pass.frame_keys(frame)?),
            CacheMode::Off => None,
        };
        self.run_frame(frame, &pass, keys.as_deref())
    }

    /// The batch keys a whole-workload pass probes the batch cache with:
    /// in [`CacheMode::On`], every frame's, digested once up front (see
    /// [`Pass::workload_keys`]); in [`CacheMode::Off`], none — it never
    /// retains batches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] for the first dangling shader
    /// reference in draw order.
    pub(crate) fn pass_keys(
        &self,
        pass: &Pass<'_>,
    ) -> Result<Option<Vec<Vec<BatchKey>>>, SimError> {
        match self.cache_mode() {
            CacheMode::On => pass.workload_keys().map(Some),
            CacheMode::Off => Ok(None),
        }
    }

    /// The batch traversal behind [`Simulator::simulate_workload`]: walks
    /// every frame of `pass` in fixed-width batches and collects each
    /// frame's costs in draw order. `keys` (from [`Simulator::pass_keys`])
    /// are the batches' digests, frame by frame.
    ///
    /// Frames are independent (cache warmth is tracked within a frame)
    /// and batches within a frame are independent too (warmth looks
    /// backwards into the columns, not at other batches' outputs), so
    /// large workloads flatten into one task list of fixed-width batches
    /// and fan out over the shared [`subset3d_exec`] pool in chunks, all
    /// workers sharing one batch cache; each task's costs are then
    /// appended to its frame in task order, which is bit-identical to a
    /// sequential pass at any thread count.
    fn run_pass(
        &self,
        pass: &Pass<'_>,
        keys: Option<&[Vec<BatchKey>]>,
    ) -> Result<Vec<FrameCost>, SimError>
    where
        C: Sync,
    {
        let frames = pass.workload.frames();
        // Below ~1000 draws scheduling overhead outweighs the work.
        if subset3d_exec::thread_count() < 2 || pass.workload.total_draws() < 1000 {
            return frames
                .iter()
                .enumerate()
                .map(|(f, frame)| self.run_frame(frame, pass, keys.map(|k| &k[f][..])))
                .collect();
        }
        let mut tasks: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (f, frame) in frames.iter().enumerate() {
            for (b, (start, end)) in pass.batches(frame.draw_count()).enumerate() {
                tasks.push((f, b, start, end));
            }
        }
        // Batches are uniform and cheap; claiming a handful at a time
        // keeps the pool's shared counter off the hot path while still
        // load-balancing across workers.
        let chunk = (tasks.len() / (subset3d_exec::thread_count() * 4)).clamp(1, 8);
        let results = subset3d_exec::par_map_chunked(&tasks, chunk, |_, &(f, b, start, end)| {
            let mut costs = Vec::with_capacity(end - start);
            self.serve_batch(
                self.config(),
                keys.map(|k| &k[f][b]),
                &mut BatchScratch::default(),
                |work| pass.fill_work(frames[f].columns(), start, end, work),
                |c| costs.extend_from_slice(c),
            )?;
            Ok(costs)
        });
        // Tasks were generated in draw order, so appending results in
        // task order reassembles every frame exactly as the sequential
        // path would.
        let mut draws: Vec<Vec<DrawCost>> = frames
            .iter()
            .map(|f| Vec::with_capacity(f.draw_count()))
            .collect();
        for (&(f, ..), result) in tasks.iter().zip(results) {
            draws[f].extend_from_slice(&result?);
        }
        Ok(draws.into_iter().map(FrameCost::from_draws).collect())
    }

    /// One frame of [`Simulator::run_pass`], batch by batch, on the
    /// calling thread.
    fn run_frame(
        &self,
        frame: &Frame,
        pass: &Pass<'_>,
        keys: Option<&[BatchKey]>,
    ) -> Result<FrameCost, SimError> {
        let cols = frame.columns();
        let mut draws = Vec::with_capacity(cols.len());
        let mut scratch = BatchScratch::default();
        for (b, (start, end)) in pass.batches(cols.len()).enumerate() {
            scratch.work.clear();
            self.serve_batch(
                self.config(),
                keys.map(|k| &k[b]),
                &mut scratch,
                |work| pass.fill_work(cols, start, end, work),
                |c| draws.extend_from_slice(c),
            )?;
        }
        Ok(FrameCost::from_draws(draws))
    }

    /// Hands one batch's costs on `config` to `sink`, in draw order: the
    /// batch-cache protocol of both traversals, the single-configuration
    /// [`Simulator::run_pass`] and the batch-major [`evaluate`].
    ///
    /// With a `key` (the batch's digest; [`CacheMode::On`] only) this
    /// simulator's batch cache is probed once, and a hit lends the
    /// retained slice to `sink` without any per-draw work or copy.
    /// Otherwise the batch's [`DrawWork`]s are taken from
    /// `scratch.work` — filled by `fill` unless it already holds them,
    /// as it does when an earlier candidate of a sweep missed the same
    /// batch (so callers clear it between batches) — costed on `config`,
    /// retained under `key` and handed to `sink`. A dangling shader
    /// reference is an error from `fill` whether or not the cache could
    /// have served the content.
    fn serve_batch(
        &self,
        config: &ArchConfig,
        key: Option<&BatchKey>,
        scratch: &mut BatchScratch,
        fill: impl FnOnce(&mut Vec<DrawWork>) -> Result<(), SimError>,
        mut sink: impl FnMut(&[DrawCost]),
    ) -> Result<(), SimError> {
        if let Some(key) = key {
            if self.batches.visit(key, &mut sink) {
                return Ok(());
            }
        }
        // Batches are never empty, so empty work means "not yet computed
        // for this batch".
        if scratch.work.is_empty() {
            fill(&mut scratch.work)?;
        }
        scratch.costs.clear();
        scratch
            .costs
            .extend(scratch.work.iter().map(|w| w.cost(config)));
        if let Some(key) = key {
            self.batches.insert(*key, &scratch.costs);
        }
        sink(&scratch.costs);
        Ok(())
    }

    /// Simulates a whole workload batch by batch (see
    /// [`Simulator::run_pass`] for the traversal): frames and batches fan
    /// out over the shared [`subset3d_exec`] pool, and the result is
    /// bit-identical to a sequential pass at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when a draw references shaders
    /// missing from the workload's library.
    pub fn simulate_workload(&self, workload: &Workload) -> Result<WorkloadCost, SimError>
    where
        C: Sync,
    {
        let _t = subset3d_obs::trace_span_arg(
            "gpusim",
            "gpusim.simulate_workload",
            "frames",
            workload.frames().len() as u64,
        );
        let pass = Pass::new(workload, self.batch_width());
        let keys = self.pass_keys(&pass)?;
        Ok(WorkloadCost::from_frames(
            self.run_pass(&pass, keys.as_deref())?,
        ))
    }
}

/// Simulated total time, in nanoseconds, of one pass on every simulator
/// of `sims` — the multi-configuration traversal behind every design
/// sweep — in `sims` order.
///
/// The traversal is batch-major: frames fan out over the shared
/// [`subset3d_exec`] pool, and within a frame each fixed-width batch is
/// taken once for all candidates. With `keys` (the batches' digests, one
/// list per frame, from [`Simulator::pass_keys`]) each candidate's batch
/// cache is probed with the shared key and a hit streams the retained
/// draw times into that candidate's frame total. On the batch's first
/// miss (or always, without keys) its [`DrawWork`]s are read off the
/// columns once, into a buffer reused across the frame's batches; every
/// candidate that missed then costs them on its own configuration,
/// retains the costs under the key, and streams the draw times into its
/// frame total.
///
/// Each frame total is a [`KahanSum`] fed in draw order and each
/// candidate's total is [`subset3d_stats::sum_iter`] over its frame
/// totals in frame order — the operations of [`FrameCost::from_draws`]
/// and [`WorkloadCost::from_frames`], in the same order — so every total
/// equals `simulate_workload(..)?.total_ns` on that candidate bit for
/// bit, at any thread count.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] for the first dangling shader
/// reference in draw order.
pub(crate) fn evaluate<C: Borrow<ArchConfig> + Sync>(
    sims: &[Simulator<C>],
    pass: &Pass<'_>,
    keys: Option<&[Vec<BatchKey>]>,
) -> Result<Vec<f64>, SimError> {
    let frames = pass.workload.frames();
    let _t = subset3d_obs::trace_span_args(
        "gpusim",
        "sweep.evaluate",
        ("candidates", sims.len() as u64),
        ("frames", frames.len() as u64),
    );
    let frame_totals = subset3d_exec::par_map_indexed(frames, |f, frame| {
        evaluate_frame(sims, pass, frame.columns(), keys.map(|k| &k[f][..]))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok((0..sims.len())
        .map(|c| subset3d_stats::sum_iter(frame_totals.iter().map(|totals| totals[c])))
        .collect())
}

/// One frame of [`evaluate`]: every candidate's frame total, batch-major.
fn evaluate_frame<C: Borrow<ArchConfig>>(
    sims: &[Simulator<C>],
    pass: &Pass<'_>,
    cols: &DrawColumns,
    keys: Option<&[BatchKey]>,
) -> Result<Vec<f64>, SimError> {
    let mut sums = vec![KahanSum::default(); sims.len()];
    let mut scratch = BatchScratch::default();
    for (b, (start, end)) in pass.batches(cols.len()).enumerate() {
        let key = keys.map(|k| &k[b]);
        scratch.work.clear();
        for (c, (sim, sum)) in sims.iter().zip(&mut sums).enumerate() {
            sim.serve_batch(
                costing_config(sims, c),
                key,
                &mut scratch,
                |work| pass.fill_work(cols, start, end, work),
                |costs| {
                    for cost in costs {
                        sum.add(cost.time_ns);
                    }
                },
            )?;
        }
    }
    Ok(sums.iter().map(KahanSum::total).collect())
}

/// The configuration candidate `c` of [`evaluate`] costs its batches on:
/// its own, or its neighbour's while the `fault-injection` hook
/// `fault::arm_misrouted_config` is armed.
#[inline]
fn costing_config<C: Borrow<ArchConfig>>(sims: &[Simulator<C>], c: usize) -> &ArchConfig {
    #[cfg(feature = "fault-injection")]
    let c = crate::fault::costing_candidate(c, sims.len());
    sims[c].config()
}

/// The buffers of [`Simulator::serve_batch`], reused across a frame's
/// batches: the current batch's [`DrawWork`]s (empty until a candidate
/// misses it) and the costs of the candidate being served.
#[derive(Default)]
struct BatchScratch {
    work: Vec<DrawWork>,
    costs: Vec<DrawCost>,
}

/// What one simulation pass over a workload shares between its batches —
/// and, in a sweep, between its candidates: the dense shader and texture
/// tables, the registry fingerprint, and the batch width that cuts frames
/// into batches. None of it depends on the architecture configuration.
pub(crate) struct Pass<'w> {
    workload: &'w Workload,
    ctx: ShaderCtx,
    textures: TextureTable,
    registry: RegistryFingerprint,
    width: usize,
}

impl<'w> Pass<'w> {
    /// Builds the per-pass context; `width` is clamped to at least 1.
    pub(crate) fn new(workload: &'w Workload, width: usize) -> Self {
        Pass {
            workload,
            ctx: ShaderCtx::build(workload),
            textures: TextureTable::build(workload.textures()),
            registry: RegistryFingerprint::of(workload.textures()),
            width: width.max(1),
        }
    }

    /// The `(start, end)` draw ranges of a `draws`-draw frame's batches.
    fn batches(&self, draws: usize) -> impl Iterator<Item = (usize, usize)> {
        let width = self.width;
        (0..draws)
            .step_by(width)
            .map(move |start| (start, (start + width).min(draws)))
    }

    /// Resolves both shaders of the draw at `index`, vertex first.
    fn resolve(
        &self,
        cols: &DrawColumns,
        index: usize,
    ) -> Result<(&ResolvedShader, &ResolvedShader), SimError> {
        let id = cols.ids()[index];
        Ok((
            self.ctx.resolve(id, cols.vertex_shaders()[index])?,
            self.ctx.resolve(id, cols.pixel_shaders()[index])?,
        ))
    }

    /// Appends the configuration-independent [`DrawWork`] of the draws
    /// `start..end`, each in its frame's warmth context, to `work`.
    fn fill_work(
        &self,
        cols: &DrawColumns,
        start: usize,
        end: usize,
        work: &mut Vec<DrawWork>,
    ) -> Result<(), SimError> {
        work.reserve(end - start);
        for index in start..end {
            let (vs, ps) = self.resolve(cols, index)?;
            work.push(DrawWork::at(
                cols,
                index,
                vs.terms,
                ps.terms,
                &self.textures,
                warmth_at(cols, index),
            ));
        }
        Ok(())
    }

    /// The [`BatchKey`] of every batch of `frame`, in order: shader
    /// resolution, warmth and the shape digest of every draw, folded per
    /// batch. None of it depends on the configuration, so one digest
    /// serves every candidate of a sweep.
    fn frame_keys(&self, frame: &Frame) -> Result<Vec<BatchKey>, SimError> {
        let cols = frame.columns();
        let mut shapes = Vec::with_capacity(self.width.min(cols.len()));
        self.batches(cols.len())
            .map(|(start, end)| {
                shapes.clear();
                for i in start..end {
                    let (vs, ps) = self.resolve(cols, i)?;
                    let warmth = warmth_at(cols, i);
                    shapes.push(shape_at(cols, i, &vs.pack, &ps.pack, self.registry, warmth));
                }
                Ok(BatchKey::of(&shapes))
            })
            .collect()
    }

    /// [`Pass::frame_keys`] of every frame, fanned out over frames on the
    /// shared [`subset3d_exec`] pool. Errors are taken in frame order, so
    /// the dangling reference reported is the first in draw order — the
    /// one the traversal itself would report.
    pub(crate) fn workload_keys(&self) -> Result<Vec<Vec<BatchKey>>, SimError> {
        subset3d_exec::par_map_indexed(self.workload.frames(), |_, frame| self.frame_keys(frame))
            .into_iter()
            .collect()
    }
}

impl<C: Borrow<ArchConfig> + Clone> Clone for Simulator<C> {
    /// Clones the configuration and batch width; the clone starts in the
    /// default cache mode with an empty batch cache (entries repopulate
    /// on first use, with identical bits).
    fn clone(&self) -> Self {
        Simulator {
            config: self.config.clone(),
            batches: BatchCostCache::new(),
            retain: AtomicBool::new(false),
            batch_width: AtomicUsize::new(self.batch_width()),
        }
    }
}

impl<C: Borrow<ArchConfig>> std::fmt::Debug for Simulator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("config", self.config.borrow())
            .field("batch_width", &self.batch_width())
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

/// A resolved shader: its cost-model terms (for [`DrawWork`]) plus its
/// packed key words (for shape digests), computed once per pass.
struct ResolvedShader {
    terms: ShaderTerms,
    pack: [u64; 5],
}

/// Dense per-pass shader table indexed by raw [`ShaderId`], replacing a
/// `BTreeMap` walk per draw with one bounds-checked load per lookup.
struct ShaderCtx {
    programs: Vec<Option<ResolvedShader>>,
}

impl ShaderCtx {
    fn build(workload: &Workload) -> Self {
        // Library iteration is id-ordered, so the last program bounds
        // the table size. Generator ids are dense; a sparse library
        // merely leaves `None` holes.
        let size = workload
            .shaders()
            .iter()
            .last()
            .map(|p| p.id.raw() as usize + 1)
            .unwrap_or(0);
        let mut programs: Vec<Option<ResolvedShader>> = Vec::with_capacity(size);
        programs.resize_with(size, || None);
        for program in workload.shaders().iter() {
            programs[program.id.raw() as usize] = Some(ResolvedShader {
                terms: ShaderTerms::of(program),
                pack: shader_pack(program),
            });
        }
        ShaderCtx { programs }
    }

    fn resolve(&self, draw: DrawId, shader: ShaderId) -> Result<&ResolvedShader, SimError> {
        match self.programs.get(shader.raw() as usize) {
            Some(Some(resolved)) => Ok(resolved),
            _ => Err(SimError::UnknownShader { draw, shader }),
        }
    }
}

/// Warmth of the draw at `index`: the fraction of its bound textures
/// appearing in the texture sets of the [`WARMTH_WINDOW`] preceding
/// draws of the same frame. Reads the shared texture pool directly;
/// the count-over-length division makes the value bit-identical however
/// the sets are stored.
fn warmth_at(cols: &DrawColumns, index: usize) -> f64 {
    let textures = cols.textures_of(index);
    if textures.is_empty() {
        return 0.0;
    }
    let window_start = index.saturating_sub(WARMTH_WINDOW);
    let hits = textures
        .iter()
        .filter(|t| (window_start..index).any(|j| cols.textures_of(j).contains(t)))
        .count();
    hits as f64 / textures.len() as f64
}

/// The five packed key words of one shader program: the full instruction
/// mix plus execution characteristics. Identity (id, name) is irrelevant
/// to cost and deliberately excluded.
pub(crate) fn shader_pack(shader: &ShaderProgram) -> [u64; 5] {
    let m = &shader.mix;
    [
        u64::from(m.alu) | u64::from(m.mad) << 32,
        u64::from(m.transcendental) | u64::from(m.texture_samples) << 32,
        u64::from(m.interpolants) | u64::from(m.control_flow) << 32,
        u64::from(shader.registers) | (shader.stage as u64) << 32,
        shader.divergence.to_bits(),
    ]
}

/// Digests the draw at `index` straight off the columns: the per-draw
/// word sequence every [`BatchKey`] folds.
pub(crate) fn shape_at(
    cols: &DrawColumns,
    index: usize,
    vs_pack: &[u64; 5],
    ps_pack: &[u64; 5],
    registry: RegistryFingerprint,
    warmth: f64,
) -> DrawShape {
    let mut h = ShapeHasher::new();
    // Fixed-function state and instance count packed exactly: 2 bits
    // per 3–4-variant enum, instance count in bits 8..40.
    h.word(
        cols.blends()[index] as u64
            | (cols.depths()[index] as u64) << 2
            | (cols.culls()[index] as u64) << 4
            | (cols.topologies()[index] as u64) << 6
            | u64::from(cols.instance_counts()[index]) << 8,
    );
    h.word(cols.vertex_counts()[index]);
    // Rasterisation statistics, bit-exact.
    h.word(cols.coverages()[index].to_bits());
    h.word(cols.overdraws()[index].to_bits());
    h.word(cols.z_pass_rates()[index].to_bits());
    h.word(cols.texel_localities()[index].to_bits());
    h.word(warmth.to_bits());
    // Render target.
    let rt = &cols.render_targets()[index];
    h.word(u64::from(rt.width) | u64::from(rt.height) << 32);
    h.word(rt.format as u64 | u64::from(rt.samples) << 32);
    h.word(u64::from(rt.color_attachments));
    for &w in vs_pack.iter().chain(ps_pack) {
        h.word(w);
    }
    // The registry fingerprint scopes the raw texture ids below.
    h.word(registry.0[0]);
    h.word(registry.0[1]);
    // Bound textures by id, in binding order (resolution — including
    // ids the registry cannot resolve — is the fingerprint's job).
    for id in cols.textures_of(index) {
        h.word(u64::from(id.0));
    }
    DrawShape(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(4)
            .draws_per_frame(50)
            .build(2)
            .generate()
    }

    /// Total number of fixed-width batches a workload splits into.
    fn batch_count(w: &Workload, width: usize) -> u64 {
        w.frames()
            .iter()
            .map(|f| f.draw_count().div_ceil(width) as u64)
            .sum()
    }

    #[test]
    fn workload_total_is_sum_of_frames() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let cost = sim.simulate_workload(&w).unwrap();
        let sum: f64 = cost.frames.iter().map(|f| f.total_ns).sum();
        assert!((cost.total_ns - sum).abs() / cost.total_ns < 1e-12);
        assert_eq!(cost.total_draws(), w.total_draws());
    }

    #[test]
    fn deterministic_simulation() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let a = sim.simulate_workload(&w).unwrap();
        let b = sim.simulate_workload(&w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Big enough to take the threaded path; compare against an explicit
        // sequential pass.
        let w = GameProfile::shooter("big")
            .frames(8)
            .draws_per_frame(300)
            .build(7)
            .generate();
        assert!(w.total_draws() >= 1000, "test needs the parallel path");
        let sim = Simulator::new(ArchConfig::baseline());
        let parallel = sim.simulate_workload(&w).unwrap();
        let sequential: Vec<FrameCost> = w
            .frames()
            .iter()
            .map(|f| sim.simulate_frame(f, &w).unwrap())
            .collect();
        assert_eq!(parallel, WorkloadCost::from_frames(sequential));
    }

    #[test]
    fn batch_width_does_not_change_results() {
        let w = workload();
        let baseline = Simulator::new(ArchConfig::baseline());
        baseline.set_cache_mode(CacheMode::Off);
        let expected = baseline.simulate_workload(&w).unwrap();
        for width in [1, 3, 64, 128, 10_000] {
            for mode in [CacheMode::On, CacheMode::Off] {
                let sim = Simulator::new(ArchConfig::baseline());
                sim.set_batch_width(width);
                sim.set_cache_mode(mode);
                let got = sim.simulate_workload(&w).unwrap();
                assert_eq!(got, expected, "width {width}, mode {mode:?} diverged");
            }
        }
    }

    #[test]
    fn memoized_results_are_bit_identical_to_uncached() {
        let w = workload();
        let cached = Simulator::new(ArchConfig::baseline());
        cached.set_cache_mode(CacheMode::On);
        let uncached = Simulator::new(ArchConfig::baseline());
        let cold = cached.simulate_workload(&w).unwrap();
        let warm = cached.simulate_workload(&w).unwrap();
        let b = uncached.simulate_workload(&w).unwrap();
        assert!(cached.cache_stats().batch_hits > 0, "warm pass must hit");
        assert_eq!(uncached.cache_stats(), CacheStats::default());
        // Per-draw costs too, not just the aggregates.
        for a in [&cold, &warm] {
            assert_eq!(*a, b, "memoization must not change a single bit");
            for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
                for (da, db) in fa.draws.iter().zip(fb.draws.iter()) {
                    assert_eq!(da.time_ns.to_bits(), db.time_ns.to_bits());
                    assert_eq!(da.mem_bytes.to_bits(), db.mem_bytes.to_bits());
                }
            }
        }
    }

    #[test]
    fn default_mode_retains_nothing() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        assert_eq!(sim.cache_mode(), CacheMode::Off);
        sim.simulate_workload(&w).unwrap();
        sim.simulate_workload(&w).unwrap();
        assert_eq!(sim.cached_batches(), 0);
        assert_eq!(sim.cache_stats(), CacheStats::default());
    }

    #[test]
    fn on_mode_serves_repeated_batches_wholesale() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        let batches = batch_count(&w, sim.batch_width());
        let a = sim.simulate_workload(&w).unwrap();
        let cold = sim.cache_stats();
        assert_eq!(cold.batch_misses, batches);
        assert_eq!(sim.cached_batches(), batches as usize);

        let b = sim.simulate_workload(&w).unwrap();
        let warm = sim.cache_stats();
        assert_eq!(a, b, "batch-served results must be bit-identical");
        assert_eq!(warm.batch_hits, batches);
        assert_eq!(warm.batch_misses, cold.batch_misses);

        // And the whole thing matches an uncached simulator, bit for bit.
        let uncached = Simulator::new(ArchConfig::baseline());
        uncached.set_cache_mode(CacheMode::Off);
        assert_eq!(a, uncached.simulate_workload(&w).unwrap());
    }

    #[test]
    fn batch_major_totals_match_collected_totals() {
        // The batch-major traversal must reproduce every candidate's
        // `WorkloadCost::total_ns` — and the reference model's — bit for
        // bit, cold and warm, in both modes, draw at a time (width 1),
        // with full batches ahead of a ragged tail (16) and at the
        // default width (64), whose batches are ragged too.
        let w = workload();
        for width in [16, 64] {
            assert!(
                w.frames().iter().any(|f| f.draw_count() % width != 0),
                "width {width} must leave a ragged tail"
            );
        }
        assert!(w.frames().iter().any(|f| f.draw_count() > 16));
        let configs = [
            ArchConfig::small(),
            ArchConfig::baseline(),
            ArchConfig::large(),
        ];
        for width in [1, 16, 64] {
            for mode in [CacheMode::On, CacheMode::Off] {
                let sims: Vec<Simulator<&ArchConfig>> =
                    configs.iter().map(Simulator::from_ref).collect();
                for sim in &sims {
                    sim.set_batch_width(width);
                    sim.set_cache_mode(mode);
                }
                let pass = Pass::new(&w, width);
                let keys = sims[0].pass_keys(&pass).unwrap();
                assert_eq!(keys.is_some(), mode == CacheMode::On);
                let streamed = evaluate(&sims, &pass, keys.as_deref()).unwrap();
                let again = evaluate(&sims, &pass, keys.as_deref()).unwrap();
                for (c, config) in configs.iter().enumerate() {
                    let collected = Simulator::new(config.clone())
                        .simulate_workload(&w)
                        .unwrap()
                        .total_ns;
                    let reference = crate::reference::reference_workload_cost(&w, config)
                        .unwrap()
                        .total_ns;
                    assert_eq!(collected.to_bits(), reference.to_bits(), "{}", config.name);
                    for got in [streamed[c], again[c]] {
                        assert_eq!(
                            got.to_bits(),
                            reference.to_bits(),
                            "{}, width {width}, mode {mode:?}",
                            config.name
                        );
                    }
                }
                // Every candidate probes each batch once per traversal; the
                // second traversal hits every one (narrow batches can also
                // repeat within the first).
                let batches = batch_count(&w, width);
                for sim in &sims {
                    let stats = sim.cache_stats();
                    match mode {
                        CacheMode::On => {
                            assert_eq!(stats.batch_hits + stats.batch_misses, 2 * batches);
                            assert!(stats.batch_hits >= batches);
                        }
                        CacheMode::Off => assert_eq!(stats, CacheStats::default()),
                    }
                }
            }
        }
    }

    #[test]
    fn on_mode_frames_hit_on_repeat() {
        let w = workload();
        let frame = &w.frames()[0];
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        sim.set_batch_width(16);
        let cold = sim.simulate_frame(frame, &w).unwrap();
        let warm = sim.simulate_frame(frame, &w).unwrap();
        assert_eq!(cold, warm);
        let batches = frame.draw_count().div_ceil(16) as u64;
        let stats = sim.cache_stats();
        assert_eq!((stats.batch_hits, stats.batch_misses), (batches, batches));
        let uncached = Simulator::new(ArchConfig::baseline());
        uncached.set_cache_mode(CacheMode::Off);
        assert_eq!(cold, uncached.simulate_frame(frame, &w).unwrap());
    }

    #[test]
    fn ragged_tail_batches_are_distinct_cache_entries() {
        // 50 draws per frame at width 64 → every frame is one ragged
        // batch; at width 16 → three full + one ragged. Re-running at a
        // different width must miss (the key folds the member count),
        // then hit on repeat.
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        sim.set_batch_width(16);
        let a = sim.simulate_workload(&w).unwrap();
        let cold = sim.cache_stats();
        assert_eq!(cold.batch_misses, batch_count(&w, 16));

        sim.set_batch_width(64);
        let b = sim.simulate_workload(&w).unwrap();
        assert_eq!(a, b);
        let refold = sim.cache_stats();
        assert_eq!(refold.batch_hits, 0, "different widths must not alias");
        assert_eq!(refold.batch_misses, cold.batch_misses + batch_count(&w, 64));

        sim.set_batch_width(16);
        sim.simulate_workload(&w).unwrap();
        assert_eq!(sim.cache_stats().batch_hits, batch_count(&w, 16));
    }

    #[test]
    fn set_config_invalidates_cache() {
        let w = workload();
        let mut sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        let base = sim.simulate_workload(&w).unwrap();
        sim.simulate_workload(&w).unwrap();
        let before = sim.cache_stats();
        assert!(sim.cached_batches() > 0);

        sim.set_config(ArchConfig::small());
        assert_eq!(
            sim.cached_batches(),
            0,
            "config change must clear the cache"
        );
        assert_eq!(sim.cache_stats(), CacheStats::default());
        let small = sim.simulate_workload(&w).unwrap();
        assert!(
            small.total_ns > base.total_ns,
            "stale costs survived the config change"
        );
        // An observer holding a pre-reset snapshot gets a clamped delta,
        // never a wrapped one: both counters restarted at or below it.
        let delta = sim.cache_stats().delta(&before);
        assert_eq!(delta.batch_hits, 0);
        assert_eq!(delta.batch_misses, 0);

        // And the new config's results match a fresh simulator's exactly.
        let fresh = Simulator::new(ArchConfig::small());
        assert_eq!(small, fresh.simulate_workload(&w).unwrap());
    }

    #[test]
    fn borrowed_config_simulator_matches_owned() {
        let w = workload();
        let config = ArchConfig::baseline();
        let borrowed = Simulator::from_ref(&config);
        let owned = Simulator::new(config.clone());
        assert_eq!(
            borrowed.simulate_workload(&w).unwrap(),
            owned.simulate_workload(&w).unwrap()
        );
    }

    #[test]
    fn unknown_shader_is_reported() {
        let mut w = workload();
        // Corrupt one draw to reference a dangling shader.
        let mut frames: Vec<Frame> = w.frames().to_vec();
        let mut draws = frames[0].to_draws();
        draws[0].pixel_shader = subset3d_trace::ShaderId(9999);
        frames[0] = Frame::new(frames[0].id, draws);
        w = Workload::new(
            w.name.clone(),
            frames,
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        );
        for mode in [CacheMode::On, CacheMode::Off] {
            let sim = Simulator::new(ArchConfig::baseline());
            sim.set_cache_mode(mode);
            assert!(
                matches!(
                    sim.simulate_workload(&w),
                    Err(SimError::UnknownShader { .. })
                ),
                "mode {mode:?} swallowed the dangling reference"
            );
        }
    }

    #[test]
    fn warmth_context_changes_repeated_draw_cost() {
        // The same draw placed after a run of draws sharing its textures
        // must be cheaper than in isolation.
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let frame = &w.frames()[1];
        let frame_cost = sim.simulate_frame(frame, &w).unwrap();
        // Find two draws of the same material (same features) at different
        // positions; later repeats should never cost more in context than
        // the isolated (cold) cost.
        let draws = frame.to_draws();
        let mut found = false;
        for (i, d) in draws.iter().enumerate().skip(1) {
            if draws[i - 1].material_tag == d.material_tag && !d.textures.is_empty() {
                let cold = sim.simulate_draw(d, &w).unwrap();
                assert!(frame_cost.draws[i].time_ns <= cold.time_ns + 1e-9);
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one repeated-material pair");
    }

    #[test]
    fn slower_config_costs_more() {
        let w = workload();
        let fast = Simulator::new(ArchConfig::large());
        let slow = Simulator::new(ArchConfig::small());
        let a = fast.simulate_workload(&w).unwrap();
        let b = slow.simulate_workload(&w).unwrap();
        assert!(b.total_ns > a.total_ns);
    }

    #[test]
    #[should_panic(expected = "invalid architecture")]
    fn invalid_config_panics() {
        let mut c = ArchConfig::baseline();
        c.eu_count = 0;
        Simulator::new(c);
    }
}
