//! The analytical simulator front-end: fixed-width columnar batch
//! execution with cross-draw warmth tracking.
//!
//! Frames store draws column-major ([`subset3d_trace::DrawColumns`]);
//! the simulator walks each frame in fixed-width batches of
//! [`DEFAULT_BATCH_WIDTH`] draws. Per batch it streams the columns
//! directly — shader resolution through a dense per-pass table, warmth
//! from the texture pool, batch-key shape digests straight off the
//! column words — and materialises an AoS [`DrawCall`] per draw only
//! where `analyze_draw` (which is struct-at-a-time and shared with the
//! reference model) actually runs. Batches are also the unit of
//! parallel fan-out and of batch-grain memoization (see
//! [`crate::memo`]). One traversal serves every whole-workload pass: it
//! feeds each batch's costs into a per-frame sink, which collects them
//! for [`Simulator::simulate_workload`] and keeps only a running total
//! for [`crate::SweepSession`].

use crate::analytic::analyze_draw;
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
/// Simulation is deterministic and O(1) per draw; a full 828K-draw corpus
/// simulates in well under a second in release builds.
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
        self.run_frame::<Vec<DrawCost>>(frame, &pass, keys.as_deref())
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

    /// Simulated total time of a whole pass, in nanoseconds: each frame's
    /// draw times streamed into a [`KahanSum`] as their batches complete,
    /// then [`subset3d_stats::sum_iter`] over the frame totals. Those are
    /// the operations [`FrameCost::from_draws`] and
    /// [`WorkloadCost::from_frames`] perform, in the same order, so the
    /// result equals `simulate_workload(..)?.total_ns` bit for bit without
    /// materialising a single [`DrawCost`].
    pub(crate) fn total_ns(
        &self,
        pass: &Pass<'_>,
        keys: Option<&[Vec<BatchKey>]>,
    ) -> Result<f64, SimError>
    where
        C: Sync,
    {
        Ok(subset3d_stats::sum_iter(
            self.run_pass::<KahanSum>(pass, keys)?,
        ))
    }

    /// The batch traversal behind every whole-workload pass: walks every
    /// frame of `pass` in fixed-width batches and feeds each batch's costs
    /// into a per-frame sink `S`, in draw order. `keys` (from
    /// [`Simulator::pass_keys`]) are the batches' digests, frame by frame.
    ///
    /// Frames are independent (cache warmth is tracked within a frame)
    /// and batches within a frame are independent too (warmth looks
    /// backwards into the columns, not at other batches' outputs), so
    /// large workloads flatten into one task list of fixed-width batches
    /// and fan out over the shared [`subset3d_exec`] pool in chunks, all
    /// workers sharing one batch cache; each task's costs are then fed to
    /// its frame's sink in task order, which is bit-identical to a
    /// sequential pass at any thread count.
    fn run_pass<S: FrameSink>(
        &self,
        pass: &Pass<'_>,
        keys: Option<&[Vec<BatchKey>]>,
    ) -> Result<Vec<S::Frame>, SimError>
    where
        C: Sync,
    {
        let frames = pass.workload.frames();
        // Below ~1000 draws scheduling overhead outweighs the work.
        if subset3d_exec::thread_count() < 2 || pass.workload.total_draws() < 1000 {
            return frames
                .iter()
                .enumerate()
                .map(|(f, frame)| self.run_frame::<S>(frame, pass, keys.map(|k| &k[f][..])))
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
            self.simulate_batch(
                frames[f].columns(),
                pass,
                start,
                end,
                keys.map(|k| &k[f][b]),
                |c| costs.extend_from_slice(c),
            )?;
            Ok(costs)
        });
        // Tasks were generated in draw order, so feeding results in task
        // order reassembles every frame exactly as the sequential path
        // would.
        let mut sinks: Vec<S> = frames.iter().map(|f| S::start(f.draw_count())).collect();
        for (&(f, ..), result) in tasks.iter().zip(results) {
            sinks[f].batch(&result?);
        }
        Ok(sinks.into_iter().map(S::finish).collect())
    }

    /// One frame of [`Simulator::run_pass`], batch by batch, on the
    /// calling thread.
    fn run_frame<S: FrameSink>(
        &self,
        frame: &Frame,
        pass: &Pass<'_>,
        keys: Option<&[BatchKey]>,
    ) -> Result<S::Frame, SimError> {
        let cols = frame.columns();
        let mut sink = S::start(cols.len());
        for (b, (start, end)) in pass.batches(cols.len()).enumerate() {
            self.simulate_batch(cols, pass, start, end, keys.map(|k| &k[b]), |c| {
                sink.batch(c)
            })?;
        }
        Ok(sink.finish())
    }

    /// Simulates the draws `start..end` of one frame's columns — the
    /// fixed-width batch at the heart of the hot path — and hands their
    /// costs to `sink`, in draw order.
    ///
    /// With a `key` (the batch's digest; [`CacheMode::On`] only) the
    /// batch cache is probed once, and a hit lends the retained slice to
    /// `sink` without any per-draw work or copy. Otherwise the batch's
    /// shaders are resolved (a dangling reference is an error whether or
    /// not the cache could have served the content), warmth is computed,
    /// and every draw runs `analyze_draw` on a materialised
    /// [`DrawCall`]. A computed batch is retained under its `key`.
    fn simulate_batch(
        &self,
        cols: &DrawColumns,
        pass: &Pass<'_>,
        start: usize,
        end: usize,
        key: Option<&BatchKey>,
        mut sink: impl FnMut(&[DrawCost]),
    ) -> Result<(), SimError> {
        if let Some(key) = key {
            if self.batches.visit(key, &mut sink) {
                return Ok(());
            }
        }
        let resolved = (start..end)
            .map(|i| pass.resolve(cols, i))
            .collect::<Result<Vec<_>, _>>()?;
        let textures = pass.workload.textures();
        let costs: Vec<DrawCost> = (start..end)
            .zip(resolved)
            .map(|(i, (vs, ps))| {
                analyze_draw(
                    &cols.get(i).expect("batch index in range"),
                    vs.program,
                    ps.program,
                    textures,
                    self.config.borrow(),
                    warmth_at(cols, i),
                )
            })
            .collect();
        if let Some(key) = key {
            self.batches.insert(*key, &costs);
        }
        sink(&costs);
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
            self.run_pass::<Vec<DrawCost>>(&pass, keys.as_deref())?,
        ))
    }
}

/// Where [`Simulator::run_pass`] puts one frame's batch costs, fed in
/// draw order.
trait FrameSink {
    /// What the sink yields per frame.
    type Frame;
    /// An empty sink for a frame of `draws` draws.
    fn start(draws: usize) -> Self;
    /// Takes the next batch's costs.
    fn batch(&mut self, costs: &[DrawCost]);
    /// The frame's result.
    fn finish(self) -> Self::Frame;
}

/// Collects every draw cost: the [`FrameCost`]s of `simulate_workload`
/// and `simulate_frame`. A batch-cache hit extends straight from the
/// retained slice.
impl FrameSink for Vec<DrawCost> {
    type Frame = FrameCost;

    fn start(draws: usize) -> Self {
        Vec::with_capacity(draws)
    }

    fn batch(&mut self, costs: &[DrawCost]) {
        self.extend_from_slice(costs);
    }

    fn finish(self) -> FrameCost {
        FrameCost::from_draws(self)
    }
}

/// Keeps only the frame's total time: the sweep's sink. The running sum
/// performs [`FrameCost::from_draws`]'s summation, so the total is the
/// same bits.
impl FrameSink for KahanSum {
    type Frame = f64;

    fn start(_draws: usize) -> Self {
        KahanSum::default()
    }

    fn batch(&mut self, costs: &[DrawCost]) {
        for c in costs {
            self.add(c.time_ns);
        }
    }

    fn finish(self) -> f64 {
        self.total()
    }
}

/// What one simulation pass over a workload shares between its batches —
/// and, in a sweep, between its candidates: the dense shader table, the
/// registry fingerprint, and the batch width that cuts frames into
/// batches. None of it depends on the architecture configuration.
pub(crate) struct Pass<'w> {
    workload: &'w Workload,
    ctx: ShaderCtx<'w>,
    registry: RegistryFingerprint,
    width: usize,
}

impl<'w> Pass<'w> {
    /// Builds the per-pass context; `width` is clamped to at least 1.
    pub(crate) fn new(workload: &'w Workload, width: usize) -> Self {
        Pass {
            workload,
            ctx: ShaderCtx::build(workload),
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
    ) -> Result<(&ResolvedShader<'w>, &ResolvedShader<'w>), SimError> {
        let id = cols.ids()[index];
        Ok((
            self.ctx.resolve(id, cols.vertex_shaders()[index])?,
            self.ctx.resolve(id, cols.pixel_shaders()[index])?,
        ))
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

/// A resolved shader: the program (for `analyze_draw`) plus its packed
/// key words (for shape digests), computed once per pass.
struct ResolvedShader<'w> {
    program: &'w ShaderProgram,
    pack: [u64; 5],
}

/// Dense per-pass shader table indexed by raw [`ShaderId`], replacing a
/// `BTreeMap` walk per draw with one bounds-checked load per lookup.
struct ShaderCtx<'w> {
    programs: Vec<Option<ResolvedShader<'w>>>,
}

impl<'w> ShaderCtx<'w> {
    fn build(workload: &'w Workload) -> Self {
        // Library iteration is id-ordered, so the last program bounds
        // the table size. Generator ids are dense; a sparse library
        // merely leaves `None` holes.
        let size = workload
            .shaders()
            .iter()
            .last()
            .map(|p| p.id.raw() as usize + 1)
            .unwrap_or(0);
        let mut programs: Vec<Option<ResolvedShader<'w>>> = Vec::with_capacity(size);
        programs.resize_with(size, || None);
        for program in workload.shaders().iter() {
            programs[program.id.raw() as usize] = Some(ResolvedShader {
                program,
                pack: shader_pack(program),
            });
        }
        ShaderCtx { programs }
    }

    fn resolve(&self, draw: DrawId, shader: ShaderId) -> Result<&ResolvedShader<'w>, SimError> {
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
    fn streamed_totals_match_collected_totals() {
        // The summing sink must reproduce `WorkloadCost::total_ns` bit for
        // bit, cold and warm, in every mode and at ragged widths.
        let w = workload();
        for width in [1, 16, 64] {
            for mode in [CacheMode::On, CacheMode::Off] {
                let sim = Simulator::new(ArchConfig::baseline());
                sim.set_batch_width(width);
                sim.set_cache_mode(mode);
                let pass = Pass::new(&w, width);
                let keys = sim.pass_keys(&pass).unwrap();
                assert_eq!(keys.is_some(), mode == CacheMode::On);
                let streamed = sim.total_ns(&pass, keys.as_deref()).unwrap();
                let collected = sim.simulate_workload(&w).unwrap().total_ns;
                let again = sim.total_ns(&pass, keys.as_deref()).unwrap();
                for got in [streamed, again] {
                    assert_eq!(
                        got.to_bits(),
                        collected.to_bits(),
                        "width {width}, mode {mode:?}"
                    );
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
