//! Analytical bottleneck timing model.
//!
//! Each draw's wall-clock time is derived from closed-form per-stage costs:
//!
//! ```text
//! core_time = (max(geometry, raster, pixel, texture, rop) + setup) / f_core
//! mem_time  = dram_bytes / bandwidth(f_mem)
//! time      = max(core_time, mem_time) + ε·min(core_time, mem_time)
//! ```
//!
//! The `max` expresses that GPU pipeline stages overlap within a draw; the
//! small ε term models residual contention between the core and memory
//! domains. Keeping the core and memory clocks separate is what gives
//! frequency scaling its draw-dependent shape: compute-bound draws scale
//! with the core clock, bandwidth-bound draws flatten.
//!
//! The model is split in two. A crate-private `DrawWork` holds every
//! operand that does not depend on the architecture configuration —
//! shading work, surviving primitives, rasterised and shaded pixels,
//! texture footprint and compression, ROP operations, and the vertex,
//! colour and depth traffic — and `DrawWork::cost` turns it into a
//! [`DrawCost`] for one configuration in a few dozen flops. A design
//! sweep builds each draw's work once and costs it per candidate;
//! [`analyze_draw`] is the one-draw composition of the two halves, and
//! the event model reads the same per-stage terms. Every formula exists
//! once, and `cost` keeps each expression's operations and order, so the
//! split is bit-identical to evaluating the draw from scratch.

use crate::config::ArchConfig;
use crate::cost::{DrawCost, Stage};
use subset3d_trace::{
    BlendMode, CullMode, DepthMode, DrawCall, DrawColumns, InstructionMix, RenderTargetDesc,
    ShaderProgram, TextureDesc, TextureId, TextureRegistry,
};

/// Residual core/memory contention factor of the bottleneck composition.
const CONTENTION: f64 = 0.03;

/// Vertex fetch cost in core cycles per vertex (index decode + attribute
/// gather, amortised by the post-transform cache).
const FETCH_CYCLES_PER_VERTEX: f64 = 0.25;

/// Primitive area below which rasteriser efficiency degrades (a coarse
/// raster tile is wasted on a tiny triangle).
const EFFICIENT_AREA_PX: f64 = 16.0;

/// Minimum rasteriser efficiency for degenerate, sub-pixel triangles.
const MIN_EFFICIENCY: f64 = 0.125;

/// Bytes fetched from memory per texture-cache miss (one cache line).
const BYTES_PER_MISS: f64 = 64.0;

/// Fraction of the raw hit rate recovered by cross-draw warmth.
const WARMTH_RECOVERY: f64 = 0.5;

/// Bytes fetched per vertex (position + attributes), after post-transform
/// and vertex-cache reuse.
const VERTEX_FETCH_BYTES: f64 = 12.0;

/// Framebuffer compression factor applied to colour traffic.
const COLOR_COMPRESSION: f64 = 0.6;

/// Hierarchical-Z compression factor applied to depth traffic.
const DEPTH_COMPRESSION: f64 = 0.5;

/// Computes the full analytical cost of one draw.
///
/// `warmth` in `0.0..=1.0` is the cross-draw texture-cache warmth computed
/// by the frame loop (fraction of the draw's textures touched by recent
/// draws); it is *context*, not a property of the draw, and is therefore
/// invisible to micro-architecture-independent features.
pub fn analyze_draw(
    draw: &DrawCall,
    vs: &ShaderProgram,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> DrawCost {
    DrawWork::of(draw, vs, ps, textures, warmth).cost(config)
}

/// Per-invocation issue cycles of an instruction mix on one SIMD lane.
///
/// Weights reflect typical relative throughputs: transcendental ops issue at
/// a quarter rate, control flow costs two issue slots, interpolant loads
/// half a slot. Texture *issue* costs one slot here; sampling latency and
/// filtering are accounted in the texture stage.
pub fn instruction_cycles(mix: &InstructionMix, divergence: f64) -> f64 {
    let base = f64::from(mix.alu)
        + f64::from(mix.mad)
        + 4.0 * f64::from(mix.transcendental)
        + f64::from(mix.texture_samples)
        + 0.5 * f64::from(mix.interpolants)
        + 2.0 * f64::from(mix.control_flow);
    base * (1.0 + divergence.clamp(0.0, 1.0))
}

/// Latency-hiding factor from register pressure, in `(0, 1]`.
///
/// Threads resident per lane slot = `register_file / registers`; below four
/// resident threads the EU cannot hide latency and throughput degrades.
pub fn occupancy_factor(registers: u32, register_file: u32) -> f64 {
    let threads = f64::from(register_file) / f64::from(registers.max(1));
    let hiding = (threads / 4.0).min(1.0);
    0.55 + 0.45 * hiding
}

/// Calibrated texture-cache hit rate for a draw.
///
/// The hit rate combines the draw's intrinsic sampling *locality* with how
/// much of the bound textures' footprint fits in the cache, then recovers
/// part of the remaining misses proportionally to cross-draw `warmth`.
pub fn texture_hit_rate(
    draw: &DrawCall,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> f64 {
    hit_rate(
        textures.combined_footprint(&draw.textures),
        draw.texel_locality,
        warmth.clamp(0.0, 1.0),
        config,
    )
}

/// [`texture_hit_rate`] from its operands; `warmth` is already clamped.
#[inline]
fn hit_rate(footprint: f64, locality: f64, warmth: f64, config: &ArchConfig) -> f64 {
    if footprint <= 0.0 {
        return 1.0;
    }
    let cache_bytes = f64::from(config.tex_cache_kib) * 1024.0;
    let residency = (cache_bytes / footprint).min(1.0).sqrt();
    // Bilinear filtering alone guarantees substantial line reuse, so the
    // hit rate has a floor; locality and residency recover the rest.
    let base = 0.5 + 0.5 * locality * (0.5 + 0.5 * residency);
    let warm = base + (1.0 - base) * WARMTH_RECOVERY * warmth;
    warm.clamp(0.0, 1.0)
}

/// What the model reads from a shader program.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaderTerms {
    /// Per-invocation issue cycles ([`instruction_cycles`]).
    cycles: f64,
    registers: u32,
    texture_samples: u32,
}

impl ShaderTerms {
    pub(crate) fn of(program: &ShaderProgram) -> Self {
        ShaderTerms {
            cycles: instruction_cycles(&program.mix, program.divergence),
            registers: program.registers,
            texture_samples: program.mix.texture_samples,
        }
    }
}

/// What the model reads from a texture descriptor: its storage footprint
/// (mip chain included) and bytes per texel.
#[derive(Debug, Clone, Copy)]
struct TextureTerms {
    footprint: f64,
    bytes_per_texel: f64,
}

impl TextureTerms {
    fn of(desc: &TextureDesc) -> Self {
        TextureTerms {
            footprint: desc.footprint_bytes(),
            bytes_per_texel: desc.format.bytes_per_texel(),
        }
    }
}

/// Dense per-pass [`TextureTerms`] table indexed by raw [`TextureId`]:
/// one bounds-checked load per bound texture instead of a registry walk
/// and a mip-chain walk. Sized by the largest id, like the shader table.
pub(crate) struct TextureTable(Vec<Option<TextureTerms>>);

impl TextureTable {
    pub(crate) fn build(registry: &TextureRegistry) -> Self {
        // Registry iteration is id-ordered, so the last id bounds the size.
        let size = registry
            .iter()
            .last()
            .map_or(0, |t| t.id.raw() as usize + 1);
        let mut table = vec![None; size];
        for desc in registry.iter() {
            table[desc.id.raw() as usize] = Some(TextureTerms::of(desc));
        }
        TextureTable(table)
    }

    fn get(&self, id: TextureId) -> Option<TextureTerms> {
        self.0.get(id.raw() as usize).copied().flatten()
    }
}

/// The per-draw fields the model reads, gathered from either draw layout.
struct DrawFields<'a> {
    vertex_invocations: u64,
    primitives: u64,
    cull: CullMode,
    coverage: f64,
    target: &'a RenderTargetDesc,
    overdraw: f64,
    z_pass_rate: f64,
    texel_locality: f64,
    blend: BlendMode,
    depth: DepthMode,
    textures: &'a [TextureId],
}

/// Every configuration-independent operand of one draw in one warmth
/// context: built once per draw, then costed per configuration by
/// [`DrawWork::cost`]. Fields hold exact subexpressions of the stage
/// formulas, so costing reproduces a from-scratch evaluation bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrawWork {
    /// Vertex-shader invocations × per-invocation issue cycles.
    vs_work: f64,
    /// Vertex fetch cycles.
    fetch: f64,
    vs_registers: u32,
    ps_registers: u32,
    /// Primitives surviving culling.
    prims: f64,
    /// Fragments the rasteriser touches: coverage × target × overdraw.
    raster_pixels: f64,
    /// Small-triangle rasteriser efficiency.
    efficiency: f64,
    /// Shaded pixels × per-invocation pixel-shader issue cycles.
    ps_work: f64,
    /// Texture samples: shaded pixels × samples per invocation.
    samples: f64,
    /// Combined footprint of the bound textures.
    footprint: f64,
    locality: f64,
    /// Cross-draw warmth, clamped to `0..=1`.
    warmth: f64,
    /// Bytes moved per miss relative to RGBA8.
    compression: f64,
    /// Cap on miss traffic: unique bytes touched × refetch factor.
    miss_cap: f64,
    /// Colour plus depth ROP operations.
    rop_ops: f64,
    vertex_bytes: f64,
    color_bytes: f64,
    depth_bytes: f64,
}

/// Per-stage core cycles and DRAM bytes of one draw on one configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageCosts {
    pub(crate) geometry: f64,
    pub(crate) raster: f64,
    pub(crate) pixel: f64,
    /// Texture sampling/filtering cycles.
    pub(crate) texture: f64,
    pub(crate) rop: f64,
    pub(crate) mem_bytes: f64,
}

impl DrawWork {
    /// The work of a materialised draw; texture descriptors are looked up
    /// in `textures`.
    pub(crate) fn of(
        draw: &DrawCall,
        vs: &ShaderProgram,
        ps: &ShaderProgram,
        textures: &TextureRegistry,
        warmth: f64,
    ) -> Self {
        let fields = DrawFields {
            vertex_invocations: draw.vertex_invocations(),
            primitives: draw.primitives(),
            cull: draw.cull,
            coverage: draw.coverage,
            target: &draw.render_target,
            overdraw: draw.overdraw,
            z_pass_rate: draw.z_pass_rate,
            texel_locality: draw.texel_locality,
            blend: draw.blend,
            depth: draw.depth,
            textures: &draw.textures,
        };
        DrawWork::new(
            &fields,
            ShaderTerms::of(vs),
            ShaderTerms::of(ps),
            warmth,
            |id| textures.get(id).map(TextureTerms::of),
        )
    }

    /// The work of the draw at `index`, read straight off the columns.
    pub(crate) fn at(
        cols: &DrawColumns,
        index: usize,
        vs: ShaderTerms,
        ps: ShaderTerms,
        textures: &TextureTable,
        warmth: f64,
    ) -> Self {
        let fields = DrawFields {
            vertex_invocations: cols.vertex_invocations_at(index),
            primitives: cols.primitives_at(index),
            cull: cols.culls()[index],
            coverage: cols.coverages()[index],
            target: &cols.render_targets()[index],
            overdraw: cols.overdraws()[index],
            z_pass_rate: cols.z_pass_rates()[index],
            texel_locality: cols.texel_localities()[index],
            blend: cols.blends()[index],
            depth: cols.depths()[index],
            textures: cols.textures_of(index),
        };
        DrawWork::new(&fields, vs, ps, warmth, |id| textures.get(id))
    }

    fn new(
        d: &DrawFields<'_>,
        vs: ShaderTerms,
        ps: ShaderTerms,
        warmth: f64,
        texture: impl Fn(TextureId) -> Option<TextureTerms>,
    ) -> Self {
        // One walk over the bound textures in binding order. `-0.0` is the
        // neutral element `Iterator::sum` starts from, so the footprint has
        // `TextureRegistry::combined_footprint`'s bits even when nothing
        // resolves.
        let mut footprint = -0.0;
        let mut bpt_total = 0.0;
        let mut resolved = 0usize;
        for &id in d.textures {
            if let Some(t) = texture(id) {
                footprint += t.footprint;
                bpt_total += t.bytes_per_texel;
                resolved += 1;
            }
        }
        // Mean bytes per texel of the resolvable textures (4.0 when none).
        let avg_bpt = if resolved == 0 {
            4.0
        } else {
            bpt_total / resolved as f64
        };

        let invocations = d.vertex_invocations as f64;
        let prims = d.primitives as f64 * d.cull.survival_rate();
        // Before the early-Z test rejects fragments.
        let raster_pixels = d.coverage * d.target.pixels() as f64 * d.overdraw;
        let shaded = raster_pixels * d.z_pass_rate;
        let avg_area = if prims < 1.0 {
            0.0
        } else {
            raster_pixels / prims
        };
        let warmth = warmth.clamp(0.0, 1.0);

        // Miss traffic cannot exceed the unique data the draw touches (mip
        // selection matches texel to pixel density, so unique texels ≈
        // shaded pixels per bound texture), modestly re-fetched when
        // locality is poor; warm data was already fetched by recent draws,
        // shrinking this draw's compulsory traffic too.
        let unique_bytes = (shaded * d.textures.len() as f64 * avg_bpt).min(footprint);
        let refetch = (1.0 + (1.0 - d.texel_locality)) * (1.0 - WARMTH_RECOVERY * warmth);

        // Blending modes that read the destination cost two ROP operations
        // and two colour writes per shaded pixel; depth-enabled draws pay
        // depth-test throughput on every rasterised fragment.
        let write_factor = if d.blend.reads_destination() {
            2.0
        } else {
            1.0
        };
        let depth_ops = if d.depth.accesses_depth() {
            raster_pixels
        } else {
            0.0
        };
        let depth_bytes = match d.depth {
            DepthMode::Disabled => 0.0,
            DepthMode::TestOnly => raster_pixels * 4.0 * DEPTH_COMPRESSION,
            // Read on every rasterised fragment, write on passing ones.
            DepthMode::TestAndWrite => (raster_pixels + shaded) * 4.0 * DEPTH_COMPRESSION,
        };

        DrawWork {
            vs_work: invocations * vs.cycles,
            fetch: invocations * FETCH_CYCLES_PER_VERTEX,
            vs_registers: vs.registers,
            ps_registers: ps.registers,
            prims,
            raster_pixels,
            efficiency: (avg_area / EFFICIENT_AREA_PX).clamp(MIN_EFFICIENCY, 1.0),
            ps_work: shaded * ps.cycles,
            samples: shaded * f64::from(ps.texture_samples),
            footprint,
            locality: d.texel_locality,
            warmth,
            // Compressed formats move fewer bytes per miss.
            compression: (avg_bpt / 4.0).clamp(0.125, 2.0),
            miss_cap: unique_bytes * refetch,
            rop_ops: shaded * write_factor + depth_ops,
            vertex_bytes: invocations * VERTEX_FETCH_BYTES,
            color_bytes: shaded * d.target.bytes_per_pixel() * write_factor * COLOR_COMPRESSION,
            depth_bytes,
        }
    }

    /// Per-stage core cycles and DRAM bytes on `config`.
    #[inline]
    pub(crate) fn stages(&self, config: &ArchConfig) -> StageCosts {
        let lanes = f64::from(config.eu_count) * f64::from(config.simd_width);
        let register_file = config.register_file_per_thread;

        // Geometry: vertex shading across all invocations plus fetch.
        let vs_occ = occupancy_factor(self.vs_registers, register_file);
        let geometry = self.vs_work / (lanes * vs_occ) + self.fetch;

        // Raster: the max of setup-limited and fill-limited throughput;
        // small triangles derate the fill rate.
        let raster = if self.prims <= 0.0 {
            0.0
        } else {
            let setup = self.prims / config.prim_rate;
            let fill = self.raster_pixels / (f64::from(config.raster_rate) * self.efficiency);
            setup.max(fill)
        };

        let ps_occ = occupancy_factor(self.ps_registers, register_file);
        let pixel = self.ps_work / (lanes * ps_occ);

        // Texture: filtering throughput, derated when misses stall the
        // pipeline, and the miss traffic toward the L2.
        let (texture, miss_bytes) = if self.samples <= 0.0 {
            (0.0, 0.0)
        } else {
            let miss_rate = 1.0 - hit_rate(self.footprint, self.locality, self.warmth, config);
            let raw_miss_bytes = self.samples * miss_rate * BYTES_PER_MISS * self.compression;
            let sample_cycles = self.samples / f64::from(config.tex_rate) * (1.0 + 0.3 * miss_rate);
            (sample_cycles, raw_miss_bytes.min(self.miss_cap))
        };

        let rop = self.rop_ops / f64::from(config.rop_rate);

        // The L2 absorbs part of the texture-cache miss stream; how much
        // depends on how the miss traffic compares to L2 capacity.
        let l2_bytes = f64::from(config.l2_cache_kib) * 1024.0;
        let l2_hit = (l2_bytes / (miss_bytes + l2_bytes)) * 0.8;
        let texture_bytes = miss_bytes * (1.0 - l2_hit);
        let mem_bytes = self.vertex_bytes + texture_bytes + self.color_bytes + self.depth_bytes;

        StageCosts {
            geometry,
            raster,
            pixel,
            texture,
            rop,
            mem_bytes,
        }
    }

    /// The draw's full cost on `config`: the bottleneck composition of
    /// its [`DrawWork::stages`].
    #[inline]
    pub(crate) fn cost(&self, config: &ArchConfig) -> DrawCost {
        let s = self.stages(config);
        let overhead = config.draw_setup_cycles;
        let stage_cycles = [
            (Stage::Geometry, s.geometry),
            (Stage::Raster, s.raster),
            (Stage::PixelShade, s.pixel),
            (Stage::Texture, s.texture),
            (Stage::Rop, s.rop),
        ];
        let (mut bottleneck, max_cycles) =
            stage_cycles
                .iter()
                .copied()
                .fold((Stage::Overhead, 0.0f64), |(bs, bc), (s, c)| {
                    if c > bc {
                        (s, c)
                    } else {
                        (bs, bc)
                    }
                });
        if overhead > max_cycles {
            bottleneck = Stage::Overhead;
        }

        let core_time_ns = (max_cycles + overhead) * config.core_period_ns();
        let mem_time_ns = s.mem_bytes / config.mem_bandwidth_bytes_per_ns();
        if mem_time_ns > core_time_ns {
            bottleneck = Stage::Memory;
        }
        let time_ns = core_time_ns.max(mem_time_ns) + CONTENTION * core_time_ns.min(mem_time_ns);

        DrawCost {
            geometry_cycles: s.geometry,
            raster_cycles: s.raster,
            pixel_cycles: s.pixel,
            texture_cycles: s.texture,
            rop_cycles: s.rop,
            overhead_cycles: overhead,
            mem_bytes: s.mem_bytes,
            time_ns,
            bottleneck,
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use subset3d_trace::{
        DrawCall, DrawId, InstructionMix, PrimitiveTopology, ShaderId, ShaderProgram, ShaderStage,
        TextureDesc, TextureFormat, TextureId, TextureRegistry,
    };

    /// A plain vertex shader for stage tests.
    pub fn test_vs() -> ShaderProgram {
        ShaderProgram::new(
            ShaderId(0),
            ShaderStage::Vertex,
            "vs",
            InstructionMix {
                alu: 16,
                mad: 8,
                transcendental: 1,
                texture_samples: 0,
                interpolants: 6,
                control_flow: 1,
            },
        )
    }

    /// A plain pixel shader for stage tests.
    pub fn test_ps() -> ShaderProgram {
        ShaderProgram::new(
            ShaderId(1),
            ShaderStage::Pixel,
            "ps",
            InstructionMix {
                alu: 24,
                mad: 12,
                transcendental: 2,
                texture_samples: 3,
                interpolants: 5,
                control_flow: 1,
            },
        )
    }

    /// A registry holding one 512² BC1 texture with id 0.
    pub fn test_textures() -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        reg.insert(TextureDesc {
            id: TextureId(0),
            width: 512,
            height: 512,
            mips: 9,
            format: TextureFormat::Bc1,
        });
        reg
    }

    /// A mid-size opaque mesh draw bound to texture 0.
    pub fn test_draw() -> DrawCall {
        DrawCall::builder(DrawId(0))
            .shaders(ShaderId(0), ShaderId(1))
            .geometry(PrimitiveTopology::TriangleList, 3000)
            .textures(vec![TextureId(0)])
            .rasterization(0.02, 1.3, 0.7)
            .texel_locality(0.6)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use subset3d_trace::{Frame, FrameId, PrimitiveTopology, TextureFormat};

    fn cost_of(draw: &DrawCall, config: &ArchConfig, warmth: f64) -> DrawCost {
        analyze_draw(
            draw,
            &test_vs(),
            &test_ps(),
            &test_textures(),
            config,
            warmth,
        )
    }

    fn cost_with(config: &ArchConfig, warmth: f64) -> DrawCost {
        cost_of(&test_draw(), config, warmth)
    }

    #[test]
    fn cost_is_positive_and_finite() {
        let c = cost_with(&ArchConfig::baseline(), 0.0);
        assert!(c.time_ns > 0.0 && c.time_ns.is_finite());
        assert!(c.mem_bytes > 0.0);
    }

    #[test]
    fn columnar_work_matches_materialised_work() {
        // `at` (columns, dense texture table) and `of` (struct, registry)
        // must cost every bit the same, with textures bound, unbound and
        // dangling.
        let mut unbound = test_draw();
        unbound.textures.clear();
        let mut dangling = test_draw();
        dangling.textures = vec![TextureId(0), TextureId(7), TextureId(0)];
        let draws = vec![test_draw(), unbound, dangling];
        let frame = Frame::new(FrameId(0), draws.clone());
        let registry = test_textures();
        let table = TextureTable::build(&registry);
        let (vs, ps) = (test_vs(), test_ps());
        for config in [ArchConfig::small(), ArchConfig::large()] {
            for (i, draw) in draws.iter().enumerate() {
                let warmth = 0.25 * i as f64;
                let at = DrawWork::at(
                    frame.columns(),
                    i,
                    ShaderTerms::of(&vs),
                    ShaderTerms::of(&ps),
                    &table,
                    warmth,
                )
                .cost(&config);
                let of = DrawWork::of(draw, &vs, &ps, &registry, warmth).cost(&config);
                assert_eq!(format!("{at:?}"), format!("{of:?}"));
                assert_eq!(at.time_ns.to_bits(), of.time_ns.to_bits());
                assert_eq!(at.mem_bytes.to_bits(), of.mem_bytes.to_bits());
            }
        }
    }

    #[test]
    fn warmth_reduces_cost() {
        let cold = cost_with(&ArchConfig::baseline(), 0.0);
        let warm = cost_with(&ArchConfig::baseline(), 1.0);
        assert!(warm.mem_bytes < cold.mem_bytes);
        assert!(warm.time_ns <= cold.time_ns);
    }

    #[test]
    fn faster_core_clock_never_slows_a_draw() {
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        let a = cost_with(&base, 0.5);
        let b = cost_with(&turbo, 0.5);
        assert!(b.time_ns < a.time_ns);
    }

    #[test]
    fn core_scaling_is_sublinear_due_to_memory() {
        // Doubling the core clock must not halve time exactly: the memory
        // domain does not scale.
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        let a = cost_with(&base, 0.0);
        let b = cost_with(&turbo, 0.0);
        let speedup = a.time_ns / b.time_ns;
        assert!(speedup > 1.0 && speedup <= 2.0, "speedup {speedup}");
    }

    #[test]
    fn bottleneck_is_reported() {
        let c = cost_with(&ArchConfig::baseline(), 0.0);
        assert!(Stage::ALL.contains(&c.bottleneck));
    }

    #[test]
    fn tiny_draw_is_overhead_bound() {
        let mut draw = test_draw();
        draw.vertex_count = 3;
        draw.coverage = 1e-6;
        let c = cost_of(&draw, &ArchConfig::baseline(), 0.0);
        assert_eq!(c.bottleneck, Stage::Overhead);
    }

    #[test]
    fn more_eus_speed_up_shading_bound_draws() {
        let mut draw = test_draw();
        draw.coverage = 0.8; // pixel heavy
        let base = cost_of(&draw, &ArchConfig::baseline(), 0.0);
        let large = cost_of(&draw, &ArchConfig::large(), 0.0);
        assert!(large.pixel_cycles < base.pixel_cycles);
    }

    // ---- geometry ----

    #[test]
    fn geometry_scales_linearly_with_vertices() {
        let config = ArchConfig::baseline();
        let mut small = test_draw();
        small.vertex_count = 300;
        let mut big = test_draw();
        big.vertex_count = 3000;
        let a = cost_of(&small, &config, 0.0).geometry_cycles;
        let b = cost_of(&big, &config, 0.0).geometry_cycles;
        assert!((b / a - 10.0).abs() < 1e-6);
    }

    #[test]
    fn instancing_multiplies_geometry() {
        let config = ArchConfig::baseline();
        let mut inst = test_draw();
        inst.instance_count = 5;
        let a = cost_of(&test_draw(), &config, 0.0).geometry_cycles;
        let b = cost_of(&inst, &config, 0.0).geometry_cycles;
        assert!((b / a - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fetch_floor_present_for_trivial_shader() {
        // Even a zero-instruction VS pays vertex fetch.
        let mut vs = test_vs();
        vs.mix = Default::default();
        let d = test_draw();
        let c = analyze_draw(
            &d,
            &vs,
            &test_ps(),
            &test_textures(),
            &ArchConfig::baseline(),
            0.0,
        );
        assert!(c.geometry_cycles >= d.vertex_invocations() as f64 * FETCH_CYCLES_PER_VERTEX);
    }

    // ---- raster ----

    #[test]
    fn zero_prims_cost_nothing() {
        let mut d = test_draw();
        d.vertex_count = 2; // no full triangle
        d.topology = PrimitiveTopology::TriangleList;
        assert_eq!(cost_of(&d, &ArchConfig::baseline(), 0.0).raster_cycles, 0.0);
    }

    #[test]
    fn small_triangles_cost_more_per_pixel() {
        let config = ArchConfig::baseline();
        // Same covered pixels, 100× more triangles.
        let mut coarse = test_draw();
        coarse.vertex_count = 300;
        let mut fine = test_draw();
        fine.vertex_count = 30_000;
        let a = cost_of(&coarse, &config, 0.0).raster_cycles;
        let b = cost_of(&fine, &config, 0.0).raster_cycles;
        assert!(b > a, "fine {b} should exceed coarse {a}");
    }

    #[test]
    fn setup_bound_for_huge_culled_meshes() {
        let config = ArchConfig::baseline();
        let mut d = test_draw();
        d.vertex_count = 3_000_000;
        d.coverage = 1e-4; // almost nothing visible
        let prims = d.primitives() as f64 * d.cull.survival_rate();
        let cycles = cost_of(&d, &config, 0.0).raster_cycles;
        assert!((cycles - prims / config.prim_rate).abs() / cycles < 1e-9);
    }

    #[test]
    fn cull_mode_reduces_cost() {
        let config = ArchConfig::baseline();
        let mut culled = test_draw();
        culled.cull = CullMode::Back;
        culled.coverage = 1e-4;
        culled.vertex_count = 300_000;
        let mut uncull = culled.clone();
        uncull.cull = CullMode::None;
        assert!(
            cost_of(&culled, &config, 0.0).raster_cycles
                < cost_of(&uncull, &config, 0.0).raster_cycles
        );
    }

    #[test]
    fn faster_raster_rate_helps_fill_bound_draws() {
        let mut d = test_draw();
        d.coverage = 0.9;
        d.vertex_count = 900; // large triangles, fill bound
        assert!(
            cost_of(&d, &ArchConfig::large(), 0.0).raster_cycles
                < cost_of(&d, &ArchConfig::baseline(), 0.0).raster_cycles
        );
    }

    // ---- shading ----

    #[test]
    fn instruction_cycles_weighting() {
        let mix = InstructionMix {
            alu: 10,
            mad: 0,
            transcendental: 1,
            texture_samples: 2,
            interpolants: 4,
            control_flow: 1,
        };
        // 10 + 4 + 2 + 2 + 2 = 20
        assert!((instruction_cycles(&mix, 0.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_inflates_cost() {
        let mix = InstructionMix {
            alu: 10,
            ..Default::default()
        };
        assert!(instruction_cycles(&mix, 0.5) > instruction_cycles(&mix, 0.0));
        // Clamped above 1.0.
        assert_eq!(instruction_cycles(&mix, 5.0), instruction_cycles(&mix, 1.0));
    }

    #[test]
    fn occupancy_full_at_low_pressure() {
        assert!((occupancy_factor(16, 128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_degrades_with_pressure() {
        let low = occupancy_factor(16, 128);
        let high = occupancy_factor(128, 128);
        assert!(high < low);
        assert!(high > 0.5);
    }

    #[test]
    fn occupancy_handles_zero_registers() {
        // Defensive: registers clamped to 1.
        assert!(occupancy_factor(0, 128) > 0.0);
    }

    #[test]
    fn pixel_cycles_scale_with_coverage() {
        let mut small = test_draw();
        small.coverage = 0.01;
        let mut big = test_draw();
        big.coverage = 0.5;
        let config = ArchConfig::baseline();
        let a = cost_of(&small, &config, 0.0).pixel_cycles;
        let b = cost_of(&big, &config, 0.0).pixel_cycles;
        assert!((b / a - 50.0).abs() < 1.0, "ratio {}", b / a);
    }

    #[test]
    fn wider_machine_shades_faster() {
        let d = test_draw();
        assert!(
            cost_of(&d, &ArchConfig::large(), 0.0).pixel_cycles
                < cost_of(&d, &ArchConfig::baseline(), 0.0).pixel_cycles
        );
    }

    // ---- texture ----

    #[test]
    fn no_textures_is_free_hit() {
        let mut d = test_draw();
        d.textures.clear();
        let h = texture_hit_rate(&d, &test_textures(), &ArchConfig::baseline(), 0.0);
        assert_eq!(h, 1.0);
    }

    #[test]
    fn warmth_raises_hit_rate() {
        let d = test_draw();
        let reg = test_textures();
        let config = ArchConfig::baseline();
        let cold = texture_hit_rate(&d, &reg, &config, 0.0);
        let warm = texture_hit_rate(&d, &reg, &config, 1.0);
        assert!(warm > cold);
        assert!(warm <= 1.0);
    }

    #[test]
    fn bigger_cache_raises_hit_rate() {
        let d = test_draw();
        let reg = test_textures();
        let small = ArchConfig::baseline().to_builder().tex_cache_kib(8).build();
        let big = ArchConfig::baseline()
            .to_builder()
            .tex_cache_kib(4096)
            .build();
        assert!(texture_hit_rate(&d, &reg, &big, 0.0) > texture_hit_rate(&d, &reg, &small, 0.0));
    }

    #[test]
    fn locality_drives_hit_rate() {
        let reg = test_textures();
        let config = ArchConfig::baseline();
        let mut local = test_draw();
        local.texel_locality = 0.95;
        let mut random = test_draw();
        random.texel_locality = 0.1;
        assert!(
            texture_hit_rate(&local, &reg, &config, 0.0)
                > texture_hit_rate(&random, &reg, &config, 0.0)
        );
    }

    #[test]
    fn texture_stage_idle_without_samples() {
        // No samples: no filtering cycles and no miss traffic, so the
        // draw moves exactly its texture-free bytes.
        let mut ps = test_ps();
        ps.mix.texture_samples = 0;
        let mut untextured = test_draw();
        untextured.textures.clear();
        let config = ArchConfig::baseline();
        let reg = test_textures();
        let c = analyze_draw(&test_draw(), &test_vs(), &ps, &reg, &config, 0.0);
        let free = analyze_draw(&untextured, &test_vs(), &ps, &reg, &config, 0.0);
        assert_eq!(c.texture_cycles, 0.0);
        assert_eq!(c.mem_bytes.to_bits(), free.mem_bytes.to_bits());
    }

    #[test]
    fn compressed_textures_move_fewer_bytes() {
        // BC1 (0.5 B/texel) vs RGBA16F (8 B/texel) miss traffic.
        let config = ArchConfig::baseline();
        let mut reg = TextureRegistry::new();
        for (id, format) in [(0, TextureFormat::Bc1), (1, TextureFormat::Rgba16f)] {
            reg.insert(TextureDesc {
                id: TextureId(id),
                width: 1024,
                height: 1024,
                mips: 1,
                format,
            });
        }
        let mut bc = test_draw();
        bc.textures = vec![TextureId(0)];
        let mut fat = test_draw();
        fat.textures = vec![TextureId(1)];
        let a = analyze_draw(&bc, &test_vs(), &test_ps(), &reg, &config, 0.0);
        let b = analyze_draw(&fat, &test_vs(), &test_ps(), &reg, &config, 0.0);
        assert!(a.mem_bytes < b.mem_bytes);
    }

    // ---- ROP ----

    #[test]
    fn blending_doubles_color_ops() {
        let config = ArchConfig::baseline();
        let mut opaque = test_draw();
        opaque.blend = BlendMode::Opaque;
        opaque.depth = DepthMode::Disabled;
        let mut blended = opaque.clone();
        blended.blend = BlendMode::AlphaBlend;
        let a = cost_of(&opaque, &config, 0.0).rop_cycles;
        let b = cost_of(&blended, &config, 0.0).rop_cycles;
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn depth_disabled_skips_depth_ops() {
        let config = ArchConfig::baseline();
        let mut with_depth = test_draw();
        with_depth.depth = DepthMode::TestAndWrite;
        let mut without = test_draw();
        without.depth = DepthMode::Disabled;
        assert!(
            cost_of(&with_depth, &config, 0.0).rop_cycles
                > cost_of(&without, &config, 0.0).rop_cycles
        );
    }

    #[test]
    fn more_rops_reduce_cycles() {
        let d = test_draw();
        assert!(
            cost_of(&d, &ArchConfig::large(), 0.0).rop_cycles
                < cost_of(&d, &ArchConfig::baseline(), 0.0).rop_cycles
        );
    }

    #[test]
    fn zero_coverage_zero_rop_cost() {
        let mut d = test_draw();
        d.coverage = 0.0;
        assert_eq!(cost_of(&d, &ArchConfig::baseline(), 0.0).rop_cycles, 0.0);
    }

    // ---- DRAM ----

    #[test]
    fn blending_increases_color_traffic() {
        let config = ArchConfig::baseline();
        let mut blended = test_draw();
        blended.blend = BlendMode::Additive;
        assert!(
            cost_of(&blended, &config, 0.0).mem_bytes
                > cost_of(&test_draw(), &config, 0.0).mem_bytes
        );
    }

    #[test]
    fn disabled_depth_moves_fewer_bytes() {
        let config = ArchConfig::baseline();
        let mut without = test_draw();
        without.depth = DepthMode::Disabled;
        assert!(
            cost_of(&test_draw(), &config, 0.0).mem_bytes
                > cost_of(&without, &config, 0.0).mem_bytes
        );
    }

    #[test]
    fn bigger_l2_absorbs_texture_misses() {
        let d = test_draw();
        let small = ArchConfig::baseline().to_builder().l2_cache_kib(64).build();
        let big = ArchConfig::baseline()
            .to_builder()
            .l2_cache_kib(8192)
            .build();
        assert!(cost_of(&d, &big, 0.0).mem_bytes < cost_of(&d, &small, 0.0).mem_bytes);
    }

    #[test]
    fn vertex_traffic_floor() {
        // A draw with no pixels still fetches vertices.
        let mut d = test_draw();
        d.coverage = 0.0;
        let b = cost_of(&d, &ArchConfig::baseline(), 0.0).mem_bytes;
        assert!((b - d.vertex_invocations() as f64 * VERTEX_FETCH_BYTES).abs() < 1e-9);
    }
}
