//! Pipeline stages and per-draw service-time derivation.

use crate::analytic::DrawWork;
use crate::config::ArchConfig;
use subset3d_trace::{DrawCall, ShaderProgram, TextureRegistry};

/// Stages of the in-order draw pipeline, in flow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeStage {
    /// Command-processor setup.
    Setup,
    /// Vertex fetch + shading.
    Geometry,
    /// Triangle setup + rasterisation.
    Raster,
    /// Pixel shading and texture sampling (the EU/sampler complex).
    Shade,
    /// Render output.
    Rop,
    /// DRAM transfer.
    Memory,
}

impl PipeStage {
    /// All stages in pipeline order.
    pub const ORDER: [PipeStage; 6] = [
        PipeStage::Setup,
        PipeStage::Geometry,
        PipeStage::Raster,
        PipeStage::Shade,
        PipeStage::Rop,
        PipeStage::Memory,
    ];

    /// Number of stages.
    pub const COUNT: usize = 6;

    /// Position of the stage in [`PipeStage::ORDER`].
    pub fn index(self) -> usize {
        PipeStage::ORDER
            .iter()
            .position(|&s| s == self)
            .expect("stage in ORDER")
    }
}

/// Per-draw service times in nanoseconds, one entry per [`PipeStage::ORDER`].
pub type ServiceTimes = [f64; PipeStage::COUNT];

/// Derives the service time of every stage for one draw from the same
/// per-stage terms as the analytical model (so the two models differ only
/// in *composition*: pipelined overlap vs per-draw bottleneck max).
pub fn service_times(
    draw: &DrawCall,
    vs: &ShaderProgram,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> ServiceTimes {
    let period = config.core_period_ns();
    let s = DrawWork::of(draw, vs, ps, textures, warmth).stages(config);
    [
        config.draw_setup_cycles * period,
        s.geometry * period,
        s.raster * period,
        s.pixel.max(s.texture) * period,
        s.rop * period,
        s.mem_bytes / config.mem_bandwidth_bytes_per_ns(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps, test_textures, test_vs};

    #[test]
    fn order_and_index_agree() {
        for (i, s) in PipeStage::ORDER.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn service_times_all_finite_nonnegative() {
        let times = service_times(
            &test_draw(),
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &ArchConfig::baseline(),
            0.0,
        );
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
        assert!(times[PipeStage::Setup.index()] > 0.0);
    }

    #[test]
    fn faster_clock_shrinks_core_stages_only() {
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        let d = test_draw();
        let a = service_times(&d, &test_vs(), &test_ps(), &test_textures(), &base, 0.0);
        let b = service_times(&d, &test_vs(), &test_ps(), &test_textures(), &turbo, 0.0);
        for s in [PipeStage::Setup, PipeStage::Geometry, PipeStage::Shade] {
            assert!(b[s.index()] < a[s.index()]);
        }
        assert!((a[PipeStage::Memory.index()] - b[PipeStage::Memory.index()]).abs() < 1e-12);
    }
}
