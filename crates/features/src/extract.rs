//! Feature extraction from draw-calls.
//!
//! Per-frame extraction streams the frame's [`DrawColumns`] kind by
//! kind: each feature fills its output column in one tight loop over a
//! couple of parallel arrays, instead of chasing seventeen struct
//! fields per draw. Shader instruction mixes are resolved once per
//! draw through a dense id-indexed table rather than two `BTreeMap`
//! lookups per draw per feature. The per-draw [`extract_draw_features`]
//! entry point remains for cold paths; both produce bit-identical
//! values (the columnar loops mirror the per-draw expressions).

use crate::kind::FeatureKind;
use crate::matrix::FeatureMatrix;
use crate::vector::FeatureVector;
use subset3d_trace::{
    DepthMode, DrawCall, DrawColumns, Frame, InstructionMix, ShaderId, TextureId, Workload,
};

/// log₂(1 + x): the transform applied to size-like features.
fn log2p1(x: f64) -> f64 {
    (1.0 + x.max(0.0)).log2()
}

fn mix_total(mix: &InstructionMix) -> f64 {
    f64::from(mix.total())
}

/// Dense shader-id → instruction-mix table, built once per frame so the
/// hot extraction loops never touch the library's `BTreeMap`. Dangling
/// ids resolve to the zero mix, exactly like the per-draw path.
struct MixTable {
    mixes: Vec<InstructionMix>,
}

impl MixTable {
    fn new(workload: &Workload) -> Self {
        let len = workload
            .shaders()
            .iter()
            .last()
            .map(|p| p.id.raw() as usize + 1)
            .unwrap_or(0);
        let mut mixes = vec![InstructionMix::default(); len];
        for p in workload.shaders().iter() {
            mixes[p.id.raw() as usize] = p.mix;
        }
        MixTable { mixes }
    }

    fn get(&self, id: ShaderId) -> InstructionMix {
        self.mixes
            .get(id.raw() as usize)
            .copied()
            .unwrap_or_default()
    }
}

/// Dense texture-id → footprint table, built once per frame so the
/// footprint loop never touches the registry's `BTreeMap`. Unknown ids
/// hold `None` and are skipped, exactly like
/// [`subset3d_trace::TextureRegistry::combined_footprint`].
struct FootprintTable {
    bytes: Vec<Option<f64>>,
}

impl FootprintTable {
    fn new(workload: &Workload) -> Self {
        let textures = workload.textures();
        let len = textures
            .iter()
            .last()
            .map(|t| t.id.raw() as usize + 1)
            .unwrap_or(0);
        let mut bytes = vec![None; len];
        for t in textures.iter() {
            bytes[t.id.raw() as usize] = Some(t.footprint_bytes());
        }
        FootprintTable { bytes }
    }

    /// Combined footprint of `ids`, summed in binding order with the same
    /// `filter_map(..).sum()` as the registry, so the bits match.
    fn combined(&self, ids: &[TextureId]) -> f64 {
        ids.iter()
            .filter_map(|id| self.bytes.get(id.raw() as usize).copied().flatten())
            .sum()
    }
}

/// Extracts one feature value for a draw.
fn feature_value(kind: FeatureKind, draw: &DrawCall, workload: &Workload) -> f64 {
    let shaders = workload.shaders();
    let vs_mix = shaders
        .get(draw.vertex_shader)
        .map(|p| p.mix)
        .unwrap_or_default();
    let ps_mix = shaders
        .get(draw.pixel_shader)
        .map(|p| p.mix)
        .unwrap_or_default();
    match kind {
        FeatureKind::VertexCount => log2p1(draw.vertex_invocations() as f64),
        FeatureKind::PrimitiveCount => log2p1(draw.primitives() as f64),
        FeatureKind::InstanceCount => log2p1(f64::from(draw.instance_count)),
        FeatureKind::AvgPrimitiveArea => log2p1(draw.avg_primitive_area()),
        FeatureKind::VsInstructions => log2p1(mix_total(&vs_mix)),
        FeatureKind::PsInstructions => log2p1(mix_total(&ps_mix)),
        FeatureKind::PsTranscendental => f64::from(ps_mix.transcendental),
        FeatureKind::PsControlFlowRatio => ps_mix.control_flow_ratio(),
        FeatureKind::PsTextureSamples => f64::from(ps_mix.texture_samples),
        FeatureKind::TextureCount => draw.textures.len() as f64,
        FeatureKind::TextureFootprint => {
            log2p1(workload.textures().combined_footprint(&draw.textures))
        }
        FeatureKind::TexelLocality => draw.texel_locality,
        FeatureKind::Coverage => (draw.coverage.max(1e-6)).log2(),
        FeatureKind::Overdraw => draw.overdraw,
        FeatureKind::ZPassRate => draw.z_pass_rate,
        FeatureKind::ShadedPixels => log2p1(draw.shaded_pixels()),
        FeatureKind::BlendCost => {
            if draw.blend.reads_destination() {
                1.0
            } else {
                0.0
            }
        }
        FeatureKind::DepthCost => match draw.depth {
            DepthMode::Disabled => 0.0,
            DepthMode::TestOnly => 0.5,
            DepthMode::TestAndWrite => 1.0,
        },
        FeatureKind::RenderTargetPixels => log2p1(draw.render_target.pixels() as f64),
    }
}

/// Fills one feature's values for every draw, streaming only the columns
/// that feature reads. Each arm mirrors the matching [`feature_value`]
/// expression, so the two paths produce identical bits.
fn fill_feature_column(
    kind: FeatureKind,
    cols: &DrawColumns,
    workload: &Workload,
    vs_mixes: &[InstructionMix],
    ps_mixes: &[InstructionMix],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), cols.len());
    match kind {
        FeatureKind::VertexCount => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = log2p1(cols.vertex_invocations_at(i) as f64);
            }
        }
        FeatureKind::PrimitiveCount => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = log2p1(cols.primitives_at(i) as f64);
            }
        }
        FeatureKind::InstanceCount => {
            for (o, &ic) in out.iter_mut().zip(cols.instance_counts()) {
                *o = log2p1(f64::from(ic));
            }
        }
        FeatureKind::AvgPrimitiveArea => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = log2p1(cols.avg_primitive_area_at(i));
            }
        }
        FeatureKind::VsInstructions => {
            for (o, mix) in out.iter_mut().zip(vs_mixes) {
                *o = log2p1(mix_total(mix));
            }
        }
        FeatureKind::PsInstructions => {
            for (o, mix) in out.iter_mut().zip(ps_mixes) {
                *o = log2p1(mix_total(mix));
            }
        }
        FeatureKind::PsTranscendental => {
            for (o, mix) in out.iter_mut().zip(ps_mixes) {
                *o = f64::from(mix.transcendental);
            }
        }
        FeatureKind::PsControlFlowRatio => {
            for (o, mix) in out.iter_mut().zip(ps_mixes) {
                *o = mix.control_flow_ratio();
            }
        }
        FeatureKind::PsTextureSamples => {
            for (o, mix) in out.iter_mut().zip(ps_mixes) {
                *o = f64::from(mix.texture_samples);
            }
        }
        FeatureKind::TextureCount => {
            for (o, &len) in out.iter_mut().zip(cols.texture_counts()) {
                *o = len as usize as f64;
            }
        }
        FeatureKind::TextureFootprint => {
            let table = FootprintTable::new(workload);
            for (i, o) in out.iter_mut().enumerate() {
                *o = log2p1(table.combined(cols.textures_of(i)));
            }
        }
        FeatureKind::TexelLocality => out.copy_from_slice(cols.texel_localities()),
        FeatureKind::Coverage => {
            for (o, &c) in out.iter_mut().zip(cols.coverages()) {
                *o = (c.max(1e-6)).log2();
            }
        }
        FeatureKind::Overdraw => out.copy_from_slice(cols.overdraws()),
        FeatureKind::ZPassRate => out.copy_from_slice(cols.z_pass_rates()),
        FeatureKind::ShadedPixels => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = log2p1(cols.shaded_pixels_at(i));
            }
        }
        FeatureKind::BlendCost => {
            for (o, &b) in out.iter_mut().zip(cols.blends()) {
                *o = if b.reads_destination() { 1.0 } else { 0.0 };
            }
        }
        FeatureKind::DepthCost => {
            for (o, &d) in out.iter_mut().zip(cols.depths()) {
                *o = match d {
                    DepthMode::Disabled => 0.0,
                    DepthMode::TestOnly => 0.5,
                    DepthMode::TestAndWrite => 1.0,
                };
            }
        }
        FeatureKind::RenderTargetPixels => {
            for (o, rt) in out.iter_mut().zip(cols.render_targets()) {
                *o = log2p1(rt.pixels() as f64);
            }
        }
    }
}

/// Extracts the feature vector of one draw.
///
/// Shader references that dangle extract as zero-instruction mixes; trace
/// validation reports them separately, so extraction never fails.
///
/// # Examples
///
/// ```
/// use subset3d_features::{extract_draw_features, FeatureKind};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(1).draws_per_frame(10).build(1).generate();
/// let draw = w.frames()[0].draw(0).unwrap();
/// let v = extract_draw_features(&draw, &w, &FeatureKind::standard_set());
/// assert_eq!(v.dim(), FeatureKind::ALL.len());
/// ```
pub fn extract_draw_features(
    draw: &DrawCall,
    workload: &Workload,
    kinds: &[FeatureKind],
) -> FeatureVector {
    FeatureVector::new(
        kinds
            .iter()
            .map(|&k| feature_value(k, draw, workload))
            .collect(),
    )
}

/// Extracts the feature matrix of every draw in a frame (one row per draw,
/// in submission order).
///
/// The hot path is columnar: every feature streams the frame's
/// [`DrawColumns`] in its own tight loop, and the column-major buffer is
/// transposed into matrix rows at the end.
pub fn extract_frame_features(
    frame: &Frame,
    workload: &Workload,
    kinds: Vec<FeatureKind>,
) -> FeatureMatrix {
    let cols = frame.columns();
    let n = cols.len();
    let mut matrix = FeatureMatrix::with_capacity(kinds, n);
    let kinds = matrix.kinds().to_vec();
    if n == 0 || kinds.is_empty() {
        for _ in 0..n {
            matrix.push_row(&vec![0.0; kinds.len()]);
        }
        return matrix;
    }
    let table = MixTable::new(workload);
    let vs_mixes: Vec<InstructionMix> = cols
        .vertex_shaders()
        .iter()
        .map(|&s| table.get(s))
        .collect();
    let ps_mixes: Vec<InstructionMix> =
        cols.pixel_shaders().iter().map(|&s| table.get(s)).collect();
    let mut values = vec![0.0f64; kinds.len() * n];
    for (k, chunk) in kinds.iter().zip(values.chunks_exact_mut(n)) {
        fill_feature_column(*k, cols, workload, &vs_mixes, &ps_mixes, chunk);
    }
    let mut row = vec![0.0f64; kinds.len()];
    for i in 0..n {
        for (k, r) in row.iter_mut().enumerate() {
            *r = values[k * n + i];
        }
        matrix.push_row(&row);
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(2)
            .draws_per_frame(40)
            .build(6)
            .generate()
    }

    #[test]
    fn values_are_finite() {
        let w = workload();
        for frame in w.frames() {
            for draw in frame.to_draws() {
                let v = extract_draw_features(&draw, &w, &FeatureKind::standard_set());
                assert!(v.as_slice().iter().all(|x| x.is_finite()), "{draw:?}");
            }
        }
    }

    #[test]
    fn same_material_same_shader_features() {
        // Draws sharing a material share shaders, so shader-derived
        // features must match exactly.
        let w = workload();
        let frame = &w.frames()[1];
        let kinds = vec![FeatureKind::PsInstructions, FeatureKind::VsInstructions];
        let mut by_material: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for draw in frame.to_draws() {
            let v = extract_draw_features(&draw, &w, &kinds);
            let entry = by_material
                .entry(draw.material_tag)
                .or_insert_with(|| v.as_slice().to_vec());
            assert_eq!(entry.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn matrix_matches_per_draw_extraction() {
        // The columnar frame path and the per-draw path must agree bit
        // for bit, feature by feature.
        let w = workload();
        let frame = &w.frames()[0];
        let kinds = FeatureKind::standard_set();
        let m = extract_frame_features(frame, &w, kinds.clone());
        assert_eq!(m.rows(), frame.draw_count());
        for (i, draw) in frame.to_draws().iter().enumerate() {
            let v = extract_draw_features(draw, &w, &kinds);
            assert_eq!(m.row(i), v.as_slice());
        }
    }

    #[test]
    fn dangling_shader_extracts_zero_mix() {
        let w = workload();
        let mut draw = w.frames()[0].draw(0).unwrap();
        draw.pixel_shader = subset3d_trace::ShaderId(60_000);
        let v = extract_draw_features(&draw, &w, &[FeatureKind::PsInstructions]);
        assert_eq!(v.as_slice()[0], 0.0);
    }

    #[test]
    fn dangling_shader_matches_in_frame_matrix() {
        // A frame containing a dangling shader reference must extract the
        // same zero-mix features through the columnar path.
        let w = workload();
        let mut draws = w.frames()[0].to_draws();
        draws[3].vertex_shader = subset3d_trace::ShaderId(60_000);
        let frame = Frame::new(w.frames()[0].id, draws.clone());
        let kinds = FeatureKind::standard_set();
        let m = extract_frame_features(&frame, &w, kinds.clone());
        for (i, draw) in draws.iter().enumerate() {
            let v = extract_draw_features(draw, &w, &kinds);
            assert_eq!(m.row(i), v.as_slice());
        }
    }

    #[test]
    fn dangling_texture_matches_in_frame_matrix() {
        // Unknown texture ids — past the registry's end and inside a gap
        // punched into it — are skipped by the columnar footprint table
        // exactly as by the registry lookup, in binding order.
        let w = workload();
        let mut textures = subset3d_trace::TextureRegistry::new();
        for t in w.textures().iter().filter(|t| t.id.raw() != 1) {
            textures.insert(*t);
        }
        let w = Workload::new(
            w.name.clone(),
            w.frames().to_vec(),
            w.shaders().clone(),
            textures,
            w.states().clone(),
        );
        let mut draws = w.frames()[0].to_draws();
        draws[2].textures = vec![TextureId(60_000)];
        draws[3].textures.push(TextureId(60_000));
        draws[4].textures.insert(0, TextureId(1));
        let frame = Frame::new(w.frames()[0].id, draws.clone());
        let kinds = FeatureKind::standard_set();
        let m = extract_frame_features(&frame, &w, kinds.clone());
        for (i, draw) in draws.iter().enumerate() {
            let v = extract_draw_features(draw, &w, &kinds);
            let (got, want): (Vec<u64>, Vec<u64>) = m
                .row(i)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| (a.to_bits(), b.to_bits()))
                .unzip();
            assert_eq!(got, want, "draw {i}");
        }
        let at = |i: usize| {
            let v = extract_draw_features(&draws[i], &w, &[FeatureKind::TextureFootprint]);
            v.as_slice()[0]
        };
        assert_eq!(at(2), 0.0, "an unknown id contributes nothing");
    }

    #[test]
    fn coverage_feature_is_log_domain() {
        let w = workload();
        let mut draw = w.frames()[0].draw(0).unwrap();
        draw.coverage = 0.25;
        let v = extract_draw_features(&draw, &w, &[FeatureKind::Coverage]);
        assert!((v.as_slice()[0] - (-2.0)).abs() < 1e-12);
    }
}
