//! The seeded six-title corpus every workload runs on.
//!
//! `subset3d_trace::gen::standard_corpus` fixes its seed, so the benchmark
//! rebuilds the same six-title specification through the public
//! [`GameProfile`] builders and derives the per-game seeds from the
//! benchmark's `--seed`. [`DEFAULT_SEED`] reproduces the standard corpus
//! exactly; [`HELD_OUT_SEED`] is the seed a performance claim must also
//! hold on when it was tuned against other seeds.

use subset3d_trace::gen::{GameProfile, CORPUS_SEED};
use subset3d_trace::Workload;

/// The benchmark seed whose corpus equals `standard_corpus()`.
#[cfg_attr(not(test), allow(dead_code))]
pub const DEFAULT_SEED: u64 = 0;

/// A seed reserved for confirming claims made on other seeds.
#[cfg_attr(not(test), allow(dead_code))]
pub const HELD_OUT_SEED: u64 = 2015;

#[derive(Debug, Clone, Copy)]
enum Genre {
    Shooter,
    Rts,
    Racing,
}

/// `(name, genre, frames, mean draws/frame)` of the standard corpus, in
/// corpus order: 717 frames, 832,779 draws at [`DEFAULT_SEED`].
const SPEC: [(&str, Genre, usize, usize); 6] = [
    ("shock-1", Genre::Shooter, 120, 1400),
    ("shock-2", Genre::Shooter, 130, 1300),
    ("shock-infinite", Genre::Shooter, 140, 1200),
    ("stratcraft", Genre::Rts, 110, 1000),
    ("speedrush", Genre::Racing, 107, 950),
    ("cryptdepth", Genre::Shooter, 110, 980),
];

/// Shrinks the corpus for smoke tests: frames and draws per frame are
/// divided by these factors (never below one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divisor of every game's frame count.
    pub frames_div: usize,
    /// Divisor of every game's mean draws per frame.
    pub draws_div: usize,
}

impl Scale {
    /// The paper-scale corpus.
    pub const FULL: Scale = Scale {
        frames_div: 1,
        draws_div: 1,
    };
}

/// Base seed of the corpus for a benchmark seed: the standard corpus seed
/// for [`DEFAULT_SEED`], a well-mixed distinct stream otherwise.
pub fn base_seed(seed: u64) -> u64 {
    CORPUS_SEED.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the six games for `seed` at `scale`.
pub fn generate(seed: u64, scale: Scale) -> Vec<Workload> {
    let base = base_seed(seed);
    SPEC.iter()
        .enumerate()
        .map(|(i, &(name, genre, frames, dpf))| {
            let profile = match genre {
                Genre::Shooter => GameProfile::shooter(name),
                Genre::Rts => GameProfile::rts(name),
                Genre::Racing => GameProfile::racing(name),
            };
            profile
                .frames((frames / scale.frames_div).max(1))
                .draws_per_frame((dpf / scale.draws_div).max(1))
                .build(base.wrapping_add(i as u64))
                .generate()
        })
        .collect()
}

/// Total draws of a corpus.
pub fn total_draws(corpus: &[Workload]) -> usize {
    corpus.iter().map(Workload::total_draws).sum()
}

/// Total frames of a corpus.
pub fn total_frames(corpus: &[Workload]) -> usize {
    corpus.iter().map(|w| w.frames().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_standard_corpus() {
        let ours = generate(DEFAULT_SEED, Scale::FULL);
        assert_eq!(total_frames(&ours), 717);
        assert_eq!(total_draws(&ours), 832_779);
        assert!(ours == subset3d_trace::gen::standard_corpus());
    }

    #[test]
    fn other_seeds_keep_the_shape_but_change_the_draws() {
        let held_out = generate(HELD_OUT_SEED, Scale::FULL);
        assert_eq!(total_frames(&held_out), 717);
        assert_ne!(total_draws(&held_out), 832_779);
        assert!(generate(HELD_OUT_SEED, Scale::FULL) == held_out);
    }
}
