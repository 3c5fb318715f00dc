//! What every workload shares: settings, repeated set-up, the timed loop
//! and the set-up metrics.

use crate::corpus::{self, Scale};
use crate::report::Outcome;
use crate::stats::{median, relative_spread};
use serde_json::Value;
use std::time::{Duration, Instant};
use subset3d_trace::Workload;

/// Threads of the `exec` pool in every workload. The shared box has two
/// cores; at two threads the warm sweep swung by a factor of two between
/// identical runs, so the benchmark records scaling only as a thread
/// count.
pub const EXEC_THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Corpus seed (see [`corpus::base_seed`]).
    pub seed: u64,
    /// Measured time; the loop always completes at least one iteration.
    pub seconds: f64,
    /// Whether spans are recorded (per-layer run) or not (end-to-end run).
    pub trace: bool,
    /// Corpus size.
    pub scale: Scale,
    /// Set-ups to time.
    pub setups: usize,
}

/// Generates the corpus, returning it with the generation time in ms.
pub fn generate(settings: &Settings) -> (Vec<Workload>, f64) {
    let start = Instant::now();
    let corpus = corpus::generate(settings.seed, settings.scale);
    (corpus, ms(start.elapsed()))
}

/// Runs `setup` `settings.setups` times, dropping each state before the
/// next is built, and returns the last state with the wall time of each.
pub fn repeat_setup<S>(
    settings: &Settings,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut last = None;
    let mut seconds = Vec::with_capacity(settings.setups);
    for _ in 0..settings.setups.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), seconds))
}

/// Calls `iteration(i)` until `settings.seconds` have passed: at least
/// once, and at least twice in a traced run so it holds one untraced and
/// one traced iteration (see [`traced_iteration`]).
pub fn timed_loop(
    settings: &Settings,
    mut iteration: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let min = if settings.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed().as_secs_f64() < settings.seconds {
        iteration(done)?;
        done += 1;
    }
    Ok(done)
}

/// Records the set-up metrics, the thread count and the corpus size.
pub fn note_setup(
    out: &mut Outcome,
    setup_seconds: &[f64],
    gen_ms: &[f64],
    corpus: &[Workload],
    settings: &Settings,
) {
    out.set("setup_s", median(setup_seconds).unwrap_or(0.0));
    out.set("trace.gen_ms", median(gen_ms).unwrap_or(0.0));
    out.note("threads", Value::UInt(subset3d_exec::thread_count() as u64));
    out.note("seed", Value::UInt(settings.seed));
    out.note(
        "corpus",
        Value::Object(vec![
            (
                "frames".into(),
                Value::UInt(corpus::total_frames(corpus) as u64),
            ),
            (
                "draws".into(),
                Value::UInt(corpus::total_draws(corpus) as u64),
            ),
        ]),
    );
    note_samples(out, "setup_s", setup_seconds);
}

/// Records a sample count and quartile spread under `key`.
pub fn note_samples(out: &mut Outcome, key: &str, values: &[f64]) {
    let mut fields = vec![("samples".to_string(), Value::UInt(values.len() as u64))];
    if let Some(spread) = relative_spread(values) {
        fields.push(("spread".into(), Value::Float(spread)));
    }
    out.note(key, Value::Object(fields));
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `(traced - untraced) / untraced` in percent, from per-iteration medians.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    }
}

/// Whether iteration `i` of a traced run is a traced one: traced runs
/// alternate untraced and traced iterations, starting untraced, so the
/// tracing overhead is measured on the same workload.
pub fn traced_iteration(settings: &Settings, i: usize) -> bool {
    settings.trace && i % 2 == 1
}

/// Bitwise float equality for output checks.
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Batch-cache hits and misses of one pass or round, with the hit rate
/// and its base (`0` when the cache was never consulted).
pub fn note_batch_cache(out: &mut Outcome, hits: u64, misses: u64) {
    let base = hits + misses;
    out.set("gpusim.batch_hits", hits as f64);
    out.set("gpusim.batch_misses", misses as f64);
    out.set(
        "gpusim.batch_hit_rate",
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        },
    );
    out.note("batch_lookups", Value::UInt(base));
}
