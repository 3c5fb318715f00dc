//! `pathfind_sweep`: a `SweepSession` over the six pathfinding candidates
//! makes one cold pass and then warm passes over the corpus; afterwards
//! every game's subset is validated under frequency scaling.
//!
//! Simulation does almost all of the work and clustering none (the
//! subsets are built in set-up). The cold pass fills the batch cache and
//! the warm passes hit it, so a change that trades one side for the other
//! shows here.

use crate::harness::{self, ms, same_bits, Settings};
use crate::report::{Ops, Outcome};
use crate::spans::{layer_ms_per_root, Recorder, Span};
use crate::stats::median;
use serde_json::Value;
use std::time::Instant;
use subset3d_core::{frequency_scaling_validation, SubsetConfig, Subsetter, WorkloadSubset};
use subset3d_gpusim::{ArchConfig, ConfigPoint, FrequencySweep, Simulator, SweepSession};
use subset3d_trace::Workload;

/// Warm passes after each cold pass: three of every four passes hit.
pub const WARM_PASSES: usize = 3;

struct State {
    corpus: Vec<Workload>,
    subsets: Vec<WorkloadSubset>,
    /// Mean per-frame clustering efficiency of the subsets, in percent.
    efficiency_pct: f64,
}

fn setup(settings: &Settings, gen_ms: &mut Vec<f64>) -> Result<State, String> {
    let (corpus, gen) = harness::generate(settings);
    gen_ms.push(gen);
    let subsetter = Subsetter::new(SubsetConfig::default());
    let mut subsets = Vec::with_capacity(corpus.len());
    let (mut efficiency, mut frames) = (0.0, 0usize);
    for w in &corpus {
        let outcome = subsetter
            .run(w, &Simulator::new(ArchConfig::baseline()))
            .map_err(|e| format!("{}: {e}", w.name))?;
        efficiency += outcome.evaluation.efficiencies.iter().sum::<f64>();
        frames += outcome.evaluation.efficiencies.len();
        subsets.push(outcome.subset);
    }
    Ok(State {
        corpus,
        subsets,
        efficiency_pct: 100.0 * efficiency / frames.max(1) as f64,
    })
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    cold_ms: f64,
    warm_ms: Vec<f64>,
    batch_hits: u64,
    batch_misses: u64,
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut gen_ms = Vec::new();
    let (state, setup_s) = harness::repeat_setup(settings, || setup(settings, &mut gen_ms))?;
    let mut out = Outcome::default();
    harness::note_setup(&mut out, &setup_s, &gen_ms, &state.corpus, settings);
    let candidates = ArchConfig::pathfinding_candidates();
    out.note("candidates", Value::UInt(candidates.len() as u64));
    out.note("warm_passes", Value::UInt(WARM_PASSES as u64));

    let rec = Recorder::new(settings.trace);
    let mut ops = Ops::default();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    harness::timed_loop(settings, |i| {
        let traced = harness::traced_iteration(settings, i);
        let root = traced.then(|| rec.open("round", None, || format!("round{i}")));
        let parent = root.as_ref().and_then(|r| r.id());
        let round = sweep_round(&rec, parent, &state.corpus, &candidates, &mut ops)?;
        match root {
            Some(root) => {
                rec.close(root);
                traced_rounds.push(round);
            }
            None => untraced.push(round),
        }
        Ok(())
    })?;

    let validation = rec.open("validation", None, || "validation".into());
    let validation_start = Instant::now();
    let mut r_min = f64::INFINITY;
    for (g, (w, subset)) in state.corpus.iter().zip(&state.subsets).enumerate() {
        let result = rec.time(
            "gpusim.freq_validation",
            validation.id(),
            || format!("g{g}"),
            || {
                frequency_scaling_validation(
                    w,
                    subset,
                    &ArchConfig::baseline(),
                    &FrequencySweep::standard(),
                )
            },
        );
        ops.record(match result {
            Ok(v) if v.correlation.is_finite() => {
                r_min = r_min.min(v.correlation);
                Ok(())
            }
            Ok(v) => Err(format!("{}: scaling correlation {}", w.name, v.correlation)),
            Err(e) => Err(format!("{}: {e}", w.name)),
        });
    }
    let validation_ms = ms(validation_start.elapsed());
    rec.close(validation);
    out.ops = ops;

    let draws: usize = state.corpus.iter().map(Workload::total_draws).sum();
    let evaluations = (draws * candidates.len()) as f64;
    let per_s: Vec<f64> = untraced
        .iter()
        .map(|r| {
            let round_ms = r.cold_ms + r.warm_ms.iter().sum::<f64>();
            evaluations * (1 + r.warm_ms.len()) as f64 / (round_ms / 1e3)
        })
        .collect();
    harness::note_samples(&mut out, "rounds", &per_s);
    let cold_ms: Vec<f64> = untraced.iter().map(|r| r.cold_ms).collect();
    harness::note_samples(&mut out, "cold_pass_ms", &cold_ms);
    out.set("draws_per_s", median(&per_s).unwrap_or(0.0));
    out.set("op_p50_ms", median(&cold_ms).unwrap_or(0.0));
    out.set("efficiency_pct", state.efficiency_pct);
    out.set("core.freq_r_min", r_min);

    if settings.trace {
        let spans = rec.take();
        note_layers(&mut out, &spans, &untraced, &traced_rounds, evaluations);
        out.set("gpusim.freq_validation_ms", validation_ms);
        out.spans = spans;
    }
    Ok(out)
}

/// One cold pass then [`WARM_PASSES`] warm passes on a fresh session;
/// every warm result must equal the cold one bit for bit.
fn sweep_round(
    rec: &Recorder,
    parent: Option<u64>,
    corpus: &[Workload],
    candidates: &[ArchConfig],
    ops: &mut Ops,
) -> Result<Round, String> {
    let session = SweepSession::new(candidates).map_err(|e| e.to_string())?;
    let mut round = Round::default();
    let mut cold = Vec::with_capacity(corpus.len());
    for pass in 0..=WARM_PASSES {
        let name = if pass == 0 {
            "gpusim.sweep_cold"
        } else {
            "gpusim.sweep_warm"
        };
        let start = Instant::now();
        for (g, w) in corpus.iter().enumerate() {
            let result = rec.time(
                name,
                parent,
                || format!("g{g}/pass{pass}"),
                || session.sweep(w),
            );
            ops.record(match result {
                Err(e) => Err(format!("{}: {e}", w.name)),
                Ok(points) if pass == 0 => {
                    cold.push(points);
                    Ok(())
                }
                Ok(points) => check_warm(&points, &cold[g]).map_err(|e| format!("{}: {e}", w.name)),
            });
        }
        let pass_ms = ms(start.elapsed());
        if pass == 0 {
            if cold.len() != corpus.len() {
                return Err("cold pass failed; warm passes have no reference".into());
            }
            round.cold_ms = pass_ms;
        } else {
            round.warm_ms.push(pass_ms);
        }
    }
    let stats = session.cache_stats();
    round.batch_hits = stats.batch_hits;
    round.batch_misses = stats.batch_misses;
    Ok(round)
}

/// A warm pass must reproduce the cold pass's totals bit for bit.
pub fn check_warm(warm: &[ConfigPoint], cold: &[ConfigPoint]) -> Result<(), String> {
    if warm.len() != cold.len() {
        return Err(format!(
            "{} warm points against {} cold",
            warm.len(),
            cold.len()
        ));
    }
    for (w, c) in warm.iter().zip(cold) {
        if w.name != c.name || !same_bits(w.total_ns, c.total_ns) {
            return Err(format!(
                "warm {} = {} ns, cold {} = {} ns",
                w.name, w.total_ns, c.name, c.total_ns
            ));
        }
    }
    Ok(())
}

fn note_layers(
    out: &mut Outcome,
    spans: &[Span],
    untraced: &[Round],
    traced: &[Round],
    evaluations: f64,
) {
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let cold = layer_ms_per_root(spans, "round", "gpusim.sweep_cold");
    let warm: Vec<f64> = layer_ms_per_root(spans, "round", "gpusim.sweep_warm")
        .iter()
        .map(|ms| ms / WARM_PASSES as f64)
        .collect();
    out.set("gpusim.sweep_cold_ms", med(&cold));
    out.set("gpusim.sweep_warm_ms", med(&warm));
    out.set("gpusim.draws", evaluations);
    let (hits, misses) = traced
        .first()
        .map_or((0, 0), |r| (r.batch_hits, r.batch_misses));
    harness::note_batch_cache(out, hits, misses);
    let cold_per_s: Vec<f64> = untraced
        .iter()
        .map(|r| evaluations / (r.cold_ms / 1e3))
        .collect();
    let warm_per_s: Vec<f64> = untraced
        .iter()
        .flat_map(|r| &r.warm_ms)
        .map(|ms| evaluations / (ms / 1e3))
        .collect();
    out.set("sweep.cold_draws_per_s", med(&cold_per_s));
    out.set("sweep.warm_draws_per_s", med(&warm_per_s));
    let round_ms = |r: &Round| r.cold_ms + r.warm_ms.iter().sum::<f64>();
    let t: Vec<f64> = traced.iter().map(round_ms).collect();
    let u: Vec<f64> = untraced.iter().map(round_ms).collect();
    out.set("bench.trace_overhead_pct", harness::overhead_pct(&t, &u));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Scale;

    fn tiny(trace: bool) -> Settings {
        Settings {
            seed: 11,
            seconds: 0.0,
            trace,
            scale: Scale {
                frames_div: 10,
                draws_div: 20,
            },
            setups: 1,
        }
    }

    #[test]
    fn untraced_smoke_run_passes_every_check() {
        let out = crate::run_workload("pathfind_sweep", &tiny(false)).unwrap();
        // Six games x (one cold + three warm passes) + six validations.
        assert_eq!(out.ops.attempted, 6 * 4 + 6);
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        for m in crate::report::END_TO_END {
            assert!(
                out.values.get(m.name).is_some_and(|&v| v > 0.0),
                "{}",
                m.name
            );
        }
        assert_eq!(crate::report::uncatalogued(&out.values), Vec::<&str>::new());
    }

    #[test]
    fn traced_run_reports_the_cache_split() {
        let out = crate::run_workload("pathfind_sweep", &tiny(true)).unwrap();
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        assert_eq!(out.values["gpusim.batch_hit_rate"], 0.75);
        for name in [
            "gpusim.sweep_cold_ms",
            "gpusim.sweep_warm_ms",
            "core.freq_r_min",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn corrupted_cold_reference_is_a_failed_operation() {
        let state = setup(&tiny(false), &mut Vec::new()).unwrap();
        let session = SweepSession::new(&ArchConfig::pathfinding_candidates()).unwrap();
        let cold = session.sweep(&state.corpus[0]).unwrap();
        let warm = session.sweep(&state.corpus[0]).unwrap();
        check_warm(&warm, &cold).unwrap();
        let mut corrupted = cold.clone();
        corrupted[2].total_ns = f64::from_bits(corrupted[2].total_ns.to_bits() ^ 1);
        let mut ops = Ops::default();
        ops.record(check_warm(&warm, &corrupted));
        assert_eq!((ops.attempted, ops.failed), (1, 1));
    }
}
