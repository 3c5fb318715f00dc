//! `subset_corpus`: `Subsetter::run` with the default configuration over
//! the six-game corpus, a fresh `Simulator` per game.
//!
//! This is the paper's end-to-end job. Clustering does most of its work
//! and simulation most of the rest; the draw cache is only ever cold.

use crate::harness::{self, ms, same_bits, Settings};
use crate::report::{Ops, Outcome};
use crate::spans::{layer_ms_per_root, Recorder, Span};
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use subset3d_core::{
    cluster_frame, outlier_fraction, predict_frame, FrameClustering, OutcomeSummary, PhaseDetector,
    PhasePattern, SubsetConfig, Subsetter, SubsettingOutcome, WorkloadEvaluation, WorkloadSubset,
};
use subset3d_features::extract_frame_features;
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_trace::Workload;

struct State {
    corpus: Vec<Workload>,
    /// Per game: the summary every later run of that game must reproduce.
    reference: Vec<OutcomeSummary>,
    /// Per game: the full outcome the quality metrics are read from.
    outcomes: Vec<SubsettingOutcome>,
}

fn setup(
    settings: &Settings,
    config: &SubsetConfig,
    gen_ms: &mut Vec<f64>,
) -> Result<State, String> {
    let (corpus, gen) = harness::generate(settings);
    gen_ms.push(gen);
    let outcomes = corpus
        .iter()
        .map(|w| subset_game(config, w, &Simulator::new(ArchConfig::baseline())))
        .collect::<Result<Vec<_>, _>>()?;
    let reference = corpus
        .iter()
        .zip(&outcomes)
        .map(|(w, o)| o.summary(w))
        .collect();
    Ok(State {
        corpus,
        reference,
        outcomes,
    })
}

fn subset_game(
    config: &SubsetConfig,
    w: &Workload,
    sim: &Simulator,
) -> Result<SubsettingOutcome, String> {
    Subsetter::new(config.clone())
        .run(w, sim)
        .map_err(|e| format!("{}: {e}", w.name))
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let config = SubsetConfig::default();
    let mut gen_ms = Vec::new();
    let (state, setup_s) =
        harness::repeat_setup(settings, || setup(settings, &config, &mut gen_ms))?;
    let mut out = Outcome::default();
    harness::note_setup(&mut out, &setup_s, &gen_ms, &state.corpus, settings);
    note_quality(&mut out, &state);

    let rec = Recorder::new(settings.trace);
    let off = Recorder::new(false);
    let draws: usize = state.corpus.iter().map(Workload::total_draws).sum();
    let mut untraced_pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut ops = Ops::default();
    let mut batch = (0, 0);
    let passes = harness::timed_loop(settings, |i| {
        let traced = harness::traced_iteration(settings, i);
        let pass = traced.then(|| rec.open("pass", None, || format!("pass{i}")));
        let start = Instant::now();
        batch = (0, 0);
        for (g, w) in state.corpus.iter().enumerate() {
            let sim = Simulator::new(ArchConfig::baseline());
            // A traced run times the decomposition in every pass, with and
            // without spans, so its overhead is that of the spans alone.
            let outcome = if settings.trace {
                let pass_id = pass.as_ref().and_then(|p| p.id());
                let r = if traced { &rec } else { &off };
                decomposed_game(r, pass_id, g, w, &config, &sim)
            } else {
                subset_game(&config, w, &sim)
            };
            ops.record(outcome.and_then(|o| check_game(w, &o, &state.reference[g])));
            let stats = sim.cache_stats();
            batch = (batch.0 + stats.batch_hits, batch.1 + stats.batch_misses);
        }
        let wall = ms(start.elapsed());
        match pass {
            Some(pass) => {
                rec.close(pass);
                traced_pass_ms.push(wall);
            }
            None => untraced_pass_ms.push(wall),
        }
        Ok(())
    })?;
    out.ops = ops;
    out.note("passes", serde_json::Value::UInt(passes as u64));
    harness::note_samples(&mut out, "pass_ms", &untraced_pass_ms);

    if !settings.trace {
        let per_s: Vec<f64> = untraced_pass_ms
            .iter()
            .map(|&p| draws as f64 / (p / 1e3))
            .collect();
        out.set("draws_per_s", median(&per_s).unwrap_or(0.0));
        out.set("op_p50_ms", median(&untraced_pass_ms).unwrap_or(0.0));
    } else {
        let spans = rec.take();
        note_layers(&mut out, &state, &spans, &traced_pass_ms, &untraced_pass_ms);
        harness::note_batch_cache(&mut out, batch.0, batch.1);
        out.spans = spans;
    }
    Ok(out)
}

fn note_quality(out: &mut Outcome, state: &State) {
    let frames: Vec<_> = state
        .outcomes
        .iter()
        .flat_map(|o| o.evaluation.frames.iter().cloned())
        .collect();
    let n = frames.len().max(1) as f64;
    let error: f64 = frames.iter().map(|f| f.error()).sum();
    let efficiency: f64 = state
        .outcomes
        .iter()
        .flat_map(|o| &o.evaluation.efficiencies)
        .sum();
    let kept: usize = state.reference.iter().map(|s| s.subset_draws).sum();
    let draws: usize = state.reference.iter().map(|s| s.draws).sum();
    out.set("core.pred_error_pct", 100.0 * error / n);
    out.set("efficiency_pct", 100.0 * efficiency / n);
    out.set(
        "core.fraction_pct",
        100.0 * kept as f64 / draws.max(1) as f64,
    );
    out.set("core.outlier_pct", 100.0 * outlier_fraction(&frames));
}

/// The output checks of one game: every frame's clusters partition its
/// draws, the subset validates against its parent, and the summary is
/// bit-identical to the reference.
pub fn check_game(
    w: &Workload,
    outcome: &SubsettingOutcome,
    reference: &OutcomeSummary,
) -> Result<(), String> {
    for (frame, clustering) in w.frames().iter().zip(&outcome.clusterings) {
        check_partition(clustering, frame.draw_count())
            .map_err(|e| format!("{} frame {}: {e}", w.name, frame.id.raw()))?;
    }
    if outcome.clusterings.len() != w.frames().len() {
        return Err(format!("{}: clusterings do not cover every frame", w.name));
    }
    outcome
        .subset
        .validate(w)
        .map_err(|e| format!("{}: {e}", w.name))?;
    summary_mismatch(&outcome.summary(w), reference).map_or(Ok(()), |field| {
        Err(format!("{}: summary differs in {field}", w.name))
    })
}

fn check_partition(clustering: &FrameClustering, draws: usize) -> Result<(), String> {
    if clustering.draw_count != draws {
        return Err(format!(
            "{} draws clustered of {draws}",
            clustering.draw_count
        ));
    }
    let mut seen = vec![false; draws];
    for cluster in &clustering.clusters {
        if !cluster.members.contains(&cluster.representative) {
            return Err(format!(
                "representative {} outside its cluster",
                cluster.representative
            ));
        }
        for &m in &cluster.members {
            match seen.get_mut(m) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(format!("draw {m} repeated or out of range")),
            }
        }
    }
    match seen.iter().position(|s| !s) {
        Some(d) => Err(format!("draw {d} in no cluster")),
        None => Ok(()),
    }
}

/// The first field in which two summaries differ, floats compared by bits.
pub fn summary_mismatch(a: &OutcomeSummary, b: &OutcomeSummary) -> Option<&'static str> {
    let floats = [
        ("mean_efficiency", a.mean_efficiency, b.mean_efficiency),
        (
            "mean_prediction_error",
            a.mean_prediction_error,
            b.mean_prediction_error,
        ),
        ("outlier_fraction", a.outlier_fraction, b.outlier_fraction),
        ("repeat_coverage", a.repeat_coverage, b.repeat_coverage),
        ("subset_fraction", a.subset_fraction, b.subset_fraction),
    ];
    let counts = [
        ("frames", a.frames, b.frames),
        ("draws", a.draws, b.draws),
        ("phase_count", a.phase_count, b.phase_count),
        ("subset_draws", a.subset_draws, b.subset_draws),
    ];
    if a.workload != b.workload {
        return Some("workload");
    }
    counts
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(f, ..)| *f)
        .or_else(|| {
            floats
                .iter()
                .find(|(_, x, y)| !same_bits(*x, *y))
                .map(|(f, ..)| *f)
        })
}

/// `Subsetter::run` decomposed into the public calls it makes, in its
/// order, each in a span: per frame `cluster_frame`, then per frame
/// `simulate_frame` and `predict_frame`, then phase detection and subset
/// build. `extract_frame_features` runs as an extra sibling before each
/// `cluster_frame`, so the clustering fit is `cluster_frame` minus it.
fn decomposed_game(
    rec: &Recorder,
    pass: Option<u64>,
    g: usize,
    w: &Workload,
    config: &SubsetConfig,
    sim: &Simulator,
) -> Result<SubsettingOutcome, String> {
    let game = rec.open("game", pass, || format!("g{g}"));
    let parent = game.id();
    let request = |f: usize| move || format!("g{g}/f{f}");
    let mut clusterings = Vec::with_capacity(w.frames().len());
    for (f, frame) in w.frames().iter().enumerate() {
        rec.time(
            "features.extract_frame_features",
            parent,
            request(f),
            || {
                black_box(extract_frame_features(frame, w, config.features.clone()));
            },
        );
        clusterings.push(rec.time("cluster.cluster_frame", parent, request(f), || {
            cluster_frame(frame, w, config)
        }));
    }
    let mut frames = Vec::with_capacity(w.frames().len());
    let mut efficiencies = Vec::with_capacity(w.frames().len());
    for (f, (frame, clustering)) in w.frames().iter().zip(&clusterings).enumerate() {
        let cost = rec
            .time("gpusim.simulate_frame", parent, request(f), || {
                sim.simulate_frame(frame, w)
            })
            .map_err(|e| format!("{}: {e}", w.name))?;
        frames.push(rec.time("core.predict_frame", parent, request(f), || {
            predict_frame(clustering, &cost)
        }));
        efficiencies.push(clustering.efficiency());
    }
    let phases = rec
        .time(
            "core.phase_detect",
            parent,
            || format!("g{g}"),
            || {
                PhaseDetector::new(config.interval_len)
                    .with_similarity(config.phase_similarity)
                    .detect(w)
            },
        )
        .map_err(|e| format!("{}: {e}", w.name))?;
    let pattern = PhasePattern::of(&phases);
    let subset = rec.time(
        "core.subset_build",
        parent,
        || format!("g{g}"),
        || WorkloadSubset::build(w, &phases, &clusterings, config.frames_per_phase),
    );
    rec.close(game);
    Ok(SubsettingOutcome {
        clusterings,
        evaluation: WorkloadEvaluation {
            frames,
            efficiencies,
        },
        phases,
        pattern,
        subset,
    })
}

fn note_layers(out: &mut Outcome, state: &State, spans: &[Span], traced: &[f64], untraced: &[f64]) {
    let per_pass = |layer: &str| layer_ms_per_root(spans, "pass", layer);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let extract = per_pass("features.extract_frame_features");
    let cluster = per_pass("cluster.cluster_frame");
    let fit: Vec<f64> = cluster.iter().zip(&extract).map(|(c, e)| c - e).collect();
    out.set("cluster.fit_ms", med(&fit));
    out.set("features.extract_ms", med(&extract));
    out.set(
        "gpusim.simulate_ms",
        med(&per_pass("gpusim.simulate_frame")),
    );
    out.set("core.predict_ms", med(&per_pass("core.predict_frame")));
    out.set("core.phase_ms", med(&per_pass("core.phase_detect")));
    out.set("core.subset_build_ms", med(&per_pass("core.subset_build")));
    out.set(
        "bench.trace_overhead_pct",
        harness::overhead_pct(traced, untraced),
    );

    // Counts of one pass (every pass does identical work).
    let frames: usize = state.corpus.iter().map(|w| w.frames().len()).sum();
    let draws: usize = state.corpus.iter().map(Workload::total_draws).sum();
    let clusters: usize = state
        .outcomes
        .iter()
        .flat_map(|o| &o.clusterings)
        .map(FrameClustering::cluster_count)
        .sum();
    out.set("cluster.frames", frames as f64);
    out.set("cluster.clusters", clusters as f64);
    out.set(
        "cluster.draws_per_cluster",
        draws as f64 / clusters.max(1) as f64,
    );
    out.set("features.rows", draws as f64);
    out.set("gpusim.draws", draws as f64);
    let phases: usize = state.reference.iter().map(|s| s.phase_count).sum();
    out.set("core.phases", phases as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Scale;

    fn tiny(trace: bool) -> Settings {
        Settings {
            seed: 7,
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
        let out = crate::run_workload("subset_corpus", &tiny(false)).unwrap();
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        assert_eq!(out.ops.attempted, 6);
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
    fn traced_decomposition_reproduces_subsetter_run() {
        let out = crate::run_workload("subset_corpus", &tiny(true)).unwrap();
        // Two decomposed passes, one without spans and one with, each
        // checked bit for bit against `Subsetter::run`'s summaries.
        assert_eq!(out.ops.attempted, 12);
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        for name in [
            "cluster.fit_ms",
            "features.extract_ms",
            "gpusim.simulate_ms",
            "core.phases",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn corrupted_reference_is_a_failed_operation() {
        let settings = tiny(false);
        let config = SubsetConfig::default();
        let state = setup(&settings, &config, &mut Vec::new()).unwrap();
        let (w, outcome) = (&state.corpus[0], &state.outcomes[0]);
        check_game(w, outcome, &state.reference[0]).unwrap();
        let mut corrupted = state.reference[0].clone();
        corrupted.mean_prediction_error =
            f64::from_bits(corrupted.mean_prediction_error.to_bits() ^ 1);
        let mut ops = Ops::default();
        ops.record(check_game(w, outcome, &corrupted));
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert!(ops.failures[0].contains("mean_prediction_error"));

        let mut broken = outcome.clone();
        let moved = broken.clusterings[0].clusters[0].members.pop();
        assert!(moved.is_some());
        assert!(check_game(w, &broken, &state.reference[0]).is_err());
    }
}
