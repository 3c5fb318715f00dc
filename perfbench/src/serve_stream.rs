//! `serve_stream`: a closed loop of [`CONNECTIONS`] `NetClient`s against a
//! loopback `NetServer` (default configuration, no backpressure). Each
//! client streams three corpus games, one session per game, in
//! [`CHUNK_FRAMES`]-frame chunks; a chunk is timed from the `ingest` call
//! to the UPDATE it receives.
//!
//! The only workload that exercises `serve` and the `trace` codec; it
//! drives clustering and feature extraction in small per-chunk steps.

use crate::harness::{self, ms, same_bits, Settings};
use crate::report::{Ops, Outcome};
use crate::spans::{layer_ms_per_root, Recorder, Span};
use crate::stats::{median, percentile, tail};
use serde_json::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;
use subset3d_core::{frame_feature_point, SubsetConfig};
use subset3d_features::extract_frame_features;
use subset3d_serve::{
    NetClient, NetServer, NetServerConfig, NetServerHandle, ServeConfig, SessionManager,
    SubsetUpdate,
};
use subset3d_trace::{decode_frames, encode_frames, Workload};

/// Client connections, each on its own thread.
pub const CONNECTIONS: usize = 2;

/// Frames per ingested chunk.
pub const CHUNK_FRAMES: usize = 4;

/// The loopback server; stopped (and its threads joined) on drop.
struct Server(Option<NetServerHandle>);

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.stop();
        }
    }
}

struct State {
    corpus: Vec<Workload>,
    /// Per game: the in-process update after every chunk, then the final
    /// update returned on close.
    reference: Vec<Vec<SubsetUpdate>>,
    server: Server,
}

fn setup(settings: &Settings, gen_ms: &mut Vec<f64>) -> Result<State, String> {
    let (corpus, gen) = harness::generate(settings);
    gen_ms.push(gen);
    let manager = SessionManager::new();
    let mut reference = Vec::with_capacity(corpus.len());
    for w in &corpus {
        let id = manager
            .open(ServeConfig::default(), w)
            .map_err(|e| e.to_string())?;
        let mut updates = w
            .frames()
            .chunks(CHUNK_FRAMES)
            .map(|chunk| manager.ingest(id, chunk).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        updates.push(manager.close(id).map_err(|e| e.to_string())?.final_update);
        reference.push(updates);
    }
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default())
        .and_then(NetServer::spawn)
        .map_err(|e| format!("starting the loopback server: {e}"))?;
    let server = Server(Some(server));
    let addr = server
        .0
        .as_ref()
        .expect("server just started")
        .addr()
        .to_string();
    NetClient::connect(&addr)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("warming up the loopback server: {e}"))?;
    Ok(State {
        corpus,
        reference,
        server,
    })
}

/// Games client `c` streams: `c`, `c + CONNECTIONS`, … (three each).
fn games_of(client: usize, games: usize) -> impl Iterator<Item = usize> {
    (client..games).step_by(CONNECTIONS)
}

/// What one client saw in one round.
#[derive(Default)]
struct ClientLog {
    ops: Ops,
    chunk_ms: Vec<f64>,
    open_ms: Vec<f64>,
    close_ms: Vec<f64>,
    chunk_bytes: Vec<f64>,
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut gen_ms = Vec::new();
    let (state, setup_s) = harness::repeat_setup(settings, || setup(settings, &mut gen_ms))?;
    let mut out = Outcome::default();
    harness::note_setup(&mut out, &setup_s, &gen_ms, &state.corpus, settings);
    out.note("connections", Value::UInt(CONNECTIONS as u64));
    out.note("chunk_frames", Value::UInt(CHUNK_FRAMES as u64));
    note_quality(&mut out, &state);

    let addr = state
        .server
        .0
        .as_ref()
        .expect("server runs")
        .addr()
        .to_string();
    let mut clients = (0..CONNECTIONS)
        .map(|_| NetClient::connect(&addr).map_err(|e| format!("connecting: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let rec = Recorder::new(settings.trace);
    let draws: usize = state.corpus.iter().map(Workload::total_draws).sum();
    let mut ops = Ops::default();
    let (mut untraced_chunks, mut traced_chunks) = (Vec::new(), Vec::new());
    let mut per_s = Vec::new();
    let (mut open_ms, mut close_ms, mut chunk_bytes) = (Vec::new(), Vec::new(), Vec::new());
    harness::timed_loop(settings, |i| {
        let traced = harness::traced_iteration(settings, i);
        let barrier = Barrier::new(CONNECTIONS + 1);
        let (wall, round_logs) = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (state, rec, barrier) = (&state, &rec, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        stream_client(client, c, state, traced.then_some(rec))
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let logs: Vec<ClientLog> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (start.elapsed(), logs)
        });
        for log in round_logs {
            if traced {
                traced_chunks.extend(log.chunk_ms);
            } else {
                untraced_chunks.extend(log.chunk_ms);
            }
            open_ms.extend(log.open_ms);
            close_ms.extend(log.close_ms);
            chunk_bytes.extend(log.chunk_bytes);
            ops.merge(log.ops);
        }
        if !traced {
            per_s.push(draws as f64 / wall.as_secs_f64());
        }
        Ok(())
    })?;
    drop(clients);
    out.ops = ops;

    harness::note_samples(&mut out, "rounds", &per_s);
    harness::note_samples(&mut out, "op_ms", &untraced_chunks);
    if let Some(t) = tail(&untraced_chunks) {
        out.note(
            "op_tail",
            Value::Object(vec![
                ("percentile".into(), Value::Float(t.percentile)),
                ("ms".into(), Value::Float(t.value)),
                ("beyond".into(), Value::UInt(t.beyond as u64)),
            ]),
        );
    }
    let frames: usize = state.corpus.iter().map(|w| w.frames().len()).sum();
    out.note(
        "frames_per_s",
        Value::Float(median(&per_s).unwrap_or(0.0) * frames as f64 / draws.max(1) as f64),
    );
    out.set("draws_per_s", median(&per_s).unwrap_or(0.0));
    out.set("op_p50_ms", median(&untraced_chunks).unwrap_or(0.0));
    if settings.trace {
        let spans = rec.take();
        note_layers(&mut out, &spans);
        out.spans = spans;
        out.set("serve.open_ms", median(&open_ms).unwrap_or(0.0));
        out.set("serve.close_ms", median(&close_ms).unwrap_or(0.0));
        out.set("trace.chunk_bytes", median(&chunk_bytes).unwrap_or(0.0));
        let chunk_draws: Vec<f64> = state
            .corpus
            .iter()
            .flat_map(|w| w.frames().chunks(CHUNK_FRAMES))
            .map(|chunk| chunk.iter().map(|f| f.draw_count()).sum::<usize>() as f64)
            .collect();
        // Each ingested frame is extracted twice: for its clustering and
        // for its cross-frame feature point.
        out.set("features.rows", 2.0 * median(&chunk_draws).unwrap_or(0.0));
        out.set(
            "serve.chunk_p90_ms",
            percentile(&untraced_chunks, 90.0).unwrap_or(0.0),
        );
        out.set(
            "bench.trace_overhead_pct",
            harness::overhead_pct(&traced_chunks, &untraced_chunks),
        );
    }
    Ok(out)
}

/// Streams client `c`'s games over the wire, checking every UPDATE
/// against the reference. With a recorder, each chunk also runs the
/// codec, the in-process ingest and feature extraction as sibling spans
/// so the round trip can be split by layer.
fn stream_client(
    client: &mut NetClient,
    c: usize,
    state: &State,
    rec: Option<&Recorder>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let local = SessionManager::new();
    let config = SubsetConfig::default();
    for g in games_of(c, state.corpus.len()) {
        let (w, reference) = (&state.corpus[g], &state.reference[g]);
        let start = Instant::now();
        let opened = client.open(w);
        log.open_ms.push(ms(start.elapsed()));
        let session = match opened {
            Ok(id) => id,
            Err(e) => {
                log.ops.record(Err(format!("{}: open: {e}", w.name)));
                continue;
            }
        };
        let local_id = rec
            .map(|_| local.open(ServeConfig::default(), w))
            .transpose()
            .expect("in-process session opens with the default configuration");
        for (k, chunk) in w.frames().chunks(CHUNK_FRAMES).enumerate() {
            let root = rec.map(|r| r.open("chunk", None, || format!("s{g}/c{k}")));
            let parent = root.as_ref().and_then(|r| r.id());
            let start = Instant::now();
            let reply = match rec {
                Some(r) => r.time(
                    "serve.round_trip",
                    parent,
                    || format!("s{g}/c{k}"),
                    || client.ingest(session, chunk),
                ),
                None => client.ingest(session, chunk),
            };
            log.chunk_ms.push(ms(start.elapsed()));
            log.ops.record(
                match reply {
                    Ok(net) => check_update(&net.update, &reference[k]),
                    Err(e) => Err(e.to_string()),
                }
                .map_err(|e| format!("{} chunk {k}: {e}", w.name)),
            );
            if let (Some(rec), Some(local_id)) = (rec, local_id) {
                let req = || format!("s{g}/c{k}");
                let bytes = rec.time("trace.encode_frames", parent, req, || encode_frames(chunk));
                let bytes: &[u8] = &bytes;
                let decoded = rec
                    .time("trace.decode_frames", parent, req, || decode_frames(bytes))
                    .expect("a chunk this process encoded decodes");
                rec.time("serve.ingest_in_process", parent, req, || {
                    black_box(local.ingest(local_id, &decoded))
                })
                .expect("in-process ingest of a corpus chunk succeeds");
                rec.time("features.extract", parent, req, || {
                    for frame in &decoded {
                        black_box(extract_frame_features(frame, w, config.features.clone()));
                        black_box(frame_feature_point(frame, w, &config));
                    }
                });
                log.chunk_bytes.push(bytes.len() as f64);
            }
            if let (Some(rec), Some(root)) = (rec, root) {
                rec.close(root);
            }
        }
        if let Some(local_id) = local_id {
            local.close(local_id).expect("in-process session closes");
        }
        let start = Instant::now();
        let closed = client.close(session);
        log.close_ms.push(ms(start.elapsed()));
        log.ops.record(
            match closed {
                Ok(update) => check_update(
                    &update,
                    reference.last().expect("reference ends with close"),
                ),
                Err(e) => Err(e.to_string()),
            }
            .map_err(|e| format!("{}: close: {e}", w.name)),
        );
    }
    log
}

/// Field-by-field equality of two updates, floats by bits.
pub fn check_update(got: &SubsetUpdate, want: &SubsetUpdate) -> Result<(), String> {
    let counts = [
        ("chunks_ingested", got.chunks_ingested, want.chunks_ingested),
        ("frames_seen", got.frames_seen, want.frames_seen),
        ("draws_seen", got.draws_seen, want.draws_seen),
        ("cluster_count", got.cluster_count, want.cluster_count),
        (
            "reservoir_occupancy",
            got.reservoir_occupancy,
            want.reservoir_occupancy,
        ),
        (
            "reservoir_capacity",
            got.reservoir_capacity,
            want.reservoir_capacity,
        ),
    ];
    let floats = [
        (
            "mean_prediction_error",
            got.mean_prediction_error,
            want.mean_prediction_error,
        ),
        ("mean_efficiency", got.mean_efficiency, want.mean_efficiency),
        ("error_bound", got.error_bound, want.error_bound),
    ];
    if let Some((field, a, b)) = counts.iter().find(|(_, a, b)| a != b) {
        return Err(format!("{field}: {a} != {b}"));
    }
    if let Some((field, a, b)) = floats.iter().find(|(_, a, b)| !same_bits(*a, *b)) {
        return Err(format!("{field}: {a:e} != {b:e}"));
    }
    if got.representative_frames != want.representative_frames {
        return Err("representative_frames differ".into());
    }
    Ok(())
}

/// Quality of the streamed subsets: frame-weighted means of each
/// session's final running error and efficiency, and the draws of the
/// representative frames as a share of the draws streamed.
fn note_quality(out: &mut Outcome, state: &State) {
    let (mut error, mut efficiency, mut frames) = (0.0, 0.0, 0usize);
    let (mut kept, mut draws) = (0usize, 0usize);
    for (w, updates) in state.corpus.iter().zip(&state.reference) {
        let last = updates.last().expect("reference ends with close");
        error += last.mean_prediction_error * last.frames_seen as f64;
        efficiency += last.mean_efficiency * last.frames_seen as f64;
        frames += last.frames_seen;
        let by_id: HashMap<u32, usize> = w
            .frames()
            .iter()
            .map(|f| (f.id.raw(), f.draw_count()))
            .collect();
        kept += last
            .representative_frames
            .iter()
            .map(|id| by_id.get(id).copied().unwrap_or(0))
            .sum::<usize>();
        draws += last.draws_seen;
    }
    let frames = frames.max(1) as f64;
    out.set("serve.pred_error_pct", 100.0 * error / frames);
    out.set("efficiency_pct", 100.0 * efficiency / frames);
    out.set(
        "serve.fraction_pct",
        100.0 * kept as f64 / draws.max(1) as f64,
    );
}

fn note_layers(out: &mut Outcome, spans: &[Span]) {
    let per_chunk = |layer: &str| layer_ms_per_root(spans, "chunk", layer);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let round_trip = per_chunk("serve.round_trip");
    let encode = per_chunk("trace.encode_frames");
    let decode = per_chunk("trace.decode_frames");
    let ingest = per_chunk("serve.ingest_in_process");
    let wire: Vec<f64> = (0..round_trip.len())
        .map(|i| round_trip[i] - encode[i] - decode[i] - ingest[i])
        .collect();
    out.set("trace.encode_ms", med(&encode));
    out.set("trace.decode_ms", med(&decode));
    out.set("serve.ingest_ms", med(&ingest));
    out.set("serve.wire_ms", med(&wire));
    out.set("features.extract_ms", med(&per_chunk("features.extract")));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Scale;

    fn tiny(trace: bool) -> Settings {
        Settings {
            seed: 13,
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
        let out = crate::run_workload("serve_stream", &tiny(false)).unwrap();
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        assert!(out.ops.attempted > 6);
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
    fn traced_run_splits_the_round_trip() {
        let out = crate::run_workload("serve_stream", &tiny(true)).unwrap();
        assert_eq!(out.ops.failed, 0, "{:?}", out.ops.failures);
        for name in [
            "trace.encode_ms",
            "trace.decode_ms",
            "serve.ingest_ms",
            "serve.open_ms",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn corrupted_reference_is_a_failed_operation() {
        let settings = tiny(false);
        let mut state = setup(&settings, &mut Vec::new()).unwrap();
        state.reference[1][0].mean_efficiency =
            f64::from_bits(state.reference[1][0].mean_efficiency.to_bits() ^ 1);
        let addr = state.server.0.as_ref().unwrap().addr().to_string();
        let mut client = NetClient::connect(&addr).unwrap();
        let log = stream_client(&mut client, 1, &state, None);
        assert_eq!(log.ops.failed, 1, "{:?}", log.ops.failures);
        assert!(log.ops.failures[0].contains("mean_efficiency"));
        assert!(log.ops.attempted > 1);
    }
}
