//! The subset3d benchmark.
//!
//! ```text
//! perfbench --workload <subset_corpus|pathfind_sweep|serve_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the seeded six-game corpus, sets up the workload several times,
//! measures it for the given time and checks every output. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones). The line before it holds the run's facts: thread
//! and connection counts, sample counts and spreads. A traced run also
//! writes its spans to `perfbench/out/` and a self-time table to
//! standard error. See `NOTES.md`.

mod corpus;
mod harness;
mod pathfind_sweep;
mod report;
mod serve_stream;
mod spans;
mod stats;
mod subset_corpus;

use harness::Settings;
use report::{Outcome, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Runs one workload on a one-thread `exec` pool and adds the process's
/// peak memory.
fn run_workload(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    subset3d_exec::set_thread_count(harness::EXEC_THREADS);
    let mut out = match workload {
        "subset_corpus" => subset_corpus::run(settings)?,
        "pathfind_sweep" => pathfind_sweep::run(settings)?,
        "serve_stream" => serve_stream::run(settings)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(out)
}

/// Writes the spans as JSON lines under `perfbench/out/` and their
/// self-time table to standard error; returns the file's path.
fn write_spans(args: &Args, spans: &[spans::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    std::fs::write(&path, spans::to_jsonl(spans))?;
    eprintln!("self time by span ({} spans):", spans.len());
    for (name, ms) in spans::self_time_table(spans) {
        eprintln!("  {ms:>12.3} ms  {name}");
    }
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: corpus::Scale::FULL,
        setups: harness::SETUPS,
    };
    let out = match run_workload(&args.workload, &settings) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for failure in &out.ops.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let (catalogue, missing_is_zero) = if args.trace {
        (&PER_LAYER[..], true)
    } else {
        (&END_TO_END[..], false)
    };
    let result = match report::result_json(&out.ops, &out.values, catalogue, missing_is_zero) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut info = vec![("workload".to_string(), Value::Str(args.workload.clone()))];
    let also: Vec<(String, Value)> = out
        .values
        .iter()
        .filter(|(name, _)| !catalogue.iter().any(|m| m.name == **name))
        .map(|(name, &v)| (name.to_string(), Value::Float(v)))
        .collect();
    info.push(("also_measured".into(), Value::Object(also)));
    if args.trace {
        match write_spans(&args, &out.spans) {
            Ok(path) => info.push(("spans".into(), Value::Str(path))),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    info.extend(out.info);
    let info = Value::Object(vec![("run".into(), Value::Object(info))]);
    println!(
        "{}",
        serde_json::to_string(&info).expect("JSON is infallible")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON is infallible")
    );
    ExitCode::SUCCESS
}
