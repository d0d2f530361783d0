//! Repository benchmark of the RSN serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from this process, checks every answer, and prints
//! as the last line of standard output one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! the run is repeated with timing decorators around the backends and the
//! metrics are the per-layer ones.  The line before it is the run record:
//! host fingerprint, seed, configs, checks and notes.  The program is
//! driven only through its public API.

mod check;
mod closed;
mod codec;
mod layers;
mod measure;
mod sweep;
mod tenant;
mod trace;
mod zipf;

use measure::{host_fingerprint, metrics_json, nproc, one_line, out_dir, Metric};
use rsn_serve::json::JsonValue;
use rsn_serve::RemoteConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    /// (spec, backend) answers owed.
    pub attempted: u64,
    /// Answers that failed, were wrong or went missing, plus failed
    /// invariant checks.
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Workload-specific entries of the run record.
    pub record: Vec<(String, JsonValue)>,
}

const WORKLOADS: [&str; 3] = ["sweep_remote", "zipf_cached", "tenant_mix_open_loop"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The remote tuning every workload runs: the shipped defaults with the
/// pool capped at one connection per core, so one load-generating process
/// opens at most `nproc` connections per shard.
pub fn remote_config() -> RemoteConfig {
    let shipped = RemoteConfig::default();
    RemoteConfig {
        pool_size: shipped.pool_size.min(nproc()),
        ..shipped
    }
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// A record entry naming metrics and why they read 0.
pub fn notes(entries: &[(&str, &str)]) -> JsonValue {
    JsonValue::Obj(
        entries
            .iter()
            .map(|(metric, why)| (metric.to_string(), JsonValue::Str(why.to_string())))
            .collect(),
    )
}

/// The result line: one JSON object on one line, numbers with all their
/// digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep_remote" => sweep::run(&args),
        "zipf_cached" => zipf::run(&args),
        _ => tenant::run(&args),
    };
    let mut record = vec![
        (
            "workload".to_string(),
            JsonValue::Str(args.workload.clone()),
        ),
        ("seed".to_string(), JsonValue::Int(args.seed)),
        ("seconds".to_string(), JsonValue::Num(args.seconds)),
        ("trace".to_string(), JsonValue::Bool(args.trace)),
        ("host".to_string(), host_fingerprint()),
        ("correct".to_string(), JsonValue::Bool(outcome.correct)),
        ("attempted".to_string(), JsonValue::Int(outcome.attempted)),
        ("failed".to_string(), JsonValue::Int(outcome.failed)),
        ("metrics".to_string(), metrics_json(&outcome.metrics)),
    ];
    record.extend(outcome.record.iter().cloned());
    println!("{}", one_line(&JsonValue::Obj(record)));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
