//! Small measurement helpers: order statistics, the process's peak
//! memory, the host fingerprint and the metric records every workload
//! reports.

use rsn_serve::json::JsonValue;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One named, unit-tagged number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The `q`-quantile of `values` by nearest rank (`0.0` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Samples per window of [`windowed_p99`]: the fewest that leave ten
/// beyond the 99th percentile.
const P99_WINDOW: usize = 1000;

/// The median, over consecutive windows of `P99_WINDOW` samples in
/// arrival order, of each window's 99th percentile (the whole sample's
/// when it holds less than one window).  A stall that hits one stretch of
/// a run moves one window, not the figure.
pub fn windowed_p99(values: &[f64]) -> f64 {
    if values.len() < P99_WINDOW {
        return quantile(values, 0.99);
    }
    let per_window: Vec<f64> = values
        .chunks_exact(P99_WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect();
    median(&per_window)
}

/// `latency_p50_ms` and `latency_p99_ms` over all requests, and
/// `high_p99_ms` over the High class, the p99s windowed.  Their
/// run-to-run spread on a small shared host is wider than a gate's bound
/// (the median's too, as it sits where host noise stretches the
/// distribution most), so they are recorded with every timed run and
/// reported with the per-layer metrics, not gated.
pub fn tails(all_ms: &[f64], high_ms: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("latency_p50_ms", median(all_ms), "ms"),
        Metric::new("latency_p99_ms", windowed_p99(all_ms), "ms"),
        Metric::new("high_p99_ms", windowed_p99(high_ms), "ms"),
    ]
}

/// Set-ups timed per run, before any load.
pub const SETUPS: usize = 101;

/// The `setup_s` figure of a run's set-up times: their lower quartile.
/// Host noise only ever adds to a set-up, so a low quantile of many
/// repeats what the program itself costs, run after run.
pub fn setup_figure(setups: &[f64]) -> f64 {
    quantile(setups, 0.25)
}

/// Builds and drops `count` systems with `setup`, timing each build, in
/// seconds.  Each system is torn down before the next is built, so every
/// set-up starts from the same state.
pub fn time_setups<R>(count: usize, setup: impl Fn() -> R) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let t0 = Instant::now();
            let system = setup();
            let took = t0.elapsed().as_secs_f64();
            drop(system);
            took
        })
        .collect()
}

/// Low quantiles of set-up times, in ms, for the run record.
pub fn setup_record(setups: &[f64]) -> JsonValue {
    let ms = |q| JsonValue::Num(quantile(setups, q) * 1e3);
    JsonValue::obj([
        ("count", JsonValue::Int(setups.len() as u64)),
        ("min_ms", ms(0.0)),
        ("p10_ms", ms(0.1)),
        ("p25_ms", ms(0.25)),
        ("median_ms", ms(0.5)),
    ])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads and connections the load generator may use per shard.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// nproc, CPU model and kernel of the measuring host.
pub fn host_fingerprint() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    JsonValue::obj([
        ("nproc", JsonValue::Int(nproc() as u64)),
        ("cpu_model", JsonValue::Str(cpu)),
        ("kernel", JsonValue::Str(kernel)),
    ])
}

/// Metrics as a JSON object of `{name: {value, unit}}`.
pub fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::obj([
                        ("value", JsonValue::Num(m.value)),
                        ("unit", JsonValue::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// A JSON document on one line.
pub fn one_line(doc: &JsonValue) -> String {
    doc.to_pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Where runs keep their files: `$CARGO_TARGET_DIR/perfbench`, by default
/// `.bench_build/perfbench`, created on first use.
pub fn out_dir() -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = PathBuf::from(root).join("perfbench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
