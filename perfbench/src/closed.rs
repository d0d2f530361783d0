//! The closed-loop driver shared by `sweep_remote` and `zipf_cached`.
//!
//! One client thread submits a fixed list of requests, each only after
//! the previous one is answered: bursts, with a lone request after each.
//! A *round* sets the system up from scratch, gets a first answer, runs
//! the whole list and checks every answer; the run repeats rounds until
//! its time is up.  Every round does the same work, so cache contents and
//! memory do not depend on speed, and each burst is timed once per round:
//! throughput is a round's burst reports over the sum of each burst's
//! lower-quartile round trip across rounds, and latency is the lower
//! quartile over all lone requests.  Host noise only ever slows a burst or
//! a request, so these quartiles repeat what the program costs more
//! closely than medians or means do on a shared host, while a cost the
//! program adds to a burst in most rounds moves them.

use crate::check::Checker;
use crate::measure::{ms, quantile, ratio, setup_figure, tails, Metric};
use crate::trace::RequestSpan;
use rsn_eval::WorkloadSpec;
use rsn_serve::{BackendSelector, EvalResponse, EvalService, Priority};
use std::time::{Duration, Instant};

/// The latency limit of the High class (the `BENCH_load.json` budget);
/// closed loops send every burst at High priority.
pub const HIGH_LIMIT: Duration = Duration::from_millis(20);

/// Rounds every run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// A round's requests: alternately a burst of `burst` specs from `specs`
/// and a lone request of the next spec, in stream order.  Bursts measure
/// throughput; lone requests, each sent to an idle system, measure the
/// latency of one request.
pub fn plan(specs: &[WorkloadSpec], burst: usize) -> Vec<Vec<WorkloadSpec>> {
    specs
        .chunks(burst + 1)
        .flat_map(|chunk| {
            let (head, lone) = chunk.split_at(chunk.len().min(burst));
            [head.to_vec(), lone.to_vec()]
        })
        .filter(|request| !request.is_empty())
        .collect()
}

/// Whether request `index` of a round is a lone request: bursts and lone
/// requests alternate, as in a [`plan`].
fn is_lone(index: usize) -> bool {
    index % 2 == 1
}

/// One answered request of a round.
pub struct Burst {
    pub start: Instant,
    pub end: Instant,
    pub response: EvalResponse,
}

/// What one round measured.
pub struct Round {
    /// (spec, backend) answers owed, over bursts and lone requests.
    pub reports: u64,
    pub failed: u64,
    /// Answers owed by the bursts, and each burst's round trip in seconds,
    /// in plan order.
    pub burst_reports: u64,
    pub burst_s: Vec<f64>,
    /// Round trip of each lone request.
    pub lone_ms: Vec<f64>,
    /// Requests sent, and those answered right within [`HIGH_LIMIT`].
    pub requests: u64,
    pub slo_met: u64,
}

/// Sends `bursts` closed-loop through `service`, every spec to every
/// backend at High priority.
pub fn run_bursts(service: &EvalService, bursts: &[Vec<WorkloadSpec>]) -> Vec<Burst> {
    bursts
        .iter()
        .map(|specs| {
            let start = Instant::now();
            let response = service
                .submit_batch(specs.clone(), BackendSelector::All, Priority::High)
                .wait();
            Burst {
                start,
                end: Instant::now(),
                response,
            }
        })
        .collect()
}

/// The request spans of answered bursts, for attribution.
pub fn request_spans(bursts: &[Vec<WorkloadSpec>], done: &[Burst]) -> Vec<RequestSpan> {
    bursts
        .iter()
        .zip(done)
        .map(|(specs, burst)| RequestSpan {
            start: burst.start,
            end: burst.end,
            specs: specs.clone(),
        })
        .collect()
}

/// Checks every answer of one round and folds it into a [`Round`].
/// Results are spec-major: `results[i * backends + j]` answers `specs[i]`
/// on backend `j`; a missing answer counts as failed.
fn tally(
    requests: &[Vec<WorkloadSpec>],
    done: &[Burst],
    backends: usize,
    checker: &mut Checker,
) -> Round {
    let mut round = Round {
        reports: 0,
        failed: 0,
        burst_reports: 0,
        burst_s: Vec::with_capacity(done.len() / 2 + 1),
        lone_ms: Vec::with_capacity(done.len() / 2),
        requests: done.len() as u64,
        slo_met: 0,
    };
    for (index, (specs, burst)) in requests.iter().zip(done).enumerate() {
        let owed = (specs.len() * backends) as u64;
        let results = &burst.response.results;
        let mut failed = owed.abs_diff(results.len() as u64);
        for (slot, (name, result)) in results.iter().enumerate().take(owed as usize) {
            if !checker.check(name, &specs[slot / backends], result) {
                failed += 1;
            }
        }
        let latency = burst.end - burst.start;
        if is_lone(index) {
            round.lone_ms.push(ms(latency));
        } else {
            round.burst_reports += owed;
            round.burst_s.push(latency.as_secs_f64());
        }
        if failed == 0 && latency <= HIGH_LIMIT {
            round.slo_met += 1;
        }
        round.reports += owed;
        round.failed += failed;
    }
    round
}

/// Runs rounds for `seconds` (after one warm-up round, which is checked
/// but not reported).  `setup` builds a fresh system and returns it once
/// it has given its first answer; `observe` sees each reported round's
/// system and answers before the system is torn down.
pub fn run_rounds<R>(
    seconds: f64,
    bursts: &[Vec<WorkloadSpec>],
    backends: usize,
    checker: &mut Checker,
    setup: impl Fn() -> R,
    service: impl Fn(&R) -> &EvalService,
    mut observe: impl FnMut(&R, &[Burst]),
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let started = Instant::now();
    let mut warm = true;
    while warm || rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let system = setup();
        let done = run_bursts(service(&system), bursts);
        let round = tally(bursts, &done, backends, checker);
        if warm {
            warm = false;
            // A failing warm-up round is kept, so its failures count.
            if round.failed > 0 {
                rounds.push(round);
            }
            continue;
        }
        observe(&system, &done);
        rounds.push(round);
    }
    rounds
}

/// What a closed-loop run measured.
pub struct Summary {
    /// The end-to-end metrics except `peak_rss_mb`.
    pub metrics: Vec<Metric>,
    /// `latency_p50_ms`, `latency_p99_ms` and `high_p99_ms` of the lone
    /// requests (all are High).
    pub tails: Vec<Metric>,
    pub throughput: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Burst reports per second of a round in which every burst took its
/// lower-quartile round trip over `rounds`.  Every round sends the same
/// bursts, so burst `j` of each round repeats the same work.
fn throughput(rounds: &[Round]) -> f64 {
    let bursts = rounds.iter().map(|r| r.burst_s.len()).min().unwrap_or(0);
    let seconds: f64 = (0..bursts)
        .map(|j| {
            let times: Vec<f64> = rounds.iter().map(|r| r.burst_s[j]).collect();
            quantile(&times, 0.25)
        })
        .sum();
    ratio(
        rounds.first().map_or(0, |r| r.burst_reports) as f64,
        seconds,
    )
}

/// Folds the rounds of a run, and the set-up times measured before them,
/// into the end-to-end metrics.
pub fn summarize(rounds: &[Round], setups: &[f64]) -> Summary {
    let lone: Vec<f64> = rounds.iter().flat_map(|r| r.lone_ms.clone()).collect();
    let attempted: u64 = rounds.iter().map(|r| r.reports).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let requests: u64 = rounds.iter().map(|r| r.requests).sum();
    let slo_met: u64 = rounds.iter().map(|r| r.slo_met).sum();
    let throughput = throughput(rounds);
    Summary {
        metrics: vec![
            Metric::new("throughput_rps", throughput, "1/s"),
            Metric::new("latency_p25_ms", quantile(&lone, 0.25), "ms"),
            Metric::new(
                "success_frac",
                1.0 - ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            Metric::new(
                "slo_met_frac",
                ratio(slo_met as f64, requests as f64),
                "ratio",
            ),
            Metric::new("setup_s", setup_figure(setups), "s"),
        ],
        tails: tails(&lone, &lone),
        throughput,
        attempted,
        failed,
    }
}
