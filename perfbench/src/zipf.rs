//! `zipf_cached`: an in-process service with the README's deployment
//! config under a Zipf(1) stream of analytic specs.
//!
//! The working set far exceeds the bounded report cache, so a large share
//! of lookups hit and every miss evicts: the cache and batcher do the
//! work, with no wire at all.

use crate::check::Checker;
use crate::closed::{self, Burst};
use crate::codec::CodecReplay;
use crate::layers::{minus, LayerAcc};
use crate::measure::{metrics_json, peak_rss_mb, ratio, setup_record, time_setups, Metric, SETUPS};
use crate::trace::{write_spans, Layer, SpanLog, Timed};
use crate::{notes, spans_path, Args, Outcome};
use rsn_bench::loadgen::Lcg;
use rsn_eval::{
    Backend, CharmBackend, Evaluator, RooflineBackend, WorkloadSpec, XnnAnalyticBackend,
};
use rsn_serve::topology::service_config_json;
use rsn_serve::{EvalService, ServiceConfig, ServiceStats};
use rsn_workloads::bert::BertConfig;
use std::sync::Arc;
use std::time::Duration;

/// Distinct specs the stream draws from.
const UNIVERSE: usize = 32 * 1024;
/// Draws per round and per burst.
const ROUND_SPECS: usize = 8192;
const BURST: usize = 16;

/// The deployment config the README documents.
fn config() -> ServiceConfig {
    ServiceConfig {
        max_batch: 64,
        batch_deadline: Duration::from_millis(1),
        workers_per_backend: 2,
        cache_capacity: Some(4096),
        ..ServiceConfig::default()
    }
}

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(XnnAnalyticBackend::new()),
        Box::new(CharmBackend::new()),
        Box::new(RooflineBackend::new()),
    ]
}

/// The spec of universe slot `k`: every eighth an encoder layer, the rest
/// square GEMMs, all distinct.
fn spec(k: usize) -> WorkloadSpec {
    if k.is_multiple_of(8) {
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(32 + k / 8, 1 + k % 5),
        }
    } else {
        WorkloadSpec::SquareGemm { n: 128 + k }
    }
}

/// The round's requests: bursts of Zipf(s = 1) ranks over the universe,
/// mapped to slots by a seed-chosen permutation so the popular specs vary
/// by seed.  After each burst a lone request asks again for the burst's
/// last spec, which that burst has just cached: every lone request is a
/// hit, so the lone latencies time the cached path alone instead of a
/// seed-dependent mix of hits and misses, whose quantiles would sit on
/// the slope between the two.
fn bursts(seed: u64) -> Vec<Vec<WorkloadSpec>> {
    let mut rng = Lcg::new(seed);
    let mut slots: Vec<usize> = (0..UNIVERSE).collect();
    for i in (1..UNIVERSE).rev() {
        slots.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut cdf: Vec<f64> = (1..=UNIVERSE)
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / rank as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[UNIVERSE - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    let specs: Vec<WorkloadSpec> = (0..ROUND_SPECS)
        .map(|_| {
            let u = rng.uniform();
            let rank = cdf.partition_point(|&c| c < u).min(UNIVERSE - 1);
            spec(slots[rank])
        })
        .collect();
    specs
        .chunks(BURST)
        .flat_map(|burst| [burst.to_vec(), vec![burst[burst.len() - 1].clone()]])
        .collect()
}

struct Rig {
    service: EvalService,
    log: Option<Arc<SpanLog>>,
    /// The service's counters after the first answer, in a traced rig.
    baseline: Option<ServiceStats>,
}

fn setup(trace: bool) -> Rig {
    let log = trace.then(|| Arc::new(SpanLog::default()));
    let mut evaluator = Evaluator::empty();
    for backend in backends() {
        evaluator.register(match &log {
            Some(log) => Timed::wrap(backend, Layer::Client, log),
            None => backend,
        });
    }
    let service = EvalService::with_config(evaluator, config());
    let first = service.evaluate(&WorkloadSpec::SquareGemm { n: 96 });
    assert!(
        first.iter().all(Result::is_ok),
        "first answer failed: {first:?}"
    );
    let baseline = log.as_ref().map(|log| {
        log.take();
        service.stats()
    });
    Rig {
        service,
        log,
        baseline,
    }
}

pub fn run(args: &Args) -> Outcome {
    let bursts = bursts(args.seed);
    let distinct = {
        let mut seen = std::collections::HashSet::new();
        bursts.iter().flatten().filter(|s| seen.insert(*s)).count()
    };
    let mut checker = Checker::new(backends(), true);
    let untraced = closed::run_rounds(
        args.seconds,
        &bursts,
        3,
        &mut checker,
        || setup(false),
        |rig| &rig.service,
        |_, _| {},
    );
    let setups = time_setups(SETUPS, || setup(false));
    let summary = closed::summarize(&untraced, &setups);
    let (mut metrics, mut attempted, mut failed) =
        (summary.metrics, summary.attempted, summary.failed);
    let tails = summary.tails;
    let mut record = vec![
        ("service_config".to_string(), service_config_json(&config())),
        (
            "distinct_specs_per_round".to_string(),
            rsn_serve::json::JsonValue::Int(distinct as u64),
        ),
    ];
    if args.trace {
        let mut acc = LayerAcc::default();
        let mut last = (Vec::new(), Vec::new());
        let traced = closed::run_rounds(
            args.seconds,
            &bursts,
            3,
            &mut checker,
            || setup(true),
            |rig| &rig.service,
            |rig, done: &[Burst]| {
                let spans = rig.log.as_ref().expect("traced rig").take();
                let requests = closed::request_spans(&bursts, done);
                acc.add_spans(&requests, &spans, Layer::Client);
                let baseline = rig.baseline.as_ref().expect("traced rig");
                acc.add_client_stats(&minus(&rig.service.stats(), baseline));
                acc.rounds += 1;
                last = (requests, spans);
            },
        );
        write_spans(&spans_path(args), &last.0, &last.1);
        let traced_summary = closed::summarize(&traced, &setups);
        attempted += traced_summary.attempted;
        failed += traced_summary.failed;
        acc.reports = traced.iter().map(|r| r.reports).sum();
        let overhead = 1.0 - ratio(traced_summary.throughput, summary.throughput);
        let requests = (bursts.len() * traced.len()) as u64;
        // Every request-span instant is either inside a backend call or in
        // the service, so nothing is left unattributed here.
        metrics = acc.metrics(&CodecReplay::default(), overhead, 0.0, requests);
        metrics.extend(tails.iter().cloned());
        record.push((
            "zero_because".to_string(),
            notes(&[
                (
                    "serve.pool.*, serve.wire.*, serve.shm.*, serve.reactor.*",
                    "no wire on this workload",
                ),
                (
                    "serve.binary.*",
                    "no wire on this workload, so nothing to replay",
                ),
                (
                    "serve.service.shard_mean_batch_size",
                    "no shard on this workload",
                ),
                ("serve.fleet.*", "no replica group on this workload"),
                (
                    "eval.cycle.*, core.sim.*",
                    "no cycle engine on this workload",
                ),
                ("loadgen.late_p99_ms", "closed loop: no arrival schedule"),
            ]),
        ));
    } else {
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    record.push(("setups".to_string(), setup_record(&setups)));
    record.push(("tails".to_string(), metrics_json(&tails)));
    record.push(("checks".to_string(), checker.record()));
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        record,
    }
}
