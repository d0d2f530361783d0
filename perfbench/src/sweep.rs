//! `sweep_remote`: distinct, cache-cold analytic specs through a loopback
//! shard.
//!
//! Evaluation is a small share of each report's cost here, so the codec,
//! connection pool, transport, shard front end and both service pipelines
//! do the work while the cache only inserts.

use crate::check::Checker;
use crate::closed::{self, Burst};
use crate::codec::CodecReplay;
use crate::layers::{minus, LayerAcc};
use crate::measure::{
    metrics_json, peak_rss_mb, ratio, setup_record, time_setups, us, Metric, SETUPS,
};
use crate::trace::{write_spans, Layer, SpanLog, Timed};
use crate::{notes, remote_config, spans_path, Args, Outcome};
use rsn_bench::loadgen::Lcg;
use rsn_eval::{Backend, EvalError, EvalReport, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::topology::service_config_json;
use rsn_serve::{EvalService, RemoteBackend, ServiceConfig, ServiceStats, ShardServer};
use rsn_workloads::bert::BertConfig;
use std::sync::Arc;

/// Specs per round and per burst.
const ROUND_SPECS: usize = 8192;
const BURST: usize = 64;

/// The round's requests ([`closed::plan`]): mostly square GEMMs, every
/// eighth spec an encoder layer, all distinct, starting from a
/// seed-chosen size.
fn bursts(seed: u64) -> Vec<Vec<WorkloadSpec>> {
    let mut rng = Lcg::new(seed);
    let base = 128 + (rng.next_u64() % 4096) as usize;
    let specs: Vec<WorkloadSpec> = (0..ROUND_SPECS)
        .map(|i| {
            if i % 8 == 7 {
                let batch = 1 + (rng.next_u64() % 8) as usize;
                WorkloadSpec::EncoderLayer {
                    cfg: BertConfig::bert_large(64 + base + i / 8, batch),
                }
            } else {
                WorkloadSpec::SquareGemm { n: base + i }
            }
        })
        .collect();
    closed::plan(&specs, BURST)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        remote: remote_config(),
        ..ServiceConfig::default()
    }
}

/// One round's system: a shard hosting `rsn-xnn` and a client service
/// over it.  The client drops first.
struct Rig {
    client: EvalService,
    server: ShardServer,
    log: Option<Arc<SpanLog>>,
    /// Client and shard counters after the first answer, in a traced rig.
    baseline: Option<(ServiceStats, ServiceStats)>,
}

fn setup(trace: bool) -> Rig {
    let log = trace.then(|| Arc::new(SpanLog::default()));
    let wrap = |b: Box<dyn Backend>, layer| match &log {
        Some(log) => Timed::wrap(b, layer, log),
        None => b,
    };
    let shard =
        Evaluator::empty().with_backend(wrap(Box::new(XnnAnalyticBackend::new()), Layer::Shard));
    let server = ShardServer::bind("127.0.0.1:0", EvalService::with_config(shard, config()))
        .expect("bind a loopback shard");
    let remotes =
        RemoteBackend::connect_all_with(&server.local_addr().to_string(), remote_config())
            .expect("loopback shard answers hello");
    let pool = Arc::clone(remotes[0].pool());
    let mut evaluator = Evaluator::empty();
    for remote in remotes {
        evaluator.register(wrap(Box::new(remote), Layer::Client));
    }
    let client = EvalService::with_config(evaluator, config());
    client.register_pool(pool);
    let first = client.evaluate(&WorkloadSpec::SquareGemm { n: 96 });
    assert!(
        first.iter().all(Result::is_ok),
        "first answer failed: {first:?}"
    );
    let baseline = log.as_ref().map(|log| {
        log.take();
        (client.stats(), server.stats())
    });
    Rig {
        client,
        server,
        log,
        baseline,
    }
}

pub fn run(args: &Args) -> Outcome {
    let bursts = bursts(args.seed);
    let mut checker = Checker::new(vec![Box::new(XnnAnalyticBackend::new())], true);
    let untraced = closed::run_rounds(
        args.seconds,
        &bursts,
        1,
        &mut checker,
        || setup(false),
        |rig| &rig.client,
        |_, _| {},
    );
    let setups = time_setups(SETUPS, || setup(false));
    let summary = closed::summarize(&untraced, &setups);
    let (mut metrics, mut attempted, mut failed) =
        (summary.metrics, summary.attempted, summary.failed);
    let tails = summary.tails;
    let mut record = vec![("service_config".to_string(), service_config_json(&config()))];
    if args.trace {
        let mut acc = LayerAcc::default();
        let mut captured: Vec<Arc<Result<EvalReport, EvalError>>> = Vec::new();
        let mut last = (Vec::new(), Vec::new());
        let traced = closed::run_rounds(
            args.seconds,
            &bursts,
            1,
            &mut checker,
            || setup(true),
            |rig| &rig.client,
            |rig, done: &[Burst]| {
                let spans = rig.log.as_ref().expect("traced rig").take();
                let requests = closed::request_spans(&bursts, done);
                acc.add_spans(&requests, &spans, Layer::Shard);
                acc.exchange_us.extend(
                    spans
                        .iter()
                        .filter(|s| s.layer == Layer::Client)
                        .map(|s| us(s.duration())),
                );
                let (client, shard) = rig.baseline.as_ref().expect("traced rig");
                acc.add_client_stats(&minus(&rig.client.stats(), client));
                acc.add_shard_stats(&[minus(&rig.server.stats(), shard)]);
                acc.rounds += 1;
                last = (requests, spans);
                captured = done
                    .iter()
                    .flat_map(|b| b.response.results.iter().map(|(_, r)| Arc::clone(r)))
                    .collect();
            },
        );
        write_spans(&spans_path(args), &last.0, &last.1);
        let traced_summary = closed::summarize(&traced, &setups);
        attempted += traced_summary.attempted;
        failed += traced_summary.failed;
        acc.reports = traced.iter().map(|r| r.reports).sum();
        let depth = acc.pipeline_depth().round() as usize;
        let codec = CodecReplay::run(&captured, depth);
        failed += codec.mismatches;
        let codec_us = (codec.dict_encode_ns + codec.dict_decode_ns) * 1e-3 * acc.reports as f64;
        let unattributed = ratio(
            (us(acc.breakdown.wire_self) - codec_us).max(0.0),
            us(acc.breakdown.request),
        );
        let overhead = 1.0 - ratio(traced_summary.throughput, summary.throughput);
        let requests = (bursts.len() * traced.len()) as u64;
        record.push(("pool_counters".to_string(), acc.pool_record()));
        metrics = acc.metrics(&codec, overhead, unattributed, requests);
        metrics.extend(tails.iter().cloned());
        record.push((
            "zero_because".to_string(),
            notes(&[
                ("serve.fleet.*", "no replica group on this workload"),
                (
                    "eval.charm.*, eval.roofline.*",
                    "the shard hosts rsn-xnn only",
                ),
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
