//! Per-layer metrics of a traced run, accumulated over its rounds.
//!
//! Every workload reports the same names.  A layer that does no work on a
//! workload reads 0 (no hedges on a single shard, no cycle engine behind
//! the Zipf stream); a metric the benchmark cannot observe from outside on
//! a workload also reads 0 and is named, with the reason, in the run
//! record's `unmeasured` list.

use crate::codec::CodecReplay;
use crate::measure::{quantile, ratio, us, Metric};
use crate::trace::{attribute, eval_totals, Breakdown, Layer, RequestSpan, Span};
use rsn_serve::json::JsonValue;
use rsn_serve::{LatencyHistogram, PoolStats, Priority, ServiceStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The backend display names behind the `eval.*` metrics.
const EVAL_NAMES: [(&str, &str); 4] = [
    ("eval.xnn.us_per_report", "rsn-xnn"),
    ("eval.charm.us_per_report", "charm"),
    ("eval.roofline.us_per_report", "roofline-bound"),
    ("eval.cycle.us_per_report", "cycle-engine"),
];

/// The service counters the layer metrics read.
fn service_counters(s: &mut ServiceStats) -> [&mut u64; 7] {
    [
        &mut s.batches,
        &mut s.batched_requests,
        &mut s.cache_hits,
        &mut s.cache_misses,
        &mut s.inflight_merged,
        &mut s.evictions,
        &mut s.evaluations,
    ]
}

/// The transport counters the layer metrics read, by name.
fn pool_counters(p: &mut PoolStats) -> [(&'static str, &mut u64); 15] {
    [
        ("checkouts", &mut p.checkouts),
        ("reused", &mut p.reused),
        ("pipelined_batches", &mut p.pipelined_batches),
        ("pipelined_specs", &mut p.pipelined_specs),
        ("frames_coalesced", &mut p.frames_coalesced),
        ("ring_exchanges", &mut p.ring_exchanges),
        ("reactor_wakeups", &mut p.reactor_wakeups),
        ("bytes_sent", &mut p.bytes_sent),
        ("bytes_received", &mut p.bytes_received),
        ("hedges_launched", &mut p.hedges_launched),
        ("hedges_won", &mut p.hedges_won),
        ("failovers", &mut p.failovers),
        ("breaker_trips", &mut p.breaker_trips),
        ("dict_defines", &mut p.dict_defines),
        ("dict_hits", &mut p.dict_hits),
    ]
}

/// Applies `op` to each counter the layer metrics read, in `into` and in
/// `from`: the service's own, and its pools' paired by position.
pub fn fold_counters(into: &mut ServiceStats, from: &ServiceStats, op: impl Fn(&mut u64, u64)) {
    let mut from = from.clone();
    for (a, b) in service_counters(into)
        .into_iter()
        .zip(service_counters(&mut from))
    {
        op(a, *b);
    }
    let pools = into.remote_pools.len().max(from.remote_pools.len());
    into.remote_pools.resize_with(pools, PoolStats::default);
    for (p, q) in into.remote_pools.iter_mut().zip(&mut from.remote_pools) {
        for ((_, a), (_, b)) in pool_counters(p).into_iter().zip(pool_counters(q)) {
            op(a, *b);
        }
    }
}

/// Counter differences `after - before` of the fields the layer metrics
/// read, so activity before the measured part (a warm-up, a set-up's
/// first answer) stays out of them.
pub fn minus(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    let mut d = after.clone();
    fold_counters(&mut d, before, |a, b| *a -= b);
    for (c, b) in d.classes.iter_mut().zip(&before.classes) {
        let mut counts = c.latency.bucket_counts().to_vec();
        for (n, m) in counts.iter_mut().zip(b.latency.bucket_counts()) {
            *n -= m;
        }
        // The maximum cannot be split; the later one bounds the window's.
        c.latency = LatencyHistogram::from_parts(
            counts,
            c.latency.count - b.latency.count,
            c.latency.sum_us - b.latency.sum_us,
            c.latency.max_us,
        );
    }
    d
}

/// Counters and spans summed over the traced rounds of one run.
#[derive(Default)]
pub struct LayerAcc {
    /// (spec, backend) reports answered.
    pub reports: u64,
    pub breakdown: Breakdown,
    /// Durations of the client's remote backend calls, in µs.
    pub exchange_us: Vec<f64>,
    eval: HashMap<Arc<str>, (Duration, u64, u64, u64)>,
    client: ServiceStats,
    high: LatencyHistogram,
    shard_batches: u64,
    shard_batched: u64,
    /// Evaluations per replica shard, summed over rounds.
    replica_evals: Vec<u64>,
    /// How late the open-loop injector ran, in ms.
    pub late_ms: Vec<f64>,
    /// Traced rounds folded in.
    pub rounds: u64,
    /// Whether the client's backends were wrapped (a fleet's are not).
    client_wrapped: bool,
    /// Request frames the client's wrapped backends sent.
    client_frames: u64,
}

impl LayerAcc {
    /// Folds in one round's spans; `inner` is the layer whose spans are
    /// the backend evaluations themselves.
    pub fn add_spans(&mut self, requests: &[RequestSpan], spans: &[Span], inner: Layer) {
        let b = attribute(requests, spans, inner);
        self.breakdown.request += b.request;
        self.breakdown.service_self += b.service_self;
        self.breakdown.wire_self += b.wire_self;
        self.breakdown.eval += b.eval;
        self.client_wrapped |= spans.iter().any(|s| s.layer == Layer::Client);
        self.client_frames += spans
            .iter()
            .filter(|s| s.layer == Layer::Client)
            .map(|s| s.frames)
            .sum::<u64>();
        for (name, totals) in eval_totals(spans, inner) {
            let entry = self.eval.entry(name).or_default();
            entry.0 += totals.0;
            entry.1 += totals.1;
            entry.2 += totals.2;
            entry.3 += totals.3;
        }
    }

    /// Folds in the client service's counters at the end of a round.
    pub fn add_client_stats(&mut self, stats: &ServiceStats) {
        fold_counters(&mut self.client, stats, |a, b| *a += b);
        if let Some(high) = stats.class(Priority::High) {
            self.high.merge(&high.latency);
        }
    }

    /// Folds in the shard servers' counters at the end of a round, one
    /// entry per replica.
    pub fn add_shard_stats(&mut self, shards: &[ServiceStats]) {
        self.replica_evals
            .resize(shards.len().max(self.replica_evals.len()), 0);
        for (i, stats) in shards.iter().enumerate() {
            self.shard_batches += stats.batches;
            self.shard_batched += stats.batched_requests;
            self.replica_evals[i] += stats.evaluations;
        }
    }

    /// Transport counters summed over every pool of every round.
    fn pool(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for pool in &self.client.remote_pools {
            for ((_, a), (_, b)) in pool_counters(&mut total)
                .into_iter()
                .zip(pool_counters(&mut pool.clone()))
            {
                *a += *b;
            }
        }
        total
    }

    /// The summed transport counters, for the run record.
    pub fn pool_record(&self) -> JsonValue {
        JsonValue::Obj(
            pool_counters(&mut self.pool())
                .into_iter()
                .map(|(name, value)| (name.to_string(), JsonValue::Int(*value)))
                .collect(),
        )
    }

    /// Request frames the client's pools sent: counted at the wrapped
    /// client backends where they exist.  Behind a fleet, where every
    /// request is one spec, the larger of checkouts and pipelined batches.
    fn frames_sent(&self, pool: &PoolStats) -> f64 {
        if self.client_wrapped {
            self.client_frames as f64
        } else {
            pool.checkouts.max(pool.pipelined_batches) as f64
        }
    }

    /// Mean specs per pipelined `evaluate_batch` frame.
    pub fn pipeline_depth(&self) -> f64 {
        let pool = self.pool();
        ratio(pool.pipelined_specs as f64, pool.pipelined_batches as f64)
    }

    /// The per-layer metrics.  `unattributed` is the share of request
    /// time the caller could not attribute to a named layer.
    pub fn metrics(
        &self,
        codec: &CodecReplay,
        overhead: f64,
        unattributed: f64,
        requests: u64,
    ) -> Vec<Metric> {
        let reports = self.reports as f64;
        let per_report = |d: Duration| ratio(us(d), reports);
        let c = &self.client;
        let lookups = (c.cache_hits + c.cache_misses + c.inflight_merged) as f64;
        let pool = &self.pool();
        let mut out = vec![
            Metric::new(
                "serve.service.request_us_per_report",
                per_report(self.breakdown.request),
                "us",
            ),
            Metric::new(
                "serve.service.self_us_per_report",
                if self.client_wrapped {
                    per_report(self.breakdown.service_self)
                } else {
                    0.0
                },
                "us",
            ),
            Metric::new(
                "serve.service.mean_batch_size",
                ratio(c.batched_requests as f64, c.batches as f64),
                "count",
            ),
            Metric::new(
                "serve.service.shard_mean_batch_size",
                ratio(self.shard_batched as f64, self.shard_batches as f64),
                "count",
            ),
            Metric::new(
                "serve.service.queue_p99_ms.high",
                self.high.p99().unwrap_or(0) as f64 / 1e3,
                "ms",
            ),
            Metric::new(
                "serve.cache.hit_ratio",
                ratio(c.cache_hits as f64, lookups),
                "ratio",
            ),
            Metric::new(
                "serve.cache.merge_ratio",
                ratio(c.inflight_merged as f64, lookups),
                "ratio",
            ),
            Metric::new(
                "serve.cache.evictions_per_miss",
                ratio(c.evictions as f64, c.cache_misses as f64),
                "ratio",
            ),
            Metric::new(
                "serve.cache.evictions_per_round",
                ratio(c.evictions as f64, self.rounds as f64),
                "count",
            ),
            Metric::new(
                "serve.pool.exchange_us_p50",
                quantile(&self.exchange_us, 0.5),
                "us",
            ),
            Metric::new(
                "serve.pool.exchange_us_p99",
                quantile(&self.exchange_us, 0.99),
                "us",
            ),
            Metric::new(
                "serve.pool.wire_self_us_per_report",
                per_report(self.breakdown.wire_self),
                "us",
            ),
            Metric::new(
                "serve.wire.bytes_per_report",
                ratio((pool.bytes_sent + pool.bytes_received) as f64, reports),
                "B",
            ),
            Metric::new("serve.pool.pipeline_depth", self.pipeline_depth(), "count"),
            Metric::new(
                "serve.pool.reuse_ratio",
                ratio(pool.reused as f64, pool.checkouts as f64),
                "ratio",
            ),
            Metric::new(
                "serve.shm.ring_share",
                ratio(pool.ring_exchanges as f64, self.frames_sent(pool)),
                "ratio",
            ),
            Metric::new(
                "serve.reactor.wakeups_per_report",
                ratio(pool.reactor_wakeups as f64, reports),
                "ratio",
            ),
            Metric::new(
                "serve.binary.dict_hit_ratio",
                ratio(
                    pool.dict_hits as f64,
                    (pool.dict_hits + pool.dict_defines) as f64,
                ),
                "ratio",
            ),
        ];
        out.extend(codec.metrics());
        let skew = {
            let evals: Vec<f64> = self.replica_evals.iter().map(|&e| e as f64).collect();
            let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
            ratio(evals.iter().copied().fold(0.0, f64::max), mean)
        };
        out.extend([
            Metric::new(
                "serve.fleet.hedges_per_kreq",
                ratio(pool.hedges_launched as f64 * 1e3, requests as f64),
                "1/kreq",
            ),
            Metric::new(
                "serve.fleet.hedge_win_ratio",
                ratio(pool.hedges_won as f64, pool.hedges_launched as f64),
                "ratio",
            ),
            Metric::new("serve.fleet.failovers", pool.failovers as f64, "count"),
            Metric::new("serve.fleet.replica_skew", skew, "ratio"),
        ]);
        for (metric, backend) in EVAL_NAMES {
            let (time, specs, _, _) = self.eval.get(backend).copied().unwrap_or_default();
            out.push(Metric::new(metric, ratio(us(time), specs as f64), "us"));
        }
        let (sim_time, _, cycles, fu_steps) =
            self.eval.get("cycle-engine").copied().unwrap_or_default();
        out.extend([
            Metric::new(
                "core.sim.ns_per_cycle",
                ratio(sim_time.as_secs_f64() * 1e9, cycles as f64),
                "ns",
            ),
            Metric::new(
                "core.sim.fu_step_calls_per_cycle",
                ratio(fu_steps as f64, cycles as f64),
                "ratio",
            ),
            Metric::new("loadgen.late_p99_ms", quantile(&self.late_ms, 0.99), "ms"),
            Metric::new("trace_overhead_frac", overhead, "ratio"),
            Metric::new("unattributed_frac", unattributed, "ratio"),
        ]);
        out
    }
}
