//! Benchmark of the batched evaluation service (`rsn-serve`): end-to-end
//! throughput of mixed-scenario request streams at micro-batch sizes 1, 8
//! and 64, remote-shard transport modes, plus a criterion measurement of
//! the single-request round trip.
//!
//! After the timed runs the harness writes `BENCH_serve.json` (repo root
//! when run via `cargo bench`): reports/s per batch size for a
//! cache-hitting mixed workload, and reports/s for a **cache-missing**
//! stream through a loopback shard server per transport mode —
//! connect-per-call (the pre-pooling behaviour), pooled + pipelined
//! **binary** over TCP (with the symbol dictionaries and bitmap-compact
//! reports), the same stream with the dictionaries forced off
//! (`binary_nodict`), the binary frames over the **shared-memory ring**
//! (the same-host transport the `auto` default negotiates on loopback),
//! the **reactor front end** (the epoll event loop with out-of-order
//! request multiplexing), and the in-process baseline — so future
//! serving-path changes have a recorded trajectory to beat.  The document
//! is emitted through the service's own hand-rolled JSON layer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsn_eval::{CharmBackend, Evaluator, RooflineBackend, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::json::JsonValue;
use rsn_serve::remote::{RemoteBackend, ShardServer};
use rsn_serve::{
    BackendSelector, EvalService, Priority, RemoteConfig, ResponseHandle, ServiceConfig,
};
use rsn_workloads::bert::BertConfig;
use rsn_workloads::models::ModelKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The mixed scenario pool: encoder layers across batch sizes, full models,
/// square GEMMs and zoo models — 16 distinct specs, every one supported by
/// every bench backend, so after warm-up a long request stream is served
/// entirely from the report cache (the regime the cache exists for; errors
/// are deliberately not cached, so unsupported combinations would re-run).
fn scenario_pool() -> Vec<WorkloadSpec> {
    let mut pool = Vec::new();
    for batch in [1usize, 2, 4, 6, 8, 12] {
        pool.push(WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(512, batch),
        });
    }
    for batch in [1usize, 4, 8] {
        pool.push(WorkloadSpec::FullModel {
            cfg: BertConfig::bert_large(384, batch),
        });
    }
    for n in [512usize, 1024, 2048, 4096] {
        pool.push(WorkloadSpec::SquareGemm { n });
    }
    for kind in [ModelKind::Bert, ModelKind::Vit, ModelKind::Ncf] {
        pool.push(WorkloadSpec::ZooModel { kind });
    }
    pool
}

fn backends() -> Evaluator {
    Evaluator::empty()
        .with_backend(Box::new(XnnAnalyticBackend::new()))
        .with_backend(Box::new(CharmBackend::new()))
        .with_backend(Box::new(RooflineBackend::new()))
}

/// One throughput measurement: `requests` mixed-scenario specs streamed
/// from `producers` threads through a service batching at `batch`, with the
/// stream arriving in coalesced bursts of the same size (`submit_batch`).
/// Returns `(wall seconds, reports delivered, stats snapshot)`.
fn stream_throughput(
    batch: usize,
    requests: usize,
    producers: usize,
) -> (f64, u64, rsn_serve::ServiceStats) {
    let service = Arc::new(EvalService::with_config(
        backends(),
        ServiceConfig {
            max_batch: batch,
            batch_deadline: Duration::from_micros(200),
            workers_per_backend: 2,
            ..ServiceConfig::default()
        },
    ));
    let pool = Arc::new(scenario_pool());
    // Warm the report cache so the timed region measures the serving path
    // (batching, dedup, response delivery), not the 48 one-off backend
    // evaluations that every configuration shares.
    service.evaluate_grid(&pool);
    let start = Instant::now();
    let mut joins = Vec::new();
    for producer in 0..producers {
        let service = Arc::clone(&service);
        let pool = Arc::clone(&pool);
        joins.push(std::thread::spawn(move || {
            let share = requests / producers;
            // Open-loop: submit the whole share as bursts of `batch` specs,
            // then drain the responses.
            let handles: Vec<ResponseHandle> = (0..share.div_ceil(batch))
                .map(|burst| {
                    let specs: Vec<WorkloadSpec> = (0..batch.min(share - burst * batch))
                        .map(|i| pool[(producer + (burst * batch + i) * 7) % pool.len()].clone())
                        .collect();
                    service.submit_batch(specs, BackendSelector::All, Priority::Normal)
                })
                .collect();
            let mut reports = 0u64;
            for handle in handles {
                reports += handle.wait().results.len() as u64;
            }
            reports
        }));
    }
    let reports: u64 = joins.into_iter().map(|j| j.join().expect("producer")).sum();
    let wall = start.elapsed().as_secs_f64();
    (wall, reports, service.stats())
}

/// How the remote-stream measurement reaches its shard.
#[derive(Clone, Copy, PartialEq)]
enum RemoteMode {
    /// Fresh TCP connect + one per-spec exchange per evaluation — the
    /// pre-pooling transport, kept measurable as the baseline.
    ConnectPerCall,
    /// Pooled + pipelined over the binary codec, pinned to the TCP socket
    /// — isolates the codec + coalescing stages from the ring.  The
    /// default encoding layers per-connection symbol dictionaries and
    /// bitmap-compact reports on top.
    PooledBinary,
    /// The same pooled binary socket with the symbol dictionaries forced
    /// off (`binary_nodict`) — isolates what the dictionaries themselves
    /// buy on an identical stream.
    PooledBinaryNodict,
    /// Pooled + pipelined binary frames over the shared-memory ring the
    /// `auto` default negotiates on loopback.
    PooledShm,
    /// The shard served by the epoll reactor front end: one server thread
    /// for every connection, with the client multiplexing out-of-order
    /// requests over one socket.
    PooledReactor,
    /// No wire at all: the same backend evaluated in-process.
    InProcess,
}

/// One remote throughput measurement: `requests` *distinct* cheap specs —
/// a pure cache-miss stream, so every report pays the transport — pushed
/// through a client service whose single backend lives behind a loopback
/// shard server (or in-process for the baseline).  Returns `(wall seconds,
/// reports, client stats)`.
fn remote_stream(mode: RemoteMode, requests: usize) -> (f64, u64, rsn_serve::ServiceStats) {
    let shard_backends = || Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()));
    let client_config = ServiceConfig {
        max_batch: 64,
        batch_deadline: Duration::from_micros(200),
        workers_per_backend: 2,
        ..ServiceConfig::default()
    };
    // Bind a shard even for the in-process baseline so every mode pays the
    // same setup, then build the mode's client service.
    let server_config = ServiceConfig {
        remote: RemoteConfig {
            frontend: if mode == RemoteMode::PooledReactor {
                rsn_serve::FrontendPolicy::Reactor
            } else {
                rsn_serve::FrontendPolicy::Threads
            },
            ..RemoteConfig::default()
        },
        ..ServiceConfig::default()
    };
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::with_config(shard_backends(), server_config),
    )
    .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let service = match mode {
        RemoteMode::InProcess => EvalService::with_config(shard_backends(), client_config),
        RemoteMode::ConnectPerCall
        | RemoteMode::PooledBinary
        | RemoteMode::PooledBinaryNodict
        | RemoteMode::PooledShm
        | RemoteMode::PooledReactor => {
            let remote_config = RemoteConfig {
                pool_size: if mode == RemoteMode::ConnectPerCall {
                    0
                } else {
                    RemoteConfig::default().pool_size
                },
                // Every mode but nodict uses the default dictionary
                // frames; the nodict mode forces them off to isolate them.
                encoding: if mode == RemoteMode::PooledBinaryNodict {
                    rsn_serve::EncodingPolicy::BinaryNodict
                } else {
                    rsn_serve::EncodingPolicy::Auto
                },
                // Every socket mode pins `socket` so its trajectory stays
                // comparable across changes; only the shm mode accepts the
                // shard's ring offer.
                transport: if mode == RemoteMode::PooledShm {
                    rsn_serve::TransportPolicy::Auto
                } else {
                    rsn_serve::TransportPolicy::Socket
                },
                ..RemoteConfig::default()
            };
            let remotes = RemoteBackend::connect_all_with(&addr, remote_config)
                .expect("loopback shard reachable");
            // One shared pool per shard address — register it once, like
            // ShardRouter does, not once per backend.
            let pool = remotes.first().map(|r| Arc::clone(r.pool()));
            let mut evaluator = Evaluator::empty();
            for remote in remotes {
                let remote = remote.with_pipelining(mode != RemoteMode::ConnectPerCall);
                evaluator.register(Box::new(remote));
            }
            let service = EvalService::with_config(evaluator, client_config);
            if let Some(pool) = pool {
                service.register_pool(pool);
            }
            service
        }
    };
    // Distinct sizes: the client cache never hits, the stream is all
    // transport + evaluation.
    let specs: Vec<WorkloadSpec> = (0..requests)
        .map(|i| WorkloadSpec::SquareGemm { n: 64 + i })
        .collect();
    let start = Instant::now();
    let mut reports = 0u64;
    for chunk in specs.chunks(256) {
        reports += service
            .submit_batch(chunk.to_vec(), BackendSelector::All, Priority::Normal)
            .wait()
            .results
            .len() as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, reports, service.stats())
}

fn bench_round_trip(c: &mut Criterion) {
    // max_batch 1: a lone request never waits out the batch deadline, so
    // this measures the pure submit → cache hit → respond overhead.
    let service = EvalService::with_config(backends(), ServiceConfig::with_max_batch(1));
    // Warm the cache so the measured path is the serving overhead itself.
    let spec = WorkloadSpec::SquareGemm { n: 1024 };
    service.evaluate(&spec);
    c.bench_function("serve_round_trip_cached_request", |b| {
        b.iter(|| black_box(service.evaluate(&spec).len()))
    });
}

/// Emits the serving-throughput trajectory file.
fn emit_bench_json() {
    let requests = 8192usize;
    let producers = 4usize;
    let batch_sizes = [1usize, 8, 64];
    let mut sections: Vec<(String, JsonValue)> = vec![
        (
            "benchmark".to_string(),
            JsonValue::Str("serve_throughput".to_string()),
        ),
        (
            "workload".to_string(),
            JsonValue::Str(format!(
                "{requests} cache-hitting mixed-scenario specs ({} distinct, {producers} producers) \
                 streamed in bursts of the batch size across rsn-xnn + charm + roofline-bound; \
                 remote sections: 2048 distinct (cache-missing) square GEMMs through a loopback \
                 rsn-xnn shard per transport mode",
                scenario_pool().len()
            )),
        ),
        ("requests".to_string(), JsonValue::Int(requests as u64)),
    ];
    let mut per_batch = Vec::new();
    for &max_batch in &batch_sizes {
        // Median of three runs: stream throughput is scheduler-sensitive.
        let mut runs: Vec<(f64, u64, rsn_serve::ServiceStats)> = (0..3)
            .map(|_| stream_throughput(max_batch, requests, producers))
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall, reports, stats) = runs.swap_remove(1);
        let reports_per_s = reports as f64 / wall;
        println!(
            "serve stream: max_batch={max_batch:<3} {reports_per_s:>12.0} reports/s  \
             (mean batch {:.1}, dedup {:.3})",
            stats.mean_batch_size(),
            stats.dedup_ratio()
        );
        per_batch.push(reports_per_s);
        sections.push((
            format!("batch_{max_batch}"),
            JsonValue::obj([
                ("wall_seconds", JsonValue::Num(wall)),
                ("reports", JsonValue::Int(reports)),
                ("reports_per_s", JsonValue::Num(reports_per_s)),
                ("mean_batch_size", JsonValue::Num(stats.mean_batch_size())),
                ("dedup_ratio", JsonValue::Num(stats.dedup_ratio())),
                ("evaluations", JsonValue::Int(stats.evaluations)),
            ]),
        ));
    }
    sections.push((
        "batch64_vs_batch1".to_string(),
        JsonValue::Num(per_batch[2] / per_batch[0]),
    ));

    // Remote transport comparison: the same cache-missing stream through a
    // loopback shard per transport mode, with the in-process path as the
    // ceiling.
    let remote_requests = 2048usize;
    let mut per_mode = Vec::new();
    for (label, mode) in [
        ("remote_unpooled", RemoteMode::ConnectPerCall),
        ("remote_binary", RemoteMode::PooledBinary),
        ("remote_binary_nodict", RemoteMode::PooledBinaryNodict),
        ("remote_shm", RemoteMode::PooledShm),
        ("remote_reactor", RemoteMode::PooledReactor),
        ("remote_inprocess_baseline", RemoteMode::InProcess),
    ] {
        let mut runs: Vec<(f64, u64, rsn_serve::ServiceStats)> = (0..3)
            .map(|_| remote_stream(mode, remote_requests))
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall, reports, stats) = runs.swap_remove(1);
        let reports_per_s = reports as f64 / wall;
        let pool = stats.remote_pools.first().cloned().unwrap_or_default();
        println!(
            "remote stream: {label:<26} {reports_per_s:>12.0} reports/s  \
             (dials {}, reuse {:.3}, pipeline depth {:.1}, rx {} bytes, \
             coalesced {}, ring {}, mux depth {}, dict {}/{})",
            pool.dials,
            pool.reuse_ratio(),
            pool.mean_pipeline_depth(),
            pool.bytes_received,
            pool.frames_coalesced,
            pool.ring_exchanges,
            pool.inflight_per_conn,
            pool.dict_defines,
            pool.dict_hits
        );
        per_mode.push(reports_per_s);
        sections.push((
            label.to_string(),
            JsonValue::obj([
                ("wall_seconds", JsonValue::Num(wall)),
                ("reports", JsonValue::Int(reports)),
                ("reports_per_s", JsonValue::Num(reports_per_s)),
                ("dials", JsonValue::Int(pool.dials)),
                ("reused", JsonValue::Int(pool.reused)),
                ("pipelined_batches", JsonValue::Int(pool.pipelined_batches)),
                ("pipelined_specs", JsonValue::Int(pool.pipelined_specs)),
                ("bytes_sent", JsonValue::Int(pool.bytes_sent)),
                ("bytes_received", JsonValue::Int(pool.bytes_received)),
                ("frames_coalesced", JsonValue::Int(pool.frames_coalesced)),
                ("ring_exchanges", JsonValue::Int(pool.ring_exchanges)),
                ("reactor_wakeups", JsonValue::Int(pool.reactor_wakeups)),
                ("inflight_per_conn", JsonValue::Int(pool.inflight_per_conn)),
                ("hedges_launched", JsonValue::Int(pool.hedges_launched)),
                ("hedges_won", JsonValue::Int(pool.hedges_won)),
                ("failovers", JsonValue::Int(pool.failovers)),
                ("breaker_trips", JsonValue::Int(pool.breaker_trips)),
                (
                    "breaker_fast_fails",
                    JsonValue::Int(pool.breaker_fast_fails),
                ),
                ("dict_defines", JsonValue::Int(pool.dict_defines)),
                ("dict_hits", JsonValue::Int(pool.dict_hits)),
            ]),
        ));
    }
    // Indices into `per_mode`, in the loop order above.
    let (binary, nodict, shm, reactor, inprocess) = (1, 2, 3, 4, 5);
    for (label, numerator, denominator) in [
        ("remote_binary_vs_inprocess", binary, inprocess),
        ("remote_binary_vs_nodict", binary, nodict),
        ("remote_shm_vs_binary", shm, binary),
        ("remote_shm_vs_inprocess", shm, inprocess),
        ("remote_reactor_vs_binary", reactor, binary),
        ("remote_reactor_vs_inprocess", reactor, inprocess),
    ] {
        sections.push((
            label.to_string(),
            JsonValue::Num(per_mode[numerator] / per_mode[denominator]),
        ));
    }

    let json = JsonValue::Obj(sections).to_pretty();
    // Anchor to the workspace root regardless of the invocation CWD.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn bench_all(c: &mut Criterion) {
    bench_round_trip(c);
    emit_bench_json();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
