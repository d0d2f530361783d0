//! Loopback integration tests of the cross-process shard layer.
//!
//! A shard server on `127.0.0.1:0` hosts real evaluation backends; a
//! client-side service routes to it through [`RemoteBackend`]s.  The tests
//! pin the contract the whole layer exists for:
//!
//! * results and emitted JSON are **byte-identical** to the in-process path;
//! * killing the shard yields [`EvalError::Transport`] promptly — no hang,
//!   and no poisoned cache entry (each retry re-evaluates);
//! * the `shardd` binary speaks the same protocol as the in-process server
//!   (spawned as a child process, its logs kept for CI upload on failure).
//! * there is one protocol: a hello naming another version, or a frame
//!   that is not binary, is refused — by the shard with a binary
//!   `rejected`, by the client with a transport error naming both versions.

use rsn_eval::{Backend, CharmBackend, EvalError, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::json::{grid_json, stats_json};
use rsn_serve::remote::{RemoteBackend, ShardServer};
use rsn_serve::topology::{topology_json, Topology};
use rsn_serve::{
    BackendSelector, EvalService, Priority, RemoteShardDecl, ServiceConfig, ShardRouter,
};
use rsn_workloads::bert::BertConfig;
use std::time::Duration;

fn paper_backends() -> Evaluator {
    Evaluator::empty()
        .with_backend(Box::new(XnnAnalyticBackend::new()))
        .with_backend(Box::new(CharmBackend::new()))
}

fn paper_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(512, 6),
        },
        WorkloadSpec::FullModel {
            cfg: BertConfig::bert_large(384, 8),
        },
        WorkloadSpec::SquareGemm { n: 1024 },
        // Unsupported by both backends: error entries must cross the wire
        // and re-emit identically too.
        WorkloadSpec::DatapathProperties,
    ]
}

/// A service whose every backend is a remote shard on `server`.
fn remote_service(server: &ShardServer) -> EvalService {
    ShardRouter::new()
        .remote(&server.local_addr().to_string())
        .expect("loopback shard reachable")
        .build()
        .expect("unique shard names")
}

#[test]
fn remote_grid_is_byte_identical_to_in_process() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let remote = remote_service(&server);

    // Backend discovery preserves the shard's registration order.
    assert_eq!(remote.backend_names(), ["rsn-xnn", "charm"]);

    let workloads = paper_workloads();
    let local_grid = paper_backends().evaluate_grid(&workloads);
    let remote_grid = remote.evaluate_grid(&workloads);

    // Typed equality of every Ok cell...
    for (local_row, remote_row) in local_grid.iter().zip(&remote_grid) {
        for (local, remote) in local_row.iter().zip(remote_row) {
            match (local, remote) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("result shape diverged: {a:?} vs {b:?}"),
            }
        }
    }
    // ...and byte-identical JSON emission of the whole grid document.
    let names: Vec<String> = remote.backend_names().to_vec();
    assert_eq!(
        grid_json(&names, &workloads, &remote_grid).to_pretty(),
        grid_json(&names, &workloads, &local_grid).to_pretty()
    );

    // The shard did the evaluating; the client service attributed the work
    // to its remote shards.
    let server_stats = server.stats();
    assert!(server_stats.evaluations > 0);
    let client_stats = remote.stats();
    assert_eq!(
        client_stats
            .per_shard
            .iter()
            .map(|s| s.evaluations)
            .sum::<u64>(),
        client_stats.evaluations
    );
    // Stats documents cross the wire too (exercised via the emitters).
    assert!(stats_json(&server_stats).to_pretty().contains("per_shard"));
}

#[test]
fn mixed_local_and_remote_shards_serve_one_grid() {
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(CharmBackend::new()))),
    )
    .expect("bind loopback shard");
    let service = ShardRouter::new()
        .local(Box::new(XnnAnalyticBackend::new()))
        .remote(&server.local_addr().to_string())
        .expect("loopback shard reachable")
        .build()
        .expect("unique names across local and remote");
    assert_eq!(service.backend_names(), ["rsn-xnn", "charm"]);

    let workload = WorkloadSpec::EncoderLayer {
        cfg: BertConfig::bert_large(512, 6),
    };
    let results = service.evaluate(&workload);
    let rsn = results[0]
        .as_ref()
        .expect("local rsn-xnn")
        .latency_s
        .unwrap();
    let charm = results[1]
        .as_ref()
        .expect("remote charm")
        .latency_s
        .unwrap();
    assert!(charm > rsn, "paper headline must hold across the mix");

    // The remote shard's counters live on the shard server; the client
    // counts one evaluation per shard either way.
    let stats = service.stats();
    assert_eq!(stats.shard("rsn-xnn").unwrap().evaluations, 1);
    assert_eq!(stats.shard("charm").unwrap().evaluations, 1);
    assert_eq!(server.stats().evaluations, 1);
}

#[test]
fn remote_supports_probe_matches_local() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let remotes =
        RemoteBackend::connect_all(&server.local_addr().to_string()).expect("hello handshake");
    let local = paper_backends();
    for (remote, local) in remotes.iter().zip(local.backends()) {
        assert_eq!(remote.name(), local.name());
        for workload in paper_workloads() {
            assert_eq!(
                remote.supports(&workload),
                local.supports(&workload),
                "supports({}) diverged on {}",
                workload.name(),
                remote.name()
            );
        }
    }
}

#[test]
fn killed_shard_yields_transport_errors_not_hangs_or_poison() {
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))),
    )
    .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let service = ShardRouter::with_config(ServiceConfig::default())
        .remote(&addr)
        .expect("loopback shard reachable")
        .build()
        .expect("unique names");

    let spec = WorkloadSpec::SquareGemm { n: 512 };
    assert!(
        service.evaluate(&spec)[0].is_ok(),
        "shard alive: evaluation works"
    );

    // Kill the shard mid-stream.
    drop(server);

    let deadline = Duration::from_secs(10);
    let start = std::time::Instant::now();
    let first = service.evaluate(&WorkloadSpec::SquareGemm { n: 513 });
    assert!(
        start.elapsed() < deadline,
        "dead shard must fail fast, not hang"
    );
    match &first[0] {
        Err(EvalError::Transport { backend, .. }) => assert_eq!(backend, "rsn-xnn"),
        other => panic!("expected a transport error, got {other:?}"),
    }

    // Not cached poison: the same spec re-evaluates (and fails afresh)
    // instead of being served a retained error.
    let evals_after_first = service.stats().shard("rsn-xnn").unwrap().evaluations;
    let second = service.evaluate(&WorkloadSpec::SquareGemm { n: 513 });
    assert!(matches!(&second[0], Err(EvalError::Transport { .. })));
    assert_eq!(
        service.stats().shard("rsn-xnn").unwrap().evaluations,
        evals_after_first + 1,
        "errors must not be served from the cache"
    );

    // The pre-kill success *is* served from the cache (successes persist).
    assert!(service.evaluate(&spec)[0].is_ok());
}

#[test]
fn pooled_connections_amortise_dials_and_pipeline_micro_batches() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let service = remote_service(&server);

    // A grid of distinct cheap specs: every cell is a cache miss on the
    // client, so each would have been a fresh TCP connect before pooling.
    let specs: Vec<WorkloadSpec> = (1..=24usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 64 })
        .collect();
    let grid = service.evaluate_grid(&specs);
    assert!(grid.iter().flatten().all(Result::is_ok));

    let pool = service
        .stats()
        .pool(&addr)
        .expect("pool registered")
        .clone();
    // 2 backends × 24 specs = 48 evaluations, but far fewer exchanges
    // (pipelining) and far fewer dials than exchanges (pooling).
    assert!(
        pool.pipelined_batches > 0,
        "micro-batches must cross the wire as batch exchanges: {pool:?}"
    );
    assert!(
        pool.pipelined_specs > pool.pipelined_batches,
        "pipelined exchanges must carry multiple specs: {pool:?}"
    );
    assert!(
        pool.checkouts > pool.dials,
        "pooling must amortise dials across exchanges: {pool:?}"
    );
    assert_eq!(pool.redials, 0, "healthy shard: no re-dials: {pool:?}");

    // The handshake negotiated on both ends.
    let remotes = RemoteBackend::connect_all(&addr).expect("handshake");
    assert!(remotes[0].pool().negotiated());
}

/// A backend whose every evaluation sleeps: total batch time scales with
/// the spec count, exposing any transport that bounds a whole batch by a
/// single per-evaluation timeout.
struct SlowSquare {
    delay: Duration,
}

impl Backend for SlowSquare {
    fn name(&self) -> &str {
        "slow-square"
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        matches!(w, WorkloadSpec::SquareGemm { .. })
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<rsn_eval::EvalReport, EvalError> {
        std::thread::sleep(self.delay);
        Ok(rsn_eval::EvalReport::new(self.name(), w.name()))
    }
}

#[test]
fn batch_exchanges_scale_the_read_budget_with_the_spec_count() {
    // io_timeout 250 ms, 8 specs of ~100 ms each: the whole batch takes
    // ~800 ms — over a single io_timeout, comfortably inside 8× it.  A
    // transport that bounds the one batch-response read by a lone
    // io_timeout would fail this against a perfectly healthy shard.
    let delay = Duration::from_millis(100);
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SlowSquare { delay })),
            ServiceConfig {
                workers_per_backend: 1,
                ..ServiceConfig::default()
            },
        ),
    )
    .expect("bind loopback shard");
    let remote_config = rsn_serve::RemoteConfig {
        io_timeout: Duration::from_millis(250),
        ..rsn_serve::RemoteConfig::default()
    };
    let remotes = RemoteBackend::connect_all_with(&server.local_addr().to_string(), remote_config)
        .expect("handshake");
    let specs: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n })
        .collect();
    let results = remotes[0].evaluate_many(&specs);
    assert_eq!(results.len(), specs.len());
    for (spec, result) in specs.iter().zip(&results) {
        assert!(
            result.is_ok(),
            "slow batch must get a scaled read budget, got {result:?} for {}",
            spec.name()
        );
    }
    assert_eq!(remotes[0].pool().stats().pipelined_batches, 1);
}

#[test]
fn killed_shard_fails_every_queued_request_then_pool_refills_after_restart() {
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))),
    )
    .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let service = ShardRouter::new()
        .remote(&addr)
        .expect("loopback shard reachable")
        .build()
        .expect("unique names");

    // Warm the pool with successful pooled traffic.
    let warm: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 32 })
        .collect();
    assert!(service
        .evaluate_grid(&warm)
        .iter()
        .flatten()
        .all(Result::is_ok));
    let dials_before_kill = service.stats().pool(&addr).expect("pool").dials;

    // Kill the shard, then queue a burst of fresh (never-cached) specs:
    // every one must resolve to a Transport error — queued work may not
    // hang, and no half-dead pooled connection may fake an answer.
    drop(server);
    let fresh: Vec<WorkloadSpec> = (1..=16usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 32 + 7 })
        .collect();
    let started = std::time::Instant::now();
    let response = service
        .submit_batch(fresh.clone(), BackendSelector::All, Priority::Normal)
        .wait_timeout(Duration::from_secs(30))
        .expect("queued requests must resolve, not hang");
    assert!(started.elapsed() < Duration::from_secs(30));
    assert_eq!(response.results.len(), fresh.len());
    for (slot, (backend, result)) in response.results.iter().enumerate() {
        assert_eq!(backend.as_ref(), "rsn-xnn");
        assert!(
            matches!(**result, Err(EvalError::Transport { .. })),
            "slot {slot} of the dead-shard burst resolved to {result:?}"
        );
    }
    // The dead idle connections were discarded or failed into re-dials,
    // never silently reused.
    let pool = service.stats().pool(&addr).expect("pool").clone();
    assert!(
        pool.discarded + pool.redials > 0,
        "dead pooled connections must be noticed: {pool:?}"
    );

    // Restart the shard on the very same address: the pool must refill
    // with working connections and serve fresh evaluations again.
    let revived = ShardServer::bind(
        &addr,
        EvalService::new(Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))),
    )
    .expect("rebind the shard address");
    assert_eq!(revived.local_addr().to_string(), addr);
    let after: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 32 + 13 })
        .collect();
    assert!(
        service
            .evaluate_grid(&after)
            .iter()
            .flatten()
            .all(Result::is_ok),
        "restarted shard must serve through the same router"
    );
    let pool = service.stats().pool(&addr).expect("pool").clone();
    assert!(
        pool.dials > dials_before_kill,
        "the refill must have dialled fresh connections: {pool:?}"
    );
    // And errors were never cached: one of the burst specs now succeeds.
    assert!(service.evaluate(&fresh[0])[0].is_ok());
}

#[test]
fn shm_ring_negotiates_on_loopback_kills_promptly_and_unlinks_segments() {
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))),
    )
    .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let service = ShardRouter::new()
        .remote(&addr)
        .expect("loopback shard reachable")
        .build()
        .expect("unique names");

    // Loopback + the default `auto` policy on both ends: the hello offers
    // a ring and the pool switches onto it.
    let specs: Vec<WorkloadSpec> = (1..=32usize)
        .map(|n| WorkloadSpec::SquareGemm { n: 4096 + n })
        .collect();
    assert!(service
        .evaluate_grid(&specs)
        .iter()
        .flatten()
        .all(Result::is_ok));
    let pool = service.stats().pool(&addr).expect("pool").clone();
    assert!(
        pool.ring_exchanges > 0,
        "loopback auto-negotiation must carry exchanges over the ring: {pool:?}"
    );
    let segments = server.ring_segments();
    assert!(
        !segments.is_empty(),
        "a ring connection must own a live segment"
    );
    assert!(
        segments.iter().all(|p| p.exists()),
        "advertised segments must exist on disk: {segments:?}"
    );

    // Kill the shard mid-stream: the ring's liveness socket reports the
    // death and the evaluation fails with a prompt transport error.
    drop(server);
    let started = std::time::Instant::now();
    let result = service.evaluate(&WorkloadSpec::SquareGemm { n: 8191 });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dead ring peer must fail fast, not hang"
    );
    match &result[0] {
        Err(EvalError::Transport { backend, .. }) => assert_eq!(backend, "rsn-xnn"),
        other => panic!("expected a transport error over the dead ring, got {other:?}"),
    }

    // The serving threads wind down and every stale segment is unlinked —
    // nothing leaks into /dev/shm.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while segments.iter().any(|p| p.exists()) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    for path in &segments {
        assert!(
            !path.exists(),
            "stale ring segment {} must be unlinked on server teardown",
            path.display()
        );
    }

    // Restart on the same address: the pool re-dials, re-negotiates a
    // fresh ring, and serves again.
    let revived = ShardServer::bind(
        &addr,
        EvalService::new(Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))),
    )
    .expect("rebind the shard address");
    let ring_exchanges_before = service.stats().pool(&addr).expect("pool").ring_exchanges;
    let after: Vec<WorkloadSpec> = (1..=16usize)
        .map(|n| WorkloadSpec::SquareGemm { n: 8192 + n })
        .collect();
    assert!(service
        .evaluate_grid(&after)
        .iter()
        .flatten()
        .all(Result::is_ok));
    let pool = service.stats().pool(&addr).expect("pool").clone();
    assert!(
        pool.ring_exchanges > ring_exchanges_before,
        "the restarted shard must renegotiate the ring: {pool:?}"
    );
    drop(revived);
}

#[test]
fn socket_transport_policy_declines_the_ring_and_stays_byte_identical() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let socket_only = rsn_serve::RemoteConfig {
        transport: rsn_serve::TransportPolicy::Socket,
        ..rsn_serve::RemoteConfig::default()
    };
    let service = ShardRouter::new()
        .remote_with(&addr, socket_only, 1)
        .expect("loopback shard reachable")
        .build()
        .expect("unique names");

    let workloads = paper_workloads();
    let via_socket = grid_json(
        service.backend_names(),
        &workloads,
        &service.evaluate_grid(&workloads),
    )
    .to_pretty();
    let in_process = EvalService::new(paper_backends());
    let reference = grid_json(
        in_process.backend_names(),
        &workloads,
        &in_process.evaluate_grid(&workloads),
    )
    .to_pretty();
    assert_eq!(via_socket, reference, "socket-only grid is byte-identical");

    let pool = service.stats().pool(&addr).expect("pool").clone();
    assert_eq!(
        pool.ring_exchanges, 0,
        "a socket-policy client must never touch the ring: {pool:?}"
    );
}

#[test]
fn topology_file_assembles_a_mixed_local_remote_service() {
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(CharmBackend::new()))),
    )
    .expect("bind loopback shard");

    // Emit the topology to a real file and load it back — the deployment
    // path, not just the in-memory one.
    let topology = Topology {
        listen: None,
        service: ServiceConfig::default(),
        local: vec!["rsn-xnn".to_string()],
        remotes: vec![RemoteShardDecl {
            addr: server.local_addr().to_string(),
            weight: 2,
            pool_size: Some(3),
            encoding: None,
            transport: None,
        }],
        replicas: Vec::new(),
    };
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("topologies");
    std::fs::create_dir_all(&dir).expect("topology dir");
    let path = dir.join("mixed.json");
    std::fs::write(&path, topology_json(&topology).to_pretty()).expect("write topology");
    let loaded = Topology::from_file(&path).expect("load topology");
    assert_eq!(loaded, topology);

    let service = ShardRouter::from_topology(&loaded)
        .expect("assemble from topology")
        .build()
        .expect("unique names");
    assert_eq!(service.backend_names(), ["rsn-xnn", "charm"]);

    // Same grid, byte-identical to fully in-process evaluation.
    let workloads = paper_workloads();
    let names: Vec<String> = service.backend_names().to_vec();
    assert_eq!(
        grid_json(&names, &workloads, &service.evaluate_grid(&workloads)).to_pretty(),
        grid_json(
            &names,
            &workloads,
            &paper_backends().evaluate_grid(&workloads)
        )
        .to_pretty()
    );
    // The declared pool bound reached the shard's connection pool.
    let pool = service
        .stats()
        .pool(&server.local_addr().to_string())
        .cloned()
        .expect("topology-declared pool registered");
    assert!(pool.checkouts > 0);
}

#[test]
fn topology_with_unknown_local_backend_is_rejected() {
    let topology = Topology {
        local: vec!["no-such-backend".to_string()],
        ..Topology::default()
    };
    match ShardRouter::from_topology(&topology) {
        Err(rsn_serve::RouterError::UnknownBackend { name, available }) => {
            assert_eq!(name, "no-such-backend");
            assert!(available.iter().any(|n| n == "rsn-xnn"));
        }
        Err(other) => panic!("expected UnknownBackend, got {other:?}"),
        Ok(_) => panic!("expected UnknownBackend, got a router"),
    }
}

#[test]
fn shardd_binary_speaks_the_protocol() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    // Keep the child's output as a log file for CI to upload on failure.
    let log_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shard-logs");
    std::fs::create_dir_all(&log_dir).expect("create shard log dir");
    let log_path = log_dir.join("shardd.log");
    let log = std::fs::File::create(&log_path).expect("create shard log");

    let mut child = Command::new(env!("CARGO_BIN_EXE_shardd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--backends",
            "rsn-xnn",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .expect("spawn shardd");

    // First stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("shardd listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let remotes = RemoteBackend::connect_all(&addr).expect("hello against shardd");
        assert_eq!(remotes.len(), 1);
        assert_eq!(remotes[0].name(), "rsn-xnn");
        let report = remotes[0]
            .evaluate(&WorkloadSpec::SquareGemm { n: 1024 })
            .expect("evaluate through the process boundary");
        // Same numbers as in-process.
        let local = XnnAnalyticBackend::new()
            .evaluate(&WorkloadSpec::SquareGemm { n: 1024 })
            .expect("local evaluation");
        assert_eq!(report, local);

        // Kill the process: the next call is a transport error.
        child.kill().expect("kill shardd");
        child.wait().expect("reap shardd");
        match remotes[0].evaluate(&WorkloadSpec::SquareGemm { n: 2048 }) {
            Err(EvalError::Transport { .. }) => {}
            other => panic!("expected transport error after kill, got {other:?}"),
        }
    }));
    // Whatever happened, don't leak the child.
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        eprintln!("shardd log kept at {}", log_path.display());
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn dict_encoding_negotiates_shrinks_the_wire_and_counts() {
    use rsn_serve::{EncodingPolicy, RemoteConfig};

    // One shard, two clients over the same workload stream: the default
    // `auto` encoding (symbol dictionaries once the hello has answered)
    // and the `binary_nodict` escape hatch.  Identical results, fewer
    // bytes, and the dictionary counters populate only on the `auto`
    // client.
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let specs: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 64 })
        .collect();

    let run = |encoding: EncodingPolicy| {
        let config = RemoteConfig {
            encoding,
            ..RemoteConfig::default()
        };
        let remotes =
            RemoteBackend::connect_all_with(&addr, config).expect("loopback shard reachable");
        // Three passes over the same specs: the first defines every label,
        // the rest must resolve them by reference.
        let mut runs = Vec::new();
        for _ in 0..3 {
            runs.push(remotes[0].evaluate_many(&specs));
        }
        (runs, remotes[0].pool().stats())
    };

    // Both clients open with the same plain binary hello, so their byte
    // counters differ only by the dictionary encoding itself.
    let (dict_runs, dict_stats) = run(EncodingPolicy::Auto);
    let (plain_runs, plain_stats) = run(EncodingPolicy::BinaryNodict);

    // Identical domain results either way.
    for (dict_run, plain_run) in dict_runs.iter().zip(&plain_runs) {
        for (a, b) in dict_run.iter().zip(plain_run) {
            assert_eq!(a.as_ref().expect("dict ok"), b.as_ref().expect("nodict ok"));
        }
    }
    // The default picked the dictionaries: labels interned, then resolved
    // by reference.
    assert!(
        dict_stats.dict_defines > 0,
        "auto client never defined a symbol"
    );
    assert!(
        dict_stats.dict_hits > dict_stats.dict_defines,
        "repeated labels must resolve by reference: {} hits vs {} defines",
        dict_stats.dict_hits,
        dict_stats.dict_defines
    );
    // The escape hatch never touched a table...
    assert_eq!(plain_stats.dict_defines, 0);
    assert_eq!(plain_stats.dict_hits, 0);
    // ...and the dictionary stream is smaller in both directions.
    assert!(
        dict_stats.bytes_received < plain_stats.bytes_received,
        "dict responses must shrink the wire: {} vs {} bytes",
        dict_stats.bytes_received,
        plain_stats.bytes_received
    );
    assert!(
        dict_stats.bytes_sent < plain_stats.bytes_sent,
        "dict requests must shrink the wire: {} vs {} bytes",
        dict_stats.bytes_sent,
        plain_stats.bytes_sent
    );
}

// ---------------------------------------------------------------------------
// One protocol: refusals instead of fallbacks
// ---------------------------------------------------------------------------

use rsn_serve::binary;
use rsn_serve::wire::{
    read_request_frame, read_response_frame, write_response_frame, ShardRequest, ShardResponse,
    PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Sends one raw length-prefixed payload and reads back the single binary
/// response frame the shard answers with.
fn raw_exchange(stream: &mut TcpStream, payload: &[u8]) -> (u64, ShardResponse) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .expect("write prefix");
    stream.write_all(payload).expect("write payload");
    let (id, response, _) = read_response_frame(stream, &mut Vec::new())
        .expect("a binary response frame")
        .expect("an answer, not EOF");
    (id, response)
}

/// Asserts the peer has closed the connection (FIN or reset), not hung.
fn assert_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the shard to close the connection, got {other:?}"),
    }
}

fn raw_connect(server: &ShardServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to shard");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

#[test]
fn threads_front_end_refuses_another_protocol_version_naming_both() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let mut stream = raw_connect(&server);
    let mut payload = Vec::new();
    binary::encode_request(&mut payload, 1, &ShardRequest::Hello { protocol: 6 });
    match raw_exchange(&mut stream, &payload) {
        (1, ShardResponse::Rejected(message)) => {
            assert!(message.contains("protocol 6"), "{message}");
            assert!(
                message.contains(&format!("only {PROTOCOL_VERSION}")),
                "{message}"
            );
        }
        other => panic!("expected a version refusal, got {other:?}"),
    }
}

#[test]
fn threads_front_end_refuses_json_frames_in_binary_and_closes() {
    let server = ShardServer::bind("127.0.0.1:0", EvalService::new(paper_backends()))
        .expect("bind loopback shard");
    let mut stream = raw_connect(&server);
    match raw_exchange(&mut stream, br#"{"id":1,"kind":"hello"}"#) {
        (0, ShardResponse::Rejected(message)) => {
            assert!(
                message.contains(&format!("protocol {PROTOCOL_VERSION}")),
                "{message}"
            );
        }
        other => panic!("expected a binary rejection, got {other:?}"),
    }
    assert_closed(&mut stream);
    // The shard itself is unharmed: a conforming client still evaluates.
    let remotes =
        RemoteBackend::connect_all(&server.local_addr().to_string()).expect("shard still serves");
    assert!(remotes[0]
        .evaluate(&WorkloadSpec::SquareGemm { n: 256 })
        .is_ok());
}

#[test]
fn client_refuses_a_shard_of_another_version_on_first_evaluation() {
    // A stub shard from the future: its hello advertises the next version.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub shard");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                let backend = XnnAnalyticBackend::new();
                let mut scratch = Vec::new();
                while let Ok(Some((id, request, _, _))) =
                    read_request_frame(&mut stream, &mut scratch)
                {
                    let response = match request {
                        ShardRequest::Hello { .. } => ShardResponse::Backends {
                            names: vec!["rsn-xnn".to_string()],
                            protocol: PROTOCOL_VERSION + 1,
                            ring: None,
                            window: None,
                        },
                        ShardRequest::Evaluate { spec, .. } => {
                            ShardResponse::Evaluated(std::sync::Arc::new(backend.evaluate(&spec)))
                        }
                        _ => ShardResponse::Rejected("stub".to_string()),
                    };
                    if write_response_frame(&mut stream, id, &response, &mut scratch).is_err() {
                        return;
                    }
                }
            });
        }
    });

    // The default client (its dial-time hello negotiates a ring) and a
    // socket-only one (whose dials skip that hello) both refuse.
    let socket_only = rsn_serve::RemoteConfig {
        transport: rsn_serve::TransportPolicy::Socket,
        ..rsn_serve::RemoteConfig::default()
    };
    for client in [
        RemoteBackend::named(&addr, "rsn-xnn"),
        RemoteBackend::named_with(&addr, "rsn-xnn", socket_only),
    ] {
        match client.evaluate(&WorkloadSpec::SquareGemm { n: 512 }) {
            Err(EvalError::Transport { detail, .. }) => {
                assert!(
                    detail.contains(&format!("protocol {}", PROTOCOL_VERSION + 1)),
                    "{detail}"
                );
                assert!(
                    detail.contains(&format!("only {PROTOCOL_VERSION}")),
                    "{detail}"
                );
            }
            other => panic!("expected a transport error naming both versions, got {other:?}"),
        }
        assert!(!client.pool().negotiated());
    }
    // The handshake-first constructor refuses up front.
    assert!(RemoteBackend::connect_all(&addr).is_err());
}
