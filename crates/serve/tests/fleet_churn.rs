//! Churn tests of the fleet layer: replicated shard groups surviving the
//! failures they exist for, live.
//!
//! Each test stands up real `ShardServer`s on loopback and drives a fleet
//! service through the operator scenarios pinned by the fleet layer's
//! contract:
//!
//! * killing one replica of a two-replica group mid-stream loses **zero**
//!   requests — in-flight exchanges fail over to the sibling, the dead
//!   replica's breaker trips, and `hedges_won + failovers > 0` shows the
//!   resilience machinery (not luck) absorbed the outage;
//! * a stalled (slow) replica is hedged against after the per-group
//!   latency budget, and the fast sibling's answer wins well before the
//!   stall ends;
//! * a replica that accepts connections but never answers costs the
//!   caller the hedge budget, not the transport timeout;
//! * editing the topology file on disk re-admits a replaced shard through
//!   [`FleetController::reload`]/[`ShardRouter::watch`] without restarting
//!   the service.

use rsn_eval::{Backend, EvalError, EvalReport, Evaluator, WorkloadSpec};
use rsn_serve::remote::ShardServer;
use rsn_serve::topology::{topology_json, Topology};
use rsn_serve::{
    BreakerConfig, EvalRequest, EvalService, RemoteShardDecl, ReplicaGroupDecl, ServiceConfig,
    ShardRouter,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A deterministic replica workload: every replica of the group hosts a
/// backend with this exact name, so reports are byte-identical no matter
/// which replica served them.  `delay` models a slow (stalled) replica.
struct DelaySquare {
    delay: Duration,
}

impl Backend for DelaySquare {
    fn name(&self) -> &str {
        "square"
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        matches!(w, WorkloadSpec::SquareGemm { .. })
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        Ok(EvalReport::new(self.name(), w.name()))
    }
}

fn square_shard(delay: Duration) -> ShardServer {
    ShardServer::bind(
        "127.0.0.1:0",
        EvalService::new(Evaluator::empty().with_backend(Box::new(DelaySquare { delay }))),
    )
    .expect("bind loopback shard")
}

/// A two-field topology over `addrs`: every address is a remote shard and
/// all of them form one `square` replica group with an explicit (small,
/// deterministic) hedge budget and a hair-trigger breaker.
fn square_fleet_topology(addrs: &[String], hedge_budget_us: u64) -> Topology {
    Topology {
        listen: None,
        service: ServiceConfig::default(),
        local: Vec::new(),
        remotes: addrs.iter().map(|a| RemoteShardDecl::new(a)).collect(),
        replicas: vec![ReplicaGroupDecl {
            backend: "square".to_string(),
            shards: addrs.to_vec(),
            hedge_budget_us: Some(hedge_budget_us),
            breaker: Some(BreakerConfig {
                window: 4,
                max_failures: 2,
                cooldown: Duration::from_secs(60),
            }),
        }],
    }
}

fn topology_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet_churn");
    std::fs::create_dir_all(&dir).expect("topology dir");
    dir.join(name)
}

fn write_topology(path: &PathBuf, topology: &Topology) {
    std::fs::write(path, topology_json(topology).to_pretty()).expect("write topology file");
}

fn assert_clean(result: &Result<EvalReport, EvalError>, spec: &WorkloadSpec) {
    match result {
        Ok(report) => assert_eq!(report.backend.as_ref(), "square"),
        Err(e @ (EvalError::Transport { .. } | EvalError::Overloaded { .. })) => {
            panic!("churn leaked an error for {}: {e}", spec.name())
        }
        Err(other) => panic!("unexpected error for {}: {other}", spec.name()),
    }
}

#[test]
fn killing_one_replica_mid_stream_loses_no_requests_and_reload_readmits() {
    let server_a = square_shard(Duration::from_millis(1));
    let server_b = square_shard(Duration::from_millis(1));
    let addr_a = server_a.local_addr().to_string();
    let addr_b = server_b.local_addr().to_string();

    // The deployment path: topology through a real file.
    let topology = square_fleet_topology(&[addr_a.clone(), addr_b.clone()], 50_000);
    let path = topology_path("churn.json");
    write_topology(&path, &topology);
    let loaded = Topology::from_file(&path).expect("load topology");
    assert_eq!(loaded, topology);

    let (service, controller) = ShardRouter::from_topology(&loaded)
        .expect("assemble fleet from topology")
        .build_fleet()
        .expect("unique backend names");
    assert_eq!(service.backend_names(), ["square"]);
    assert_eq!(
        controller.replica_addrs("square"),
        Some(vec![addr_a.clone(), addr_b.clone()])
    );

    // Phase 1 — both replicas healthy: a spread of distinct specs lands on
    // both (rendezvous routing), every answer clean.
    let warm: Vec<WorkloadSpec> = (1..=40).map(|n| WorkloadSpec::SquareGemm { n }).collect();
    let handles: Vec<_> = warm
        .iter()
        .map(|spec| service.submit(EvalRequest::all(spec.clone())))
        .collect();
    for (handle, spec) in handles.into_iter().zip(&warm) {
        let response = handle.wait();
        assert_clean(response.results[0].1.as_ref(), spec);
    }

    // Phase 2 — kill replica A while a stream is in flight.  The stream
    // must complete with zero Transport/Overloaded errors: exchanges that
    // died mid-flight on A fail over to B, and once A's breaker trips the
    // rest route straight to B.
    let stream: Vec<WorkloadSpec> = (100..=180)
        .map(|n| WorkloadSpec::SquareGemm { n })
        .collect();
    let handles: Vec<_> = stream
        .iter()
        .map(|spec| service.submit(EvalRequest::all(spec.clone())))
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    drop(server_a); // sever every connection; the port goes dead
    for (handle, spec) in handles.into_iter().zip(&stream) {
        let response = handle.wait();
        assert_clean(response.results[0].1.as_ref(), spec);
    }
    // Guaranteed post-kill traffic so the failover counters cannot depend
    // on scheduler timing above.
    let after: Vec<WorkloadSpec> = (200..=240)
        .map(|n| WorkloadSpec::SquareGemm { n })
        .collect();
    for spec in &after {
        assert_clean(&service.evaluate(spec)[0], spec);
    }

    let stats = service.stats();
    let recovered: u64 = stats
        .remote_pools
        .iter()
        .map(|p| p.hedges_won + p.failovers)
        .sum();
    assert!(
        recovered > 0,
        "killing a replica must be absorbed by hedges or failovers, stats: {stats:?}"
    );
    let trips: u64 = stats.remote_pools.iter().map(|p| p.breaker_trips).sum();
    assert!(
        trips >= 1,
        "dead replica's breaker must trip, stats: {stats:?}"
    );

    // Phase 3 — operator replaces the dead shard in the topology file and
    // reloads: A drains out of the group, C joins, no restart.
    let server_c = square_shard(Duration::from_millis(1));
    let addr_c = server_c.local_addr().to_string();
    let replacement = square_fleet_topology(&[addr_b.clone(), addr_c.clone()], 50_000);
    write_topology(&path, &replacement);
    let reloaded = Topology::from_file(&path).expect("reload topology");
    let changed = controller.reload(&reloaded);
    assert!(
        changed >= 2,
        "expected A drained + C added, got {changed} changes"
    );
    assert_eq!(
        controller.replica_addrs("square"),
        Some(vec![addr_b.clone(), addr_c.clone()])
    );

    let fresh: Vec<WorkloadSpec> = (300..=360)
        .map(|n| WorkloadSpec::SquareGemm { n })
        .collect();
    for spec in &fresh {
        assert_clean(&service.evaluate(spec)[0], spec);
    }
    let stats = service.stats();
    assert!(
        stats.pool(&addr_a).is_none(),
        "drained replica must leave the stats registry"
    );
    let pool_c = stats.pool(&addr_c).expect("re-added replica registered");
    assert!(pool_c.checkouts > 0, "re-added replica must serve traffic");
}

#[test]
fn hedged_requests_beat_a_stalled_replica() {
    // One replica stalls on every evaluation; after the 5 ms hedge budget
    // the fleet re-issues the exchange against the fast sibling, whose
    // answer wins.
    let slow = square_shard(Duration::from_millis(80));
    let fast = square_shard(Duration::ZERO);
    let addr_slow = slow.local_addr().to_string();
    let addr_fast = fast.local_addr().to_string();

    let topology = square_fleet_topology(&[addr_slow.clone(), addr_fast.clone()], 5_000);
    let (service, _controller) = ShardRouter::from_topology(&topology)
        .expect("assemble fleet")
        .build_fleet()
        .expect("unique backend names");

    // Connection set-up (dial, ring, hello) is not what the bound below
    // measures, and no hedge can hide it on the fast replica: warm that
    // replica's pool first.
    let mut warm = 1000;
    while service
        .stats()
        .pool(&addr_fast)
        .is_none_or(|pool| pool.checkouts == 0)
    {
        let spec = WorkloadSpec::SquareGemm { n: warm };
        assert_clean(&service.evaluate(&spec)[0], &spec);
        warm += 1;
    }

    // Distinct specs so rendezvous routing sends roughly half to the slow
    // primary — those are the ones that hedge.  Every answer must beat the
    // 80 ms stall by a wide margin: a fleet that launched the hedge but
    // still waited out its primary would not.
    let mut slowest = Duration::ZERO;
    for n in 1..=32 {
        let spec = WorkloadSpec::SquareGemm { n };
        let started = Instant::now();
        let result = service.evaluate(&spec);
        slowest = slowest.max(started.elapsed());
        assert_clean(&result[0], &spec);
    }
    assert!(
        slowest < Duration::from_millis(40),
        "the hedge must answer before the 80 ms stall; slowest answer {slowest:?}"
    );

    let stats = service.stats();
    let launched: u64 = stats.remote_pools.iter().map(|p| p.hedges_launched).sum();
    let won: u64 = stats.remote_pools.iter().map(|p| p.hedges_won).sum();
    assert!(
        launched > 0,
        "slow primary must trigger hedges, stats: {stats:?}"
    );
    assert!(won > 0, "fast sibling must win hedges, stats: {stats:?}");
    // Wins land on the replica that answered, not the one that stalled.
    let fast_pool = stats.pool(&addr_fast).expect("fast replica registered");
    assert!(fast_pool.hedges_won > 0);
}

#[test]
fn a_replica_that_never_answers_is_hedged_without_blocking_the_caller() {
    // A listener that is never accepted from: the kernel completes every
    // connect, and then nothing is ever read or answered — a hung shard.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").expect("bind hung replica");
    let addr_hung = hung.local_addr().expect("hung addr").to_string();
    let fast = square_shard(Duration::ZERO);
    let addr_fast = fast.local_addr().to_string();

    let mut topology = square_fleet_topology(&[addr_hung, addr_fast], 5_000);
    let io_timeout = Duration::from_secs(2);
    topology.service.remote.io_timeout = io_timeout;
    let (service, _controller) = ShardRouter::from_topology(&topology)
        .expect("assemble fleet")
        .build_fleet()
        .expect("unique backend names");

    // Specs that prefer the hung replica must be answered by the hedge,
    // never after the caller waited out a hello, dial or read on it.
    for n in 1..=16 {
        let spec = WorkloadSpec::SquareGemm { n };
        let started = Instant::now();
        let result = service.evaluate(&spec);
        assert_clean(&result[0], &spec);
        assert!(
            started.elapsed() < io_timeout / 2,
            "spec {n} waited {:?} on the hung replica",
            started.elapsed()
        );
    }
}

#[test]
fn watch_applies_topology_file_edits_without_restart() {
    let server_a = square_shard(Duration::ZERO);
    let addr_a = server_a.local_addr().to_string();

    let path = topology_path("watched.json");
    write_topology(
        &path,
        &square_fleet_topology(std::slice::from_ref(&addr_a), 50_000),
    );

    let (service, controller) =
        ShardRouter::watch(&path, Duration::from_millis(25)).expect("watching fleet service");
    assert!(controller.is_watching());
    let spec = WorkloadSpec::SquareGemm { n: 7 };
    assert_clean(&service.evaluate(&spec)[0], &spec);

    // Grow the group on disk; the watcher must pick the edit up and admit
    // the new replica while the service keeps serving.
    let server_b = square_shard(Duration::ZERO);
    let addr_b = server_b.local_addr().to_string();
    write_topology(
        &path,
        &square_fleet_topology(&[addr_a.clone(), addr_b.clone()], 50_000),
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let addrs = controller.replica_addrs("square").expect("group exists");
        if addrs.contains(&addr_b) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never applied the file edit; group still {addrs:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for n in 10..=41 {
        let spec = WorkloadSpec::SquareGemm { n };
        assert_clean(&service.evaluate(&spec)[0], &spec);
    }
    let stats = service.stats();
    let pool_b = stats.pool(&addr_b).expect("watched-in replica registered");
    assert!(
        pool_b.checkouts > 0,
        "watched-in replica must serve traffic"
    );
}
