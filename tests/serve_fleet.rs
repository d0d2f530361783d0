//! A replicated shard fleet end to end, through the facade: two loopback
//! shards hosting `rsn-xnn` and `cycle-engine`, one replica group per
//! backend, must answer a mixed spec list exactly as the same backends do
//! in-process — whether each exchange answers in time on the caller's
//! thread or goes late and is raced against its sibling replica.

use rsn::eval::{Backend, CycleEngineBackend, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn::serve::json::grid_json;
use rsn::serve::{
    EvalService, RemoteShardDecl, ReplicaGroupDecl, ServiceConfig, ShardRouter, ShardServer,
    Topology,
};
use rsn::workloads::bert::BertConfig;

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(XnnAnalyticBackend::new()),
        Box::new(CycleEngineBackend::new()),
    ]
}

fn in_process() -> Evaluator {
    Evaluator::empty().with_backends(backends())
}

fn loopback_shard() -> ShardServer {
    ShardServer::bind("127.0.0.1:0", EvalService::new(in_process())).expect("bind loopback shard")
}

/// A fleet over `shards` with one replica group per backend; `hedge_budget_us`
/// `None` derives each group's budget from the observed p95 of its own
/// exchanges on the primary replica.
fn fleet(shards: &[ShardServer], hedge_budget_us: Option<u64>) -> EvalService {
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let members: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let group = |backend: &str| ReplicaGroupDecl {
        hedge_budget_us,
        ..ReplicaGroupDecl::new(backend, &members)
    };
    let topology = Topology {
        service: ServiceConfig::default(),
        remotes: addrs.iter().map(|a| RemoteShardDecl::new(a)).collect(),
        replicas: vec![group("rsn-xnn"), group("cycle-engine")],
        ..Topology::default()
    };
    let (service, _controller) = ShardRouter::from_topology(&topology)
        .and_then(ShardRouter::build_fleet)
        .expect("assemble the fleet");
    assert_eq!(service.backend_names(), ["rsn-xnn", "cycle-engine"]);
    service
}

/// Analytic and value-accurate specs, so each backend both answers and
/// declines some of them.
fn mixed_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::SquareGemm { n: 256 },
        WorkloadSpec::SquareGemm { n: 1024 },
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::tiny(8, 1),
        },
        WorkloadSpec::FunctionalGemm {
            m: 16,
            k: 32,
            n: 32,
            seed: 3,
        },
        WorkloadSpec::FunctionalAttention {
            cfg: BertConfig::tiny(8, 1),
            seed: 5,
        },
        WorkloadSpec::ScalarPipeline { elements: 300 },
    ]
}

fn assert_grid_matches_in_process(service: &EvalService) {
    let specs = mixed_specs();
    let names = service.backend_names().to_vec();
    assert_eq!(
        grid_json(&names, &specs, &service.evaluate_grid(&specs)).to_pretty(),
        grid_json(&names, &specs, &in_process().evaluate_grid(&specs)).to_pretty(),
        "a grid evaluated through the fleet must emit the in-process text"
    );
}

#[test]
fn fleet_answers_like_in_process_with_a_derived_hedge_budget() {
    let shards = [loopback_shard(), loopback_shard()];
    let service = fleet(&shards, None);
    // Enough distinct exchanges (about 24 per replica of each group) for
    // every replica to derive a p95 budget, so the grid below runs on the
    // hedged path, answering in time.
    for n in 1..=48 {
        let spec = WorkloadSpec::SquareGemm { n: 64 * n };
        assert!(service.evaluate(&spec)[0].is_ok(), "warm-up {n}");
    }
    assert_grid_matches_in_process(&service);
}

#[test]
fn fleet_answers_like_in_process_when_every_exchange_is_late() {
    let shards = [loopback_shard(), loopback_shard()];
    // A 1 µs budget: no answer arrives in time, so every exchange is
    // finished on a thread of its own while a sibling races it.
    let service = fleet(&shards, Some(1));
    assert_grid_matches_in_process(&service);
    let launched: u64 = service
        .stats()
        .remote_pools
        .iter()
        .map(|pool| pool.hedges_launched)
        .sum();
    assert!(launched > 0, "late exchanges must launch hedges");
}
