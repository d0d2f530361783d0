//! Round-trip guarantees of the `rsn_serve::json` emitter and parser.
//!
//! For every document the service emits — reports, grids, workload specs,
//! errors, stats — these tests pin `emit(parse(s)) == s` byte-identically
//! for every emitted `s`, which is what makes snapshot files and emitted
//! documents diffable.  Topology files additionally round-trip typed:
//! `decode(parse(emit(t))) == t`.

use rsn_eval::{
    BreakdownRow, CycleStats, EvalError, EvalReport, SchedulerKind, SegmentMetric, WorkloadSpec,
};
use rsn_lib::mapping::MappingType;
use rsn_serve::json::{
    error_json, grid_json, parse, report_json, result_json, stats_json, workload_spec_json,
    JsonValue,
};
use rsn_serve::topology::{topology_from_json, topology_json};
use rsn_serve::{
    ClassStats, LatencyHistogram, PoolStats, Priority, RemoteConfig, RemoteShardDecl,
    ServiceConfig, ServiceStats, ShardStats, Topology,
};
use rsn_workloads::bert::BertConfig;
use rsn_workloads::models::ModelKind;

/// Emits, parses, and re-emits: the two texts must match byte for byte.
fn assert_emit_stable(doc: &JsonValue) -> JsonValue {
    let text = doc.to_pretty();
    let parsed = parse(&text).unwrap_or_else(|e| panic!("emitted text must parse: {e}\n{text}"));
    assert_eq!(
        parsed.to_pretty(),
        text,
        "emit(parse(s)) must be byte-identical"
    );
    parsed
}

fn rich_report() -> EvalReport {
    let mut report = EvalReport::new("rsn-xnn", "encoder-layer L=512 B=6");
    report.latency_s = Some(17.98e-3);
    report.throughput_tasks_per_s = Some(333.76);
    report.achieved_flops = Some(4.7e12);
    report.segments.push(SegmentMetric {
        name: "Attention MM1+MM2 (pipelined)".into(),
        latency_s: 2.618e-3,
        compute_s: 2.0e-3,
        ddr_s: 0.4e-3,
        lpddr_s: 0.1e-3,
        phase_s: 0.118e-3,
    });
    report.breakdown.push(BreakdownRow {
        name: "quoted \"name\"\twith\nspecials \\ ×".into(),
        values: vec![("watts".into(), 60.8), ("share".into(), 0.6163)],
    });
    // An empty values object and empty metric map exercise `{}`.
    report.breakdown.push(BreakdownRow {
        name: "empty".into(),
        values: Vec::new(),
    });
    report.cycle = Some(CycleStats {
        scheduler: SchedulerKind::EventDriven,
        steps: 12345,
        fu_step_calls: 67890,
        makespan_cycles: u64::MAX,
        uops_retired: 42,
        words_transferred: 0,
        max_abs_error: Some(3.0517578125e-5),
    });
    report.metrics.insert("speedup".to_string(), 2.47);
    report.metrics.insert("aie_utilization".to_string(), 0.95);
    report
}

#[test]
fn report_round_trips_textually() {
    assert_emit_stable(&report_json(&rich_report()));
}

#[test]
fn empty_report_round_trips() {
    // Empty segment/breakdown arrays and metric maps, all scalars absent.
    assert_emit_stable(&report_json(&EvalReport::new("b", "w")));
}

#[test]
fn non_finite_floats_emit_null() {
    let mut report = EvalReport::new("b", "w");
    report.latency_s = Some(f64::NAN);
    report.achieved_flops = Some(f64::INFINITY);
    report.metrics.insert("nan_metric".to_string(), f64::NAN);
    let text = report_json(&report).to_pretty();
    assert!(text.contains("\"latency_s\": null"));
    assert!(text.contains("\"achieved_flops\": null"));
    assert!(text.contains("\"nan_metric\": null"));
    assert_emit_stable(&report_json(&report));
}

#[test]
fn every_workload_spec_round_trips() {
    let cfg = BertConfig::bert_large(512, 6);
    let tiny = BertConfig::tiny(8, 2);
    let specs = [
        WorkloadSpec::EncoderLayer { cfg },
        WorkloadSpec::FullModel { cfg },
        WorkloadSpec::SquareGemm { n: 6144 },
        WorkloadSpec::ZooModel {
            kind: ModelKind::Ncf,
        },
        WorkloadSpec::AttentionMapping {
            cfg,
            mapping: MappingType::Pipeline,
        },
        WorkloadSpec::PowerBreakdown,
        WorkloadSpec::DatapathProperties,
        WorkloadSpec::InstructionFootprint {
            m: 384,
            k: 256,
            n: 384,
        },
        WorkloadSpec::FunctionalGemm {
            m: 24,
            k: 16,
            n: 24,
            seed: u64::MAX,
        },
        WorkloadSpec::FunctionalAttention { cfg: tiny, seed: 9 },
        WorkloadSpec::ScalarPipeline { elements: 300 },
    ];
    for spec in specs {
        assert_emit_stable(&workload_spec_json(&spec));
    }
}

#[test]
fn every_eval_error_round_trips_textually() {
    let exact = [
        EvalError::Unsupported {
            backend: "gpu T4".to_string(),
            workload: "power-breakdown".to_string(),
        },
        EvalError::TooLarge {
            backend: "cycle-engine".to_string(),
            workload: "gemm 6144^3".to_string(),
            limit: "≤ 2^20 streamed values".to_string(),
        },
        EvalError::Panicked {
            backend: "poisoned".to_string(),
            workload: "w".to_string(),
            reason: "index out of bounds\nsecond line".to_string(),
        },
        EvalError::Transport {
            backend: "remote rsn-xnn".to_string(),
            detail: "connection refused".to_string(),
        },
        EvalError::Remote {
            message: "engine error: deadlock at step 17".to_string(),
        },
    ];
    for error in exact {
        assert_emit_stable(&error_json(&error));
    }
    // Engine errors carry rsn-core payloads with no JSON form: they emit
    // as a `remote` node carrying their display text exactly.
    let engine = EvalError::Engine(rsn_core::error::RsnError::StepLimitExceeded { limit: 10 });
    let parsed = assert_emit_stable(&error_json(&engine));
    assert_eq!(
        parsed.get("kind"),
        Some(&JsonValue::Str("remote".to_string()))
    );
    assert_eq!(
        parsed.get("message"),
        Some(&JsonValue::Str(engine.to_string()))
    );
}

#[test]
fn grid_documents_round_trip_byte_identically() {
    let mut ok = EvalReport::new("alpha", "gemm 64^3");
    ok.latency_s = Some(6.4e-8);
    let grid = vec![
        vec![
            Ok(ok),
            Err(EvalError::Unsupported {
                backend: "alpha".to_string(),
                workload: "power-breakdown".to_string(),
            }),
        ],
        vec![
            Err(EvalError::TooLarge {
                backend: "beta".to_string(),
                workload: "gemm 64^3".to_string(),
                limit: "tiny".to_string(),
            }),
            Ok(EvalReport::new("beta", "power-breakdown")),
        ],
    ];
    let doc = grid_json(
        &["alpha".to_string(), "beta".to_string()],
        &[
            WorkloadSpec::SquareGemm { n: 64 },
            WorkloadSpec::PowerBreakdown,
        ],
        &grid,
    );
    let parsed = assert_emit_stable(&doc);
    assert_eq!(
        parsed.get("workloads"),
        Some(&JsonValue::Arr(vec![
            JsonValue::Str("gemm 64^3".to_string()),
            JsonValue::Str("power-breakdown".to_string()),
        ]))
    );
}

#[test]
fn result_json_of_errors_is_the_flat_string_form() {
    let error = EvalError::Unsupported {
        backend: "a".to_string(),
        workload: "w".to_string(),
    };
    let doc = result_json(&Err(error.clone()));
    let parsed = assert_emit_stable(&doc);
    assert_eq!(
        parsed,
        JsonValue::Obj(vec![(
            "error".to_string(),
            JsonValue::Str(error.to_string())
        )])
    );
}

#[test]
fn stats_round_trip_including_per_shard_counters() {
    let stats = ServiceStats {
        submitted: 10,
        completed: 10,
        batches: 3,
        batched_requests: 10,
        cache_hits: 4,
        cache_misses: 6,
        inflight_merged: 2,
        evaluations: 6,
        eval_errors: 1,
        evictions: 2,
        per_shard: vec![
            ShardStats {
                backend: "rsn-xnn".to_string(),
                evaluations: 4,
                errors: 0,
            },
            ShardStats {
                backend: "charm".to_string(),
                evaluations: 2,
                errors: 1,
            },
        ],
        remote_pools: vec![PoolStats {
            addr: "127.0.0.1:7070".to_string(),
            checkouts: 9,
            reused: 7,
            dials: 2,
            redials: 1,
            discarded: 1,
            pipelined_batches: 3,
            pipelined_specs: 8,
            bytes_sent: 4096,
            bytes_received: 16384,
            frames_coalesced: 5,
            ring_exchanges: 6,
            reactor_wakeups: 11,
            inflight_per_conn: 4,
            hedges_launched: 3,
            hedges_won: 2,
            failovers: 1,
            breaker_trips: 1,
            breaker_fast_fails: 5,
            dict_defines: 12,
            dict_hits: 340,
        }],
        classes: Priority::ALL
            .iter()
            .map(|&priority| {
                let mut latency = LatencyHistogram::new();
                for us in [90_u64, 450, 450, 12_000, 250_000] {
                    latency.record(std::time::Duration::from_micros(us));
                }
                ClassStats {
                    priority,
                    latency,
                    shed_deadline: 3,
                    shed_queue: 1,
                }
            })
            .collect(),
    };
    assert_emit_stable(&stats_json(&stats));
    // And the empty default (empty per_shard/remote_pools arrays).
    assert_emit_stable(&stats_json(&ServiceStats::default()));
}

#[test]
fn topology_round_trips_typed_and_textual() {
    let topology = Topology {
        listen: Some("0.0.0.0:7070".to_string()),
        service: ServiceConfig {
            max_batch: 32,
            batch_deadline: std::time::Duration::from_micros(500),
            workers_per_backend: 4,
            cache_capacity: Some(1024),
            class_budgets: [
                Some(std::time::Duration::from_micros(1_500)),
                None,
                Some(std::time::Duration::from_micros(50_000)),
            ],
            queue_capacity: Some(512),
            remote: RemoteConfig {
                connect_timeout: std::time::Duration::from_millis(2000),
                io_timeout: std::time::Duration::from_millis(15000),
                pool_size: 8,
                server_idle_timeout: std::time::Duration::from_millis(30000),
                encoding: rsn_serve::EncodingPolicy::BinaryNodict,
                transport: rsn_serve::TransportPolicy::Shm,
                frontend: rsn_serve::FrontendPolicy::Reactor,
            },
        },
        local: vec!["rsn-xnn".to_string()],
        remotes: vec![
            RemoteShardDecl {
                addr: "10.0.0.7:7070".to_string(),
                weight: 2,
                pool_size: Some(16),
                encoding: Some(rsn_serve::EncodingPolicy::BinaryNodict),
                transport: Some(rsn_serve::TransportPolicy::Socket),
            },
            RemoteShardDecl::new("10.0.0.8:7070"),
        ],
        replicas: vec![rsn_serve::ReplicaGroupDecl {
            backend: "rsn-xnn".to_string(),
            shards: vec!["10.0.0.7:7070".to_string(), "10.0.0.8:7070".to_string()],
            hedge_budget_us: Some(7_500),
            breaker: Some(rsn_serve::BreakerConfig {
                window: 12,
                max_failures: 3,
                cooldown: std::time::Duration::from_millis(750),
            }),
        }],
    };
    let parsed = assert_emit_stable(&topology_json(&topology));
    assert_eq!(
        topology_from_json(&parsed).expect("topology decodes"),
        topology
    );
}

#[test]
fn escape_heavy_strings_survive_the_wire() {
    for text in [
        "plain",
        "quote \" backslash \\ slash /",
        "newline\n tab\t return\r",
        "control \u{1} \u{1f}",
        "unicode × é 😀 ßµ",
        "",
    ] {
        let doc = JsonValue::Str(text.to_string());
        let parsed = assert_emit_stable(&doc);
        assert_eq!(parsed, doc);
    }
}

#[test]
fn malformed_documents_fail_with_positions_not_panics() {
    for (text, line, column) in [
        ("{\"a\": }", 1, 7),
        ("[1, 2", 1, 6),
        ("{\"a\": 1 \"b\": 2}", 1, 9),
        ("\"\\u12g4\"", 1, 6),
        ("[01]", 1, 2),
    ] {
        let err = parse(text).unwrap_err();
        assert_eq!(
            (err.line, err.column),
            (line, column),
            "position for {text:?}: {err}"
        );
    }
}
