//! Open-loop load benchmark of the serving stack: latency percentiles per
//! priority class under offered-rate multiples of measured capacity, with
//! and without deadline-aware shedding, emitted as `BENCH_load.json`.
//!
//! Unlike `benches/serve.rs` (closed-loop throughput), this harness fixes
//! the *offered* load: arrival schedules are precomputed (Poisson and
//! bursty ON–OFF) and injected whether or not the service keeps up, which
//! is the only regime where queueing delay, per-class deadlines, and load
//! shedding mean anything.  The backend is a paced stub with a fixed
//! service time, so capacity is stable and the measured object is the
//! serving stack (micro-batcher, priority queues, shedder), not simulator
//! jitter.
//!
//! Sections emitted per run: offered/answered/ok/overloaded counts and
//! per-class p50/p95/p99 sojourn (client-side, submit to response) plus
//! the service's own shed counters.  Ratio fields at the end anchor the
//! CI gate: with shedding on, High-priority p99 at overload must stay a
//! bounded multiple of its 1× value, while without shedding it runs away
//! with queue depth.

use rsn_bench::loadgen::{
    arrival_schedule, measure_capacity, run_open_loop, scenario_mix, ArrivalProcess, Lcg,
    OpenLoopReport, PacedBackend,
};
use rsn_eval::Evaluator;
use rsn_serve::json::JsonValue;
use rsn_serve::remote::{RemoteBackend, ShardServer};
use rsn_serve::{EvalService, FrontendPolicy, Priority, RemoteConfig, ServiceConfig, ServiceStats};
use std::sync::Arc;
use std::time::Duration;

/// Fixed service time of the paced backend: with `WORKERS` workers the
/// service's capacity is ~`WORKERS / SERVICE_TIME` ≈ 4k reports/s —
/// large enough that scheduling noise is small, small enough that a 10×
/// overload stays injectable from one thread.
const SERVICE_TIME: Duration = Duration::from_millis(1);
const WORKERS: usize = 4;

/// SLO budgets per class for the shedding runs: queue age past this sheds.
const HIGH_BUDGET: Duration = Duration::from_millis(20);
const NORMAL_BUDGET: Duration = Duration::from_millis(100);
const LOW_BUDGET: Duration = Duration::from_millis(250);
/// Queue-depth admission bound for the shedding runs.
const QUEUE_CAPACITY: usize = 4096;

fn paced_config(shedding: bool) -> ServiceConfig {
    ServiceConfig {
        max_batch: 16,
        batch_deadline: Duration::from_micros(500),
        workers_per_backend: WORKERS,
        class_budgets: if shedding {
            [Some(HIGH_BUDGET), Some(NORMAL_BUDGET), Some(LOW_BUDGET)]
        } else {
            [None; 3]
        },
        queue_capacity: shedding.then_some(QUEUE_CAPACITY),
        ..ServiceConfig::default()
    }
}

fn paced_service(shedding: bool) -> EvalService {
    EvalService::with_config(
        Evaluator::empty().with_backend(Box::new(PacedBackend::new("paced", SERVICE_TIME))),
        paced_config(shedding),
    )
}

/// One open-loop run against a fresh in-process paced service.
fn run_inproc(
    capacity: f64,
    multiple: f64,
    duration: Duration,
    process: ArrivalProcess,
    shedding: bool,
    seed: u64,
) -> (OpenLoopReport, ServiceStats) {
    let service = paced_service(shedding);
    let rate = capacity * multiple;
    let mut rng = Lcg::new(seed);
    let schedule = arrival_schedule(process, rate, duration, &mut rng);
    let report = run_open_loop(
        &service,
        &scenario_mix(),
        &schedule,
        rate,
        seed,
        Duration::from_secs(60),
    );
    (report, service.stats())
}

/// The same run through a loopback shard served by the reactor front end.
/// Both sides enforce the deadline discipline: the *client* service sheds
/// what ages out in its own queues, and the *shard* sheds what ages out
/// server-side — those fast-fails cross the wire as `Overloaded` (a
/// structured error tag), so the client's per-class accounting must
/// reconcile exactly with the sum of both services' shed counters.
/// Returns `(report, client stats, server stats)`.
fn run_reactor(
    capacity: f64,
    multiple: f64,
    duration: Duration,
    seed: u64,
) -> (OpenLoopReport, ServiceStats, ServiceStats) {
    let server_config = ServiceConfig {
        remote: RemoteConfig {
            frontend: FrontendPolicy::Reactor,
            ..RemoteConfig::default()
        },
        ..paced_config(true)
    };
    let server = ShardServer::bind(
        "127.0.0.1:0",
        EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(PacedBackend::new("paced", SERVICE_TIME))),
            server_config,
        ),
    )
    .expect("bind loopback shard");
    let addr = server.local_addr().to_string();
    let remotes = RemoteBackend::connect_all_with(&addr, RemoteConfig::default())
        .expect("loopback shard reachable");
    let pool = remotes.first().map(|r| Arc::clone(r.pool()));
    let mut evaluator = Evaluator::empty();
    for remote in remotes {
        evaluator.register(Box::new(remote));
    }
    // The client runs the same disciplined config as the in-process shed
    // runs: small batches keep the in-flight wire window short, so the
    // queue-age the shedder sees stays an honest proxy for sojourn time.
    let client = EvalService::with_config(evaluator, paced_config(true));
    if let Some(pool) = pool {
        client.register_pool(pool);
    }
    let rate = capacity * multiple;
    let mut rng = Lcg::new(seed);
    let schedule = arrival_schedule(ArrivalProcess::Poisson, rate, duration, &mut rng);
    let report = run_open_loop(
        &client,
        &scenario_mix(),
        &schedule,
        rate,
        seed,
        Duration::from_secs(60),
    );
    let client_stats = client.stats();
    (report, client_stats, server.stats())
}

/// One run's JSON section.
fn run_json(
    label: &str,
    multiple: f64,
    report: &OpenLoopReport,
    stats: &ServiceStats,
) -> JsonValue {
    let (offered, answered, ok, overloaded, failed) = report.totals();
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("rate_multiple".to_string(), JsonValue::Num(multiple)),
        (
            "offered_rate_hz".to_string(),
            JsonValue::Num(report.offered_rate_hz),
        ),
        ("offered".to_string(), JsonValue::Int(offered)),
        ("answered".to_string(), JsonValue::Int(answered)),
        ("ok".to_string(), JsonValue::Int(ok)),
        ("overloaded".to_string(), JsonValue::Int(overloaded)),
        ("failed".to_string(), JsonValue::Int(failed)),
        ("drained".to_string(), JsonValue::Bool(report.drained)),
        (
            "inject_wall_s".to_string(),
            JsonValue::Num(report.inject_wall.as_secs_f64()),
        ),
        (
            "total_wall_s".to_string(),
            JsonValue::Num(report.total_wall.as_secs_f64()),
        ),
    ];
    for (priority, outcome) in &report.classes {
        let served = &outcome.latency;
        let shed = stats
            .class(*priority)
            .map(|c| (c.shed_deadline, c.shed_queue))
            .unwrap_or((0, 0));
        fields.push((
            priority.as_str().to_string(),
            JsonValue::obj([
                ("offered", JsonValue::Int(outcome.offered)),
                ("ok", JsonValue::Int(outcome.ok)),
                ("overloaded", JsonValue::Int(outcome.overloaded)),
                ("p50_us", JsonValue::Int(served.p50().unwrap_or(0))),
                ("p95_us", JsonValue::Int(served.p95().unwrap_or(0))),
                ("p99_us", JsonValue::Int(served.p99().unwrap_or(0))),
                ("mean_us", JsonValue::Num(served.mean_us())),
                ("max_us", JsonValue::Int(served.max_us)),
                ("shed_deadline", JsonValue::Int(shed.0)),
                ("shed_queue", JsonValue::Int(shed.1)),
            ]),
        ));
    }
    println!(
        "load {label:<24} {:>8.0}/s offered={offered:<6} ok={ok:<6} shed={overloaded:<6} \
         high p99 {:>9}µs  normal p99 {:>9}µs  low p99 {:>9}µs",
        report.offered_rate_hz,
        report.class(Priority::High).latency.p99().unwrap_or(0),
        report.class(Priority::Normal).latency.p99().unwrap_or(0),
        report.class(Priority::Low).latency.p99().unwrap_or(0),
    );
    JsonValue::Obj(fields)
}

fn main() {
    // Anchor the sweep: closed-loop capacity of the paced service.
    let capacity = {
        let service = paced_service(false);
        measure_capacity(&service, Duration::from_millis(600))
    };
    println!("measured closed-loop capacity: {capacity:.0} reports/s");

    let second = Duration::from_secs(1);
    let mut sections: Vec<(String, JsonValue)> = vec![
        (
            "benchmark".to_string(),
            JsonValue::Str("serve_open_loop_latency".to_string()),
        ),
        (
            "workload".to_string(),
            JsonValue::Str(format!(
                "open-loop arrivals (Poisson / ON-OFF) of distinct mixed-tenant specs \
                 (20% high / 50% normal / 30% low) against a paced backend \
                 ({}µs service time, {WORKERS} workers); rate multiples of measured \
                 capacity; shed runs use budgets high={}ms normal={}ms low={}ms, \
                 queue capacity {QUEUE_CAPACITY}",
                SERVICE_TIME.as_micros(),
                HIGH_BUDGET.as_millis(),
                NORMAL_BUDGET.as_millis(),
                LOW_BUDGET.as_millis(),
            )),
        ),
        ("capacity_rps".to_string(), JsonValue::Num(capacity)),
    ];

    // The sweep.  Durations shrink as overload grows: an unshed 10× run
    // must still drain (every request is owed a response) and its drain
    // time is the excess queue over capacity.
    let runs: Vec<(&str, f64, Duration, ArrivalProcess, bool)> = vec![
        ("inproc_0.5x", 0.5, second, ArrivalProcess::Poisson, false),
        ("inproc_1x", 1.0, second, ArrivalProcess::Poisson, false),
        ("inproc_2x", 2.0, second, ArrivalProcess::Poisson, false),
        (
            "inproc_10x",
            10.0,
            Duration::from_millis(500),
            ArrivalProcess::Poisson,
            false,
        ),
        (
            "inproc_burst_1x",
            1.0,
            second,
            ArrivalProcess::OnOff {
                on: Duration::from_millis(50),
                off: Duration::from_millis(150),
            },
            false,
        ),
        ("inproc_2x_shed", 2.0, second, ArrivalProcess::Poisson, true),
        (
            "inproc_10x_shed",
            10.0,
            second,
            ArrivalProcess::Poisson,
            true,
        ),
    ];
    let mut all_answered = true;
    let mut p99_1x_high = 0u64;
    let mut results: Vec<(String, u64, u64)> = Vec::new(); // (label, high p99, overloaded)
    for (index, (label, multiple, duration, process, shedding)) in runs.iter().enumerate() {
        let (report, stats) = run_inproc(
            capacity,
            *multiple,
            *duration,
            *process,
            *shedding,
            0xBEEF + index as u64,
        );
        let (offered, answered, _, overloaded, failed) = report.totals();
        all_answered &= offered == answered && report.drained && failed == 0;
        if *label == "inproc_1x" {
            p99_1x_high = report.class(Priority::High).latency.p99().unwrap_or(0);
        }
        results.push((
            label.to_string(),
            report.class(Priority::High).latency.p99().unwrap_or(0),
            overloaded,
        ));
        sections.push((
            label.to_string(),
            run_json(label, *multiple, &report, &stats),
        ));
    }

    // The reactor/remote run: deadline discipline on both sides of the
    // wire, server-side sheds crossing back as Overloaded (a structured
    // error tag).
    let (report, client_stats, server_stats) = run_reactor(capacity, 2.0, second, 0xFACE);
    let (offered, answered, _, overloaded, failed) = report.totals();
    all_answered &= offered == answered && report.drained && failed == 0;
    // Reconciliation: every Overloaded the injector observed was shed by
    // exactly one of the two services, and the shard's own snapshot must
    // carry the per-class section (it records latency, so it is non-empty
    // whenever anything was served).
    let total_sheds = client_stats.shed() + server_stats.shed();
    let wire_classes_ok = !server_stats.classes.is_empty() && total_sheds == overloaded;
    // The emitted shed counters are the two services' sums, so the JSON
    // section reconciles with its own offered/ok/overloaded fields.
    let mut merged_stats = client_stats.clone();
    for class in &mut merged_stats.classes {
        if let Some(server) = server_stats.class(class.priority) {
            class.shed_deadline += server.shed_deadline;
            class.shed_queue += server.shed_queue;
        }
    }
    results.push((
        "reactor_2x_shed".to_string(),
        report.class(Priority::High).latency.p99().unwrap_or(0),
        overloaded,
    ));
    sections.push((
        "reactor_2x_shed".to_string(),
        run_json("reactor_2x_shed", 2.0, &report, &merged_stats),
    ));

    let p99 = |label: &str| {
        results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, p, _)| *p)
            .unwrap_or(0)
    };
    let shed_at = |label: &str| {
        results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, _, s)| *s)
            .unwrap_or(0)
    };
    sections.push((
        "every_request_answered_once".to_string(),
        JsonValue::Bool(all_answered),
    ));
    sections.push((
        "reactor_wire_class_stats_ok".to_string(),
        JsonValue::Bool(wire_classes_ok),
    ));
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    sections.push((
        "high_p99_2x_shed_over_1x".to_string(),
        JsonValue::Num(ratio(p99("inproc_2x_shed"), p99_1x_high)),
    ));
    sections.push((
        "high_p99_10x_shed_over_1x".to_string(),
        JsonValue::Num(ratio(p99("inproc_10x_shed"), p99_1x_high)),
    ));
    sections.push((
        "high_p99_10x_unshed_over_1x".to_string(),
        JsonValue::Num(ratio(p99("inproc_10x"), p99_1x_high)),
    ));
    sections.push((
        "shed_count_10x".to_string(),
        JsonValue::Int(shed_at("inproc_10x_shed")),
    ));

    let json = JsonValue::Obj(sections).to_pretty();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_load.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
