//! `tenant_mix_open_loop`: the 20/50/30 High/Normal/Low tenant mix of
//! `rsn_bench::loadgen`, on real backends, at one fixed Poisson rate,
//! through replicated shard fleets.
//!
//! High asks for encoder layers and Normal for full models on `rsn-xnn`;
//! Low asks for value-accurate functional workloads on `cycle-engine`,
//! which does most of the CPU work while the wire carries little.  Each
//! backend is one fleet group over the same two loopback shards, so this
//! is the workload where routing and hedging run, and where the batcher,
//! priority queues and wire are judged by latency instead of throughput.

use crate::check::Checker;
use crate::codec::CodecReplay;
use crate::layers::{minus, LayerAcc};
use crate::measure::{
    median, metrics_json, ms, out_dir, peak_rss_mb, quantile, ratio, setup_figure, setup_record,
    tails, time_setups, us, Metric, SETUPS,
};
use crate::trace::{write_spans, Layer, RequestSpan, SpanLog, Timed};
use crate::{notes, remote_config, spans_path, Args, Outcome};
use rsn_bench::loadgen::{
    arrival_schedule, pick_class, scenario_mix, spec_for, ArrivalProcess, Lcg,
};
use rsn_eval::{Backend, CycleEngineBackend, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::json::JsonValue;
use rsn_serve::topology::service_config_json;
use rsn_serve::{
    BackendSelector, EvalResponse, EvalService, FleetController, Priority, RemoteShardDecl,
    ReplicaGroupDecl, ServiceConfig, ShardRouter, ShardServer, Topology,
};
use rsn_workloads::bert::BertConfig;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The offered rate.  At 500 req/s the process keeps about one of two
/// cores busy; at 1000 it kept 1.8, and its latency then swung with every
/// change in the host's speed (quartile spread across seeds 0.37 against
/// 0.19 at 500, measured in alternation on a 2-vCPU host).
const RATE_HZ: f64 = 500.0;
/// Class latency limits, High/Normal/Low (the `BENCH_load.json` budgets).
const LIMITS: [Duration; 3] = [
    Duration::from_millis(20),
    Duration::from_millis(100),
    Duration::from_millis(250),
];
/// Open-loop warm-up before the measured window (checked, not reported),
/// long enough for the fleet's hedge budget to have samples.
const WARMUP: Duration = Duration::from_secs(1);
/// How long the run waits for outstanding answers after injecting.
const DRAIN: Duration = Duration::from_secs(30);

/// One scheduled request.
#[derive(Clone)]
struct Arrival {
    due: Duration,
    priority: Priority,
    spec: WorkloadSpec,
    backend: &'static str,
}

/// A value-accurate Low spec; `unique` keeps every one distinct.  Scalar
/// pipelines get their sizes later, in [`arrivals`].
fn low_spec(unique: usize, rng: &mut Lcg) -> WorkloadSpec {
    match rng.next_u64() % 3 {
        0 => WorkloadSpec::FunctionalGemm {
            m: 16 + 8 * (rng.next_u64() % 3) as usize,
            k: 32,
            n: 32,
            seed: unique as u64,
        },
        1 => WorkloadSpec::FunctionalAttention {
            cfg: BertConfig::tiny(8, 1),
            seed: unique as u64,
        },
        _ => WorkloadSpec::ScalarPipeline { elements: 0 },
    }
}

/// `duration` of Poisson arrivals; uniques start at `first` so the
/// warm-up and measured streams share no spec.
fn arrivals(seed: u64, duration: Duration, first: usize) -> Vec<Arrival> {
    let mut rng = Lcg::new(seed);
    let schedule = arrival_schedule(ArrivalProcess::Poisson, RATE_HZ, duration, &mut rng);
    let mix = scenario_mix();
    let mut stream: Vec<Arrival> = schedule
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let class = pick_class(&mix, &mut rng);
            let unique = first + i;
            let (spec, backend) = match class.priority {
                Priority::Low => (low_spec(unique, &mut rng), "cycle-engine"),
                _ => (spec_for(class, unique as u64, &mut rng), "rsn-xnn"),
            };
            Arrival {
                due,
                priority: class.priority,
                spec,
                backend,
            }
        })
        .collect();
    // A scalar pipeline is told apart only by its length, so the stream's
    // pipelines take the lengths `256 + first ..` in a seeded order: each
    // is distinct, and the mean cost does not drift over the run.
    let pipelines: Vec<usize> = (0..stream.len())
        .filter(|&i| matches!(stream[i].spec, WorkloadSpec::ScalarPipeline { .. }))
        .collect();
    let mut lengths: Vec<usize> = (0..pipelines.len()).map(|j| 256 + first + j).collect();
    for j in (1..lengths.len()).rev() {
        lengths.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
    }
    for (i, elements) in pipelines.into_iter().zip(lengths) {
        stream[i].spec = WorkloadSpec::ScalarPipeline { elements };
    }
    stream
}

fn config() -> ServiceConfig {
    ServiceConfig {
        remote: remote_config(),
        ..ServiceConfig::default()
    }
}

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(XnnAnalyticBackend::new()),
        Box::new(CycleEngineBackend::new()),
    ]
}

/// Two shards hosting both backends, and a client with one fleet group
/// per backend over them.  Fields drop client first.
struct Rig {
    client: EvalService,
    _controller: FleetController,
    servers: Vec<ShardServer>,
    log: Option<Arc<SpanLog>>,
}

fn setup(trace: bool) -> Rig {
    let log = trace.then(|| Arc::new(SpanLog::default()));
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| {
            let mut shard = Evaluator::empty();
            for backend in backends() {
                shard.register(match &log {
                    Some(log) => Timed::wrap(backend, Layer::Shard, log),
                    None => backend,
                });
            }
            ShardServer::bind("127.0.0.1:0", EvalService::with_config(shard, config()))
                .expect("bind a loopback shard")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let members: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let topology = Topology {
        service: config(),
        remotes: addrs.iter().map(|a| RemoteShardDecl::new(a)).collect(),
        replicas: vec![
            ReplicaGroupDecl::new("rsn-xnn", &members),
            ReplicaGroupDecl::new("cycle-engine", &members),
        ],
        ..Topology::default()
    };
    let (client, controller) = ShardRouter::from_topology(&topology)
        .and_then(ShardRouter::build_fleet)
        .expect("assemble the fleet");
    let first = client
        .submit_batch(
            vec![WorkloadSpec::EncoderLayer {
                cfg: BertConfig::bert_large(48, 1),
            }],
            BackendSelector::Named(vec!["rsn-xnn".to_string()]),
            Priority::High,
        )
        .wait();
    assert!(
        first.results.iter().all(|(_, r)| r.is_ok()),
        "first answer failed"
    );
    if let Some(log) = &log {
        log.take();
    }
    Rig {
        client,
        _controller: controller,
        servers,
        log,
    }
}

/// One answered request.
struct Answer {
    submitted: Instant,
    done: Instant,
    response: EvalResponse,
}

/// Injects `arrivals` open-loop: each is submitted at its due instant (or
/// at once, if the injector is late), whether or not earlier ones were
/// answered.  Returns the run's start and one slot per arrival, `None`
/// for any request not answered within the drain bound.  The callback is
/// `FnOnce`, so no request can be answered twice.
fn inject(service: &EvalService, arrivals: &[Arrival]) -> (Instant, Vec<Option<Answer>>) {
    let (tx, rx) = mpsc::channel::<(usize, Instant, EvalResponse)>();
    let mut submitted = Vec::with_capacity(arrivals.len());
    let start = Instant::now();
    for (index, arrival) in arrivals.iter().enumerate() {
        loop {
            let now = start.elapsed();
            if now >= arrival.due {
                break;
            }
            let gap = arrival.due - now;
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
        submitted.push(Instant::now());
        let tx = tx.clone();
        service.submit_batch_callback(
            vec![arrival.spec.clone()],
            BackendSelector::Named(vec![arrival.backend.to_string()]),
            arrival.priority,
            move |response| {
                let _ = tx.send((index, Instant::now(), response));
            },
        );
    }
    drop(tx);
    let mut answers: Vec<Option<Answer>> = (0..arrivals.len()).map(|_| None).collect();
    let deadline = Instant::now() + DRAIN;
    for _ in 0..arrivals.len() {
        let Ok((index, done, response)) =
            rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        else {
            break;
        };
        answers[index] = Some(Answer {
            submitted: submitted[index],
            done,
            response,
        });
    }
    (start, answers)
}

/// What one measured open-loop window gave.
struct Window {
    sent: u64,
    failed: u64,
    slo_met: u64,
    /// Latency of each answered request, in arrival order, overall and
    /// by class.
    all_ms: Vec<f64>,
    latencies_ms: [Vec<f64>; 3],
    late_ms: Vec<f64>,
    wall: Duration,
    /// Totals of makespan cycles, uOPs retired and words transferred over
    /// the Low stream.
    sim_totals: [u64; 3],
    requests: Vec<RequestSpan>,
}

/// Checks every answer of an injected stream and measures it.
fn measure(
    arrivals: &[Arrival],
    start: Instant,
    answers: &[Option<Answer>],
    checker: &mut Checker,
) -> Window {
    let mut w = Window {
        sent: arrivals.len() as u64,
        failed: 0,
        slo_met: 0,
        all_ms: Vec::with_capacity(arrivals.len()),
        latencies_ms: Default::default(),
        late_ms: Vec::with_capacity(arrivals.len()),
        wall: Duration::ZERO,
        sim_totals: [0; 3],
        requests: Vec::with_capacity(arrivals.len()),
    };
    for (arrival, answer) in arrivals.iter().zip(answers) {
        let Some(answer) = answer else {
            w.failed += 1;
            continue;
        };
        let due = start + arrival.due;
        let latency = answer.done - due;
        let class = arrival.priority.index();
        w.wall = w.wall.max(answer.done - start);
        w.late_ms.push(ms(answer.submitted - due));
        w.requests.push(RequestSpan {
            start: due,
            end: answer.done,
            specs: vec![arrival.spec.clone()],
        });
        let ok = match answer.response.results.as_slice() {
            [(name, result)] => {
                if let Ok(cycle) = result.as_ref().as_ref().map(|r| r.cycle.as_ref()) {
                    if let Some(c) = cycle.filter(|_| arrival.priority == Priority::Low) {
                        w.sim_totals[0] += c.makespan_cycles;
                        w.sim_totals[1] += c.uops_retired;
                        w.sim_totals[2] += c.words_transferred;
                    }
                }
                checker.check(name, &arrival.spec, result)
            }
            _ => false,
        };
        if !ok {
            w.failed += 1;
            continue;
        }
        w.all_ms.push(ms(latency));
        w.latencies_ms[class].push(ms(latency));
        if latency <= LIMITS[class] {
            w.slo_met += 1;
        }
    }
    w
}

/// One set-up, warm-up and measured window.
fn run_once(
    args: &Args,
    trace: bool,
    checker: &mut Checker,
) -> (Vec<f64>, Window, Option<LayerAcc>) {
    let measured = arrivals(args.seed, Duration::from_secs_f64(args.seconds), 0);
    let warm = arrivals(args.seed ^ 0x5DEECE66D, WARMUP, measured.len());
    let setups = time_setups(SETUPS, || setup(trace));
    let rig = setup(trace);
    let (start, answers) = inject(&rig.client, &warm);
    let warm_window = measure(&warm, start, &answers, checker);
    if let Some(log) = &rig.log {
        log.take();
    }
    let before = rig.client.stats();
    let shards_before: Vec<_> = rig.servers.iter().map(ShardServer::stats).collect();
    let (start, answers) = inject(&rig.client, &measured);
    let mut window = measure(&measured, start, &answers, checker);
    window.failed += warm_window.failed;
    let acc = rig.log.as_ref().map(|log| {
        let mut acc = LayerAcc::default();
        let spans = log.take();
        acc.add_spans(&window.requests, &spans, Layer::Shard);
        write_spans(&spans_path(args), &window.requests, &spans);
        acc.add_client_stats(&minus(&rig.client.stats(), &before));
        let shards: Vec<_> = rig
            .servers
            .iter()
            .zip(&shards_before)
            .map(|(s, b)| minus(&s.stats(), b))
            .collect();
        acc.add_shard_stats(&shards);
        acc.reports = window.requests.len() as u64;
        acc.late_ms = window.late_ms.clone();
        acc.rounds = 1;
        acc
    });
    (setups, window, acc)
}

/// Where the Low stream's simulated totals of one seed are kept between
/// runs.
fn sim_totals_path(args: &Args) -> PathBuf {
    out_dir().join(format!(
        "sim-totals-seed{}-s{}.txt",
        args.seed, args.seconds
    ))
}

/// How a run's simulated totals compared with the pinned ones of its seed.
#[derive(Clone, Copy, PartialEq)]
enum SimTotals {
    /// No earlier totals, and this run's answers were all right: its
    /// totals are now the seed's.
    Pinned,
    /// No earlier totals, and this run had failures, so it pinned none.
    Unpinned,
    Matched,
    Mismatch,
}

impl SimTotals {
    fn as_str(self) -> &'static str {
        match self {
            SimTotals::Pinned => "pinned",
            SimTotals::Unpinned => "unpinned",
            SimTotals::Matched => "matched",
            SimTotals::Mismatch => "mismatch",
        }
    }
}

/// Compares a window's simulated totals with those pinned for its seed by
/// an earlier run.  With none pinned, a window without failures pins its
/// own.
fn compare_sim_totals(args: &Args, window: &Window) -> SimTotals {
    let path = sim_totals_path(args);
    let t = window.sim_totals;
    let line = format!("{} {} {}", t[0], t[1], t[2]);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == line => SimTotals::Matched,
        Ok(_) => SimTotals::Mismatch,
        Err(_) if window.failed == 0 => {
            let _ = std::fs::write(&path, &line);
            SimTotals::Pinned
        }
        Err(_) => SimTotals::Unpinned,
    }
}

fn class_json(window: &Window) -> JsonValue {
    JsonValue::Obj(
        Priority::ALL
            .iter()
            .map(|p| {
                let l = &window.latencies_ms[p.index()];
                (
                    p.as_str().to_string(),
                    JsonValue::obj([
                        ("answered", JsonValue::Int(l.len() as u64)),
                        ("p50_ms", JsonValue::Num(median(l))),
                        ("p99_ms", JsonValue::Num(quantile(l, 0.99))),
                        ("limit_ms", JsonValue::Num(ms(LIMITS[p.index()]))),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut checker = Checker::new(backends(), false);
    let (setups, window, _) = run_once(args, false, &mut checker);
    let all = &window.all_ms;
    let answered = all.len() as f64;
    let mut failed = window.failed;
    let mut sim_checks = vec![compare_sim_totals(args, &window)];
    let mut metrics = vec![
        Metric::new(
            "throughput_rps",
            answered / window.wall.as_secs_f64(),
            "1/s",
        ),
        Metric::new("latency_p25_ms", quantile(all, 0.25), "ms"),
        Metric::new(
            "success_frac",
            1.0 - ratio(window.failed as f64, window.sent as f64),
            "ratio",
        ),
        Metric::new(
            "slo_met_frac",
            ratio(window.slo_met as f64, window.sent as f64),
            "ratio",
        ),
        Metric::new("setup_s", setup_figure(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let tails = tails(all, &window.latencies_ms[Priority::High.index()]);
    let mut record = vec![
        ("service_config".to_string(), service_config_json(&config())),
        ("rate_hz".to_string(), JsonValue::Num(RATE_HZ)),
        ("setups".to_string(), setup_record(&setups)),
        ("tails".to_string(), metrics_json(&tails)),
        ("classes".to_string(), class_json(&window)),
        (
            "loadgen_late_p99_ms".to_string(),
            JsonValue::Num(quantile(&window.late_ms, 0.99)),
        ),
        (
            "low_sim_totals".to_string(),
            JsonValue::obj([
                ("makespan_cycles", JsonValue::Int(window.sim_totals[0])),
                ("uops_retired", JsonValue::Int(window.sim_totals[1])),
                ("words_transferred", JsonValue::Int(window.sim_totals[2])),
            ]),
        ),
    ];
    let mut attempted = window.sent;
    if args.trace {
        let (_, traced, acc) = run_once(args, true, &mut checker);
        let acc = acc.expect("traced run accumulates");
        attempted += traced.sent;
        failed += traced.failed;
        sim_checks.push(compare_sim_totals(args, &traced));
        let overhead = ratio(median(&traced.all_ms), median(all)) - 1.0;
        let late = acc.late_ms.iter().sum::<f64>() * 1e3;
        let unattributed = ratio(
            (us(acc.breakdown.request) - late - us(acc.breakdown.eval)).max(0.0),
            us(acc.breakdown.request),
        );
        record.push(("pool_counters".to_string(), acc.pool_record()));
        metrics = acc.metrics(&CodecReplay::default(), overhead, unattributed, traced.sent);
        metrics.extend(tails);
        record.push((
            "unmeasured".to_string(),
            notes(&[
                (
                    "serve.service.self_us_per_report, serve.pool.exchange_us_*, serve.pool.wire_self_us_per_report",
                    "the fleet builds its client backend inside ShardRouter, so no client.backend span exists; request minus shard.backend covers the client pipeline, fleet and wire together and is reported as unattributed_frac",
                ),
            ]),
        ));
        record.push((
            "zero_because".to_string(),
            notes(&[
                (
                    "serve.binary.*",
                    "codec replay runs on sweep_remote's responses",
                ),
                (
                    "eval.charm.*, eval.roofline.*",
                    "the shards host rsn-xnn and cycle-engine only",
                ),
            ]),
        ));
    }
    if sim_checks.contains(&SimTotals::Mismatch) {
        failed += 1;
    }
    record.push((
        "sim_totals".to_string(),
        JsonValue::obj([
            (
                "checks",
                JsonValue::Arr(
                    sim_checks
                        .iter()
                        .map(|c| JsonValue::Str(c.as_str().to_string()))
                        .collect(),
                ),
            ),
            (
                "file",
                JsonValue::Str(sim_totals_path(args).display().to_string()),
            ),
        ]),
    ));
    record.push(("checks".to_string(), checker.record()));
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        record,
    }
}
