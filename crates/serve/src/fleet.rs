//! Replicated shard fleets: rendezvous routing, failover, hedged
//! requests, circuit breaking and live topology reload.
//!
//! A topology `replicas` group maps one backend name onto N
//! interchangeable shards.  [`FleetBackend`] implements
//! [`Backend`] over the whole group the way
//! [`RemoteBackend`](crate::remote::RemoteBackend) does over one shard,
//! adding four behaviours:
//!
//! * **Rendezvous routing** — each workload spec is scored against every
//!   replica address with highest-random-weight hashing, so a given spec
//!   always prefers the same replica (its report cache stays warm there)
//!   while the spec population spreads evenly, and removing a replica
//!   reshuffles only the specs that preferred it.
//! * **Failover** — a replica answering with a transport error does not
//!   fail the request: the exchange reroutes to the next-ranked sibling
//!   (counted as `failovers` on the failed pool).  Only when every
//!   replica has failed does [`EvalError::Transport`] surface.
//! * **Hedging** — when an exchange outlives the group's hedge budget
//!   (explicit `hedge_budget_us`, or derived from the p95 of the primary
//!   replica's own exchanges for this group — not of its shard's whole
//!   pool, which other groups' backends share),
//!   the same exchange is re-issued against the next sibling and the
//!   first answer wins (`hedges_launched`/`hedges_won`).  The primary
//!   runs on the caller's thread up to the budget
//!   ([`exchange_hedged`](crate::ConnectionPool::exchange_hedged)), so an
//!   answer in time costs no thread and no channel; a late primary is
//!   finished on a thread of its own ([`Late`]) while the hedge races
//!   it.  A primary with no connection ready to send on (no hello yet,
//!   no idle connection, no free credit) starts on a thread instead, so
//!   nothing that may block ever holds the caller past the budget.  The
//!   loser is abandoned: on a multiplexed (windowed) connection
//!   its budget expiry sends the `Cancel` frame, so the losing shard
//!   stops working on it rather than finishing into the void.
//! * **Circuit breaking** — each replica keeps a rolling window of
//!   exchange outcomes ([`BreakerConfig`]); too many failures trip the
//!   breaker open and routing skips the replica (`breaker_trips`,
//!   `breaker_fast_fails`) until a cooldown passes, after which one
//!   half-open probe — the pool's `hello` health check — decides whether
//!   it closes again.
//!
//! [`FleetController`] keeps the fleet live after construction:
//! [`reload`](FleetController::reload) diffs a newly-loaded topology
//! against the running groups (add shards, drain removed ones) and
//! [`watch`](FleetController::watch) does so automatically whenever the
//! topology file's mtime changes.  Draining is structural: a removed
//! replica leaves the routing table immediately (no new exchanges) while
//! in-flight exchanges hold their own reference and finish normally.

use crate::config::{BreakerConfig, RemoteConfig};
use crate::pool::{ConnectionPool, Exchanged, Late};
use crate::service::PoolRegistry;
use crate::stats::LatencyRecorder;
use crate::topology::{ReplicaGroupDecl, Topology, TopologyError};
use crate::wire::{ShardRequest, ShardResponse, SharedResult, WireError};
use rsn_eval::fnv::FnvBuild;
use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use std::hash::{BuildHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor on a p95-*derived* hedge budget.  Sub-millisecond exchanges
/// (loopback, shared memory) would otherwise hedge so eagerly that the
/// duplicate work and the threads a late exchange starts become their
/// own tail; an explicit `hedge_budget_us` is taken verbatim.
const MIN_DERIVED_HEDGE_BUDGET: Duration = Duration::from_micros(500);

/// Clean exchanges a replica must have answered for its group before its
/// p95 derives a hedge budget: a fresh replica must not hedge on one
/// unlucky measurement.
const MIN_HEDGE_SAMPLES: u64 = 16;

/// The per-shard [`RemoteConfig`] a topology implies for `addr`: the
/// topology's base remote tuning with the matching `remotes[]`
/// declaration's overrides applied.  Callers pass addresses the topology
/// decoder ([`crate::topology`]) has already validated against
/// `remotes[]`; an unknown address gets the base tuning.
pub(crate) fn remote_config_for(topology: &Topology, addr: &str) -> RemoteConfig {
    let base = &topology.service.remote;
    match topology.remotes.iter().find(|decl| decl.addr == addr) {
        Some(decl) => RemoteConfig {
            pool_size: decl.pool_size.unwrap_or(base.pool_size),
            encoding: decl.encoding.unwrap_or(base.encoding),
            transport: decl.transport.unwrap_or(base.transport),
            ..base.clone()
        },
        None => base.clone(),
    }
}

/// Rendezvous (highest-random-weight) score of `addr` for `spec`.
///
/// FNV alone is not enough here: its last-written word barely reaches the
/// high bits, so whichever input is hashed last would be out-ranked by the
/// other's prefix and every spec would elect the same replica.  A
/// splitmix64 finalizer avalanches the combined state so the *pair*
/// decides the ranking.
fn rendezvous_score(addr: &str, spec: &WorkloadSpec) -> u64 {
    let mut hasher = FnvBuild.build_hasher();
    spec.hash(&mut hasher);
    hasher.write(addr.as_bytes());
    let mut x = hasher.finish();
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Circuit-breaker state machine of one replica.
#[derive(Debug)]
enum BreakerState {
    /// Healthy: every exchange is admitted.
    Closed,
    /// Tripped: exchanges are skipped until `until`, then one probe runs.
    Open { until: Instant },
    /// A half-open probe is in flight; everything else is skipped.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// Rolling window of recent exchange outcomes (`true` = success),
    /// newest last, bounded by [`BreakerConfig::window`].
    outcomes: Vec<bool>,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            outcomes: Vec::new(),
        }
    }

    fn push(&mut self, cfg: &BreakerConfig, ok: bool) {
        self.outcomes.push(ok);
        let excess = self.outcomes.len().saturating_sub(cfg.window.max(1));
        if excess > 0 {
            self.outcomes.drain(..excess);
        }
    }

    fn failures(&self) -> usize {
        self.outcomes.iter().filter(|ok| !**ok).count()
    }
}

/// What the breaker decided about routing one exchange to a replica.
enum Admission {
    /// Route normally.
    Admit,
    /// The cooldown has passed: run the half-open health probe first.
    Probe,
    /// Breaker open — skip this replica.
    Skip,
}

/// One member shard of a replicated group: its connection pool, the
/// circuit breaker guarding it, and the wall times of the group's clean
/// exchanges on it.  The pool may be shared with other groups placed on
/// the same shard; the breaker and the latencies are this group's own.
#[derive(Debug)]
pub(crate) struct Replica {
    pool: Arc<ConnectionPool>,
    breaker: Mutex<Breaker>,
    latency: LatencyRecorder,
}

impl Replica {
    fn new(pool: Arc<ConnectionPool>) -> Self {
        Self {
            pool,
            breaker: Mutex::new(Breaker::new()),
            latency: LatencyRecorder::default(),
        }
    }

    /// Records the wall time since `started` of an exchange that got an
    /// answer.  Failures are the breaker's signal, not a latency sample,
    /// and a timeout would drag the p95 toward the very budget it derives.
    fn timed(
        &self,
        started: Instant,
        exchanged: Result<ShardResponse, WireError>,
    ) -> Result<ShardResponse, WireError> {
        if exchanged.is_ok() {
            self.latency.record(started.elapsed());
        }
        exchanged
    }

    /// The p95 of this group's clean exchanges on this replica, once
    /// [`MIN_HEDGE_SAMPLES`] exist.
    fn observed_p95(&self) -> Option<Duration> {
        let histogram = self.latency.snapshot();
        if histogram.count < MIN_HEDGE_SAMPLES {
            return None;
        }
        histogram.p95().map(Duration::from_micros)
    }

    fn addr(&self) -> &str {
        self.pool.addr()
    }

    fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// Records one exchange outcome, tripping the breaker open when the
    /// rolling window crosses the failure threshold.
    fn record(&self, cfg: &BreakerConfig, ok: bool) {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        breaker.push(cfg, ok);
        match breaker.state {
            BreakerState::Closed if !ok && breaker.failures() >= cfg.max_failures.max(1) => {
                breaker.state = BreakerState::Open {
                    until: Instant::now() + cfg.cooldown,
                };
                self.pool
                    .fleet_counters()
                    .breaker_trips
                    .fetch_add(1, Ordering::Relaxed);
            }
            // A successful exchange while half-open (or freshly probed)
            // closes the breaker and forgets the failure history — the
            // shard is back.
            BreakerState::HalfOpen | BreakerState::Open { .. } if ok => {
                breaker.state = BreakerState::Closed;
                breaker.outcomes.clear();
                breaker.outcomes.push(true);
            }
            // A failed probe re-opens for another cooldown (not counted
            // as a fresh trip — it is the same outage).
            BreakerState::HalfOpen => {
                breaker.state = BreakerState::Open {
                    until: Instant::now() + cfg.cooldown,
                };
            }
            _ => {}
        }
    }

    /// Breaker admission for one routing decision; open-state skips are
    /// counted on the pool.
    fn admit(&self) -> Admission {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        match breaker.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open { until } if Instant::now() >= until => {
                breaker.state = BreakerState::HalfOpen;
                Admission::Probe
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => {
                self.pool
                    .fleet_counters()
                    .breaker_fast_fails
                    .fetch_add(1, Ordering::Relaxed);
                Admission::Skip
            }
        }
    }

    /// The half-open probe: the pool's `hello` health check.  Success
    /// closes the breaker, failure re-opens it.
    fn probe(&self, cfg: &BreakerConfig) -> bool {
        let ok = self.pool.hello().is_ok();
        self.record(cfg, ok);
        ok
    }
}

/// Shared, reloadable state of one replicated backend group.
#[derive(Debug)]
pub(crate) struct FleetState {
    backend: String,
    replicas: RwLock<Vec<Arc<Replica>>>,
    /// Explicit hedge budget in µs; 0 means "derive from the primary
    /// replica's observed p95".
    hedge_budget_us: AtomicU64,
    breaker_cfg: RwLock<BreakerConfig>,
}

impl FleetState {
    pub(crate) fn new(group: &ReplicaGroupDecl, pools: Vec<Arc<ConnectionPool>>) -> Self {
        Self {
            backend: group.backend.clone(),
            replicas: RwLock::new(
                pools
                    .into_iter()
                    .map(|p| Arc::new(Replica::new(p)))
                    .collect(),
            ),
            hedge_budget_us: AtomicU64::new(group.hedge_budget_us.unwrap_or(0)),
            breaker_cfg: RwLock::new(group.breaker.unwrap_or_default()),
        }
    }

    pub(crate) fn backend(&self) -> &str {
        &self.backend
    }

    fn snapshot(&self) -> Vec<Arc<Replica>> {
        self.replicas.read().expect("replicas lock").clone()
    }

    fn breaker_cfg(&self) -> BreakerConfig {
        *self.breaker_cfg.read().expect("breaker cfg lock")
    }

    /// Re-applies a reloaded group's tuning knobs in place.
    fn set_tuning(&self, group: &ReplicaGroupDecl) {
        self.hedge_budget_us
            .store(group.hedge_budget_us.unwrap_or(0), Ordering::Relaxed);
        *self.breaker_cfg.write().expect("breaker cfg lock") = group.breaker.unwrap_or_default();
    }

    /// The hedge budget for an exchange whose primary is `replica`:
    /// explicit if the topology pinned one, otherwise the p95 of this
    /// group's exchanges on that replica (floored — see
    /// [`MIN_DERIVED_HEDGE_BUDGET`]), or `None` (no hedging) until enough
    /// latency samples exist.
    fn hedge_budget(&self, primary: &Replica) -> Option<Duration> {
        match self.hedge_budget_us.load(Ordering::Relaxed) {
            0 => primary
                .observed_p95()
                .map(|p95| p95.max(MIN_DERIVED_HEDGE_BUDGET)),
            us => Some(Duration::from_micros(us)),
        }
    }

    /// Replicas ranked for `spec`: rendezvous order among breaker-admitted
    /// members (half-open members are probed here), falling back to plain
    /// rendezvous order when every breaker is open — a guaranteed error
    /// helps nobody, and a recovering shard closes its breaker through
    /// exactly this attempt.
    fn candidates_for(&self, spec: &WorkloadSpec) -> Vec<Arc<Replica>> {
        let mut ranked = self.snapshot();
        ranked.sort_by_key(|replica| std::cmp::Reverse(rendezvous_score(replica.addr(), spec)));
        let cfg = self.breaker_cfg();
        let admitted: Vec<Arc<Replica>> = ranked
            .iter()
            .filter(|replica| match replica.admit() {
                Admission::Admit => true,
                Admission::Probe => replica.probe(&cfg),
                Admission::Skip => false,
            })
            .cloned()
            .collect();
        if admitted.is_empty() {
            ranked
        } else {
            admitted
        }
    }
}

/// One attempt's wire outcome: a full batch of shared results, or the
/// transport error that makes the attempt failover-eligible.
type AttemptResult = Result<Vec<SharedResult>, WireError>;

/// The specs a partition's request carries.
fn request_specs(request: &ShardRequest) -> &[WorkloadSpec] {
    match request {
        ShardRequest::Evaluate { spec, .. } => std::slice::from_ref(spec),
        ShardRequest::EvaluateBatch { specs, .. } => specs,
        _ => &[],
    }
}

/// Unpacks `pool`'s answer to `request` (an `evaluate_batch` for two or
/// more specs, an `evaluate` for one) into one result per spec.
fn results_of(
    pool: &ConnectionPool,
    request: &ShardRequest,
    response: ShardResponse,
) -> AttemptResult {
    let expected = request_specs(request).len();
    match response {
        ShardResponse::EvaluatedBatch(results) if results.len() == expected => {
            pool.count_pipelined(expected);
            Ok(results)
        }
        ShardResponse::EvaluatedBatch(results) => Err(WireError::Rejected(format!(
            "{} results for a {expected}-spec batch",
            results.len()
        ))),
        ShardResponse::Evaluated(result) if expected == 1 => Ok(vec![result]),
        ShardResponse::Rejected(message) => Err(WireError::Rejected(message)),
        _ => Err(WireError::Rejected(
            "unexpected payload answering an evaluation".to_string(),
        )),
    }
}

/// Turns one attempt's wire outcome into its results and feeds the
/// breaker.
fn settle(
    replica: &Replica,
    cfg: &BreakerConfig,
    request: &ShardRequest,
    exchanged: Result<ShardResponse, WireError>,
) -> AttemptResult {
    let result = exchanged.and_then(|response| results_of(replica.pool(), request, response));
    replica.record(cfg, result.is_ok());
    result
}

/// Runs `request` against one replica as a single exchange.  Fleet pools
/// are built without a construction-time handshake (a dead replica must
/// not abort assembly), so each attempt says hello on first use, and a
/// refusal or a dead replica fails the attempt over.
fn attempt(replica: &Replica, cfg: &BreakerConfig, request: &ShardRequest) -> AttemptResult {
    let pool = replica.pool();
    let exchanged = pool.negotiate().and_then(|()| {
        let started = Instant::now();
        replica.timed(started, pool.exchange(request))
    });
    settle(replica, cfg, request, exchanged)
}

/// How the primary attempt left the caller's thread.
enum Primary {
    /// Answered or failed by its hedge point.
    Done(AttemptResult),
    /// Still in flight at its hedge point (sent at `started`).
    Late { late: Late, started: Instant },
    /// Not sent: the pool had no connection ready without blocking.
    Unsent,
}

/// The primary attempt on the caller's thread, up to its hedge point.
fn attempt_until(
    replica: &Replica,
    cfg: &BreakerConfig,
    request: &ShardRequest,
    hedge: Duration,
) -> Primary {
    let started = Instant::now();
    let exchanged = match replica.pool().exchange_hedged(request, hedge) {
        Ok(Exchanged::Unsent) => return Primary::Unsent,
        Ok(Exchanged::Late(late)) => return Primary::Late { late, started },
        Ok(Exchanged::Answer(response)) => replica.timed(started, Ok(response)),
        Err(error) => Err(error),
    };
    Primary::Done(settle(replica, cfg, request, exchanged))
}

/// Runs one partition's `request` against the candidate chain with
/// failover and (when a budget exists and a sibling is available) one
/// hedge.
fn run(state: &FleetState, request: &Arc<ShardRequest>) -> Result<Vec<SharedResult>, EvalError> {
    let no_replicas = || EvalError::Transport {
        backend: state.backend.clone(),
        detail: "replica group has no members".to_string(),
    };
    let specs = request_specs(request);
    let candidates = state.candidates_for(specs.first().ok_or_else(no_replicas)?);
    if candidates.is_empty() {
        return Err(no_replicas());
    }
    let cfg = state.breaker_cfg();
    let budget = state.hedge_budget(&candidates[0]);

    // Sequential failover chain when hedging cannot help: one candidate,
    // or no budget yet (too few latency samples to know what "slow" is).
    let (Some(budget), true) = (budget, candidates.len() >= 2) else {
        let mut last_error = None;
        let total = candidates.len();
        for (idx, replica) in candidates.iter().enumerate() {
            match attempt(replica, &cfg, request) {
                Ok(results) => return Ok(results),
                Err(error) => {
                    if idx + 1 < total {
                        replica
                            .pool()
                            .fleet_counters()
                            .failovers
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    last_error = Some(error);
                }
            }
        }
        return Err(all_replicas_failed(state, total, last_error));
    };

    // Hedged path.  The primary runs on the caller's thread until its
    // hedge point, so an answer in time costs no thread and no channel.
    // Only a late, failed or unsent primary hands over to the coordinator
    // below.
    let primary = match attempt_until(&candidates[0], &cfg, request, budget) {
        Primary::Done(Ok(results)) => return Ok(results),
        other => other,
    };

    // Attempts now run on their own threads and report through one
    // channel; the coordinator hedges once if the primary was late, and
    // fails over to unlaunched siblings as attempts error out.  Abandoned
    // attempts (the hedge race's loser) keep their `Arc<Replica>` alive
    // until their own exchange budget expires — on a multiplexed
    // connection that expiry sends the `Cancel` frame, so the losing shard
    // stops computing the answer.
    let (tx, rx) = mpsc::channel::<(usize, AttemptResult)>();
    let spawn_attempt = |idx: usize| {
        let replica = Arc::clone(&candidates[idx]);
        let request = Arc::clone(request);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let result = attempt(&replica, &cfg, &request);
            let _ = tx.send((idx, result));
        });
    };
    // Bound on waiting for *launched* attempts: they carry the pool's own
    // connect/io timeouts, so anything beyond (scaled for batch reads,
    // doubled for slack) means a lost thread, not a slow shard.
    let pool_cfg = candidates[0].pool().config();
    let stall_cap = pool_cfg
        .io_timeout
        .saturating_mul(specs.len().max(1) as u32)
        .saturating_add(pool_cfg.connect_timeout)
        .saturating_mul(2);

    let mut launched = 1usize;
    let mut failed = 0usize;
    let mut hedge_idx: Option<usize> = None;
    match primary {
        // Failed before its hedge point: the loop fails it over like any
        // other attempt.
        Primary::Done(result) => {
            let _ = tx.send((0, result));
        }
        // Needs a hello, a dial or a credit, any of which may block: run
        // it on a thread of its own, hedged after the budget as usual.
        Primary::Unsent => spawn_attempt(0),
        // Outlived its budget: finish it on a thread of its own and race
        // one sibling now.
        Primary::Late { late, started } => {
            let replica = Arc::clone(&candidates[0]);
            let request = Arc::clone(request);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let exchanged = replica.timed(started, late.finish());
                let result = settle(&replica, &cfg, &request, exchanged);
                let _ = tx.send((0, result));
            });
            candidates[0]
                .pool()
                .fleet_counters()
                .hedges_launched
                .fetch_add(1, Ordering::Relaxed);
            spawn_attempt(launched);
            hedge_idx = Some(launched);
            launched += 1;
        }
    }
    loop {
        let can_hedge = hedge_idx.is_none() && launched < candidates.len();
        let wait = if can_hedge { budget } else { stall_cap };
        let (idx, result) = match rx.recv_timeout(wait) {
            Ok(message) => message,
            Err(mpsc::RecvTimeoutError::Timeout) if can_hedge => {
                // The attempt in flight outlived its budget: race one
                // more sibling.
                candidates[0]
                    .pool()
                    .fleet_counters()
                    .hedges_launched
                    .fetch_add(1, Ordering::Relaxed);
                spawn_attempt(launched);
                hedge_idx = Some(launched);
                launched += 1;
                continue;
            }
            Err(_) => {
                return Err(EvalError::Transport {
                    backend: state.backend.clone(),
                    detail: format!("every launched replica exchange stalled past {stall_cap:?}"),
                })
            }
        };
        match result {
            Ok(results) => {
                if hedge_idx == Some(idx) {
                    candidates[idx]
                        .pool()
                        .fleet_counters()
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Ok(results);
            }
            Err(error) => {
                failed += 1;
                if launched < candidates.len() {
                    // Reroute the failed attempt's work to the next sibling.
                    candidates[idx]
                        .pool()
                        .fleet_counters()
                        .failovers
                        .fetch_add(1, Ordering::Relaxed);
                    spawn_attempt(launched);
                    launched += 1;
                } else if failed == launched {
                    return Err(all_replicas_failed(state, candidates.len(), Some(error)));
                }
                // Otherwise another attempt is still in flight — wait for it.
            }
        }
    }
}

fn all_replicas_failed(state: &FleetState, tried: usize, last: Option<WireError>) -> EvalError {
    EvalError::Transport {
        backend: state.backend.clone(),
        detail: format!(
            "all {tried} replicas failed; last: {}",
            last.map_or_else(|| "no error recorded".to_string(), |e| e.to_string())
        ),
    }
}

/// Takes ownership of a decoded wire result (sole-owner `Arc`s move).
fn unshare(result: SharedResult) -> Result<EvalReport, EvalError> {
    Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone())
}

/// A [`Backend`] served by a replicated group of shard servers — the
/// fleet-resilient sibling of [`RemoteBackend`](crate::remote::RemoteBackend).
/// Built by [`ShardRouter`](crate::ShardRouter) from a topology `replicas`
/// group; see the [module docs](self) for the routing, failover, hedging
/// and breaker semantics.
#[derive(Debug)]
pub struct FleetBackend {
    state: Arc<FleetState>,
}

impl FleetBackend {
    pub(crate) fn from_state(state: Arc<FleetState>) -> Self {
        Self { state }
    }

    /// Evaluates one batch with replica partitioning: specs are grouped by
    /// their rendezvous-preferred replica and each partition runs as one
    /// (hedged, failover-capable) exchange.
    fn evaluate_shared(&self, specs: &[WorkloadSpec]) -> Vec<SharedResult> {
        if specs.is_empty() {
            return Vec::new();
        }
        let replicas = self.state.snapshot();
        if replicas.is_empty() {
            let error = Arc::new(Err(EvalError::Transport {
                backend: self.state.backend.clone(),
                detail: "replica group has no members".to_string(),
            }));
            return specs.iter().map(|_| Arc::clone(&error)).collect();
        }
        // One spec, or one replica: a single partition, no grouping.
        if specs.len() == 1 || replicas.len() == 1 {
            return self.run_partition(specs.to_vec());
        }
        // Group spec indices by their top-ranked replica so each replica
        // sees exactly the specs whose cache it should own.
        let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); replicas.len()];
        for (index, spec) in specs.iter().enumerate() {
            let winner = (0..replicas.len())
                .max_by_key(|&r| rendezvous_score(replicas[r].addr(), spec))
                .expect("non-empty replicas");
            partitions[winner].push(index);
        }
        let mut results: Vec<Option<SharedResult>> = vec![None; specs.len()];
        for indices in partitions.into_iter().filter(|p| !p.is_empty()) {
            let answers = self.run_partition(indices.iter().map(|&i| specs[i].clone()).collect());
            for (&index, answer) in indices.iter().zip(answers) {
                results[index] = Some(answer);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index answered"))
            .collect()
    }

    /// Runs one partition as one exchange.  Its request is built here,
    /// once, and shared by the primary, hedge and failover attempts.
    fn run_partition(&self, specs: Vec<WorkloadSpec>) -> Vec<SharedResult> {
        let count = specs.len();
        let backend = self.state.backend.clone();
        let request = Arc::new(match <[WorkloadSpec; 1]>::try_from(specs) {
            Ok([spec]) => ShardRequest::Evaluate { backend, spec },
            Err(specs) => ShardRequest::EvaluateBatch { backend, specs },
        });
        match run(&self.state, &request) {
            Ok(answers) => answers,
            Err(error) => {
                let shared = Arc::new(Err(error));
                vec![shared; count]
            }
        }
    }
}

impl Backend for FleetBackend {
    fn name(&self) -> &str {
        &self.state.backend
    }

    /// Probes the group's preferred replica, failing over across siblings;
    /// an unreachable fleet reports `false` (the `supports` contract has
    /// no error channel).
    fn supports(&self, workload: &WorkloadSpec) -> bool {
        let request = ShardRequest::Supports {
            backend: self.state.backend.clone(),
            spec: workload.clone(),
        };
        for replica in self.state.candidates_for(workload) {
            // Hello first, as every evaluation does: a replica of another
            // protocol version is refused, not asked.
            let pool = replica.pool();
            match pool.negotiate().and_then(|()| pool.exchange(&request)) {
                Ok(ShardResponse::Supported(answer)) => return answer,
                _ => continue,
            }
        }
        false
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut results = self.run_partition(vec![workload.clone()]);
        unshare(results.remove(0))
    }

    fn evaluate_many(&self, workloads: &[WorkloadSpec]) -> Vec<Result<EvalReport, EvalError>> {
        self.evaluate_shared(workloads)
            .into_iter()
            .map(unshare)
            .collect()
    }

    /// Fleet exchanges amortise like remote ones: gather the worker's
    /// backlog so each replica partition crosses the wire batched.
    fn coalesces_chunks(&self) -> bool {
        true
    }

    fn evaluate_chunks(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        self.evaluate_chunks_shared(chunks)
            .into_iter()
            .map(|chunk| chunk.into_iter().map(unshare).collect())
            .collect()
    }

    fn evaluate_chunks_shared(&self, chunks: &[Vec<WorkloadSpec>]) -> Vec<Vec<SharedResult>> {
        chunks
            .iter()
            .map(|specs| self.evaluate_shared(specs))
            .collect()
    }
}

/// Why [`ShardRouter::watch`](crate::ShardRouter::watch) could not start.
#[derive(Debug)]
pub enum WatchError {
    /// Loading or decoding the topology file failed.
    Topology(TopologyError),
    /// Assembling the service from the topology failed.
    Router(crate::service::RouterError),
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::Topology(e) => write!(f, "{e}"),
            WatchError::Router(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WatchError {}

impl From<TopologyError> for WatchError {
    fn from(e: TopologyError) -> Self {
        WatchError::Topology(e)
    }
}

impl From<crate::service::RouterError> for WatchError {
    fn from(e: crate::service::RouterError) -> Self {
        WatchError::Router(e)
    }
}

/// The controller state the watch thread shares with the handle.
#[derive(Debug)]
struct ControllerShared {
    groups: Vec<Arc<FleetState>>,
    registry: PoolRegistry,
}

impl ControllerShared {
    /// Applies a reloaded topology: for every running group that the new
    /// topology still declares, diff the shard sets — build (lazy) pools
    /// for added shards, drop removed ones from routing — and re-apply the
    /// hedge/breaker tuning.  Returns the number of shards added plus
    /// drained.
    fn reload(&self, topology: &Topology) -> usize {
        let mut changes = 0;
        for state in &self.groups {
            let Some(group) = topology
                .replicas
                .iter()
                .find(|g| g.backend == state.backend())
            else {
                // The group vanished from the file.  Its backend is baked
                // into the running service (backends are fixed at
                // construction), so keep it serving as-is; removing a
                // backend still takes a restart.
                continue;
            };
            state.set_tuning(group);
            let current = state.snapshot();
            let mut next: Vec<Arc<Replica>> = Vec::new();
            for replica in &current {
                if group.shards.iter().any(|addr| addr == replica.addr()) {
                    next.push(Arc::clone(replica));
                } else {
                    // Drain: out of the routing table now; in-flight
                    // exchanges hold their own Arc and finish, and the
                    // pool closes when the last reference drops.
                    let mut pools = self.registry.lock().expect("pools lock");
                    pools.retain(|pool| !Arc::ptr_eq(pool, replica.pool()));
                    changes += 1;
                }
            }
            for addr in &group.shards {
                if !current.iter().any(|replica| replica.addr() == addr) {
                    let pool =
                        Arc::new(ConnectionPool::new(addr, remote_config_for(topology, addr)));
                    self.registry
                        .lock()
                        .expect("pools lock")
                        .push(Arc::clone(&pool));
                    next.push(Arc::new(Replica::new(pool)));
                    changes += 1;
                }
            }
            *state.replicas.write().expect("replicas lock") = next;
        }
        changes
    }
}

/// Handle over a built fleet's replica groups: applies topology reloads
/// ([`reload`](Self::reload)) and optionally watches the topology file
/// for them ([`watch`](Self::watch)).  Returned alongside the service by
/// [`ShardRouter::build_fleet`](crate::ShardRouter::build_fleet); dropping
/// it stops the watch thread but leaves the service and its current
/// replica sets running.
#[derive(Debug)]
pub struct FleetController {
    shared: Arc<ControllerShared>,
    watcher: Option<Watcher>,
}

#[derive(Debug)]
struct Watcher {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl FleetController {
    pub(crate) fn new(groups: Vec<Arc<FleetState>>, registry: PoolRegistry) -> Self {
        Self {
            shared: Arc::new(ControllerShared { groups, registry }),
            watcher: None,
        }
    }

    /// Backend names of the replica groups under control.
    pub fn group_backends(&self) -> Vec<String> {
        self.shared
            .groups
            .iter()
            .map(|state| state.backend().to_string())
            .collect()
    }

    /// The current replica addresses of `backend`'s group (`None` when no
    /// such group exists).
    pub fn replica_addrs(&self, backend: &str) -> Option<Vec<String>> {
        self.shared
            .groups
            .iter()
            .find(|state| state.backend() == backend)
            .map(|state| {
                state
                    .snapshot()
                    .iter()
                    .map(|replica| replica.addr().to_string())
                    .collect()
            })
    }

    /// Applies `topology` to the running groups — per-group tuning first,
    /// then membership (add new shards, drain removed ones); returns the
    /// number of shards added + drained.
    pub fn reload(&self, topology: &Topology) -> usize {
        self.shared.reload(topology)
    }

    /// Starts (or replaces) a thread that polls `path`'s mtime every
    /// `poll` and applies the reloaded topology on change.  A file that
    /// fails to load or decode mid-edit is skipped — the running fleet
    /// keeps its last good configuration and the next mtime change is
    /// tried again.
    pub fn watch(&mut self, path: impl AsRef<Path>, poll: Duration) {
        self.stop_watcher();
        let path: PathBuf = path.as_ref().to_path_buf();
        let shared = Arc::clone(&self.shared);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // Sleep in short ticks so dropping the controller never waits
            // out a long poll interval.
            let tick = poll
                .min(Duration::from_millis(20))
                .max(Duration::from_millis(1));
            let mut last = file_mtime(&path);
            let mut since_poll = Duration::ZERO;
            while !stop_flag.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                since_poll += tick;
                if since_poll < poll {
                    continue;
                }
                since_poll = Duration::ZERO;
                let mtime = file_mtime(&path);
                if mtime.is_some() && mtime != last {
                    last = mtime;
                    if let Ok(topology) = Topology::from_file(&path) {
                        shared.reload(&topology);
                    }
                }
            }
        });
        self.watcher = Some(Watcher { stop, handle });
    }

    /// Whether a watch thread is currently running.
    pub fn is_watching(&self) -> bool {
        self.watcher.is_some()
    }

    fn stop_watcher(&mut self) {
        if let Some(watcher) = self.watcher.take() {
            watcher.stop.store(true, Ordering::Release);
            let _ = watcher.handle.join();
        }
    }
}

impl Drop for FleetController {
    fn drop(&mut self) {
        self.stop_watcher();
    }
}

fn file_mtime(path: &Path) -> Option<std::time::SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec::SquareGemm { n }
    }

    #[test]
    fn rendezvous_is_sticky_and_spreads() {
        let addrs = ["10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"];
        let winner = |spec: &WorkloadSpec| {
            *addrs
                .iter()
                .max_by_key(|addr| rendezvous_score(addr, spec))
                .unwrap()
        };
        // Sticky: the same spec always prefers the same replica.
        for n in [64usize, 256, 1024] {
            assert_eq!(winner(&spec(n)), winner(&spec(n)));
        }
        // Spread: a population of specs does not all land on one replica.
        let mut used = std::collections::HashSet::new();
        for n in 1..64usize {
            used.insert(winner(&spec(n * 32)));
        }
        assert!(used.len() >= 2, "all specs routed to one replica");
    }

    #[test]
    fn removing_a_replica_only_moves_its_own_specs() {
        let all = ["10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"];
        let survivors = [all[0], all[2]];
        for n in 1..128usize {
            let s = spec(n * 16);
            let before = *all.iter().max_by_key(|a| rendezvous_score(a, &s)).unwrap();
            let after = *survivors
                .iter()
                .max_by_key(|a| rendezvous_score(a, &s))
                .unwrap();
            if before != all[1] {
                assert_eq!(
                    before, after,
                    "spec {n} moved although its replica survived"
                );
            }
        }
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let cfg = BreakerConfig {
            window: 4,
            max_failures: 2,
            cooldown: Duration::from_millis(10),
        };
        let replica = Replica::new(Arc::new(ConnectionPool::new(
            "127.0.0.1:1",
            RemoteConfig::default(),
        )));
        assert!(matches!(replica.admit(), Admission::Admit));
        replica.record(&cfg, false);
        assert!(
            matches!(replica.admit(), Admission::Admit),
            "one failure stays closed"
        );
        replica.record(&cfg, false);
        // Tripped: skips are fast-failed and counted.
        assert!(matches!(replica.admit(), Admission::Skip));
        let stats = replica.pool().stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_fast_fails, 1);
        // After the cooldown the next admission is the half-open probe.
        std::thread::sleep(cfg.cooldown + Duration::from_millis(5));
        assert!(matches!(replica.admit(), Admission::Probe));
        // While half-open, everyone else is skipped.
        assert!(matches!(replica.admit(), Admission::Skip));
        // A successful outcome closes the breaker and clears the window.
        replica.record(&cfg, true);
        assert!(matches!(replica.admit(), Admission::Admit));
        replica.record(&cfg, false);
        assert!(
            matches!(replica.admit(), Admission::Admit),
            "window cleared on close: one new failure must not re-trip"
        );
    }

    #[test]
    fn failed_probe_reopens_without_a_fresh_trip() {
        let cfg = BreakerConfig {
            window: 2,
            max_failures: 1,
            cooldown: Duration::from_millis(5),
        };
        let replica = Replica::new(Arc::new(ConnectionPool::new(
            "127.0.0.1:1",
            RemoteConfig::default(),
        )));
        replica.record(&cfg, false);
        std::thread::sleep(cfg.cooldown + Duration::from_millis(3));
        assert!(matches!(replica.admit(), Admission::Probe));
        replica.record(&cfg, false); // the probe failed
        assert!(matches!(replica.admit(), Admission::Skip), "re-opened");
        assert_eq!(
            replica.pool().stats().breaker_trips,
            1,
            "same outage, one trip"
        );
    }

    #[test]
    fn supports_says_hello_first_and_refuses_another_version() {
        use crate::config::TransportPolicy;
        use crate::pool::tests::scripted_peer;
        use crate::wire::PROTOCOL_VERSION;
        // A peer of another protocol version that would otherwise answer
        // every question "yes".
        let (addr, _, log) = scripted_peer(ShardResponse::Backends {
            names: vec!["square".to_string()],
            protocol: PROTOCOL_VERSION + 1,
            ring: None,
            window: None,
        });
        // A socket-only pool dials with no hello of its own, so only the
        // fleet can say it.
        let pool = Arc::new(ConnectionPool::new(
            &addr,
            RemoteConfig {
                transport: TransportPolicy::Socket,
                ..RemoteConfig::default()
            },
        ));
        let state = FleetState::new(&ReplicaGroupDecl::new("square", &[&addr]), vec![pool]);
        let fleet = FleetBackend::from_state(Arc::new(state));
        assert!(
            !fleet.supports(&spec(64)),
            "a refused replica supports nothing"
        );
        let seen = log.lock().expect("request log");
        assert!(
            matches!(seen.first(), Some(ShardRequest::Hello { .. })),
            "the first frame must be a hello, saw {seen:?}"
        );
        assert!(
            !seen
                .iter()
                .any(|request| matches!(request, ShardRequest::Supports { .. })),
            "a refused replica must not be asked, saw {seen:?}"
        );
    }

    /// Answers every spec after a fixed delay.
    struct Paced {
        name: &'static str,
        delay: Duration,
    }

    impl Backend for Paced {
        fn name(&self) -> &str {
            self.name
        }
        fn supports(&self, _: &WorkloadSpec) -> bool {
            true
        }
        fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
            std::thread::sleep(self.delay);
            Ok(EvalReport::new(self.name, w.name()))
        }
    }

    #[test]
    fn each_group_derives_its_hedge_budget_from_its_own_exchanges() {
        let pacing = Duration::from_millis(20);
        let server = crate::ShardServer::bind(
            "127.0.0.1:0",
            crate::EvalService::new(
                rsn_eval::Evaluator::empty()
                    .with_backend(Box::new(Paced {
                        name: "fast",
                        delay: Duration::ZERO,
                    }))
                    .with_backend(Box::new(Paced {
                        name: "paced",
                        delay: pacing,
                    })),
            ),
        )
        .expect("bind loopback shard");
        let addr = server.local_addr().to_string();
        // One pool for the shard, shared by both groups the way
        // `ShardRouter` shares a pool per address.
        let pool = Arc::new(ConnectionPool::new(&addr, RemoteConfig::default()));
        let group = |backend: &str| {
            let decl = ReplicaGroupDecl::new(backend, &[&addr]);
            Arc::new(FleetState::new(&decl, vec![Arc::clone(&pool)]))
        };
        let (fast, paced) = (group("fast"), group("paced"));
        let budget = |state: &FleetState| state.hedge_budget(&state.snapshot()[0]);
        let run_one = |state: &Arc<FleetState>, n: usize| {
            // Distinct specs: a shard cache hit would answer the paced
            // backend without its delay.
            let report = FleetBackend::from_state(Arc::clone(state)).evaluate(&spec(n));
            assert!(report.is_ok(), "{report:?}");
        };
        let samples = MIN_HEDGE_SAMPLES as usize;
        for n in 1..samples {
            run_one(&fast, n);
            run_one(&paced, n);
        }
        assert_eq!(
            budget(&fast),
            None,
            "fewer than {samples} samples of its own"
        );
        assert_eq!(budget(&paced), None);
        run_one(&fast, samples);
        run_one(&paced, samples);
        let fast_budget = budget(&fast).expect("fast group has its samples");
        let paced_budget = budget(&paced).expect("paced group has its samples");
        assert!(
            fast_budget >= MIN_DERIVED_HEDGE_BUDGET && fast_budget < pacing,
            "fast group's budget {fast_budget:?} must not come from paced exchanges"
        );
        assert!(
            paced_budget >= pacing,
            "paced group's budget {paced_budget:?} must cover its {pacing:?} exchanges"
        );
    }

    #[test]
    fn remote_config_for_applies_per_shard_overrides() {
        use crate::topology::RemoteShardDecl;
        let mut topology = Topology::default();
        topology.service.remote.pool_size = 4;
        topology.remotes.push(RemoteShardDecl {
            addr: "a:1".to_string(),
            weight: 1,
            pool_size: Some(9),
            encoding: None,
            transport: None,
        });
        assert_eq!(remote_config_for(&topology, "a:1").pool_size, 9);
        assert_eq!(remote_config_for(&topology, "b:1").pool_size, 4);
    }
}
