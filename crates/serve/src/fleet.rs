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
//!   (explicit `hedge_budget_us`, or derived from the primary pool's
//!   [`observed_exchange_p95`](crate::ConnectionPool::observed_exchange_p95)),
//!   the same exchange is re-issued against the next sibling and the
//!   first answer wins (`hedges_launched`/`hedges_won`).  The loser is
//!   abandoned: on a multiplexed (windowed) connection its budget
//!   expiry sends the `Cancel` frame, so the losing shard stops working
//!   on it rather than finishing into the void.
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
use crate::pool::ConnectionPool;
use crate::service::PoolRegistry;
use crate::topology::{ReplicaGroupDecl, Topology, TopologyError};
use crate::wire::{ShardRequest, ShardResponse, SharedResult, WireError};
use rsn_eval::fnv::FnvBuild;
use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor on a p95-*derived* hedge budget.  Sub-millisecond exchanges
/// (loopback, shared memory) would otherwise hedge so eagerly that the
/// hedge threads become their own tail; an explicit `hedge_budget_us`
/// is taken verbatim.
const MIN_DERIVED_HEDGE_BUDGET: Duration = Duration::from_micros(500);

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

/// One member shard of a replicated group: its connection pool plus the
/// circuit breaker guarding it.
#[derive(Debug)]
pub(crate) struct Replica {
    pool: Arc<ConnectionPool>,
    breaker: Mutex<Breaker>,
}

impl Replica {
    fn new(pool: Arc<ConnectionPool>) -> Self {
        Self {
            pool,
            breaker: Mutex::new(Breaker::new()),
        }
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
    /// pool's observed p95".
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
    /// explicit if the topology pinned one, otherwise the primary pool's
    /// observed p95 (floored — see [`MIN_DERIVED_HEDGE_BUDGET`]), or
    /// `None` (no hedging) until enough latency samples exist.
    fn hedge_budget(&self, primary: &Replica) -> Option<Duration> {
        match self.hedge_budget_us.load(Ordering::Relaxed) {
            0 => primary
                .pool()
                .observed_exchange_p95()
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

/// Runs `specs` against one replica as a single exchange (an
/// `evaluate_batch` for two or more specs, an `evaluate` for one) and
/// feeds the breaker.
fn attempt(
    replica: &Replica,
    cfg: &BreakerConfig,
    backend: &str,
    specs: &[WorkloadSpec],
) -> AttemptResult {
    let result = attempt_raw(replica.pool(), backend, specs);
    replica.record(cfg, result.is_ok());
    result
}

fn attempt_raw(pool: &ConnectionPool, backend: &str, specs: &[WorkloadSpec]) -> AttemptResult {
    // Fleet pools are built without a construction-time handshake (a dead
    // replica must not abort assembly); say hello on first use, so a
    // refusal or a dead replica fails this attempt over.
    pool.negotiate()?;
    if specs.len() >= 2 {
        match pool.exchange(&ShardRequest::EvaluateBatch {
            backend: backend.to_string(),
            specs: specs.to_vec(),
        })? {
            ShardResponse::EvaluatedBatch(results) if results.len() == specs.len() => {
                pool.count_pipelined(specs.len());
                Ok(results)
            }
            ShardResponse::EvaluatedBatch(results) => Err(WireError::Rejected(format!(
                "{} results for a {}-spec batch",
                results.len(),
                specs.len()
            ))),
            ShardResponse::Rejected(message) => Err(WireError::Rejected(message)),
            _ => Err(WireError::Rejected(
                "unexpected payload answering evaluate_batch".to_string(),
            )),
        }
    } else {
        specs
            .iter()
            .map(|spec| {
                match pool.exchange(&ShardRequest::Evaluate {
                    backend: backend.to_string(),
                    spec: spec.clone(),
                })? {
                    ShardResponse::Evaluated(result) => Ok(result),
                    ShardResponse::Rejected(message) => Err(WireError::Rejected(message)),
                    _ => Err(WireError::Rejected(
                        "unexpected payload answering evaluate".to_string(),
                    )),
                }
            })
            .collect()
    }
}

/// Runs `specs` against the candidate chain with failover and (when a
/// budget exists and a sibling is available) one hedge.
fn run(state: &FleetState, specs: &[WorkloadSpec]) -> Result<Vec<SharedResult>, EvalError> {
    let no_replicas = || EvalError::Transport {
        backend: state.backend.clone(),
        detail: "replica group has no members".to_string(),
    };
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
            match attempt(replica, &cfg, &state.backend, specs) {
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

    // Hedged path.  Attempts run on their own threads and report through
    // one channel; the coordinator launches the primary, hedges once if
    // it outlives the budget, and fails over to unlaunched siblings as
    // attempts error out.  Abandoned attempts (the hedge race's loser)
    // keep their `Arc<Replica>` alive until their own exchange budget
    // expires — on a multiplexed connection that expiry sends the
    // `Cancel` frame, so the losing shard stops computing the answer.
    let (tx, rx) = mpsc::channel::<(usize, AttemptResult)>();
    let spawn_attempt = |idx: usize| {
        let replica = Arc::clone(&candidates[idx]);
        let backend = state.backend.clone();
        let specs = specs.to_vec();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let result = attempt(&replica, &cfg, &backend, &specs);
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

    spawn_attempt(0);
    let mut launched = 1usize;
    let mut failed = 0usize;
    let mut hedge_idx: Option<usize> = None;
    loop {
        let can_hedge = hedge_idx.is_none() && launched < candidates.len();
        let wait = if can_hedge { budget } else { stall_cap };
        let (idx, result) = match rx.recv_timeout(wait) {
            Ok(message) => message,
            Err(mpsc::RecvTimeoutError::Timeout) if can_hedge => {
                // The primary outlived its budget: race one sibling.
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
        // Group spec indices by their top-ranked replica so each replica
        // sees exactly the specs whose cache it should own.
        let mut partitions: HashMap<&str, Vec<usize>> = HashMap::new();
        for (index, spec) in specs.iter().enumerate() {
            let winner = replicas
                .iter()
                .max_by_key(|replica| rendezvous_score(replica.addr(), spec))
                .expect("non-empty replicas");
            partitions.entry(winner.addr()).or_default().push(index);
        }
        let mut results: Vec<Option<SharedResult>> = vec![None; specs.len()];
        for indices in partitions.into_values() {
            let partition: Vec<WorkloadSpec> = indices.iter().map(|&i| specs[i].clone()).collect();
            match run(&self.state, &partition) {
                Ok(answers) => {
                    for (&index, answer) in indices.iter().zip(answers) {
                        results[index] = Some(answer);
                    }
                }
                Err(error) => {
                    let shared = Arc::new(Err(error));
                    for &index in &indices {
                        results[index] = Some(Arc::clone(&shared));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index answered"))
            .collect()
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
        for replica in self.state.candidates_for(workload) {
            match replica.pool().exchange(&ShardRequest::Supports {
                backend: self.state.backend.clone(),
                spec: workload.clone(),
            }) {
                Ok(ShardResponse::Supported(answer)) => return answer,
                _ => continue,
            }
        }
        false
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        run(&self.state, std::slice::from_ref(workload))
            .and_then(|mut results| unshare(results.remove(0)))
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
