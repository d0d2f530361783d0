//! Deployment topology files: declarative shard wiring instead of
//! hand-wired code.
//!
//! A topology file is a hand-rolled-JSON document (parsed with
//! [`crate::json`]) declaring what a process should assemble:
//!
//! ```json
//! {
//!   "listen": "127.0.0.1:7070",
//!   "service": {
//!     "max_batch": 16,
//!     "batch_deadline_us": 1000,
//!     "workers_per_backend": 2,
//!     "cache_capacity": 4096,
//!     "remote": {
//!       "connect_timeout_ms": 10000,
//!       "io_timeout_ms": 30000,
//!       "pool_size": 4,
//!       "server_idle_timeout_ms": 60000,
//!       "encoding": "auto",
//!       "frontend": "threads"
//!     }
//!   },
//!   "local": ["rsn-xnn", "roofline-bound"],
//!   "remotes": [
//!     {"addr": "10.0.0.7:7070", "weight": 2, "pool_size": 8},
//!     {"addr": "10.0.0.8:7070", "encoding": "binary_nodict"}
//!   ],
//!   "replicas": [
//!     {
//!       "backend": "rsn-xnn",
//!       "shards": ["10.0.0.7:7070", "10.0.0.8:7070"],
//!       "hedge_budget_us": 5000,
//!       "breaker": {"window": 8, "max_failures": 4, "cooldown_ms": 1000}
//!     }
//!   ]
//! }
//! ```
//!
//! * `listen` — bind address for `shardd` (optional; clients ignore it);
//! * `service` — every [`ServiceConfig`] knob, durations as integral
//!   microseconds/milliseconds (optional; missing fields default);
//! * `local` — in-process backend pools by evaluation-layer name
//!   ([`rsn_eval::default_backends`] order);
//! * `remotes` — shard servers to autodiscover backends from via the
//!   `hello` handshake, with an optional per-shard worker `weight`
//!   (heavier shards get proportionally more client-side worker threads),
//!   `pool_size` (connection-pool bound override), `encoding`
//!   (`auto`/`binary_nodict` framing override — force `binary_nodict` on
//!   one shard to rule out the symbol dictionaries while the fleet keeps
//!   them; the removed `json` and `binary` spellings are refused) and
//!   `transport` (`auto`/`socket`/`shm` — whether the client accepts a
//!   shard's shared-memory ring offer; see [`crate::shm`]);
//! * `replicas` — replicated backend groups (see [`crate::fleet`]): each
//!   group serves one `backend` name from N interchangeable `shards`, all
//!   of which must also appear in `remotes[]` (that is where their
//!   per-shard pool/encoding/transport overrides live).  Requests route
//!   to a replica by rendezvous hash of the workload spec (cache
//!   locality), fail over to a sibling on transport errors, and — when a
//!   reply outlives the group's hedge budget (`hedge_budget_us`, default:
//!   derived from the pool's observed p95) — are hedged against a second
//!   replica, first answer wins.  `breaker` tunes the per-replica circuit
//!   breaker ([`BreakerConfig`]; missing fields default).
//!
//! [`ShardRouter::from_topology`](crate::ShardRouter::from_topology) turns
//! a parsed topology into a running mixed local/remote service;
//! `shardd --topology` and the table binaries' `--topology` flag load one
//! from disk.  Emission ([`topology_json`]) is deterministic and
//! round-trips byte-identically through parse → decode → re-emit, pinned
//! by `tests/json_roundtrip.rs`.
//!
//! # Live reload
//!
//! A topology file is no longer only a boot artifact: a running fleet can
//! re-read it and apply the difference in place.
//! [`ShardRouter::watch`](crate::ShardRouter::watch) polls the file's
//! mtime and, on change, diffs each replica group's shard set against the
//! running one — new shards get a (lazily dialled) pool and start taking
//! traffic, removed shards are *drained* (no new checkouts, inflight
//! exchanges finish, then the pool is dropped) — all without restarting
//! the service or disturbing unrelated pools.

use crate::config::{
    BreakerConfig, EncodingPolicy, FrontendPolicy, RemoteConfig, ServiceConfig, TransportPolicy,
};
use crate::json::{self, DecodeError, JsonParseError, JsonValue};
use std::time::Duration;

/// One remote shard server a topology wires in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteShardDecl {
    /// Shard server address (`host:port`).
    pub addr: String,
    /// Client-side worker weight: the shard's backends get
    /// `workers_per_backend × weight` worker threads each, so heavier
    /// shards absorb proportionally more concurrent requests.
    pub weight: usize,
    /// Connection-pool bound override for this shard; `None` uses
    /// [`RemoteConfig::pool_size`].
    pub pool_size: Option<usize>,
    /// Framing override for this shard; `None` uses
    /// [`RemoteConfig::encoding`].  Force `binary_nodict` on one shard to
    /// rule out the symbol dictionaries while the rest of the fleet keeps
    /// them.
    pub encoding: Option<EncodingPolicy>,
    /// Transport override for this shard; `None` uses
    /// [`RemoteConfig::transport`].  Force `socket` on one shard to keep
    /// it off shared memory (say, while bisecting a perf regression), or
    /// `shm` to accept ring offers from a non-loopback address that is
    /// known to be this host.
    pub transport: Option<TransportPolicy>,
}

impl RemoteShardDecl {
    /// A weight-1 declaration with the default pool bound and encoding.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            weight: 1,
            pool_size: None,
            encoding: None,
            transport: None,
        }
    }
}

/// One replicated backend group: N interchangeable shards serving the
/// same backend name, with rendezvous routing, failover, hedging and
/// per-replica circuit breaking (see [`crate::fleet`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroupDecl {
    /// The backend name this group serves.  At most one group may claim a
    /// given name ([`topology_from_json`] rejects duplicates); a clash
    /// with a name autodiscovered from a non-replica shard surfaces at
    /// assembly time as
    /// [`RouterError::DuplicateBackend`](crate::RouterError).
    pub backend: String,
    /// Addresses of the group's replicas.  Every address must also appear
    /// in [`Topology::remotes`], whose matching declaration supplies the
    /// per-shard `pool_size`/`encoding`/`transport` overrides.
    pub shards: Vec<String>,
    /// Hedge budget in microseconds: how long the primary replica's
    /// exchange may run before a hedge is launched against a sibling.
    /// `None` derives the budget from the primary pool's observed p95
    /// exchange latency
    /// ([`ConnectionPool::observed_exchange_p95`](crate::ConnectionPool::observed_exchange_p95)),
    /// hedging nothing until enough samples exist.
    pub hedge_budget_us: Option<u64>,
    /// Circuit-breaker tuning for the group's replicas; `None` uses
    /// [`BreakerConfig::default`].
    pub breaker: Option<BreakerConfig>,
}

impl ReplicaGroupDecl {
    /// A group with the default (p95-derived) hedge budget and breaker.
    pub fn new(backend: &str, shards: &[&str]) -> Self {
        Self {
            backend: backend.to_string(),
            shards: shards.iter().map(|s| s.to_string()).collect(),
            hedge_budget_us: None,
            breaker: None,
        }
    }
}

/// A parsed deployment topology: which pools a process assembles, local
/// and remote, and how the service around them is tuned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    /// Bind address for a shard server process (`shardd --topology`);
    /// ignored by client-side loaders.
    pub listen: Option<String>,
    /// Service tuning for the assembled [`EvalService`](crate::EvalService).
    pub service: ServiceConfig,
    /// In-process backend pools, by evaluation-layer backend name.
    pub local: Vec<String>,
    /// Remote shard servers, autodiscovered via `hello` at assembly time.
    pub remotes: Vec<RemoteShardDecl>,
    /// Replicated backend groups over subsets of [`remotes`](Self::remotes).
    pub replicas: Vec<ReplicaGroupDecl>,
}

impl Topology {
    /// Loads and decodes a topology file.
    pub fn from_file(path: &std::path::Path) -> Result<Topology, TopologyError> {
        let text = std::fs::read_to_string(path).map_err(|source| TopologyError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let doc = json::parse(&text)?;
        Ok(topology_from_json(&doc)?)
    }
}

/// Why a topology file could not be loaded.
#[derive(Debug)]
pub enum TopologyError {
    /// Reading the file failed.
    Io {
        /// The path that failed.
        path: String,
        /// The filesystem error.
        source: std::io::Error,
    },
    /// The file is not valid JSON.
    Parse(JsonParseError),
    /// The JSON does not decode into a topology.
    Decode(DecodeError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Io { path, source } => {
                write!(f, "reading topology `{path}` failed: {source}")
            }
            TopologyError::Parse(e) => write!(f, "topology is not valid JSON: {e}"),
            TopologyError::Decode(e) => write!(f, "topology does not decode: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<JsonParseError> for TopologyError {
    fn from(e: JsonParseError) -> Self {
        TopologyError::Parse(e)
    }
}

impl From<DecodeError> for TopologyError {
    fn from(e: DecodeError) -> Self {
        TopologyError::Decode(e)
    }
}

/// Converts a topology into its JSON document (deterministic emission;
/// every field explicit, so emitted topologies are self-documenting).
pub fn topology_json(topology: &Topology) -> JsonValue {
    JsonValue::obj([
        (
            "listen",
            topology
                .listen
                .as_ref()
                .map_or(JsonValue::Null, |addr| JsonValue::Str(addr.clone())),
        ),
        ("service", service_config_json(&topology.service)),
        (
            "local",
            JsonValue::Arr(
                topology
                    .local
                    .iter()
                    .map(|name| JsonValue::Str(name.clone()))
                    .collect(),
            ),
        ),
        (
            "remotes",
            JsonValue::Arr(
                topology
                    .remotes
                    .iter()
                    .map(|decl| {
                        JsonValue::obj([
                            ("addr", JsonValue::Str(decl.addr.clone())),
                            ("weight", JsonValue::Int(decl.weight as u64)),
                            (
                                "pool_size",
                                decl.pool_size
                                    .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
                            ),
                            (
                                "encoding",
                                decl.encoding.map_or(JsonValue::Null, |e| {
                                    JsonValue::Str(e.as_str().to_string())
                                }),
                            ),
                            (
                                "transport",
                                decl.transport.map_or(JsonValue::Null, |t| {
                                    JsonValue::Str(t.as_str().to_string())
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "replicas",
            JsonValue::Arr(
                topology
                    .replicas
                    .iter()
                    .map(|group| {
                        JsonValue::obj([
                            ("backend", JsonValue::Str(group.backend.clone())),
                            (
                                "shards",
                                JsonValue::Arr(
                                    group
                                        .shards
                                        .iter()
                                        .map(|addr| JsonValue::Str(addr.clone()))
                                        .collect(),
                                ),
                            ),
                            (
                                "hedge_budget_us",
                                group
                                    .hedge_budget_us
                                    .map_or(JsonValue::Null, JsonValue::Int),
                            ),
                            (
                                "breaker",
                                group.breaker.map_or(JsonValue::Null, |b| {
                                    JsonValue::obj([
                                        ("window", JsonValue::Int(b.window as u64)),
                                        ("max_failures", JsonValue::Int(b.max_failures as u64)),
                                        ("cooldown_ms", JsonValue::Int(millis_ceil(b.cooldown))),
                                    ])
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A duration as whole milliseconds, rounded *up* — the topology's ms
/// fields must never emit a non-zero duration as `0` (the OS rejects
/// zero socket timeouts, so a truncated 500 µs connect timeout would make
/// every dial fail after a load).
fn millis_ceil(d: Duration) -> u64 {
    d.as_micros().div_ceil(1000) as u64
}

/// A duration as whole microseconds, rounded up (see [`millis_ceil`]).
fn micros_ceil(d: Duration) -> u64 {
    d.as_nanos().div_ceil(1000) as u64
}

/// Converts a service configuration into its topology JSON section.
pub fn service_config_json(config: &ServiceConfig) -> JsonValue {
    JsonValue::obj([
        ("max_batch", JsonValue::Int(config.max_batch as u64)),
        (
            "batch_deadline_us",
            JsonValue::Int(micros_ceil(config.batch_deadline)),
        ),
        (
            "workers_per_backend",
            JsonValue::Int(config.workers_per_backend as u64),
        ),
        (
            "cache_capacity",
            config
                .cache_capacity
                .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
        ),
        (
            "class_budgets_us",
            JsonValue::obj(crate::request::Priority::ALL.map(|priority| {
                (
                    priority.as_str(),
                    config.class_budgets[priority.index()]
                        .map_or(JsonValue::Null, |b| JsonValue::Int(micros_ceil(b))),
                )
            })),
        ),
        (
            "queue_capacity",
            config
                .queue_capacity
                .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
        ),
        (
            "remote",
            JsonValue::obj([
                (
                    "connect_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.connect_timeout)),
                ),
                (
                    "io_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.io_timeout)),
                ),
                ("pool_size", JsonValue::Int(config.remote.pool_size as u64)),
                (
                    "server_idle_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.server_idle_timeout)),
                ),
                (
                    "encoding",
                    JsonValue::Str(config.remote.encoding.as_str().to_string()),
                ),
                (
                    "transport",
                    JsonValue::Str(config.remote.transport.as_str().to_string()),
                ),
                (
                    "frontend",
                    JsonValue::Str(config.remote.frontend.as_str().to_string()),
                ),
            ]),
        ),
    ])
}

/// Decodes the `service` topology section; every missing field keeps its
/// [`ServiceConfig::default`] value, so hand-written files stay terse.
pub fn service_config_from_json(value: &JsonValue) -> Result<ServiceConfig, DecodeError> {
    const CTX: &str = "ServiceConfig";
    let mut config = ServiceConfig::default();
    if let Some(v) = value.get("max_batch") {
        config.max_batch = decode_usize(v, CTX, "max_batch")?;
    }
    if let Some(v) = value.get("batch_deadline_us") {
        config.batch_deadline = Duration::from_micros(decode_u64(v, CTX, "batch_deadline_us")?);
    }
    if let Some(v) = value.get("workers_per_backend") {
        config.workers_per_backend = decode_usize(v, CTX, "workers_per_backend")?;
    }
    match value.get("cache_capacity") {
        None | Some(JsonValue::Null) => {}
        Some(v) => config.cache_capacity = Some(decode_usize(v, CTX, "cache_capacity")?),
    }
    match value.get("class_budgets_us") {
        None | Some(JsonValue::Null) => {}
        Some(budgets @ JsonValue::Obj(_)) => {
            for priority in crate::request::Priority::ALL {
                match budgets.get(priority.as_str()) {
                    None | Some(JsonValue::Null) => {}
                    Some(v) => {
                        config.class_budgets[priority.index()] = Some(Duration::from_micros(
                            decode_u64(v, CTX, "class_budgets_us")?,
                        ))
                    }
                }
            }
        }
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`class_budgets_us` must be an object keyed by class".to_string(),
            })
        }
    }
    match value.get("queue_capacity") {
        None | Some(JsonValue::Null) => {}
        Some(v) => config.queue_capacity = Some(decode_usize(v, CTX, "queue_capacity")?),
    }
    if let Some(remote) = value.get("remote") {
        config.remote = remote_config_from_json(remote)?;
    }
    Ok(config)
}

fn remote_config_from_json(value: &JsonValue) -> Result<RemoteConfig, DecodeError> {
    const CTX: &str = "RemoteConfig";
    let mut remote = RemoteConfig::default();
    if let Some(v) = value.get("connect_timeout_ms") {
        remote.connect_timeout = Duration::from_millis(decode_u64(v, CTX, "connect_timeout_ms")?);
    }
    if let Some(v) = value.get("io_timeout_ms") {
        remote.io_timeout = Duration::from_millis(decode_u64(v, CTX, "io_timeout_ms")?);
    }
    if let Some(v) = value.get("pool_size") {
        remote.pool_size = decode_usize(v, CTX, "pool_size")?;
    }
    if let Some(v) = value.get("server_idle_timeout_ms") {
        remote.server_idle_timeout =
            Duration::from_millis(decode_u64(v, CTX, "server_idle_timeout_ms")?);
    }
    if let Some(v) = value.get("encoding") {
        remote.encoding = decode_encoding(v, CTX)?;
    }
    if let Some(v) = value.get("transport") {
        remote.transport = decode_transport(v, CTX)?;
    }
    if let Some(v) = value.get("frontend") {
        remote.frontend = decode_frontend(v, CTX)?;
    }
    Ok(remote)
}

/// Decodes a `"threads"`/`"reactor"` front-end spelling.
fn decode_frontend(value: &JsonValue, ctx: &str) -> Result<FrontendPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => FrontendPolicy::parse(text).ok_or_else(|| DecodeError {
            context: ctx.to_string(),
            message: format!("`frontend`: unknown policy `{text}` (threads or reactor)"),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`frontend` must be a string".to_string(),
        }),
    }
}

/// Decodes an `"auto"`/`"socket"`/`"shm"` transport spelling.
fn decode_transport(value: &JsonValue, ctx: &str) -> Result<TransportPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => TransportPolicy::parse(text).ok_or_else(|| DecodeError {
            context: ctx.to_string(),
            message: format!("`transport`: unknown policy `{text}` (auto, socket or shm)"),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`transport` must be a string".to_string(),
        }),
    }
}

/// Decodes an `"auto"`/`"binary_nodict"` encoding spelling.
fn decode_encoding(value: &JsonValue, ctx: &str) -> Result<EncodingPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => EncodingPolicy::parse(text).map_err(|message| DecodeError {
            context: ctx.to_string(),
            message: format!("`encoding`: {message}"),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`encoding` must be a string".to_string(),
        }),
    }
}

/// Decodes a [`topology_json`] document (or a sparser hand-written file —
/// only unknown shapes are errors, missing fields default).
pub fn topology_from_json(value: &JsonValue) -> Result<Topology, DecodeError> {
    const CTX: &str = "Topology";
    let listen = match value.get("listen") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Str(addr)) => Some(addr.clone()),
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`listen` must be a string or null".to_string(),
            })
        }
    };
    let service = match value.get("service") {
        Some(section) => service_config_from_json(section)?,
        None => ServiceConfig::default(),
    };
    let local = match value.get("local") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|item| match item {
                JsonValue::Str(name) => Ok(name.clone()),
                _ => Err(DecodeError {
                    context: CTX.to_string(),
                    message: "`local` entries must be backend-name strings".to_string(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`local` must be an array".to_string(),
            })
        }
    };
    let remotes = match value.get("remotes") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(remote_decl_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`remotes` must be an array".to_string(),
            })
        }
    };
    let replicas = match value.get("replicas") {
        None | Some(JsonValue::Null) => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(replica_group_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`replicas` must be an array".to_string(),
            })
        }
    };
    // A replica group is a view over `remotes[]` — a shard address with no
    // remote declaration has no pool configuration to build from, and two
    // groups claiming one backend would route the same name two ways.
    // Reject both here so every loaded topology is assemblable.
    let mut claimed = std::collections::HashSet::new();
    for group in &replicas {
        if !claimed.insert(group.backend.as_str()) {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: format!(
                    "`replicas`: backend `{}` is claimed by more than one group",
                    group.backend
                ),
            });
        }
        for addr in &group.shards {
            if !remotes.iter().any(|decl| decl.addr == *addr) {
                return Err(DecodeError {
                    context: CTX.to_string(),
                    message: format!(
                        "`replicas`: group `{}` names shard `{addr}` which is not in `remotes`",
                        group.backend
                    ),
                });
            }
        }
    }
    Ok(Topology {
        listen,
        service,
        local,
        remotes,
        replicas,
    })
}

fn remote_decl_from_json(value: &JsonValue) -> Result<RemoteShardDecl, DecodeError> {
    const CTX: &str = "RemoteShardDecl";
    let addr = match value.get("addr") {
        Some(JsonValue::Str(addr)) => addr.clone(),
        _ => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "missing string `addr`".to_string(),
            })
        }
    };
    let weight = match value.get("weight") {
        None | Some(JsonValue::Null) => 1,
        Some(v) => decode_usize(v, CTX, "weight")?.max(1),
    };
    let pool_size = match value.get("pool_size") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_usize(v, CTX, "pool_size")?),
    };
    let encoding = match value.get("encoding") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_encoding(v, CTX)?),
    };
    let transport = match value.get("transport") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_transport(v, CTX)?),
    };
    Ok(RemoteShardDecl {
        addr,
        weight,
        pool_size,
        encoding,
        transport,
    })
}

fn replica_group_from_json(value: &JsonValue) -> Result<ReplicaGroupDecl, DecodeError> {
    const CTX: &str = "ReplicaGroupDecl";
    let backend = match value.get("backend") {
        Some(JsonValue::Str(name)) => name.clone(),
        _ => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "missing string `backend`".to_string(),
            })
        }
    };
    let shards = match value.get("shards") {
        Some(JsonValue::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                JsonValue::Str(addr) => Ok(addr.clone()),
                _ => Err(DecodeError {
                    context: CTX.to_string(),
                    message: "`shards` entries must be address strings".to_string(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`shards` must be a non-empty array of addresses".to_string(),
            })
        }
    };
    let hedge_budget_us = match value.get("hedge_budget_us") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_u64(v, CTX, "hedge_budget_us")?),
    };
    let breaker = match value.get("breaker") {
        None | Some(JsonValue::Null) => None,
        Some(section @ JsonValue::Obj(_)) => Some(breaker_from_json(section)?),
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`breaker` must be an object or null".to_string(),
            })
        }
    };
    Ok(ReplicaGroupDecl {
        backend,
        shards,
        hedge_budget_us,
        breaker,
    })
}

/// Decodes a `breaker` section; missing fields keep their
/// [`BreakerConfig::default`] values.
fn breaker_from_json(value: &JsonValue) -> Result<BreakerConfig, DecodeError> {
    const CTX: &str = "BreakerConfig";
    let mut breaker = BreakerConfig::default();
    if let Some(v) = value.get("window") {
        breaker.window = decode_usize(v, CTX, "window")?;
    }
    if let Some(v) = value.get("max_failures") {
        breaker.max_failures = decode_usize(v, CTX, "max_failures")?;
    }
    if let Some(v) = value.get("cooldown_ms") {
        breaker.cooldown = Duration::from_millis(decode_u64(v, CTX, "cooldown_ms")?);
    }
    if breaker.window == 0 || breaker.max_failures == 0 || breaker.max_failures > breaker.window {
        return Err(DecodeError {
            context: CTX.to_string(),
            message: format!(
                "`max_failures` ({}) must be between 1 and `window` ({})",
                breaker.max_failures, breaker.window
            ),
        });
    }
    Ok(breaker)
}

/// [`json::expect_u64`] with the field name prefixed into the message.
fn decode_u64(value: &JsonValue, ctx: &str, key: &str) -> Result<u64, DecodeError> {
    json::expect_u64(value, ctx).map_err(|mut e| {
        e.message = format!("`{key}`: {}", e.message);
        e
    })
}

/// [`json::expect_usize`] with the field name prefixed into the message.
fn decode_usize(value: &JsonValue, ctx: &str, key: &str) -> Result<usize, DecodeError> {
    json::expect_usize(value, ctx).map_err(|mut e| {
        e.message = format!("`{key}`: {}", e.message);
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_topology() -> Topology {
        Topology {
            listen: Some("127.0.0.1:7070".to_string()),
            service: ServiceConfig {
                max_batch: 32,
                batch_deadline: Duration::from_micros(750),
                workers_per_backend: 3,
                cache_capacity: Some(4096),
                class_budgets: [
                    Some(Duration::from_micros(2_000)),
                    Some(Duration::from_micros(20_000)),
                    None,
                ],
                queue_capacity: Some(1024),
                remote: RemoteConfig {
                    connect_timeout: Duration::from_millis(2500),
                    io_timeout: Duration::from_millis(12000),
                    pool_size: 6,
                    server_idle_timeout: Duration::from_millis(45000),
                    encoding: EncodingPolicy::BinaryNodict,
                    transport: TransportPolicy::Socket,
                    frontend: FrontendPolicy::Reactor,
                },
            },
            local: vec!["rsn-xnn".to_string(), "roofline-bound".to_string()],
            remotes: vec![
                RemoteShardDecl {
                    addr: "10.0.0.7:7070".to_string(),
                    weight: 2,
                    pool_size: Some(8),
                    encoding: Some(EncodingPolicy::BinaryNodict),
                    transport: Some(TransportPolicy::Shm),
                },
                RemoteShardDecl::new("10.0.0.8:7070"),
            ],
            replicas: vec![
                ReplicaGroupDecl {
                    backend: "rsn-xnn".to_string(),
                    shards: vec!["10.0.0.7:7070".to_string(), "10.0.0.8:7070".to_string()],
                    hedge_budget_us: Some(5_000),
                    breaker: Some(BreakerConfig {
                        window: 16,
                        max_failures: 6,
                        cooldown: Duration::from_millis(2_500),
                    }),
                },
                ReplicaGroupDecl::new("charm", &["10.0.0.8:7070"]),
            ],
        }
    }

    #[test]
    fn topology_round_trips_typed() {
        let topology = rich_topology();
        let doc = topology_json(&topology);
        let decoded = topology_from_json(&doc).expect("topology decodes");
        assert_eq!(decoded, topology);
    }

    #[test]
    fn sparse_hand_written_topology_defaults() {
        let doc = json::parse(r#"{"remotes": [{"addr": "host:1"}]}"#).expect("parse");
        let topology = topology_from_json(&doc).expect("decode");
        assert_eq!(topology.listen, None);
        assert_eq!(topology.service, ServiceConfig::default());
        assert!(topology.local.is_empty());
        assert_eq!(
            topology.remotes,
            vec![RemoteShardDecl::new("host:1")],
            "weight defaults to 1, pool_size to the service default"
        );
    }

    #[test]
    fn malformed_topology_is_a_decode_error_not_a_panic() {
        let bad = [
            r#"{"listen": 7}"#,
            r#"{"local": "rsn-xnn"}"#,
            r#"{"local": [3]}"#,
            r#"{"remotes": [{}]}"#,
            r#"{"remotes": [{"addr": "x", "weight": "heavy"}]}"#,
            r#"{"remotes": [{"addr": "x", "encoding": "yaml"}]}"#,
            r#"{"remotes": [{"addr": "x", "encoding": "json"}]}"#,
            r#"{"service": {"remote": {"encoding": "binary"}}}"#,
            r#"{"remotes": [{"addr": "x", "transport": "pipe"}]}"#,
            r#"{"service": {"remote": {"encoding": 3}}}"#,
            r#"{"service": {"remote": {"transport": 3}}}"#,
            r#"{"service": {"remote": {"frontend": 3}}}"#,
            r#"{"service": {"remote": {"frontend": "tokio"}}}"#,
            r#"{"service": {"max_batch": -1}}"#,
            r#"{"service": {"class_budgets_us": [2000]}}"#,
            r#"{"service": {"class_budgets_us": {"high": "fast"}}}"#,
            r#"{"service": {"queue_capacity": "lots"}}"#,
            r#"{"replicas": "all"}"#,
            r#"{"replicas": [{"shards": ["x:1"]}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": []}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": [7]}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "hedge_budget_us": "soon"}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": "open"}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": {"window": 0}}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": {"max_failures": 9}}]}"#,
        ];
        for text in bad {
            let doc = json::parse(text).expect("structurally valid JSON");
            assert!(topology_from_json(&doc).is_err(), "must reject {text}");
        }
        // A removed encoding spelling says it was removed.
        let doc = json::parse(r#"{"service": {"remote": {"encoding": "json"}}}"#).expect("parse");
        let err = topology_from_json(&doc).expect_err("json encoding was removed");
        assert!(err.message.contains("was removed"), "{err}");
    }

    #[test]
    fn replica_groups_must_reference_known_shards_once() {
        // A group naming a shard with no `remotes[]` declaration has no
        // pool configuration to assemble from.
        let unknown = json::parse(
            r#"{"remotes": [{"addr": "x:1"}],
                "replicas": [{"backend": "b", "shards": ["x:1", "y:2"]}]}"#,
        )
        .expect("parse");
        let err = topology_from_json(&unknown).expect_err("unknown shard must be rejected");
        assert!(err.message.contains("y:2"), "names the offender: {err}");

        // Two groups claiming one backend would route the name two ways.
        let duplicate = json::parse(
            r#"{"remotes": [{"addr": "x:1"}, {"addr": "y:2"}],
                "replicas": [{"backend": "b", "shards": ["x:1"]},
                             {"backend": "b", "shards": ["y:2"]}]}"#,
        )
        .expect("parse");
        let err = topology_from_json(&duplicate).expect_err("duplicate backend must be rejected");
        assert!(err.message.contains('b'), "names the backend: {err}");
    }

    #[test]
    fn sparse_replica_group_defaults() {
        let doc = json::parse(
            r#"{"remotes": [{"addr": "x:1"}],
                "replicas": [{"backend": "b", "shards": ["x:1"]}]}"#,
        )
        .expect("parse");
        let topology = topology_from_json(&doc).expect("decode");
        assert_eq!(
            topology.replicas,
            vec![ReplicaGroupDecl::new("b", &["x:1"])]
        );
        // A breaker object with only some fields keeps the rest default.
        let doc = json::parse(
            r#"{"remotes": [{"addr": "x:1"}],
                "replicas": [{"backend": "b", "shards": ["x:1"],
                              "breaker": {"max_failures": 2}}]}"#,
        )
        .expect("parse");
        let topology = topology_from_json(&doc).expect("decode");
        assert_eq!(
            topology.replicas[0].breaker,
            Some(BreakerConfig {
                max_failures: 2,
                ..BreakerConfig::default()
            })
        );
    }

    #[test]
    fn file_loading_reports_positioned_errors() {
        let dir = std::env::temp_dir().join("rsn-topology-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"listen\": oops}").expect("write");
        match Topology::from_file(&path) {
            Err(TopologyError::Parse(e)) => assert_eq!((e.line, e.column), (1, 12)),
            other => panic!("expected a parse error, got {other:?}"),
        }
        match Topology::from_file(&dir.join("missing.json")) {
            Err(TopologyError::Io { .. }) => {}
            other => panic!("expected an io error, got {other:?}"),
        }
    }
}
