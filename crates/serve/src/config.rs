//! Service tuning knobs.

use std::time::Duration;

/// Which binary framing the remote layer uses (see [`crate::binary`]).
///
/// `Auto`, the default, speaks the per-connection symbol dictionaries
/// (`0xB7` frames): a client pool sends dictionary frames once the hello
/// has answered, and a shard mirrors each request's framing.
/// `BinaryNodict` forces the stateless plain image (`0xB3`) on whichever
/// side sets it — for ruling out dictionary suspicion, and for the bench's
/// same-run dictionary comparison.
///
/// The removed `json` and `binary` spellings are refused at parse time
/// with a message saying so ([`EncodingPolicy::parse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingPolicy {
    /// Dictionary binary frames.
    #[default]
    Auto,
    /// Binary with symbol dictionaries forced off — every frame is the
    /// stateless plain image.
    BinaryNodict,
}

impl EncodingPolicy {
    /// The policy's topology-file / CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EncodingPolicy::Auto => "auto",
            EncodingPolicy::BinaryNodict => "binary_nodict",
        }
    }

    /// Parses the topology-file / CLI spelling.  The error names the
    /// accepted spellings, and says so when `text` is one that was removed.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "auto" => Ok(EncodingPolicy::Auto),
            "binary_nodict" => Ok(EncodingPolicy::BinaryNodict),
            "json" | "binary" => Err(format!(
                "encoding `{text}` was removed: the shard wire speaks one binary protocol \
                 (use auto or binary_nodict)"
            )),
            _ => Err(format!(
                "unknown encoding `{text}` (expected auto or binary_nodict)"
            )),
        }
    }
}

impl std::fmt::Display for EncodingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which transport the remote layer rides (see [`crate::shm`] for the
/// shared-memory ring and the negotiation rules).
///
/// On the server side this decides whether a shard *offers* a ring segment
/// in its hello response: `Auto` offers one to loopback peers, `Shm`
/// offers one to every peer (for operators who know their clients are
/// local, e.g. behind a proxy address), `Socket` never offers.  On the
/// client side it decides whether a pool *accepts* an offer: `Socket`
/// ignores ring offers, anything else maps the segment and switches —
/// falling back to the socket transparently if mapping fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportPolicy {
    /// Negotiate per peer: shared memory where the hello advertises a
    /// mappable same-host segment, the socket otherwise.
    #[default]
    Auto,
    /// Sockets only — never offer nor accept a ring segment.
    Socket,
    /// Offer a ring to every peer (server) / accept any offer (client).
    Shm,
}

impl TransportPolicy {
    /// The policy's topology-file / CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportPolicy::Auto => "auto",
            TransportPolicy::Socket => "socket",
            TransportPolicy::Shm => "shm",
        }
    }

    /// Parses the topology-file / CLI spelling.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "auto" => Some(TransportPolicy::Auto),
            "socket" => Some(TransportPolicy::Socket),
            "shm" => Some(TransportPolicy::Shm),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a shard server drives its connections (see [`crate::reactor`]).
///
/// `Threads` is the classic one-blocking-thread-per-connection front end:
/// simple, debuggable, strictly FIFO per connection.  `Reactor` serves
/// every connection from one nonblocking event-loop thread, which unlocks
/// multiplexing — out-of-order completion, cancellation, a
/// per-connection credit window — and scales to thousands of idle
/// connections without a thread each.  The reactor never offers
/// shared-memory rings (same-host deployments wanting rings should stay on
/// `Threads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontendPolicy {
    /// One blocking serve thread per connection (the default).
    #[default]
    Threads,
    /// One nonblocking event-loop thread for every connection
    /// (`shardd --frontend reactor`).
    Reactor,
}

impl FrontendPolicy {
    /// The policy's topology-file / CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FrontendPolicy::Threads => "threads",
            FrontendPolicy::Reactor => "reactor",
        }
    }

    /// Parses the topology-file / CLI spelling.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "threads" => Some(FrontendPolicy::Threads),
            "reactor" => Some(FrontendPolicy::Reactor),
            _ => None,
        }
    }
}

impl std::fmt::Display for FrontendPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of an [`EvalService`](crate::EvalService).
///
/// The two batching knobs bound the micro-batcher from both sides: a batch
/// is dispatched as soon as it holds [`max_batch`](Self::max_batch) requests
/// *or* as soon as [`batch_deadline`](Self::batch_deadline) has elapsed since
/// its first request arrived, whichever comes first.  Small deadlines favour
/// latency, large batches favour throughput (fewer queue and cache
/// transactions per report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum requests coalesced into one batch (size bound).
    pub max_batch: usize,
    /// Maximum time a batch waits for more requests (deadline bound).
    pub batch_deadline: Duration,
    /// Worker threads per backend shard.  Each worker owns a handle to one
    /// backend and serves only that backend's work queue, so a slow or
    /// poisoned backend can never stall another backend's requests.
    pub workers_per_backend: usize,
    /// Optional bound on completed report-cache entries.  `None` (the
    /// default) keeps the cache append-only — correct for deterministic
    /// backends but unbounded in memory when the spec stream churns.
    /// `Some(n)` evicts the least-recently-used *completed* entry once more
    /// than `n` are resident (in-flight entries are never evicted; they are
    /// owed to waiters).  Evictions are counted in
    /// [`ServiceStats::evictions`](crate::ServiceStats::evictions).
    pub cache_capacity: Option<usize>,
    /// Optional per-class queue-age budgets (SLOs), indexed by
    /// [`Priority::index`](crate::Priority).  When a class has a budget and
    /// a request of that class reaches the batcher already older than it,
    /// the request is *shed*: fast-failed with
    /// [`EvalError::Overloaded`](rsn_eval::EvalError::Overloaded) instead
    /// of evaluated.  Under sustained overload this keeps the classes with
    /// budgets inside (a small multiple of) them, at the price of errors
    /// for the excess offered load.  `None` (every class, the default)
    /// never sheds on age.
    pub class_budgets: [Option<Duration>; 3],
    /// Optional bound on requests resident in the pending queues.  A
    /// submission that would push the total past this is refused whole with
    /// [`EvalError::Overloaded`](rsn_eval::EvalError::Overloaded) — the
    /// admission gate that bounds queue memory under an open-loop overload
    /// (arrivals that do not slow down when responses lag).  `None` (the
    /// default) admits everything.
    pub queue_capacity: Option<usize>,
    /// Transport tuning of remote backend shards (connection pooling,
    /// timeouts).  Ignored by services with no remote shards.
    pub remote: RemoteConfig,
}

/// Transport tuning of the cross-process shard layer: every timeout the
/// remote path applies, plus the per-shard connection-pool bound.  One
/// place instead of scattered constants, so deployments (and the topology
/// file) can tune them together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteConfig {
    /// Bound on establishing a TCP connection to a shard server.  A
    /// blackholed shard host (dropped SYNs, no RST) fails within this,
    /// not the OS's multi-minute TCP default.
    pub connect_timeout: Duration,
    /// Bound on each socket read and write of an exchange, so a hung shard
    /// yields [`EvalError::Transport`](rsn_eval::EvalError::Transport),
    /// never a stuck worker.
    pub io_timeout: Duration,
    /// Idle connections retained per shard connection pool.  `0` disables
    /// pooling entirely: every exchange dials a fresh connection (the
    /// pre-pool behaviour, kept measurable for the serve benchmark's
    /// pooled-vs-unpooled comparison).
    pub pool_size: usize,
    /// How long a shard *server* lets a connection sit idle between
    /// requests before reaping it.  Pooled clients re-dial transparently
    /// when a reaped connection is found dead at checkout.
    pub server_idle_timeout: Duration,
    /// Which binary framing to speak (client: what pools send; server: what
    /// shards answer with).  The default `Auto` uses the symbol
    /// dictionaries; `BinaryNodict` forces plain frames.
    pub encoding: EncodingPolicy,
    /// Which transport to ride (client: whether pools accept a shard's
    /// ring offer; server: whether shards make one).  The default `Auto`
    /// uses shared memory for same-host connections and the socket
    /// everywhere else.
    pub transport: TransportPolicy,
    /// How a shard server drives its connections: blocking
    /// thread-per-connection, or the nonblocking reactor event loop that
    /// enables request multiplexing.  Client pools ignore this knob —
    /// they follow the server's hello (a shard that advertises a credit
    /// window gets a multiplexed connection).
    pub frontend: FrontendPolicy,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            pool_size: 4,
            server_idle_timeout: Duration::from_secs(60),
            encoding: EncodingPolicy::Auto,
            transport: TransportPolicy::Auto,
            frontend: FrontendPolicy::Threads,
        }
    }
}

/// Circuit-breaker tuning for one replica of a replicated backend (the
/// topology's `replicas[].breaker` object; see [`crate::fleet`]).
///
/// Each replica keeps a rolling window of its last
/// [`window`](Self::window) exchange outcomes.  When
/// [`max_failures`](Self::max_failures) or more of them are failures the
/// breaker *trips open*: the fleet router stops offering that replica
/// work (counted as
/// [`breaker_fast_fails`](crate::ServiceStats::remote_pools) on skip) and
/// siblings absorb its share.  After [`cooldown`](Self::cooldown) the
/// breaker goes *half-open* and the next checkout runs the pool's hello
/// health check as a probe: success closes the breaker, failure re-opens
/// it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Rolling outcome-window length (exchanges remembered per replica).
    pub window: usize,
    /// Failures within the window that trip the breaker open.
    pub max_failures: usize,
    /// How long a tripped breaker stays open before the half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 8,
            max_failures: 4,
            cooldown: Duration::from_secs(1),
        }
    }
}

impl ServiceConfig {
    /// A configuration with the given batch size bound and the default
    /// deadline/worker settings.
    pub fn with_max_batch(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            ..Self::default()
        }
    }

    /// Returns the configuration with `priority`'s queue-age budget set.
    pub fn with_class_budget(mut self, priority: crate::Priority, budget: Duration) -> Self {
        self.class_budgets[priority.index()] = Some(budget);
        self
    }

    /// The queue-age budget of `priority`, if one is configured.
    pub fn class_budget(&self, priority: crate::Priority) -> Option<Duration> {
        self.class_budgets[priority.index()]
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            batch_deadline: Duration::from_millis(1),
            workers_per_backend: 2,
            cache_capacity: None,
            class_budgets: [None; 3],
            queue_capacity: None,
            remote: RemoteConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.workers_per_backend >= 1);
        assert!(cfg.batch_deadline > Duration::ZERO);
    }

    #[test]
    fn remote_defaults_are_ordered_sensibly() {
        let remote = RemoteConfig::default();
        // Connect must give up well before an exchange does, and a pooled
        // connection must be reusable by default.
        assert!(remote.connect_timeout <= remote.io_timeout);
        assert!(remote.pool_size >= 1);
        // The server reaps idle connections no sooner than a client-side
        // exchange may legitimately take, so a pooled connection is never
        // reaped out from under an in-flight request.
        assert!(remote.server_idle_timeout >= remote.io_timeout);
    }

    #[test]
    fn with_max_batch_clamps_zero() {
        assert_eq!(ServiceConfig::with_max_batch(0).max_batch, 1);
        assert_eq!(ServiceConfig::with_max_batch(64).max_batch, 64);
    }

    #[test]
    fn breaker_defaults_are_consistent() {
        let breaker = BreakerConfig::default();
        // The trip threshold must be reachable within the window, and a
        // tripped breaker must actually rest before its half-open probe.
        assert!(breaker.max_failures <= breaker.window);
        assert!(breaker.max_failures >= 1);
        assert!(breaker.cooldown > Duration::ZERO);
    }

    #[test]
    fn encoding_policy_spellings_round_trip() {
        for policy in [EncodingPolicy::Auto, EncodingPolicy::BinaryNodict] {
            assert_eq!(EncodingPolicy::parse(policy.as_str()), Ok(policy));
        }
        assert!(EncodingPolicy::parse("yaml")
            .unwrap_err()
            .contains("unknown encoding"));
        // The removed spellings say they were removed.
        for removed in ["json", "binary"] {
            let message = EncodingPolicy::parse(removed).unwrap_err();
            assert!(message.contains("was removed"), "{message}");
        }
        assert_eq!(RemoteConfig::default().encoding, EncodingPolicy::Auto);
    }

    #[test]
    fn transport_policy_spellings_round_trip() {
        for policy in [
            TransportPolicy::Auto,
            TransportPolicy::Socket,
            TransportPolicy::Shm,
        ] {
            assert_eq!(TransportPolicy::parse(policy.as_str()), Some(policy));
        }
        assert_eq!(TransportPolicy::parse("pipe"), None);
        assert_eq!(RemoteConfig::default().transport, TransportPolicy::Auto);
    }

    #[test]
    fn frontend_policy_spellings_round_trip() {
        for policy in [FrontendPolicy::Threads, FrontendPolicy::Reactor] {
            assert_eq!(FrontendPolicy::parse(policy.as_str()), Some(policy));
        }
        assert_eq!(FrontendPolicy::parse("tokio"), None);
        // Threads stays the default so existing deployments (and the
        // shared-memory ring negotiation) are untouched by the reactor.
        assert_eq!(RemoteConfig::default().frontend, FrontendPolicy::Threads);
    }
}
