//! Bounded per-shard connection pooling for the remote backend layer.
//!
//! Before this module every remote evaluation paid a fresh TCP connect and
//! a full exchange set-up — simple and parallel-safe, but a per-call
//! handshake tax on the serving hot path.  A [`ConnectionPool`] amortises
//! that tax: framed connections to one shard address are kept idle between
//! exchanges and handed out again, bounded by
//! [`RemoteConfig::pool_size`](crate::config::RemoteConfig::pool_size).
//!
//! # Invariants
//!
//! * **Health-checked checkout** — an idle connection is probed before
//!   reuse (a closed or desynchronised socket is discarded, never handed
//!   out), so a shard restart between exchanges costs one re-dial, not an
//!   error.
//! * **Poison-free check-in** — a connection returns to the pool only
//!   after a fully clean exchange (frame written, response frame read and
//!   decoded, not a protocol rejection).  Any transport error discards the
//!   connection on the spot.
//! * **One retry over a fresh dial** — an exchange that fails on a
//!   *reused* connection is retried exactly once on a freshly dialled one
//!   (the shard may have legitimately reaped the idle connection).
//!   Evaluations are deterministic and side-effect-free, so the retry is
//!   idempotent; a failure on a fresh connection is a genuine shard
//!   failure and surfaces immediately.
//! * **Bounded** — at most `pool_size` idle connections are retained;
//!   a `pool_size` of zero disables pooling entirely (every exchange
//!   dials, the pre-pool behaviour, kept measurable for the serve
//!   benchmark's unpooled mode).
//!
//! The pool also owns the hello handshake's outcome.  A shard whose hello
//! names any version but [`PROTOCOL_VERSION`], or that answers the hello
//! with anything but its backends, is refused with
//! [`WireError::Rejected`].  A successful hello records the shard's credit
//! window (its "multiplexing is on" signal) and switches the pool's frames
//! to the symbol dictionaries (unless the encoding policy forces them
//! off).  Because this state lives on the pool — not on individual
//! connections — it survives connection check-in and is shared by every
//! backend routed through this shard address.
//!
//! # Pools in a replicated fleet
//!
//! When a topology `replicas` group maps a backend onto several shards,
//! each member shard keeps its own `ConnectionPool` and the fleet layer
//! ([`crate::fleet`]) routes between them.  It exchanges through
//! [`exchange_hedged`](ConnectionPool::exchange_hedged): the same code as
//! [`exchange`](ConnectionPool::exchange), but it stops waiting at a hedge
//! point and hands back a [`Late`] handle when no answer byte has arrived
//! by then, so only a late exchange needs a thread of its own.  Two pieces
//! of per-pool state exist for that layer:
//!
//! * every successful exchange's wall time feeds a latency histogram, and
//!   [`observed_exchange_p95`](ConnectionPool::observed_exchange_p95)
//!   exposes its p95 — the default **hedge budget** (how long the fleet
//!   waits before racing a sibling replica) when the topology does not
//!   pin one;
//! * the `hedges_launched`/`hedges_won`/`failovers`/`breaker_trips`/
//!   `breaker_fast_fails` counters record what the fleet layer did with
//!   this pool, surfaced through the same
//!   [`ServiceStats::remote_pools`](crate::ServiceStats::remote_pools)
//!   snapshot as the transport counters.
//!
//! Construction never dials ([`ConnectionPool::new`] is lazy — the first
//! exchange pays the connect), so a pool for a currently-dead replica can
//! sit in a fleet, breaker-open, until the shard comes back: live
//! topology reload adds and drains pools without restarting anything.

use crate::binary::ConnCodec;
use crate::config::{EncodingPolicy, RemoteConfig, TransportPolicy};
use crate::reactor::Multiplexer;
use crate::shm::{RingConn, Segment};
use crate::stats::{LatencyRecorder, PoolStats};
use crate::wire::{
    read_response_frame, read_response_frame_dict, version_mismatch, write_request_frame,
    write_request_frame_dict, ShardRequest, ShardResponse, WireEncoding, WireError,
    PROTOCOL_VERSION,
};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread frame scratch: binary images are built here and received
    /// payloads land here, so the steady-state exchange path allocates no
    /// per-frame buffers (the buffer grows once to the working-set frame
    /// size and is reused).
    static FRAME_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread burst buffer: a coalesced exchange's frames are laid out
    /// contiguously here so the whole burst leaves in one write.
    static BURST_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Per-pool memory of whether this shard's connections can ride a
/// shared-memory ring, so only the first dial pays the probing hello
/// against a shard (or peer) that will never offer one.
const RING_UNKNOWN: u64 = 0;
const RING_AVAILABLE: u64 = 1;
const RING_REFUSED: u64 = 2;

/// One pooled connection: a transport plus its per-connection symbol
/// dictionaries.  The codec rides with the
/// connection through check-in and checkout — whichever thread holds the
/// connection holds its tables, and dropping the connection drops them
/// (fresh connections always start from empty tables).
#[derive(Debug)]
struct PooledConn {
    transport: Transport,
    codec: ConnCodec,
}

impl PooledConn {
    fn tcp(stream: TcpStream) -> Self {
        Self {
            transport: Transport::Tcp(stream),
            codec: ConnCodec::new(),
        }
    }

    fn ring(conn: Box<RingConn>) -> Self {
        Self {
            transport: Transport::Ring(conn),
            codec: ConnCodec::new(),
        }
    }
}

/// The byte channel of one pooled connection: either a plain framed TCP
/// stream, or a negotiated shared-memory ring pair (with its TCP stream
/// demoted to the liveness channel — see [`crate::shm`]).  Both speak
/// identical frames, so the exchange paths are transport-blind.
#[derive(Debug)]
enum Transport {
    Tcp(TcpStream),
    Ring(Box<RingConn>),
}

impl Transport {
    fn is_ring(&self) -> bool {
        matches!(self, Transport::Ring(_))
    }

    /// Bounds the time the next response reads may take.
    fn set_read_budget(&mut self, budget: Duration) -> Result<(), WireError> {
        match self {
            Transport::Tcp(stream) => stream.set_read_timeout(Some(budget)).map_err(WireError::Io),
            Transport::Ring(conn) => {
                conn.set_read_budget(budget);
                Ok(())
            }
        }
    }

    /// Waits until the answer's first byte is readable (`Ok(true)`) or
    /// `at` passes first (`Ok(false)`); consumes nothing.  A peer that
    /// closes instead fails the wait.  TCP waits in a `peek` under a read
    /// timeout of what is left until `at` (the kernel rounds it up to its
    /// tick); a ring polls with its parker and liveness checks.
    fn await_answer(&mut self, at: Instant) -> Result<bool, WireError> {
        match self {
            Transport::Tcp(stream) => {
                let left = at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(false);
                }
                stream.set_read_timeout(Some(left))?;
                let mut probe = [0u8; 1];
                loop {
                    match stream.peek(&mut probe) {
                        Ok(0) => {
                            return Err(closed("shard closed the connection before answering"))
                        }
                        Ok(_) => return Ok(true),
                        Err(e) => match e.kind() {
                            std::io::ErrorKind::Interrupted => {}
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                                return Ok(false)
                            }
                            _ => return Err(WireError::Io(e)),
                        },
                    }
                }
            }
            Transport::Ring(conn) => Ok(conn.wait_readable(at)?),
        }
    }

    /// Whether an *idle* connection is healthy enough to hand out again:
    /// live peer, no unconsumed bytes (leftovers mean desynchronisation).
    fn is_idle_and_live(&self) -> bool {
        match self {
            Transport::Tcp(stream) => connection_is_idle_and_live(stream),
            Transport::Ring(conn) => {
                if conn.is_desynchronised() {
                    return false;
                }
                // The liveness socket is permanently non-blocking; a
                // healthy idle peer has nothing to say on it.
                let mut probe = [0u8; 1];
                matches!(
                    conn.stream().peek(&mut probe),
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
                )
            }
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.read(buf),
            Transport::Ring(conn) => conn.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.write(buf),
            Transport::Ring(conn) => conn.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(stream) => stream.flush(),
            Transport::Ring(conn) => conn.flush(),
        }
    }
}

/// Lock-free transport counters of one shard pool, surfaced through
/// [`ServiceStats::remote_pools`](crate::ServiceStats::remote_pools).
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Connections requested from the pool (one per exchange).
    pub checkouts: AtomicU64,
    /// Checkouts served by a healthy idle connection (no dial paid).
    pub reused: AtomicU64,
    /// Fresh TCP dials (pool empty, pooling disabled, or retry).
    pub dials: AtomicU64,
    /// Of those dials, how many were the retry of an exchange that failed
    /// on a reused connection.
    pub redials: AtomicU64,
    /// Idle connections found dead (or desynchronised) at checkout and
    /// thrown away.
    pub discarded: AtomicU64,
    /// `evaluate_batch` exchanges sent (one frame per micro-batch).
    pub pipelined_batches: AtomicU64,
    /// Specs carried by those exchanges (`pipelined_specs /
    /// pipelined_batches` is the achieved pipeline depth).
    pub pipelined_specs: AtomicU64,
    /// Bytes put on the wire by this pool (length prefixes included).
    pub bytes_sent: AtomicU64,
    /// Bytes taken off the wire by this pool (length prefixes included).
    pub bytes_received: AtomicU64,
    /// Request frames that shared a coalesced burst write with at least
    /// one other frame (bursts of one count nothing).
    pub frames_coalesced: AtomicU64,
    /// Exchanges whose frames rode a shared-memory ring instead of the
    /// socket.
    pub ring_exchanges: AtomicU64,
    /// Times a reactor thread driving this pool's multiplexed connection
    /// was woken (socket readiness or a submitter's wake byte).
    pub reactor_wakeups: AtomicU64,
    /// High-water mark of requests in flight on one multiplexed
    /// connection; stays zero against strict-FIFO (threads front end)
    /// shards.
    pub inflight_per_conn: AtomicU64,
    /// Hedge exchanges launched because an exchange on this pool outlived
    /// its hedge budget (fleet layer; see [`crate::fleet`]).
    pub hedges_launched: AtomicU64,
    /// Hedge exchanges this pool answered first, beating the raced sibling.
    pub hedges_won: AtomicU64,
    /// Exchanges that failed here and were rerouted to a sibling replica.
    pub failovers: AtomicU64,
    /// Times this pool's circuit breaker tripped open.
    pub breaker_trips: AtomicU64,
    /// Routing decisions that skipped this pool because its breaker was open.
    pub breaker_fast_fails: AtomicU64,
    /// Labels defined into symbol dictionaries on this pool's connections
    /// (both directions).
    pub dict_defines: AtomicU64,
    /// Label occurrences resolved through those dictionaries instead of
    /// re-sending string bytes (both directions).
    pub dict_hits: AtomicU64,
    /// Wall time of every *successful* exchange; its p95 is the default
    /// hedge budget ([`ConnectionPool::observed_exchange_p95`]).
    pub exchange_latency: LatencyRecorder,
}

impl PoolCounters {
    /// Raises `inflight_per_conn` to `depth` if it is the new high water.
    pub fn note_inflight(&self, depth: u64) {
        self.inflight_per_conn.fetch_max(depth, Ordering::Relaxed);
    }

    /// Folds drained symbol-dictionary counters in (see
    /// [`ConnCodec::take_counts`]).
    pub fn note_dict(&self, defines: u64, hits: u64) {
        if defines != 0 {
            self.dict_defines.fetch_add(defines, Ordering::Relaxed);
        }
        if hits != 0 {
            self.dict_hits.fetch_add(hits, Ordering::Relaxed);
        }
    }
}

/// What [`ConnectionPool::exchange_hedged`] holds at its hedge point.
#[derive(Debug)]
pub enum Exchanged {
    /// The answer began arriving by the hedge point and has been read.
    Answer(ShardResponse),
    /// No answer byte by the hedge point: the request is sent and still in
    /// flight, and [`Late::finish`] reads its answer.
    Late(Late),
    /// Nothing is in flight: no connection was ready without blocking (no
    /// hello has answered yet, no idle connection, or no free credit on
    /// the multiplexed connection), or the ready one turned out dead.  The
    /// caller runs a plain [`ConnectionPool::exchange`] where blocking is
    /// acceptable.
    Unsent,
}

/// A sent exchange whose answer had not begun by its hedge point.  It owns
/// the checked-out connection (on a multiplexed connection, the request's
/// id and receiver), so any thread can finish it while the caller races a
/// sibling replica.
///
/// Dropping it unfinished abandons the exchange: a pooled connection
/// closes; a multiplexed request holds its credit until the shard answers.
#[derive(Debug)]
pub struct Late {
    pool: Arc<ConnectionPool>,
    started: Instant,
    pending: Pending,
}

impl Late {
    /// Reads the answer with the exchange's full read budget, then records
    /// latency and checks the connection back in exactly as
    /// [`ConnectionPool::exchange`] does.  A failure here is not retried:
    /// the exchange is already racing a sibling, which is its retry.
    pub fn finish(self) -> Result<ShardResponse, WireError> {
        self.pool.finish(self.pending, self.started)
    }
}

/// The in-flight half of a late exchange.
#[derive(Debug)]
enum Pending {
    /// A pooled connection with the request written.
    Conn {
        conn: PooledConn,
        /// Whether it came from the idle set (counted as reuse on success).
        reused: bool,
        /// The request's full read budget.
        budget: Duration,
    },
    /// A request submitted on the pool's multiplexed connection.
    Mux {
        mux: Arc<Multiplexer>,
        id: u64,
        rx: mpsc::Receiver<ShardResponse>,
        deadline: Instant,
    },
}

/// Where one exchange stood when it stopped waiting.
enum Progress {
    Answered(ShardResponse),
    Pending(Pending),
    Unsent,
}

/// A bounded pool of framed connections to one shard server address.
///
/// Shared (via `Arc`) by every [`RemoteBackend`](crate::remote::RemoteBackend)
/// pointing at the same shard, so concurrent evaluations across backends
/// reuse one warm connection set instead of keeping one per backend.
#[derive(Debug)]
pub struct ConnectionPool {
    addr: String,
    config: RemoteConfig,
    idle: Mutex<Vec<PooledConn>>,
    counters: Arc<PoolCounters>,
    /// Whether a `hello` has answered with this build's protocol version.
    negotiated: AtomicBool,
    /// Credit window the shard advertised in `hello` (multiplexing); 0
    /// until negotiated, and stays 0 against strict-FIFO shards.
    window: AtomicU64,
    /// Whether this shard offers ring segments (one of the `RING_*`
    /// states), learned on the first ring-eligible dial.
    ring_state: AtomicU64,
    /// The multiplexed connection, once one has been established (windowed
    /// shard, no ring).  Poisoned (`None`) again on transport
    /// failure so the next exchange re-dials.
    mux: Mutex<Option<Arc<Multiplexer>>>,
    /// Monotonic exchange ids (diagnostic only — exchanges on one
    /// connection are strictly sequential).
    next_id: AtomicU64,
}

impl ConnectionPool {
    /// A pool for `addr` with the given transport tuning.
    pub fn new(addr: &str, config: RemoteConfig) -> Self {
        Self {
            addr: addr.to_string(),
            config,
            idle: Mutex::new(Vec::new()),
            counters: Arc::new(PoolCounters::default()),
            negotiated: AtomicBool::new(false),
            window: AtomicU64::new(0),
            ring_state: AtomicU64::new(RING_UNKNOWN),
            mux: Mutex::new(None),
            next_id: AtomicU64::new(1),
        }
    }

    /// The shard server address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The pool's transport tuning.
    pub fn config(&self) -> &RemoteConfig {
        &self.config
    }

    /// Whether a `hello` has answered with this build's
    /// [`PROTOCOL_VERSION`].
    pub fn negotiated(&self) -> bool {
        self.negotiated.load(Ordering::Acquire)
    }

    /// Performs the `hello` handshake unless one has already answered —
    /// what clients built without a construction-time handshake call
    /// before their first exchange, so a shard speaking another version
    /// is refused up front.
    pub fn negotiate(&self) -> Result<(), WireError> {
        if self.negotiated() {
            return Ok(());
        }
        self.hello().map(|_| ())
    }

    /// The per-connection credit window the shard advertised (`None` until
    /// a `hello` has answered, or when the shard never offered one —
    /// advertising a window is the shard's "multiplexing is on" signal).
    pub fn window(&self) -> Option<u64> {
        match self.window.load(Ordering::Acquire) {
            0 => None,
            credits => Some(credits),
        }
    }

    /// Whether exchanges on this pool may ride one multiplexed
    /// connection: the shard advertised a window, and no shared-memory
    /// ring won the transport negotiation (rings already beat sockets;
    /// multiplexing them is future work).
    fn mux_eligible(&self) -> bool {
        self.window().is_some()
            && self.ring_state.load(Ordering::Acquire) != RING_AVAILABLE
            && self.config.pool_size > 0
    }

    /// The framing the next frame to this shard should use: symbol
    /// dictionaries once a hello has answered, unless the configured
    /// [`EncodingPolicy`] forces them off.  The negotiated state lives on
    /// the pool, so it survives connection check-in/checkout and is shared
    /// by every backend on this pool.
    pub fn frame_encoding(&self) -> WireEncoding {
        match self.config.encoding {
            EncodingPolicy::Auto if self.negotiated() => WireEncoding::BinaryDict,
            EncodingPolicy::Auto | EncodingPolicy::BinaryNodict => WireEncoding::Binary,
        }
    }

    /// Idle connections currently parked in the pool.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().expect("pool idle lock").len()
    }

    /// A point-in-time snapshot of the pool's transport counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            addr: self.addr.clone(),
            checkouts: self.counters.checkouts.load(Ordering::Relaxed),
            reused: self.counters.reused.load(Ordering::Relaxed),
            dials: self.counters.dials.load(Ordering::Relaxed),
            redials: self.counters.redials.load(Ordering::Relaxed),
            discarded: self.counters.discarded.load(Ordering::Relaxed),
            pipelined_batches: self.counters.pipelined_batches.load(Ordering::Relaxed),
            pipelined_specs: self.counters.pipelined_specs.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed),
            frames_coalesced: self.counters.frames_coalesced.load(Ordering::Relaxed),
            ring_exchanges: self.counters.ring_exchanges.load(Ordering::Relaxed),
            reactor_wakeups: self.counters.reactor_wakeups.load(Ordering::Relaxed),
            inflight_per_conn: self.counters.inflight_per_conn.load(Ordering::Relaxed),
            hedges_launched: self.counters.hedges_launched.load(Ordering::Relaxed),
            hedges_won: self.counters.hedges_won.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            breaker_trips: self.counters.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.counters.breaker_fast_fails.load(Ordering::Relaxed),
            dict_defines: self.counters.dict_defines.load(Ordering::Relaxed),
            dict_hits: self.counters.dict_hits.load(Ordering::Relaxed),
        }
    }

    /// The fleet-resilience counters of this pool, shared with the fleet
    /// layer so hedges and failovers land on the pool they describe.
    pub(crate) fn fleet_counters(&self) -> &Arc<PoolCounters> {
        &self.counters
    }

    /// The 95th percentile of this pool's successful-exchange wall times,
    /// once at least [`Self::P95_MIN_SAMPLES`] exchanges have completed —
    /// the observed-latency source for the fleet layer's default hedge
    /// budget.  `None` until enough samples exist (a freshly-dialled pool
    /// must not hedge on one unlucky measurement).
    pub fn observed_exchange_p95(&self) -> Option<Duration> {
        let histogram = self.counters.exchange_latency.snapshot();
        if histogram.count < Self::P95_MIN_SAMPLES {
            return None;
        }
        histogram.p95().map(Duration::from_micros)
    }

    /// Successful exchanges required before
    /// [`observed_exchange_p95`](Self::observed_exchange_p95) reports.
    pub const P95_MIN_SAMPLES: u64 = 16;

    /// Performs the `hello` handshake, recording the outcome (see the
    /// module docs), and returns the hosted backend names in registration
    /// order.
    pub fn hello(&self) -> Result<Vec<String>, WireError> {
        let response = self.exchange(&ShardRequest::Hello {
            protocol: PROTOCOL_VERSION,
        })?;
        // Any ring offer in this response belongs to the connection that
        // carried the exchange; rings are negotiated per connection at
        // dial time, so it is ignored here.
        self.accept_hello(response).map(|(names, _)| names)
    }

    /// Checks one hello answer: a `Backends` carrying this build's version
    /// records the negotiation and yields the names and ring offer;
    /// anything else — a rejection, another version, another payload —
    /// is refused.
    fn accept_hello(
        &self,
        response: ShardResponse,
    ) -> Result<(Vec<String>, Option<String>), WireError> {
        match response {
            ShardResponse::Backends {
                names,
                protocol,
                ring,
                window,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(WireError::Rejected(version_mismatch(protocol)));
                }
                self.window.store(window.unwrap_or(0), Ordering::Release);
                self.negotiated.store(true, Ordering::Release);
                Ok((names, ring))
            }
            ShardResponse::Rejected(message) => Err(WireError::Rejected(message)),
            _ => Err(WireError::Rejected(
                "shard answered hello with an unexpected payload".to_string(),
            )),
        }
    }

    /// Records one pipelined micro-batch exchange of `specs` specs in the
    /// pool counters.
    pub(crate) fn count_pipelined(&self, specs: usize) {
        self.counters
            .pipelined_batches
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .pipelined_specs
            .fetch_add(specs as u64, Ordering::Relaxed);
    }

    /// One request/response exchange over a pooled connection.
    ///
    /// Checkout (reuse or dial), write the frame, read and decode the
    /// response, check the connection back in on clean success.  An
    /// exchange that fails on a *reused* connection is retried once over a
    /// fresh dial (see module docs for why that is safe); every other
    /// failure surfaces immediately.  The same code as
    /// [`exchange_hedged`](Self::exchange_hedged), with no hedge point.
    pub fn exchange(&self, request: &ShardRequest) -> Result<ShardResponse, WireError> {
        let started = Instant::now();
        match self.exchange_until(request, None, started)? {
            Progress::Answered(response) => Ok(response),
            Progress::Pending(pending) => self.finish(pending, started),
            Progress::Unsent => unreachable!("an exchange without a hedge point always sends"),
        }
    }

    /// [`exchange`](Self::exchange) on the caller's thread up to a hedge
    /// point `hedge` after the call: the answer if its first byte arrived
    /// by then, otherwise a [`Late`] handle owning the in-flight exchange.
    /// Nothing before the send may block the caller past the hedge point,
    /// so it takes only a connection that is ready now — where `exchange`
    /// would say hello, dial or wait for a credit, it sends nothing and
    /// returns [`Exchanged::Unsent`].  A failure on a ready connection
    /// takes the same ladder as `exchange`.
    pub fn exchange_hedged(
        self: &Arc<Self>,
        request: &ShardRequest,
        hedge: Duration,
    ) -> Result<Exchanged, WireError> {
        let started = Instant::now();
        Ok(
            match self.exchange_until(request, Some(started + hedge), started)? {
                Progress::Answered(response) => Exchanged::Answer(response),
                Progress::Pending(pending) => Exchanged::Late(Late {
                    pool: Arc::clone(self),
                    started,
                    pending,
                }),
                Progress::Unsent => Exchanged::Unsent,
            },
        )
    }

    /// Both exchanges' shared body: climbs the [`ladder`](Self::ladder),
    /// counts the checkout unless nothing was sent, and records the
    /// latency of an answer.
    fn exchange_until(
        &self,
        request: &ShardRequest,
        hedge_at: Option<Instant>,
        started: Instant,
    ) -> Result<Progress, WireError> {
        let progress = self.ladder(request, hedge_at);
        match progress {
            Ok(Progress::Unsent) => return progress,
            Ok(Progress::Answered(_)) => self.record_latency(started),
            _ => {}
        }
        self.counters.checkouts.fetch_add(1, Ordering::Relaxed);
        progress
    }

    /// The retry ladder: the multiplexed connection, then one idle
    /// connection, then a fresh dial.  Stops at `hedge_at` with the
    /// exchange still pending if no answer byte has arrived by then.  With
    /// a hedge point it climbs only rungs that are ready now, and returns
    /// `Unsent` where it would otherwise block before sending.
    fn ladder(
        &self,
        request: &ShardRequest,
        hedge_at: Option<Instant>,
    ) -> Result<Progress, WireError> {
        let ready_only = hedge_at.is_some();
        if ready_only && !self.negotiated() {
            return Ok(Progress::Unsent);
        }
        let mux = self.mux_handle(ready_only);
        if mux.is_none() && ready_only && self.mux_eligible() {
            return Ok(Progress::Unsent);
        }
        if let Some(mux) = mux {
            match self.exchange_on_mux(&mux, request, hedge_at) {
                Ok(progress) => {
                    if matches!(progress, Progress::Answered(_)) {
                        self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(progress);
                }
                // A dead multiplexed connection degrades to the plain
                // pooled path below (which dials fresh) — same story as a
                // reaped idle connection.
                Err(_) => {
                    self.poison_mux(&mux);
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(conn) = self.checkout_idle() {
            match self.exchange_on(conn, true, request, hedge_at) {
                Ok(progress) => {
                    // Counted only on an answer: a checkout whose reused
                    // connection turned out stale pays a redial below and
                    // must not also inflate the reuse ratio (a late one is
                    // counted when it finishes).
                    if matches!(progress, Progress::Answered(_)) {
                        self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(progress);
                }
                Err(_) => {
                    // The shard may have reaped this idle connection;
                    // retry exactly once on a fresh dial.
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if ready_only {
            return Ok(Progress::Unsent);
        }
        let conn = self.dial()?;
        self.exchange_on(conn, false, request, hedge_at)
    }

    /// Reads a late exchange's answer with its full budget, then counts,
    /// records and checks in exactly as an answered exchange does.
    fn finish(&self, pending: Pending, started: Instant) -> Result<ShardResponse, WireError> {
        let response = match pending {
            Pending::Conn {
                conn,
                reused,
                budget,
            } => {
                let response = self.receive_on(conn, budget);
                if reused && response.is_ok() {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                }
                response
            }
            Pending::Mux {
                mux,
                id,
                rx,
                deadline,
            } => match mux.finish(id, &rx, deadline) {
                Ok(response) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    Ok(response)
                }
                Err(error) => {
                    self.poison_mux(&mux);
                    Err(error)
                }
            },
        };
        if response.is_ok() {
            self.record_latency(started);
        }
        response
    }

    /// Only clean exchanges feed the latency histogram: failures are the
    /// breaker's signal, not a latency sample, and a timeout would drag
    /// the p95 toward the very budget it is meant to derive.
    fn record_latency(&self, started: Instant) {
        self.counters.exchange_latency.record(started.elapsed());
    }

    /// Sends several requests as **one** coalesced burst over one pooled
    /// connection — all frames laid out contiguously and written together,
    /// then every response read back in request order — so a multi-chunk
    /// hand-off from a serving worker pays one transport round trip instead
    /// of one per chunk.  Retry semantics match [`exchange`](Self::exchange):
    /// a burst that fails on a reused connection is retried once over a
    /// fresh dial (evaluations are idempotent).
    pub fn exchange_burst(
        &self,
        requests: &[ShardRequest],
    ) -> Result<Vec<ShardResponse>, WireError> {
        let started = Instant::now();
        let responses = self.exchange_burst_unrecorded(requests);
        if responses.is_ok() && requests.len() > 1 {
            // Bursts of one were recorded by the `exchange` they became.
            self.record_latency(started);
        }
        responses
    }

    fn exchange_burst_unrecorded(
        &self,
        requests: &[ShardRequest],
    ) -> Result<Vec<ShardResponse>, WireError> {
        match requests.len() {
            0 => return Ok(Vec::new()),
            // A burst of one is a plain exchange (and is not counted as
            // coalesced — nothing shared a write).
            1 => return self.exchange(&requests[0]).map(|response| vec![response]),
            _ => {}
        }
        self.counters.checkouts.fetch_add(1, Ordering::Relaxed);
        if let Some(mux) = self.mux_handle(false) {
            let budget = requests
                .iter()
                .map(|request| self.read_budget_for(request))
                .fold(Duration::ZERO, Duration::saturating_add);
            match mux.exchange_burst(requests, budget) {
                Ok(responses) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .frames_coalesced
                        .fetch_add(requests.len() as u64, Ordering::Relaxed);
                    return Ok(responses);
                }
                Err(_) => {
                    self.poison_mux(&mux);
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(conn) = self.checkout_idle() {
            match self.burst_on(conn, requests) {
                Ok(responses) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(responses);
                }
                Err(_) => {
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let conn = self.dial()?;
        self.burst_on(conn, requests)
    }

    /// The pool's live multiplexed connection, dialling one on first use.
    /// `None` when multiplexing is not negotiated (no window, a ring in
    /// play) or the dial fails — callers then take the plain pooled path,
    /// so a mux setback never fails an exchange.  `ready_only` never dials
    /// and also answers `None` while every credit is taken.
    fn mux_handle(&self, ready_only: bool) -> Option<Arc<Multiplexer>> {
        if !self.mux_eligible() {
            return None;
        }
        let mut slot = self.mux.lock().expect("pool mux lock");
        if let Some(mux) = slot.as_ref() {
            if mux.is_healthy() {
                return (!ready_only || mux.has_credit()).then(|| Arc::clone(mux));
            }
            *slot = None;
        }
        if ready_only {
            return None;
        }
        let stream = self.dial_tcp().ok()?;
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let mux = Arc::new(
            Multiplexer::start(
                stream,
                self.window()?,
                self.frame_encoding(),
                Arc::clone(&self.counters),
                self.config.io_timeout,
            )
            .ok()?,
        );
        *slot = Some(Arc::clone(&mux));
        Some(mux)
    }

    /// Drops the pool's multiplexed connection if `dead` is still the one
    /// installed (a racing thread may already have replaced it).
    fn poison_mux(&self, dead: &Arc<Multiplexer>) {
        let mut slot = self.mux.lock().expect("pool mux lock");
        if slot.as_ref().is_some_and(|m| Arc::ptr_eq(m, dead)) {
            *slot = None;
        }
    }

    /// Pops the first *healthy* idle connection, discarding dead ones.
    fn checkout_idle(&self) -> Option<PooledConn> {
        loop {
            let candidate = self.idle.lock().expect("pool idle lock").pop()?;
            if candidate.transport.is_idle_and_live() {
                return Some(candidate);
            }
            self.counters.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Dials a fresh connection with the configured timeouts, negotiating
    /// a shared-memory ring for it when the transport policy allows and
    /// the shard offers one.
    fn dial(&self) -> Result<PooledConn, WireError> {
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let stream = self.dial_tcp()?;
        // Ring upgrade is only worth a probing hello on connections that
        // will live in the pool; the unpooled configuration keeps its
        // dial-per-exchange meaning (and the benchmark its baseline).
        if self.config.transport == TransportPolicy::Socket
            || self.config.pool_size == 0
            || self.ring_state.load(Ordering::Acquire) == RING_REFUSED
        {
            return Ok(PooledConn::tcp(stream));
        }
        self.negotiate_ring(stream)
    }

    /// One configured TCP connect: resolve, dial with the connect timeout,
    /// arm the I/O timeouts, disable Nagle.
    ///
    /// Frames are small and every exchange is write→read: without
    /// TCP_NODELAY, Nagle holds the second and later exchanges of a
    /// *reused* connection hostage to the peer's delayed ACK (~40 ms a
    /// round trip) — the one pathology connect-per-call never saw, because
    /// a fresh socket has no unacknowledged data.
    fn dial_tcp(&self) -> Result<TcpStream, WireError> {
        let resolved = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            WireError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("`{}` resolves to no address", self.addr),
            ))
        })?;
        let stream = TcpStream::connect_timeout(&resolved, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One hello on the fresh connection: checks the shard's answer (see
    /// [`hello`](Self::hello)) and, when a ring segment is offered, maps it
    /// and upgrades the connection.  No offer, or a segment that will not
    /// map, degrades to the plain socket; a refused hello and transport
    /// failures propagate.
    fn negotiate_ring(&self, mut stream: TcpStream) -> Result<PooledConn, WireError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let hello = ShardRequest::Hello {
            protocol: PROTOCOL_VERSION,
        };
        let offer = FRAME_SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let sent = write_request_frame(&mut stream, id, &hello, scratch)?;
            self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
            let (_, response, received) = read_response_frame(&mut stream, scratch)?
                .ok_or_else(|| closed("shard closed the connection during ring negotiation"))?;
            self.counters
                .bytes_received
                .fetch_add(received, Ordering::Relaxed);
            Ok::<ShardResponse, WireError>(response)
        })?;
        let (_, ring) = self.accept_hello(offer)?;
        let Some(path) = ring else {
            self.ring_state.store(RING_REFUSED, Ordering::Release);
            return Ok(PooledConn::tcp(stream));
        };
        match Segment::open(Path::new(&path)) {
            Ok(segment) => match RingConn::new(stream, &segment, self.config.io_timeout) {
                Ok(conn) => {
                    self.ring_state.store(RING_AVAILABLE, Ordering::Release);
                    Ok(PooledConn::ring(Box::new(conn)))
                }
                Err(e) => Err(WireError::Io(e)),
            },
            // Different filesystem namespace, permissions, or a corrupt
            // segment: fall back to the socket (and stop probing).
            Err(_) => {
                self.ring_state.store(RING_REFUSED, Ordering::Release);
                Ok(PooledConn::tcp(stream))
            }
        }
    }

    /// The response-read budget of one request: `io_timeout`, scaled by
    /// the spec count for `evaluate_batch` exchanges, since the shard
    /// evaluates the whole batch before its single answer frame.
    fn read_budget_for(&self, request: &ShardRequest) -> Duration {
        match request {
            ShardRequest::EvaluateBatch { specs, .. } => self
                .config
                .io_timeout
                .saturating_mul(specs.len().max(1).min(u32::MAX as usize) as u32),
            _ => self.config.io_timeout,
        }
    }

    /// Submits `request` on the multiplexed connection and waits for its
    /// answer until `hedge_at` (or the whole budget).
    fn exchange_on_mux(
        &self,
        mux: &Arc<Multiplexer>,
        request: &ShardRequest,
        hedge_at: Option<Instant>,
    ) -> Result<Progress, WireError> {
        // One deadline bounds the credit wait and the answer wait: whatever
        // the credit wait spent is no longer available to the answer, so a
        // slow shard can never stretch a bounded exchange to 2× its budget.
        let deadline = Instant::now() + self.read_budget_for(request);
        let (id, rx) = mux.submit(request, deadline)?;
        Ok(
            match mux.wait(id, &rx, hedge_at.unwrap_or(deadline), deadline)? {
                Some(response) => Progress::Answered(response),
                None => Progress::Pending(Pending::Mux {
                    mux: Arc::clone(mux),
                    id,
                    rx,
                    deadline,
                }),
            },
        )
    }

    /// Runs one framed exchange on `conn` (`reused`: it came from the idle
    /// set), stopping at `hedge_at` with the exchange pending if no answer
    /// byte has arrived.
    fn exchange_on(
        &self,
        mut conn: PooledConn,
        reused: bool,
        request: &ShardRequest,
        hedge_at: Option<Instant>,
    ) -> Result<Progress, WireError> {
        let budget = self.read_budget_for(request);
        self.send_on(&mut conn, request)?;
        if let Some(at) = hedge_at {
            if !conn.transport.await_answer(at)? {
                return Ok(Progress::Pending(Pending::Conn {
                    conn,
                    reused,
                    budget,
                }));
            }
        }
        self.receive_on(conn, budget).map(Progress::Answered)
    }

    /// Writes one request frame on `conn`.
    fn send_on(&self, conn: &mut PooledConn, request: &ShardRequest) -> Result<(), WireError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let encoding = self.frame_encoding();
        let sent = FRAME_SCRATCH.with(|cell| {
            write_request_frame_dict(
                &mut conn.transport,
                id,
                request,
                encoding,
                &mut cell.borrow_mut(),
                &mut conn.codec.tx,
            )
        });
        // Drain on every outcome — a failed exchange's defines are still
        // real table entries the peer may reference.
        self.drain_dict(conn);
        self.counters.bytes_sent.fetch_add(sent?, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the answer on `conn` within `budget`; on clean success the
    /// connection goes back to the pool, on any failure (or protocol
    /// rejection) it is dropped.
    fn receive_on(
        &self,
        mut conn: PooledConn,
        budget: Duration,
    ) -> Result<ShardResponse, WireError> {
        conn.transport.set_read_budget(budget)?;
        let read = FRAME_SCRATCH.with(|cell| {
            read_response_frame_dict(
                &mut conn.transport,
                &mut cell.borrow_mut(),
                &mut conn.codec.rx,
            )
        });
        self.drain_dict(&mut conn);
        let (_, response, received) =
            read?.ok_or_else(|| closed("shard closed the connection before answering"))?;
        self.counters
            .bytes_received
            .fetch_add(received, Ordering::Relaxed);
        if conn.transport.is_ring() {
            self.counters.ring_exchanges.fetch_add(1, Ordering::Relaxed);
        }
        // A protocol-level rejection may leave the server about to close
        // the connection (framing failures do); never pool it.
        if !matches!(response, ShardResponse::Rejected(_)) {
            self.checkin(conn);
        }
        Ok(response)
    }

    /// Folds `conn`'s symbol-dictionary counts into the pool counters.
    fn drain_dict(&self, conn: &mut PooledConn) {
        let (defines, hits) = conn.codec.take_counts();
        self.counters.note_dict(defines, hits);
    }

    /// Runs a coalesced burst on `conn`: every request frame in one
    /// contiguous write, every response read back in request order (ids
    /// are verified — an out-of-order shard is a desynchronised one).
    fn burst_on(
        &self,
        mut conn: PooledConn,
        requests: &[ShardRequest],
    ) -> Result<Vec<ShardResponse>, WireError> {
        let budget = requests
            .iter()
            .map(|request| self.read_budget_for(request))
            .fold(Duration::ZERO, Duration::saturating_add);
        conn.transport.set_read_budget(budget)?;
        let first_id = self
            .next_id
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let encoding = self.frame_encoding();
        let result = FRAME_SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            BURST_SCRATCH.with(|burst_cell| {
                let burst = &mut burst_cell.borrow_mut();
                burst.clear();
                for (offset, request) in requests.iter().enumerate() {
                    write_request_frame_dict(
                        &mut **burst,
                        first_id + offset as u64,
                        request,
                        encoding,
                        scratch,
                        &mut conn.codec.tx,
                    )?;
                }
                conn.transport.write_all(burst)?;
                conn.transport.flush()?;
                self.counters
                    .bytes_sent
                    .fetch_add(burst.len() as u64, Ordering::Relaxed);
                Ok::<(), WireError>(())
            })?;
            let mut responses = Vec::with_capacity(requests.len());
            for offset in 0..requests.len() as u64 {
                let (id, response, received) =
                    read_response_frame_dict(&mut conn.transport, scratch, &mut conn.codec.rx)?
                        .ok_or_else(|| closed("shard closed the connection mid-burst"))?;
                self.counters
                    .bytes_received
                    .fetch_add(received, Ordering::Relaxed);
                if id != first_id + offset {
                    return Err(WireError::Rejected(format!(
                        "shard answered burst frame {} with id {id}",
                        first_id + offset
                    )));
                }
                responses.push(response);
            }
            Ok::<Vec<ShardResponse>, WireError>(responses)
        });
        self.drain_dict(&mut conn);
        let responses = result?;
        self.counters
            .frames_coalesced
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        if conn.transport.is_ring() {
            self.counters
                .ring_exchanges
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
        }
        if responses
            .iter()
            .all(|response| !matches!(response, ShardResponse::Rejected(_)))
        {
            self.checkin(conn);
        }
        Ok(responses)
    }

    /// Returns a connection to the pool, bounded by the configured size.
    fn checkin(&self, conn: PooledConn) {
        let mut idle = self.idle.lock().expect("pool idle lock");
        if idle.len() < self.config.pool_size {
            idle.push(conn);
        }
        // Over the bound (or pool_size 0): drop, closing the transport.
    }
}

/// The transport error of a shard that closed the connection where an
/// answer was due.
fn closed(what: &str) -> WireError {
    WireError::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what))
}

/// Probes an idle pooled connection: healthy means "no pending bytes, no
/// error" — a non-blocking 1-byte peek must say `WouldBlock`.  `Ok(0)` is
/// the peer's FIN (a reaped or restarted shard), `Ok(_)` is a protocol
/// desynchronisation (the peer sent bytes we never asked for); both make
/// the connection unusable.
fn connection_is_idle_and_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let mut live = false;
    // Retry a signal-interrupted peek exactly once: `EINTR` says nothing
    // about the socket's health, only that a signal landed mid-syscall.
    for attempt in 0..2 {
        live = match stream.peek(&mut probe) {
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted && attempt == 0 => continue,
            _ => false,
        };
        break;
    }
    // Restore blocking mode on *every* verdict — a connection handed out
    // still in nonblocking mode would turn its next exchange's reads into
    // spurious `WouldBlock` transport errors.  A healthy probe whose mode
    // restore fails is unusable too.
    let restored = stream.set_nonblocking(false).is_ok();
    live && restored
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::remote::ShardServer;
    use crate::wire::{decode_request_payload_dict, write_response_frame, FrameBuffer};
    use crate::EvalService;
    use rsn_eval::{Backend, EvalError, EvalReport, Evaluator, WorkloadSpec};
    use std::net::TcpListener;

    /// Every request a scripted peer received, in arrival order.
    pub(crate) type RequestLog = Arc<Mutex<Vec<ShardRequest>>>;

    /// A raw binary peer: accepts connections, answers every hello with
    /// `hello_answer` and every other frame with `Supported(true)`,
    /// counting connections accepted and logging every request.
    pub(crate) fn scripted_peer(
        hello_answer: ShardResponse,
    ) -> (String, Arc<AtomicU64>, RequestLog) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().expect("peer addr").to_string();
        let accepted = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&accepted);
        let log: RequestLog = Arc::default();
        let seen = Arc::clone(&log);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                count.fetch_add(1, Ordering::SeqCst);
                let hello_answer = hello_answer.clone();
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    // Dictionary-capable, like a real shard: the pool sends
                    // dictionary frames once its hello has answered.
                    let mut rx = crate::binary::RxSymbols::new();
                    let mut frames = FrameBuffer::new();
                    let mut payload = Vec::new();
                    let mut scratch = Vec::new();
                    loop {
                        match frames.take_frame(&mut payload) {
                            Ok(true) => {}
                            Ok(false) => match frames.fill(&mut stream) {
                                Ok(0) | Err(_) => return,
                                Ok(_) => continue,
                            },
                            Err(_) => return,
                        }
                        let Ok((id, request, _)) = decode_request_payload_dict(&payload, &mut rx)
                        else {
                            return;
                        };
                        let response = match request {
                            ShardRequest::Hello { .. } => hello_answer.clone(),
                            _ => ShardResponse::Supported(true),
                        };
                        seen.lock().expect("request log").push(request);
                        if write_response_frame(&mut stream, id, &response, &mut scratch).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted, log)
    }

    /// A well-behaved peer: a current-version hello answer, no ring.
    fn current_peer() -> (String, Arc<AtomicU64>) {
        let (addr, accepted, _) = scripted_peer(ShardResponse::Backends {
            names: Vec::new(),
            protocol: PROTOCOL_VERSION,
            ring: None,
            window: None,
        });
        (addr, accepted)
    }

    fn probe_request() -> ShardRequest {
        ShardRequest::Supports {
            backend: "any".to_string(),
            spec: rsn_eval::WorkloadSpec::PowerBreakdown,
        }
    }

    #[test]
    fn pooled_exchanges_reuse_one_connection() {
        let (addr, accepted) = current_peer();
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        for _ in 0..5 {
            let response = pool.exchange(&probe_request()).expect("exchange");
            assert_eq!(response, ShardResponse::Supported(true));
        }
        let stats = pool.stats();
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "one dial serves all");
        assert_eq!(stats.checkouts, 5);
        assert_eq!(stats.dials, 1);
        assert_eq!(stats.reused, 4);
        assert_eq!(stats.redials, 0);
        assert_eq!(pool.idle_connections(), 1);
    }

    #[test]
    fn pool_size_zero_dials_every_exchange() {
        let (addr, accepted) = current_peer();
        let pool = ConnectionPool::new(
            &addr,
            RemoteConfig {
                pool_size: 0,
                ..RemoteConfig::default()
            },
        );
        for _ in 0..3 {
            pool.exchange(&probe_request()).expect("exchange");
        }
        // Give the peer threads a beat to register the accepts.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
        let stats = pool.stats();
        assert_eq!(stats.dials, 3);
        assert_eq!(stats.reused, 0);
        assert_eq!(pool.idle_connections(), 0);
    }

    #[test]
    fn dead_idle_connections_are_discarded_then_redialled() {
        let (addr, _accepted) = current_peer();
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        pool.exchange(&probe_request()).expect("warm the pool");
        assert_eq!(pool.idle_connections(), 1);
        // Sabotage the idle connection from our side: close it so the
        // health probe sees a dead socket at the next checkout.
        {
            let idle = pool.idle.lock().expect("idle lock");
            match &idle[0].transport {
                Transport::Tcp(stream) => stream
                    .shutdown(std::net::Shutdown::Both)
                    .expect("shutdown idle conn"),
                Transport::Ring(_) => unreachable!("the test peer never offers a ring"),
            }
        }
        let response = pool.exchange(&probe_request()).expect("exchange survives");
        assert_eq!(response, ShardResponse::Supported(true));
        let stats = pool.stats();
        assert_eq!(stats.discarded + stats.redials, 1, "dead conn was noticed");
        assert_eq!(stats.dials, 2, "a fresh dial replaced it");
        assert_eq!(pool.idle_connections(), 1, "the pool refilled");
    }

    #[test]
    fn unreachable_address_fails_with_io_error_not_a_hang() {
        // A bound-then-dropped listener: nobody is listening there now.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let pool = ConnectionPool::new(
            &addr,
            RemoteConfig {
                connect_timeout: std::time::Duration::from_millis(500),
                ..RemoteConfig::default()
            },
        );
        let started = Instant::now();
        match pool.exchange(&probe_request()) {
            Err(WireError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(pool.stats().dials, 1);
    }

    #[test]
    fn a_rejected_hello_is_a_refusal_not_a_usable_connection() {
        let (addr, _, _) = scripted_peer(ShardResponse::Rejected("go away".to_string()));
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        match pool.exchange(&probe_request()) {
            Err(WireError::Rejected(message)) => assert_eq!(message, "go away"),
            other => panic!("expected the hello rejection, got {other:?}"),
        }
        assert!(!pool.negotiated());
        assert_eq!(
            pool.idle_connections(),
            0,
            "a refused connection is never pooled"
        );
    }

    #[test]
    fn a_hello_from_another_version_is_refused_naming_both() {
        let (addr, _, _) = scripted_peer(ShardResponse::Backends {
            names: vec!["rsn-xnn".to_string()],
            protocol: PROTOCOL_VERSION + 1,
            ring: None,
            window: None,
        });
        // Through the dial-time hello (ring negotiation)...
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        match pool.exchange(&probe_request()) {
            Err(WireError::Rejected(message)) => {
                assert!(
                    message.contains(&(PROTOCOL_VERSION + 1).to_string()),
                    "{message}"
                );
                assert!(message.contains(&PROTOCOL_VERSION.to_string()), "{message}");
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
        // ...and through the pool-level handshake on a socket-only pool,
        // whose dials skip the ring hello.
        let socket_only = ConnectionPool::new(
            &addr,
            RemoteConfig {
                transport: TransportPolicy::Socket,
                ..RemoteConfig::default()
            },
        );
        assert!(matches!(
            socket_only.negotiate(),
            Err(WireError::Rejected(_))
        ));
        assert!(!socket_only.negotiated());
        assert_eq!(socket_only.frame_encoding(), WireEncoding::Binary);
    }

    /// Evaluation permits: a [`Gated`] backend answers only once the test
    /// releases one, so "late" is forced, not a race against a sleep.
    #[derive(Default)]
    struct Gate {
        permits: Mutex<usize>,
        released: std::sync::Condvar,
    }

    impl Gate {
        fn release(&self, permits: usize) {
            *self.permits.lock().expect("gate lock") += permits;
            self.released.notify_all();
        }

        fn take(&self) {
            let mut permits = self.permits.lock().expect("gate lock");
            while *permits == 0 {
                permits = self.released.wait(permits).expect("gate lock");
            }
            *permits -= 1;
        }
    }

    /// A backend whose every evaluation waits for a permit from its gate.
    struct Gated(Arc<Gate>);

    impl Backend for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn supports(&self, _: &WorkloadSpec) -> bool {
            true
        }
        fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
            self.0.take();
            Ok(EvalReport::new(self.name(), w.name()))
        }
    }

    /// A real shard hosting [`Gated`]: it offers rings to loopback peers,
    /// so the pool's transport policy picks ring or TCP.
    fn gated_shard() -> (ShardServer, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let backend = Box::new(Gated(Arc::clone(&gate)));
        let server = ShardServer::bind(
            "127.0.0.1:0",
            EvalService::new(Evaluator::empty().with_backend(backend)),
        )
        .expect("bind gated shard");
        (server, gate)
    }

    fn hello_pool(server: &ShardServer, transport: TransportPolicy) -> Arc<ConnectionPool> {
        let pool = Arc::new(ConnectionPool::new(
            &server.local_addr().to_string(),
            RemoteConfig {
                transport,
                ..RemoteConfig::default()
            },
        ));
        pool.negotiate().expect("hello");
        pool
    }

    /// An evaluation the shard has not cached: `n` keeps it distinct.
    fn evaluation(n: usize) -> (ShardRequest, ShardResponse) {
        let spec = WorkloadSpec::SquareGemm { n };
        let answer = Arc::new(Ok(EvalReport::new("gated", spec.name())));
        let request = ShardRequest::Evaluate {
            backend: "gated".to_string(),
            spec,
        };
        (request, ShardResponse::Evaluated(answer))
    }

    fn expect_late(exchanged: Exchanged) -> Late {
        match exchanged {
            Exchanged::Late(late) => late,
            other => panic!("expected a late exchange, got {other:?}"),
        }
    }

    fn late_exchange_finishes_like_exchange(transport: TransportPolicy) {
        let (server, gate) = gated_shard();
        let pool = hello_pool(&server, transport);
        assert_eq!(
            pool.idle_connections(),
            1,
            "the hello left one warm connection"
        );
        let before = pool.stats();

        // No permit: the shard cannot answer, so the exchange is late.
        let (request, expected) = evaluation(64);
        let late = expect_late(
            pool.exchange_hedged(&request, Duration::from_millis(1))
                .expect("sent"),
        );
        assert_eq!(
            pool.idle_connections(),
            0,
            "the late exchange owns its connection"
        );
        gate.release(1);
        let response = std::thread::spawn(move || late.finish())
            .join()
            .expect("finishing thread")
            .expect("late answer");
        assert_eq!(response, expected);
        assert_eq!(
            pool.idle_connections(),
            1,
            "finish checked the connection in"
        );
        let after = pool.stats();
        assert_eq!(after.reused, before.reused + 1);
        assert_eq!(after.dials, before.dials);

        // The pooled connection serves the next exchanges: a hedged one
        // answered in time, then a plain one.
        gate.release(2);
        let (request, expected) = evaluation(65);
        match pool
            .exchange_hedged(&request, Duration::from_secs(10))
            .expect("sent")
        {
            Exchanged::Answer(response) => assert_eq!(response, expected),
            other => panic!("a permitted answer missed a 10 s hedge point: {other:?}"),
        }
        let (request, expected) = evaluation(66);
        assert_eq!(pool.exchange(&request).expect("plain exchange"), expected);
        let last = pool.stats();
        assert_eq!(
            last.checkouts - before.checkouts,
            3,
            "one checkout per exchange"
        );
        assert_eq!(last.reused, before.reused + 3);
        assert_eq!(last.dials, before.dials, "no exchange dialled");
        assert_eq!(pool.idle_connections(), 1);
        assert_eq!(
            last.ring_exchanges > 0,
            transport == TransportPolicy::Auto,
            "transport under test: {transport:?}"
        );
    }

    #[test]
    fn late_tcp_exchange_finishes_like_exchange() {
        late_exchange_finishes_like_exchange(TransportPolicy::Socket);
    }

    #[test]
    fn late_ring_exchange_finishes_like_exchange() {
        late_exchange_finishes_like_exchange(TransportPolicy::Auto);
    }

    #[test]
    fn hedged_exchange_sends_nothing_without_a_ready_connection() {
        let (server, gate) = gated_shard();
        let pool = Arc::new(ConnectionPool::new(
            &server.local_addr().to_string(),
            RemoteConfig::default(),
        ));
        let hedge = Duration::from_millis(1);
        let (request, expected) = evaluation(64);
        // No hello yet, and saying one could block past the hedge point.
        assert!(matches!(
            pool.exchange_hedged(&request, hedge),
            Ok(Exchanged::Unsent)
        ));
        assert_eq!(pool.stats().dials, 0, "nothing dialled");
        pool.negotiate().expect("hello");
        let dials = pool.stats().dials;
        let late = expect_late(pool.exchange_hedged(&request, hedge).expect("sent"));
        // The only connection is out with the late exchange: another
        // exchange would have to dial.
        let (other, _) = evaluation(65);
        assert!(matches!(
            pool.exchange_hedged(&other, hedge),
            Ok(Exchanged::Unsent)
        ));
        let stats = pool.stats();
        assert_eq!(stats.dials, dials, "nothing dialled");
        assert_eq!(stats.checkouts, 2, "the hello and the late exchange");
        gate.release(1);
        assert_eq!(late.finish().expect("late answer"), expected);
    }

    fn late_exchange_fails_when_the_peer_closes(transport: TransportPolicy) {
        let (server, gate) = gated_shard();
        let pool = hello_pool(&server, transport);
        let (request, _) = evaluation(64);
        let late = expect_late(
            pool.exchange_hedged(&request, Duration::from_millis(1))
                .expect("sent"),
        );
        drop(server); // severs every connection mid-exchange
        assert!(late.finish().is_err(), "a closed peer cannot answer");
        assert_eq!(pool.idle_connections(), 0, "nothing pooled");
        assert_eq!(pool.stats().reused, 0, "a failed late exchange is no reuse");
        gate.release(1); // let the shard's worker finish into the void
    }

    #[test]
    fn late_tcp_exchange_fails_when_the_peer_closes() {
        late_exchange_fails_when_the_peer_closes(TransportPolicy::Socket);
    }

    #[test]
    fn late_ring_exchange_fails_when_the_peer_closes() {
        late_exchange_fails_when_the_peer_closes(TransportPolicy::Auto);
    }
}
