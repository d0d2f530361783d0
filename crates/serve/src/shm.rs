//! Same-host shared-memory ring transport for the shard protocol.
//!
//! A [`Segment`] is a fixed-size file mapping (under `/dev/shm` when it
//! exists, the temp dir otherwise) holding a pair of single-producer /
//! single-consumer byte rings — one per direction — plus a small header of
//! cursors.  The rings carry **exactly** the same length-prefixed frames
//! the socket does (see [`crate::wire`]), so every encoder, decoder and
//! [`FrameBuffer`](crate::wire::FrameBuffer) works unchanged; only the
//! byte transport differs: a frame exchange in steady state is two memcpys
//! and a handful of atomics, no syscalls.
//!
//! # Negotiation
//!
//! The ring is offered per *connection* by the shard server: when the
//! transport policy allows it ([`TransportPolicy`](crate::config::TransportPolicy)),
//! the server creates a fresh segment for the connection and advertises
//! its path in the `hello` response's `ring` field.  A willing client maps
//! the segment and moves all subsequent frames onto it; the TCP connection
//! stays open as the liveness channel (a dead peer is detected through its
//! socket FIN/reset, so the rings need no futexes or heartbeat frames).
//! Any failure to map — different host, permissions, a truncated or
//! corrupt segment — simply leaves the client on the socket, and the
//! server answers every request on whichever transport it arrived on.
//!
//! # Layout
//!
//! ```text
//! offset 0    u64 magic            ("RSNRING1", stored last on create)
//! offset 8    u64 capacity         (bytes per direction)
//! offset 64   u64 c2s tail         (client-owned producer cursor)
//! offset 128  u64 c2s head         (server-owned consumer cursor)
//! offset 192  u64 s2c tail         (server-owned producer cursor)
//! offset 256  u64 s2c head         (client-owned consumer cursor)
//! offset 4096 [capacity] c2s data
//!             [capacity] s2c data
//! ```
//!
//! Cursors are monotonic byte counts (position = `cursor % capacity`), a
//! cursor is written by exactly one side (release-stored after the copy,
//! acquire-loaded before), and each lives on its own cache line.  Writes
//! and reads are *partial*: a frame larger than the free space streams
//! through in pieces, with the stalled side parking ([`Parker`]) and — on
//! the client — pumping inbound response bytes aside so the two directions
//! can never deadlock against a pair of full rings.
//!
//! # Hardening
//!
//! The consumer side never trusts the shared cursors: a distance beyond
//! the capacity (a torn write, a hostile peer scribbling on the header)
//! surfaces as an I/O error, which the remote layer reports as
//! [`EvalError::Transport`](rsn_eval::EvalError::Transport) — never a hang
//! or an out-of-bounds copy.  All waits carry deadlines.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Header size: one page, cursors on private cache lines.
pub const HEADER_BYTES: usize = 4096;

/// Default per-direction ring capacity.  Large enough that a coalesced
/// burst of binary micro-batch frames fits without streaming.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Upper bound a client will accept when mapping an offered segment, so a
/// hostile or corrupt header cannot make it map gigabytes.
pub const MAX_CAPACITY: usize = 1 << 30;

/// `"RSNRING1"` as a big-endian u64 — stored *last* during creation, so a
/// reader that races the creator sees either no magic or a complete header.
pub const SEGMENT_MAGIC: u64 = 0x5253_4e52_494e_4731;

const OFF_MAGIC: usize = 0;
const OFF_CAPACITY: usize = 8;
const OFF_C2S_TAIL: usize = 64;
const OFF_C2S_HEAD: usize = 128;
const OFF_S2C_TAIL: usize = 192;
const OFF_S2C_HEAD: usize = 256;

/// Which ring of the pair a producer/consumer works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Requests: written by the client, read by the server.
    ClientToServer,
    /// Responses: written by the server, read by the client.
    ServerToClient,
}

// The std TCP/file surface never exposes mmap, and this crate adds no
// dependencies, so the two calls the mapping needs are declared directly
// (std already links libc on every supported target).
extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_SHARED: i32 = 0x1;

/// An owned shared file mapping (unmapped on drop).
#[derive(Debug)]
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// The mapping is a plain byte region; all concurrent access goes through
// the atomics and raw copies below, whose safety the ring invariants
// (single producer, single consumer, bounds-checked cursors) establish.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn map(file: &File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr.cast(),
            len,
        })
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr.cast(), self.len);
        }
    }
}

/// One mapped ring-pair segment, shared by a producer/consumer per
/// direction.  The creating side owns the file and unlinks it on drop, so
/// a torn-down (or crashed-and-restarted) server never leaves stale
/// segments for new connections to trip over.
#[derive(Debug)]
pub struct Segment {
    mapping: Mapping,
    path: PathBuf,
    capacity: usize,
    owned: bool,
}

impl Segment {
    /// Creates and maps a fresh segment at `path` (which must not exist —
    /// paths embed the creator's pid and connection id, so collisions mean
    /// a stale file from a crashed twin, surfaced rather than reused).
    pub fn create(path: &Path, capacity: usize) -> io::Result<Arc<Segment>> {
        let capacity = capacity.clamp(4096, MAX_CAPACITY);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        let len = HEADER_BYTES + 2 * capacity;
        file.set_len(len as u64)?;
        let mapping = Mapping::map(&file, len)?;
        let segment = Segment {
            mapping,
            path: path.to_path_buf(),
            capacity,
            owned: true,
        };
        segment
            .word(OFF_CAPACITY)
            .store(capacity as u64, Ordering::Relaxed);
        // Cursors start zero (fresh file pages are zero-filled); publish
        // the magic last so an opener racing creation never sees a header
        // with the magic but garbage geometry.
        segment
            .word(OFF_MAGIC)
            .store(SEGMENT_MAGIC, Ordering::Release);
        Ok(Arc::new(segment))
    }

    /// Maps an existing segment, validating magic and geometry.  Rejecting
    /// rather than trusting the header bounds what a corrupt or hostile
    /// offer can do: at worst the client falls back to the socket.
    pub fn open(path: &Path) -> io::Result<Arc<Segment>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let total = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("segment file larger than the address space"))?;
        if total < HEADER_BYTES + 2 * 4096 {
            return Err(corrupt("segment file too small for a ring pair"));
        }
        let mapping = Mapping::map(&file, total)?;
        let mut segment = Segment {
            mapping,
            path: path.to_path_buf(),
            capacity: 0,
            owned: false,
        };
        if segment.word(OFF_MAGIC).load(Ordering::Acquire) != SEGMENT_MAGIC {
            return Err(corrupt("segment carries no ring magic"));
        }
        let capacity = segment.word(OFF_CAPACITY).load(Ordering::Relaxed);
        let capacity = usize::try_from(capacity).map_err(|_| corrupt("capacity out of range"))?;
        if !(4096..=MAX_CAPACITY).contains(&capacity) || HEADER_BYTES + 2 * capacity != total {
            return Err(corrupt("segment geometry does not match its size"));
        }
        segment.capacity = capacity;
        Ok(Arc::new(segment))
    }

    /// The segment's file path (what a hello response advertises).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Per-direction ring capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The producer half of one direction.  One per direction per segment —
    /// the SPSC invariant is the caller's (the negotiation hands each side
    /// exactly one).
    pub fn producer(self: &Arc<Self>, direction: Direction) -> RingProducer {
        RingProducer {
            segment: Arc::clone(self),
            direction,
        }
    }

    /// The consumer half of one direction (see [`producer`](Self::producer)).
    pub fn consumer(self: &Arc<Self>, direction: Direction) -> RingConsumer {
        RingConsumer {
            segment: Arc::clone(self),
            direction,
        }
    }

    fn word(&self, offset: usize) -> &AtomicU64 {
        debug_assert!(offset + 8 <= HEADER_BYTES);
        unsafe { &*self.mapping.ptr.add(offset).cast::<AtomicU64>() }
    }

    /// `(tail, head)` cursor pair of one direction.
    fn cursors(&self, direction: Direction) -> (&AtomicU64, &AtomicU64) {
        match direction {
            Direction::ClientToServer => (self.word(OFF_C2S_TAIL), self.word(OFF_C2S_HEAD)),
            Direction::ServerToClient => (self.word(OFF_S2C_TAIL), self.word(OFF_S2C_HEAD)),
        }
    }

    fn data(&self, direction: Direction) -> *mut u8 {
        let base = match direction {
            Direction::ClientToServer => HEADER_BYTES,
            Direction::ServerToClient => HEADER_BYTES + self.capacity,
        };
        unsafe { self.mapping.ptr.add(base) }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("shared-memory ring segment rejected: {what}"),
    )
}

/// Bytes buffered in a ring given its two cursors, rejecting cursor states
/// no honest peer can produce (distance beyond the capacity).
fn buffered(tail: u64, head: u64, capacity: u64) -> io::Result<u64> {
    let used = tail.wrapping_sub(head);
    if used > capacity {
        return Err(corrupt("cursors out of range"));
    }
    Ok(used)
}

/// The writing half of one ring direction.
#[derive(Debug)]
pub struct RingProducer {
    segment: Arc<Segment>,
    direction: Direction,
}

impl RingProducer {
    /// Copies as much of `bytes` as currently fits, returning the count
    /// (possibly 0 — the ring is full until the consumer advances).  Never
    /// blocks.
    pub fn write_some(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let capacity = self.segment.capacity as u64;
        let (tail_word, head_word) = self.segment.cursors(self.direction);
        // Sole writer of the tail: a relaxed self-read is exact.
        let tail = tail_word.load(Ordering::Relaxed);
        let head = head_word.load(Ordering::Acquire);
        let free = (capacity - buffered(tail, head, capacity)?) as usize;
        let n = free.min(bytes.len());
        if n == 0 {
            return Ok(0);
        }
        let pos = (tail % capacity) as usize;
        let first = n.min(self.segment.capacity - pos);
        let data = self.segment.data(self.direction);
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), data.add(pos), first);
            if n > first {
                std::ptr::copy_nonoverlapping(bytes.as_ptr().add(first), data, n - first);
            }
        }
        // Release publishes the copied bytes to the consumer's acquire.
        tail_word.store(tail.wrapping_add(n as u64), Ordering::Release);
        Ok(n)
    }
}

/// The reading half of one ring direction.
#[derive(Debug)]
pub struct RingConsumer {
    segment: Arc<Segment>,
    direction: Direction,
}

impl RingConsumer {
    /// Bytes ready to read.
    pub fn available(&self) -> io::Result<usize> {
        let capacity = self.segment.capacity as u64;
        let (tail_word, head_word) = self.segment.cursors(self.direction);
        let tail = tail_word.load(Ordering::Acquire);
        let head = head_word.load(Ordering::Relaxed);
        Ok(buffered(tail, head, capacity)? as usize)
    }

    /// Copies up to `buf.len()` ready bytes out, returning the count
    /// (possibly 0 — the ring is empty).  Never blocks.
    pub fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let capacity = self.segment.capacity as u64;
        let (tail_word, head_word) = self.segment.cursors(self.direction);
        let tail = tail_word.load(Ordering::Acquire);
        // Sole writer of the head: a relaxed self-read is exact.
        let head = head_word.load(Ordering::Relaxed);
        let n = (buffered(tail, head, capacity)? as usize).min(buf.len());
        if n == 0 {
            return Ok(0);
        }
        let pos = (head % capacity) as usize;
        let first = n.min(self.segment.capacity - pos);
        let data = self.segment.data(self.direction);
        unsafe {
            std::ptr::copy_nonoverlapping(data.add(pos), buf.as_mut_ptr(), first);
            if n > first {
                std::ptr::copy_nonoverlapping(data, buf.as_mut_ptr().add(first), n - first);
            }
        }
        // Release frees the consumed region for the producer's acquire.
        head_word.store(head.wrapping_add(n as u64), Ordering::Release);
        Ok(n)
    }
}

/// Spin-then-park wait: a short spin catches a peer mid-copy for free, a
/// long yield phase keeps an actively streaming connection out of the
/// scheduler's timer path entirely (a yield with nothing runnable returns
/// in nanoseconds), and from then on the waiter sleeps in small slices.
/// No futexes or eventfds — the rings stay plain bytes — at the cost of
/// ≤ ~50 µs wake latency once a genuinely idle connection parks.
#[derive(Debug, Default)]
pub struct Parker {
    rounds: u32,
}

const SPIN_ROUNDS: u32 = 256;
const YIELD_ROUNDS: u32 = 4096;
const PARK_SLEEP: Duration = Duration::from_micros(50);

/// Spin rounds adjusted for the machine: on a uniprocessor the peer
/// *cannot* make progress while we occupy the core, so spinning can never
/// observe anything — the only useful first move is to yield it the CPU.
fn spin_rounds() -> u32 {
    static SPIN: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *SPIN.get_or_init(|| match std::thread::available_parallelism() {
        Ok(cores) if cores.get() > 1 => SPIN_ROUNDS,
        _ => 0,
    })
}

impl Parker {
    /// A fresh (spinning) parker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Back to the spin phase — call after making progress.
    pub fn reset(&mut self) {
        self.rounds = 0;
    }

    /// Whether the wait has reached the sleeping phase (when deadline and
    /// liveness checks are worth their syscalls).
    pub fn is_parking(&self) -> bool {
        self.rounds >= YIELD_ROUNDS
    }

    /// One wait step.
    pub fn park(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds <= spin_rounds() {
            std::hint::spin_loop();
        } else if self.rounds <= YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(PARK_SLEEP);
        }
    }
}

/// The client end of a negotiated ring connection: frames out over the
/// client→server ring, frames in over the server→client ring, with the
/// original TCP stream retained purely as the liveness channel.
///
/// Implements [`Read`] and [`Write`], so the typed frame functions in
/// [`crate::wire`] run over it unchanged.  The write path *pumps*: while a
/// full outbound ring blocks progress, inbound response bytes are moved
/// into a pending buffer (drained by subsequent reads), so a server
/// answering earlier frames of a burst can never deadlock a client still
/// writing later ones.
#[derive(Debug)]
pub struct RingConn {
    stream: TcpStream,
    producer: RingProducer,
    consumer: RingConsumer,
    pending: Vec<u8>,
    pending_pos: usize,
    read_budget: Duration,
    write_budget: Duration,
}

impl RingConn {
    /// Maps the segment a shard offered and wraps `stream` as its liveness
    /// channel.  Fails — leaving the caller to continue on the socket — if
    /// the segment cannot be mapped or validated.
    pub fn connect(stream: TcpStream, path: &Path, io_timeout: Duration) -> io::Result<RingConn> {
        let segment = Segment::open(path)?;
        Self::new(stream, &segment, io_timeout)
    }

    /// Wraps an already-mapped segment.  The stream is switched to
    /// non-blocking (it is only ever peeked at from here on).
    pub fn new(
        stream: TcpStream,
        segment: &Arc<Segment>,
        io_timeout: Duration,
    ) -> io::Result<RingConn> {
        stream.set_nonblocking(true)?;
        Ok(RingConn {
            producer: segment.producer(Direction::ClientToServer),
            consumer: segment.consumer(Direction::ServerToClient),
            stream,
            pending: Vec::new(),
            pending_pos: 0,
            read_budget: io_timeout,
            write_budget: io_timeout,
        })
    }

    /// Bounds the next reads (the per-exchange budget, scaled like the
    /// socket path's `set_read_timeout`).
    pub fn set_read_budget(&mut self, budget: Duration) {
        self.read_budget = budget;
    }

    /// The liveness socket.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether unconsumed response bytes linger (in the ring or the pump
    /// buffer) — an idle connection with leftovers is desynchronised and
    /// must not be reused, exactly like a socket with unread bytes.
    pub fn is_desynchronised(&self) -> bool {
        self.pending_pos < self.pending.len() || self.consumer.available().map_or(true, |n| n > 0)
    }

    /// Errors if the peer's socket reports EOF or a reset.  Bytes on the
    /// liveness socket would mean a protocol bug but still a live peer.
    fn peer_alive(&self) -> io::Result<()> {
        let mut probe = [0u8; 1];
        match self.stream.peek(&mut probe) {
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Ok(n) if n > 0 => Ok(()),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "shard closed the ring connection",
            )),
            Err(e) => Err(e),
        }
    }

    /// Waits until response bytes are ready to read (`Ok(true)`) or
    /// `deadline` passes first (`Ok(false)`), with the same spin-then-park
    /// wait and liveness checks as a read.  Consumes nothing.
    pub fn wait_readable(&self, deadline: Instant) -> io::Result<bool> {
        let mut parker = Parker::new();
        loop {
            if self.pending_pos < self.pending.len() || self.consumer.available()? > 0 {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if parker.is_parking() {
                self.peer_alive()?;
            }
            parker.park();
        }
    }

    /// Moves any ready inbound bytes into the pending buffer (see the type
    /// docs for why the write path must do this).
    fn pump(&mut self) -> io::Result<()> {
        loop {
            let avail = self.consumer.available()?;
            if avail == 0 {
                return Ok(());
            }
            if self.pending_pos == self.pending.len() {
                self.pending.clear();
                self.pending_pos = 0;
            }
            let old = self.pending.len();
            self.pending.resize(old + avail, 0);
            let n = self.consumer.read_some(&mut self.pending[old..])?;
            self.pending.truncate(old + n);
            if n == 0 {
                return Ok(());
            }
        }
    }
}

impl Read for RingConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pending_pos < self.pending.len() {
            let n = buf.len().min(self.pending.len() - self.pending_pos);
            buf[..n].copy_from_slice(&self.pending[self.pending_pos..self.pending_pos + n]);
            self.pending_pos += n;
            return Ok(n);
        }
        let deadline = Instant::now() + self.read_budget;
        let mut parker = Parker::new();
        loop {
            let n = self.consumer.read_some(buf)?;
            if n > 0 {
                return Ok(n);
            }
            if parker.is_parking() {
                self.peer_alive()?;
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "ring read timed out waiting for the shard",
                    ));
                }
            }
            parker.park();
        }
    }
}

impl Write for RingConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = Instant::now() + self.write_budget;
        let mut parker = Parker::new();
        loop {
            let n = self.producer.write_some(buf)?;
            if n > 0 {
                return Ok(n);
            }
            // Ring full: the server may be stuck writing responses into
            // the other direction — drain them aside so it can progress.
            self.pump()?;
            if parker.is_parking() {
                self.peer_alive()?;
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "ring write timed out against a full ring",
                    ));
                }
            }
            parker.park();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The directory ring segments live in: `/dev/shm` (a real tmpfs) when
/// present, the temp dir otherwise.
pub fn segment_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// The segment path a shard server uses for one connection.  Embeds the
/// server pid, a process-wide sequence number and the connection id, so
/// concurrent connections — across any number of in-process servers, each
/// numbering its connections from 0 — and crashed predecessors can never
/// collide on a path.
pub fn segment_path(conn_id: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    segment_dir().join(format!(
        "rsn-ring-{}-{seq}-{conn_id}.ring",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_path(tag: &str) -> PathBuf {
        segment_dir().join(format!("rsn-ring-test-{}-{tag}.ring", std::process::id()))
    }

    #[test]
    fn bytes_round_trip_across_wraparound() {
        let path = test_path("wrap");
        let _ = std::fs::remove_file(&path);
        let server = Segment::create(&path, 4096).expect("create");
        let client = Segment::open(&path).expect("open");
        assert_eq!(client.capacity(), 4096);
        let mut tx = client.producer(Direction::ClientToServer);
        let mut rx = server.consumer(Direction::ClientToServer);
        // Many chunks of co-prime size force the cursors through several
        // wraparounds; every byte must come out in order.
        let chunk: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        let mut out = vec![0u8; chunk.len()];
        for _ in 0..64 {
            let mut sent = 0;
            while sent < chunk.len() {
                let n = tx.write_some(&chunk[sent..]).expect("write");
                if n == 0 {
                    let got = rx.read_some(&mut out[..]).expect("drain");
                    assert!(got > 0, "full ring must have readable bytes");
                    continue;
                }
                sent += n;
            }
            let mut got = 0;
            while got < chunk.len() {
                got += rx.read_some(&mut out[got..]).expect("read");
            }
            assert_eq!(out, chunk);
        }
        // The ring halves keep the segment alive; the unlink happens when
        // the last owner-side handle goes.
        drop(rx);
        drop(server);
        assert!(!path.exists(), "owner unlinks the segment on drop");
    }

    #[test]
    fn corrupt_cursors_error_instead_of_copying_out_of_bounds() {
        let path = test_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let segment = Segment::create(&path, 4096).expect("create");
        // A hostile peer scribbles an impossible tail.
        segment
            .word(OFF_C2S_TAIL)
            .store(u64::MAX - 7, Ordering::Relaxed);
        let mut rx = segment.consumer(Direction::ClientToServer);
        let mut buf = [0u8; 64];
        assert!(rx.read_some(&mut buf).is_err());
        assert!(rx.available().is_err());
        let mut tx = segment.producer(Direction::ClientToServer);
        assert!(tx.write_some(&buf).is_err());
    }

    #[test]
    fn truncated_or_alien_files_are_rejected_on_open() {
        let path = test_path("alien");
        std::fs::write(&path, b"not a ring segment").expect("write file");
        assert!(Segment::open(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
        // A file of plausible size but no magic.
        let path = test_path("nomagic");
        std::fs::write(&path, vec![0u8; HEADER_BYTES + 2 * 4096]).expect("write file");
        assert!(Segment::open(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn create_refuses_an_existing_path() {
        let path = test_path("exists");
        let _ = std::fs::remove_file(&path);
        let first = Segment::create(&path, 4096).expect("create");
        assert!(Segment::create(&path, 4096).is_err(), "stale twin surfaces");
        drop(first);
    }
}
