//! The shard wire protocol: length-prefixed binary frames and the typed
//! request/response messages that cross them.
//!
//! # Framing
//!
//! One frame is a 4-byte big-endian payload length followed by exactly that
//! many payload bytes.  The payload's first byte selects the framing:
//! [`binary::MAGIC`] (`0xB3`) marks a plain, stateless binary image and
//! [`binary::DICT_MAGIC`] (`0xB7`) a frame that resolves labels against the
//! connection's symbol dictionaries (see [`crate::binary`]).  Any other
//! leading byte is not this protocol and is refused.  Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected on both sides, bounding what a
//! malformed or hostile peer can make the other side allocate.
//!
//! # Messages
//!
//! Requests carry a client-chosen `id` that the response echoes, so a
//! connection can be used for many request/response exchanges:
//!
//! ```text
//! hello { protocol }            → backends { names, protocol, ring, window }
//! supports { backend, spec }    → supported(bool)
//! evaluate { backend, spec }    → evaluated(report | error)
//! evaluate_batch { backend, specs } → evaluated_batch([report | error, ...])
//! stats                         → stats(ServiceStats)
//! cancel { target }             → (no reply)
//! ```
//!
//! A `rejected` response with a message reports a protocol-level failure
//! (unframeable payload, unknown backend, a version mismatch); evaluation
//! failures are *domain* results and travel as structured [`EvalError`]
//! values inside an `evaluated` response.
//!
//! # One protocol
//!
//! Client and shard ship from one tree, so there is exactly one protocol,
//! [`PROTOCOL_VERSION`], and nothing falls back.  The client opens with a
//! binary `hello` carrying its version; a shard answers a different
//! version with a `rejected` naming both, and a client refuses a `backends`
//! answer that advertises another version the same way.  What the hello
//! still negotiates is per connection, not per version: a same-host ring
//! segment offer ([`crate::shm`]), a credit `window` for out-of-order
//! multiplexing ([`crate::reactor`]), and the symbol dictionaries.
//!
//! A dictionary frame reads and writes *connection state* — the
//! per-direction symbol tables that resolve label ids — so the stateless
//! entry points here never emit or accept one: [`write_request_frame`]
//! treats [`WireEncoding::BinaryDict`] as plain binary, and the plain
//! decoders reject `0xB7` payloads outright.  Connection owners (the pool,
//! the reactor, the threads front end) thread their
//! [`binary::TxSymbols`]/[`binary::RxSymbols`] halves through the `_dict`
//! variants instead.

use crate::binary;
use crate::json::DecodeError;
use crate::stats::ServiceStats;
use rsn_eval::{EvalError, EvalReport, WorkloadSpec};
use std::io::{Read, Write};
use std::sync::Arc;

/// A domain result shared rather than copied: the report cache, the
/// response slots, and the wire layer all hand out clones of one `Arc`, so
/// serving or shipping a cached report never deep-copies it.
pub type SharedResult = Arc<Result<EvalReport, EvalError>>;

/// Upper bound on one frame's payload, sized generously above the largest
/// document the service emits (a full-model report is a few tens of KiB).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The shard protocol version this build speaks — the only one it
/// accepts.  Both halves of the hello carry it, and a peer advertising any
/// other version is refused with a [`ShardResponse::Rejected`] (server
/// side) or a [`WireError::Rejected`] (client side) naming both.
pub const PROTOCOL_VERSION: u64 = 7;

/// The message a version mismatch is refused with, naming both sides.
pub(crate) fn version_mismatch(peer: u64) -> String {
    format!("peer speaks shard protocol {peer}, this build speaks only {PROTOCOL_VERSION}")
}

/// The framing of one frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEncoding {
    /// The plain, stateless binary image ([`binary::MAGIC`]).
    Binary,
    /// The binary codec with per-connection symbol dictionaries and bitmap
    /// report frames ([`binary::DICT_MAGIC`]).  Stateful: frames in this
    /// encoding must travel through the `_dict` functions with the
    /// connection's symbol tables; the stateless writers emit plain binary.
    BinaryDict,
}

/// A transport-layer failure: the connection died, a frame was malformed,
/// or a peer spoke something that is not the shard protocol.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// A frame exceeded [`MAX_FRAME_BYTES`]; carries the offending length
    /// (wider than `u32` so encode-side overflows report the real payload
    /// size instead of a saturated sentinel).
    FrameTooLarge(u64),
    /// A frame's payload did not decode into the expected message.
    Decode(DecodeError),
    /// The peer answered with a protocol-level failure, or spoke another
    /// protocol version.
    Rejected(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte bound"
                )
            }
            WireError::Decode(e) => write!(f, "unexpected frame: {e}"),
            WireError::Rejected(message) => write!(f, "peer rejected the request: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Reads one frame's payload bytes into `scratch` (cleared and reused — no
/// per-frame buffer allocation once the scratch has grown to the working
/// set).  `Ok(None)` is a clean EOF before the length prefix.
fn read_payload(reader: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Option<()>, WireError> {
    let mut prefix = [0u8; 4];
    match reader.read(&mut prefix)? {
        0 => return Ok(None),
        mut filled => {
            while filled < prefix.len() {
                let n = reader.read(&mut prefix[filled..])?;
                if n == 0 {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame length prefix",
                    )));
                }
                filled += n;
            }
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(u64::from(len)));
    }
    read_exact_growing(reader, scratch, len as usize)?;
    Ok(Some(()))
}

/// Granularity of payload-buffer growth: large enough that an honest
/// frame's read loop stays short, small enough that a spoofed prefix
/// cannot commit real memory it never backs with bytes.
const PAYLOAD_GROW_STEP: usize = 256 * 1024;

/// Reads exactly `len` bytes into `buf` (cleared first), growing the
/// buffer in [`PAYLOAD_GROW_STEP`] increments *as the bytes arrive*.  The
/// length prefix is attacker-controlled: committing the whole allocation
/// up front would let a hostile peer pin [`MAX_FRAME_BYTES`] of memory per
/// connection by sending nothing but a 4-byte prefix, so the allocation is
/// kept proportional to what the peer actually delivered.
fn read_exact_growing(
    reader: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
) -> std::io::Result<()> {
    buf.clear();
    let mut filled = 0;
    while filled < len {
        let target = len.min(filled + PAYLOAD_GROW_STEP);
        buf.resize(target, 0);
        reader.read_exact(&mut buf[filled..target])?;
        filled = target;
    }
    Ok(())
}

/// Frames the buffer prepared by [`begin_frame`] (4-byte placeholder,
/// then the payload): patches the length prefix in place and puts the
/// whole frame on the wire in **one** `write` — one syscall per frame
/// instead of two, and with `TCP_NODELAY` one segment instead of a
/// prefix-only runt packet.  Returns the total bytes written.
fn write_framed(writer: &mut impl Write, scratch: &mut [u8]) -> Result<u64, WireError> {
    let payload = scratch.len() - 4;
    if payload as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(WireError::FrameTooLarge(payload as u64));
    }
    let len = payload as u32;
    scratch[..4].copy_from_slice(&len.to_be_bytes());
    writer.write_all(scratch)?;
    writer.flush()?;
    Ok(u64::from(len) + 4)
}

/// Resets `scratch` to a 4-byte length-prefix placeholder; the encoders
/// append the payload behind it, so no post-encode memmove is needed.
fn begin_frame(scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
}

/// The decode error for a payload the stateless decoders cannot read: a
/// dictionary frame without connection state, or not a binary frame at
/// all (a JSON document, a stray byte).
fn unreadable(payload: &[u8], context: &str) -> WireError {
    let message = match payload.first() {
        Some(&binary::DICT_MAGIC) => {
            "dictionary frame on a connection without dictionary state".to_string()
        }
        Some(byte) => format!(
            "payload starting with byte {byte:#04x} is not a shard protocol \
             {PROTOCOL_VERSION} binary frame"
        ),
        None => "empty payload".to_string(),
    };
    WireError::Decode(DecodeError {
        context: context.to_string(),
        message,
    })
}

/// Writes one request frame, reusing `scratch` for the binary image.
/// Stateless: [`WireEncoding::BinaryDict`] degrades to the plain image,
/// which every peer decodes; dictionary frames go through
/// [`write_request_frame_dict`].  Returns the bytes put on the wire.
pub fn write_request_frame(
    writer: &mut impl Write,
    id: u64,
    request: &ShardRequest,
    scratch: &mut Vec<u8>,
) -> Result<u64, WireError> {
    begin_frame(scratch);
    binary::encode_request(scratch, id, request);
    write_framed(writer, scratch)
}

/// Writes one request frame against the connection's transmit-side symbol
/// table.  Only meaningful with [`WireEncoding::BinaryDict`]; plain
/// binary behaves exactly like [`write_request_frame`] (the table is
/// untouched).  Returns the bytes put on the wire.
pub fn write_request_frame_dict(
    writer: &mut impl Write,
    id: u64,
    request: &ShardRequest,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
    tx: &mut binary::TxSymbols,
) -> Result<u64, WireError> {
    if encoding != WireEncoding::BinaryDict {
        return write_request_frame(writer, id, request, scratch);
    }
    begin_frame(scratch);
    binary::encode_request_dict(scratch, id, request, tx);
    write_framed(writer, scratch)
}

/// Writes one plain binary response frame, reusing `scratch` for the
/// image.  Returns the bytes put on the wire.
pub fn write_response_frame(
    writer: &mut impl Write,
    id: u64,
    response: &ShardResponse,
    scratch: &mut Vec<u8>,
) -> Result<u64, WireError> {
    begin_frame(scratch);
    binary::encode_response(scratch, id, response);
    write_framed(writer, scratch)
}

/// Writes one response frame against the connection's transmit-side symbol
/// table — the server-side counterpart of [`write_request_frame_dict`].
pub fn write_response_frame_dict(
    writer: &mut impl Write,
    id: u64,
    response: &ShardResponse,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
    tx: &mut binary::TxSymbols,
) -> Result<u64, WireError> {
    if encoding != WireEncoding::BinaryDict {
        return write_response_frame(writer, id, response, scratch);
    }
    begin_frame(scratch);
    binary::encode_response_dict(scratch, id, response, tx);
    write_framed(writer, scratch)
}

/// Reads and decodes one plain request frame.  Returns the exchange id,
/// the request, its encoding, and the bytes taken off the wire;
/// `Ok(None)` is a clean EOF before the length prefix.
pub fn read_request_frame(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(u64, ShardRequest, WireEncoding, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, request, encoding) = decode_request_payload(scratch)?;
    Ok(Some((id, request, encoding, bytes)))
}

/// Decodes one plain request payload (already stripped of its length
/// prefix).  Dictionary frames and anything that is not a binary frame
/// are refused.
pub fn decode_request_payload(
    payload: &[u8],
) -> Result<(u64, ShardRequest, WireEncoding), WireError> {
    if payload.first() != Some(&binary::MAGIC) {
        return Err(unreadable(payload, "ShardRequest"));
    }
    let (id, request) = binary::decode_request(payload)?;
    Ok((id, request, WireEncoding::Binary))
}

/// Decodes one request payload against the connection's receive-side
/// symbol table, accepting both framings.  Plain frames leave the table
/// untouched — plain and dictionary frames interleave freely.
pub fn decode_request_payload_dict(
    payload: &[u8],
    rx: &mut binary::RxSymbols,
) -> Result<(u64, ShardRequest, WireEncoding), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        let (id, request) = binary::decode_request_dict(payload, rx)?;
        Ok((id, request, WireEncoding::BinaryDict))
    } else {
        decode_request_payload(payload)
    }
}

/// Reads and decodes one plain response frame.  Returns the exchange id,
/// the response and the bytes taken off the wire; `Ok(None)` is a clean
/// EOF before the length prefix.
pub fn read_response_frame(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(u64, ShardResponse, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, response) = decode_response_payload(scratch)?;
    Ok(Some((id, response, bytes)))
}

/// Reads and decodes one response frame against the connection's
/// receive-side symbol table — the stateful counterpart of
/// [`read_response_frame`].
pub fn read_response_frame_dict(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
    rx: &mut binary::RxSymbols,
) -> Result<Option<(u64, ShardResponse, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, response) = decode_response_payload_dict(scratch, rx)?;
    Ok(Some((id, response, bytes)))
}

/// Decodes one plain response payload (already stripped of its length
/// prefix).  Dictionary frames and anything that is not a binary frame
/// are refused.
pub fn decode_response_payload(payload: &[u8]) -> Result<(u64, ShardResponse), WireError> {
    if payload.first() != Some(&binary::MAGIC) {
        return Err(unreadable(payload, "ShardResponse"));
    }
    Ok(binary::decode_response(payload)?)
}

/// Decodes one response payload against the connection's receive-side
/// symbol table, accepting both framings — the multiplexer's counterpart
/// of [`decode_response_payload`].
pub fn decode_response_payload_dict(
    payload: &[u8],
    rx: &mut binary::RxSymbols,
) -> Result<(u64, ShardResponse), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        Ok(binary::decode_response_dict(payload, rx)?)
    } else {
        decode_response_payload(payload)
    }
}

/// Accumulates wire bytes and slices them back into frames, so a receiver
/// can take *every* complete frame one `read` delivered instead of issuing
/// one syscall pair per frame.  This is what lets a shard server drain a
/// client's coalesced burst: read once, answer everything that arrived.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// How much free space [`FrameBuffer::fill`] guarantees before reading —
/// large enough that a burst of typical frames lands in one syscall.
const FILL_CHUNK: usize = 256 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unconsumed buffered bytes (complete frames plus any partial tail).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Issues **one** `read` into the buffer, compacting consumed bytes
    /// first.  Returns the byte count (0 is EOF); `WouldBlock`/timeout
    /// errors pass through for the caller's idle handling.
    pub fn fill(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + FILL_CHUNK {
            self.buf.resize(self.end + FILL_CHUNK, 0);
        }
        let n = reader.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Extracts the next complete frame's payload into `scratch` (cleared
    /// first).  `Ok(false)` means no complete frame is buffered yet; a
    /// length prefix over [`MAX_FRAME_BYTES`] is an error.  Returns the
    /// frame's total wire size (prefix included) via `scratch.len() + 4`.
    pub fn take_frame(&mut self, scratch: &mut Vec<u8>) -> Result<bool, WireError> {
        if self.buffered() < 4 {
            return Ok(false);
        }
        let prefix: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes checked");
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(u64::from(len)));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(false);
        }
        scratch.clear();
        scratch.extend_from_slice(&self.buf[self.start + 4..self.start + total]);
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(true)
    }
}

/// One request a client can make of a shard server.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// "Which backends do you host?"  Carries the *client's* protocol
    /// version; a shard refuses any version but its own.  On the reactor
    /// front end the hello also opts the connection into out-of-order
    /// completion and credits.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// "Can `backend` structurally evaluate `spec`?"
    Supports {
        /// Backend shard name.
        backend: String,
        /// The workload in question.
        spec: WorkloadSpec,
    },
    /// "Evaluate `spec` on `backend`."
    Evaluate {
        /// Backend shard name.
        backend: String,
        /// The workload to evaluate.
        spec: WorkloadSpec,
    },
    /// "Evaluate every spec on `backend`, answer once with every result."
    /// One pipelined exchange per micro-batch instead of one per spec.
    EvaluateBatch {
        /// Backend shard name.
        backend: String,
        /// The workloads to evaluate, answered in this order.
        specs: Vec<WorkloadSpec>,
    },
    /// "How busy have you been?"
    Stats,
    /// "Forget request `target` if you have not answered it yet."  Best
    /// effort and fire-and-forget: the server sends no reply to a cancel,
    /// and may still answer the target if it already completed — the
    /// client resolves the waiter locally and tolerates the late response.
    /// Only meaningful on a multiplexed (windowed) connection.
    Cancel {
        /// The id of the in-flight request to abandon.
        target: u64,
    },
}

/// One answer a shard server sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponse {
    /// The backends this shard hosts, in registration order, and the
    /// protocol version the shard speaks.
    Backends {
        /// Hosted backend names, in registration order.
        names: Vec<String>,
        /// The shard's [`PROTOCOL_VERSION`].
        protocol: u64,
        /// Path of a shared-memory ring segment this connection may switch
        /// to (see [`crate::shm`]); `None` when the shard does not offer
        /// one (different host, transport disabled, or the reactor front
        /// end).
        ring: Option<String>,
        /// Per-connection credit window for multiplexed requests: how many
        /// requests may be in flight on this connection at once, answered
        /// out of order and cancellable.  `None` when the connection stays
        /// strict-FIFO (a thread-frontend shard).  Advertising a window is
        /// the server's "multiplexing is on" signal.
        window: Option<u64>,
    },
    /// Whether the asked backend supports the asked spec.
    Supported(bool),
    /// The evaluation's domain result, `Arc`-shared with the producing
    /// service's report cache so answering a request never deep-copies the
    /// report.
    Evaluated(SharedResult),
    /// One domain result per spec of an `evaluate_batch` request, in the
    /// request's spec order (shared, like [`Evaluated`](Self::Evaluated)).
    EvaluatedBatch(Vec<SharedResult>),
    /// The shard's service statistics.
    Stats(ServiceStats),
    /// A protocol-level rejection (unknown backend, malformed frame, a
    /// protocol version mismatch).
    Rejected(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn clean_eof_is_none_but_midframe_eof_is_an_error() {
        let mut scratch = Vec::new();
        assert!(matches!(
            read_request_frame(&mut Cursor::new(&[]), &mut scratch),
            Ok(None)
        ));
        // A length prefix promising more bytes than follow.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&100u32.to_be_bytes());
        truncated.extend_from_slice(b"short");
        assert!(matches!(
            read_request_frame(&mut Cursor::new(&truncated), &mut scratch),
            Err(WireError::Io(_))
        ));
        // Prefix itself truncated.
        assert!(matches!(
            read_request_frame(&mut Cursor::new(&[0u8, 0]), &mut scratch),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(matches!(
            read_response_frame(&mut Cursor::new(&huge), &mut Vec::new()),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn typed_frames_round_trip_and_count_their_bytes() {
        let request = ShardRequest::Evaluate {
            backend: "rsn-xnn".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 2048 },
        };
        let mut scratch = Vec::new();
        let mut buffer = Vec::new();
        let sent =
            write_request_frame(&mut buffer, 11, &request, &mut scratch).expect("write request");
        assert_eq!(sent as usize, buffer.len());
        // The 4-byte prefix holds the payload length.
        let payload_len = u32::from_be_bytes(buffer[..4].try_into().unwrap());
        assert_eq!(payload_len as usize, buffer.len() - 4);
        let (id, decoded, seen, received) =
            read_request_frame(&mut Cursor::new(&buffer), &mut scratch)
                .expect("read request")
                .expect("not EOF");
        assert_eq!((id, seen, received), (11, WireEncoding::Binary, sent));
        assert_eq!(decoded, request);

        let response = ShardResponse::Evaluated(Arc::new(Ok(EvalReport::new("rsn-xnn", "w"))));
        let mut buffer = Vec::new();
        let sent =
            write_response_frame(&mut buffer, 7, &response, &mut scratch).expect("write response");
        let (id, decoded, received) = read_response_frame(&mut Cursor::new(&buffer), &mut scratch)
            .expect("read response")
            .expect("not EOF");
        assert_eq!((id, received), (7, sent));
        assert_eq!(decoded, response);
    }

    #[test]
    fn json_payloads_are_refused_naming_the_protocol() {
        let payload = br#"{"id": 1, "kind": "hello"}"#;
        for outcome in [
            decode_request_payload(payload).map(|_| ()),
            decode_response_payload(payload).map(|_| ()),
        ] {
            match outcome {
                Err(WireError::Decode(e)) => {
                    assert!(e.message.contains("0x7b"), "{e}");
                    assert!(e.message.contains(&PROTOCOL_VERSION.to_string()), "{e}");
                }
                other => panic!("expected a decode error, got {other:?}"),
            }
        }
        let mismatch = version_mismatch(6);
        assert!(
            mismatch.contains('6') && mismatch.contains('7'),
            "{mismatch}"
        );
    }

    #[test]
    fn dict_frames_round_trip_and_shrink_on_reuse() {
        let mut codec_client = binary::ConnCodec::new();
        let mut codec_server = binary::ConnCodec::new();
        let mut scratch = Vec::new();
        let request = ShardRequest::Evaluate {
            backend: "rsn-xnn".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 2048 },
        };
        let mut sizes = Vec::new();
        for id in 0..3u64 {
            let mut buffer = Vec::new();
            let sent = write_request_frame_dict(
                &mut buffer,
                id,
                &request,
                WireEncoding::BinaryDict,
                &mut scratch,
                &mut codec_client.tx,
            )
            .expect("write dict request");
            sizes.push(sent);
            assert_eq!(buffer[4], binary::DICT_MAGIC);
            // The stateless decoder must refuse what it cannot resolve.
            assert!(matches!(
                decode_request_payload(&buffer[4..]),
                Err(WireError::Decode(_))
            ));
            let (got_id, decoded, seen) =
                decode_request_payload_dict(&buffer[4..], &mut codec_server.rx)
                    .expect("decode dict request");
            assert_eq!((got_id, seen), (id, WireEncoding::BinaryDict));
            assert_eq!(decoded, request);
        }
        // First frame defines "rsn-xnn"; later frames reference it by id.
        assert!(sizes[1] < sizes[0], "reuse must shrink the frame");
        assert_eq!(sizes[1], sizes[2]);
        let (defines, hits) = codec_client.tx.take_counts();
        assert_eq!((defines, hits), (1, 2));
        let (defines, hits) = codec_server.rx.take_counts();
        assert_eq!((defines, hits), (1, 2));

        // Responses: same discipline through the server's tx table.
        let response = ShardResponse::Evaluated(Arc::new(Ok(EvalReport::new("rsn-xnn", "w"))));
        let mut first = Vec::new();
        let mut second = Vec::new();
        for buffer in [&mut first, &mut second] {
            write_response_frame_dict(
                buffer,
                7,
                &response,
                WireEncoding::BinaryDict,
                &mut scratch,
                &mut codec_server.tx,
            )
            .expect("write dict response");
            assert!(matches!(
                decode_response_payload(&buffer[4..]),
                Err(WireError::Decode(_))
            ));
            let (id, decoded) = decode_response_payload_dict(&buffer[4..], &mut codec_client.rx)
                .expect("decode dict response");
            assert_eq!(id, 7);
            assert_eq!(decoded, response);
        }
        assert!(second.len() < first.len());

        // Messages without dictionary-worthy labels keep their plain image
        // even through the dict writer — the magics interleave freely.
        let mut buffer = Vec::new();
        write_request_frame_dict(
            &mut buffer,
            9,
            &ShardRequest::Stats,
            WireEncoding::BinaryDict,
            &mut scratch,
            &mut codec_client.tx,
        )
        .expect("write stats");
        assert_eq!(buffer[4], binary::MAGIC);
        let (id, decoded, seen) = decode_request_payload_dict(&buffer[4..], &mut codec_server.rx)
            .expect("plain frame through the dict decoder");
        assert_eq!((id, seen), (9, WireEncoding::Binary));
        assert_eq!(decoded, ShardRequest::Stats);
    }

    #[test]
    fn oversized_encode_reports_the_real_length() {
        // A payload one byte over the bound must name its own length, not a
        // saturated sentinel (the bug this pins: `u32::MAX` in the error).
        let mut scratch = vec![0u8; 4 + MAX_FRAME_BYTES as usize + 1];
        match write_framed(&mut Vec::new(), &mut scratch) {
            Err(WireError::FrameTooLarge(len)) => {
                assert_eq!(len, u64::from(MAX_FRAME_BYTES) + 1);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
