//! The compact binary wire codec (protocol version 3).
//!
//! The JSON wire format is self-describing and diffable, but building a
//! pretty-printed `String` per frame — one allocation per key, a full
//! recursive-descent parse on the receiving side — is what capped the
//! remote path at ~10% of in-process throughput (see `BENCH_serve.json`).
//! This module is the allocation-free replacement: every wire document
//! (specs, reports, errors, results, batches, stats) encodes straight into
//! a caller-owned `Vec<u8>` scratch buffer with no intermediate
//! [`JsonValue`](crate::json::JsonValue) tree, and decodes straight out of
//! the received payload bytes.
//!
//! # Layout
//!
//! A binary payload starts with [`MAGIC`] (`0xB3`) — a byte no JSON
//! document of ours can start with, so receivers dispatch per frame and
//! mixed-encoding fleets interoperate (see [`crate::wire`] for the
//! negotiation rules).  After the magic byte:
//!
//! ```text
//! magic  tag  varint(id)  body…
//! ```
//!
//! * integers are unsigned LEB128 varints (7 bits per byte, high bit =
//!   continue) — counters and ids are small, so most take one byte;
//! * strings are a varint byte length followed by UTF-8 bytes;
//! * floats are 8 little-endian bytes of their IEEE-754 bits (non-finite
//!   values survive exactly, unlike JSON's `null` mapping);
//! * options are a `0`/`1` presence byte, then the value;
//! * sequences are a varint count, then the elements.
//!
//! Message `tag` bytes: requests use `0x01`–`0x05` (hello, supports,
//! evaluate, evaluate_batch, stats), responses `0x81`–`0x85` in the same
//! order plus `0x8F` for a protocol-level rejection.  Inner documents
//! (specs, errors) carry their own one-byte variant tags.
//!
//! Encoding is deterministic (metric maps iterate in `BTreeMap` order), so
//! a document's binary image is byte-stable — the round-trip tests pin
//! `decode(encode(x)) == x` identity for every document type and semantic
//! equality with the JSON codec.

use crate::json::DecodeError;
use crate::request::Priority;
use crate::stats::{ClassStats, LatencyHistogram, PoolStats, ServiceStats, ShardStats};
use crate::wire::{ShardRequest, ShardResponse, SharedResult};
use rsn_eval::fnv::FnvBuild;
use rsn_eval::report::with_interner;
use rsn_eval::{BreakdownRow, CycleStats, Metrics, SegmentMetric};
use rsn_eval::{EvalError, EvalReport, SchedulerKind, WorkloadSpec};
use rsn_workloads::bert::BertConfig;
use rsn_workloads::models::ModelKind;
use std::collections::HashMap;
use std::sync::Arc;

// The label interner lives with the report type, so backends and these
// decoders hand out the same `Arc`s; re-exported so wire-level callers
// keep this import path.
pub use rsn_eval::report::Interner;

/// First byte of every binary payload.  The JSON emitter's documents start
/// with `{`, `[`, `"`, a digit, `-`, `t`, `f` or `n` — all ASCII — so this
/// byte unambiguously marks a binary frame.
pub const MAGIC: u8 = 0xB3;

// Message tags (requests 0x0_, responses 0x8_).
const TAG_HELLO: u8 = 0x01;
const TAG_SUPPORTS: u8 = 0x02;
const TAG_EVALUATE: u8 = 0x03;
const TAG_EVALUATE_BATCH: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_CANCEL: u8 = 0x06;
const TAG_BACKENDS: u8 = 0x81;
const TAG_SUPPORTED: u8 = 0x82;
const TAG_EVALUATED: u8 = 0x83;
const TAG_EVALUATED_BATCH: u8 = 0x84;
const TAG_STATS_RESPONSE: u8 = 0x85;
const TAG_REJECTED: u8 = 0x8F;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_usize(out: &mut Vec<u8>, value: usize) {
    put_varint(out, value as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, value: Option<f64>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
    }
}

fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

/// Walks a binary payload; every read is bounds-checked so a truncated or
/// hostile frame decodes into a [`DecodeError`], never a panic.
///
/// The reader is *borrowing*: [`Reader::take`] and [`Reader::str_ref`]
/// return slices of the frame buffer itself, so decoders only allocate at
/// the API boundary where a document must outlive its frame.  The owned
/// [`Reader::str`] wrapper exists for cold paths (errors, rejections) and
/// so tests can property-check the borrowed accessors against their owned
/// counterparts.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const CTX: &str = "binary frame";

impl<'a> Reader<'a> {
    /// Starts reading at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            context: CTX.to_string(),
            message: format!("at byte {}: {}", self.pos, message.into()),
        }
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Borrows the next `n` bytes straight out of the frame buffer.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.error(format!("payload truncated ({n} bytes promised)")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.error("varint longer than 64 bits"))
    }

    /// A plain usize value (a dimension, a batch size) — unbounded.
    pub fn usize_val(&mut self) -> Result<usize, DecodeError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| self.error("value does not fit in usize"))
    }

    /// A collection count.  A count can never promise more elements than
    /// bytes remain (each element costs at least one byte); this caps what
    /// a hostile length prefix can make collection decoders pre-allocate.
    #[allow(clippy::len_without_is_empty)] // a wire count, not a container size
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize_val()?;
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(self.error(format!("implausible collection length {n}")));
        }
        Ok(n)
    }

    /// Borrows one length-prefixed UTF-8 string from the frame buffer —
    /// validation only, no copy.
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("string is not valid UTF-8"))
    }

    /// Owned counterpart of [`Reader::str_ref`] for strings that must
    /// outlive the frame.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads one IEEE-754 double from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let bytes = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8 bytes taken"),
        )))
    }

    /// Reads one presence-byte-prefixed optional double.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(self.error(format!("invalid option tag {other:#04x}"))),
        }
    }

    /// Reads one `0`/`1` boolean byte.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format!("invalid bool byte {other:#04x}"))),
        }
    }

    /// Fails unless the whole payload was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing bytes after the message"))
        }
    }

    /// Bytes left after the current position (used by decoders that accept
    /// optional trailing fields from newer peers).
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A safe `Vec::with_capacity` hint for a collection of `count`
    /// elements each costing at least `min_elem_bytes` on the wire: an
    /// honest count always passes through unchanged (its elements' bytes
    /// are all still ahead of the cursor), while a hostile length prefix is
    /// clamped to what the remaining payload could actually back — the
    /// same bounded-growth discipline as [`Reader::len`], applied to the
    /// pre-allocation.
    fn capacity_hint(&self, count: usize, min_elem_bytes: usize) -> usize {
        count.min(self.remaining() / min_elem_bytes.max(1))
    }
}

// ---------------------------------------------------------------------------
// Per-connection symbol dictionaries (protocol 7)
// ---------------------------------------------------------------------------

/// First byte of a dictionary-encoded binary payload (protocol 7).  Like
/// [`MAGIC`], no JSON document can start with it, so receivers still
/// dispatch per frame — but unlike plain binary frames, a dictionary frame
/// reads and writes *connection state*: the per-direction symbol tables
/// that resolve label ids.  Frames with this magic may only appear on a
/// connection whose hello negotiated protocol ≥ 7, and the two magics may
/// interleave freely on such a connection (plain frames never touch the
/// tables).
pub const DICT_MAGIC: u8 = 0xB7;

/// Upper bound on symbols per direction per connection.  Once a table is
/// full, further first-sight labels fall back to inline strings — a peer
/// streaming unique labels degrades to plain-binary cost, it cannot grow
/// the table without limit.
pub const DICT_CAP: usize = 4096;

// A dictionary string ("dstr") is a varint tag:
//   0          inline:  length + bytes, no table entry (table full, or a
//              label too long to be worth a slot);
//   1          define:  varint id + length + bytes, appending the string
//              to the table (the id must equal the table's current length
//              — explicit so a duplicate or out-of-order define is a
//              decode error, not a silent re-intern);
//   n ≥ 2      reference to table entry `n - 2` (no string bytes at all).
const DSTR_INLINE: u64 = 0;
const DSTR_DEFINE: u64 = 1;
const DSTR_REF_BASE: u64 = 2;

/// The encode half of one connection direction's symbol dictionary: maps
/// labels already defined on this connection to their ids.
///
/// The FNV-keyed probe happens once per label *occurrence on the encode
/// side only*; the decode side resolves references by direct vector index
/// with no hashing at all — that, plus the absent string bytes, is the
/// protocol-7 saving.
#[derive(Debug, Default)]
pub struct TxSymbols {
    ids: HashMap<Arc<str>, u32, FnvBuild>,
    defines: u64,
    hits: u64,
}

impl TxSymbols {
    /// An empty table (one per connection direction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one dictionary string, defining it on first sight.
    fn put(&mut self, out: &mut Vec<u8>, label: &str) {
        // Long labels are one-offs (same judgement as the interner): a
        // table slot would be wasted on them, and the length check keeps
        // the common short-label path from hashing pathological strings.
        if label.len() > Interner::MAX_LEN {
            put_varint(out, DSTR_INLINE);
            put_str(out, label);
            return;
        }
        if let Some(&id) = self.ids.get(label) {
            self.hits += 1;
            put_varint(out, DSTR_REF_BASE + u64::from(id));
            return;
        }
        if self.ids.len() >= DICT_CAP {
            put_varint(out, DSTR_INLINE);
            put_str(out, label);
            return;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(Arc::from(label), id);
        self.defines += 1;
        put_varint(out, DSTR_DEFINE);
        put_varint(out, u64::from(id));
        put_str(out, label);
    }

    /// Drains the `(defines, hits)` counters accumulated since the last
    /// take, so connection owners can fold them into pool counters without
    /// this module knowing about atomics.
    pub fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.defines),
            std::mem::take(&mut self.hits),
        )
    }
}

/// The decode half of one connection direction's symbol dictionary: the
/// id-indexed table of labels the peer has defined.  Resolution is a
/// bounds-checked vector index and an `Arc` clone — no string bytes off
/// the wire, no hash, no interner probe.
#[derive(Debug, Default)]
pub struct RxSymbols {
    table: Vec<Arc<str>>,
    defines: u64,
    hits: u64,
}

impl RxSymbols {
    /// An empty table (one per connection direction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one dictionary string, recording a define into the table.
    fn get(&mut self, r: &mut Reader<'_>) -> Result<Arc<str>, DecodeError> {
        match r.varint()? {
            DSTR_INLINE => Ok(Arc::from(r.str_ref()?)),
            DSTR_DEFINE => {
                let id = r.varint()?;
                if self.table.len() >= DICT_CAP {
                    return Err(r.error(format!(
                        "dictionary define past the {DICT_CAP}-entry table bound"
                    )));
                }
                if id != self.table.len() as u64 {
                    return Err(r.error(format!(
                        "dictionary define id {id} out of order (expected {})",
                        self.table.len()
                    )));
                }
                let label: Arc<str> = Arc::from(r.str_ref()?);
                self.table.push(Arc::clone(&label));
                self.defines += 1;
                Ok(label)
            }
            tag => {
                let id = (tag - DSTR_REF_BASE) as usize;
                let label = self.table.get(id).ok_or_else(|| {
                    r.error(format!(
                        "dictionary reference {id} outside the {}-entry table",
                        self.table.len()
                    ))
                })?;
                self.hits += 1;
                Ok(Arc::clone(label))
            }
        }
    }

    /// Drains the `(defines, hits)` counters — see
    /// [`TxSymbols::take_counts`].
    pub fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.defines),
            std::mem::take(&mut self.hits),
        )
    }
}

/// Both directions of one connection's dictionary state: `tx` encodes what
/// this side sends, `rx` resolves what the peer sends.  Reset per
/// connection — a fresh connection always starts from empty tables, so a
/// frame stream is self-contained and replayable.
#[derive(Debug, Default)]
pub struct ConnCodec {
    /// Symbols this side has defined in its outgoing frames.
    pub tx: TxSymbols,
    /// Symbols the peer has defined in its incoming frames.
    pub rx: RxSymbols,
}

impl ConnCodec {
    /// Fresh empty tables for a new connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains both directions' `(defines, hits)` counters as one sum.
    pub fn take_counts(&mut self) -> (u64, u64) {
        let (tx_defines, tx_hits) = self.tx.take_counts();
        let (rx_defines, rx_hits) = self.rx.take_counts();
        (tx_defines + rx_defines, tx_hits + rx_hits)
    }
}

// Report presence bitmap (protocol 7): one leading varint replaces the
// three per-`Option` tag bytes, the cycle presence bool, the nested
// `max_abs_error` option tag, and lets empty sections cost nothing — the
// common analytic-report shape encodes its fixed scalars back-to-back.
const REPORT_HAS_LATENCY: u64 = 1 << 0;
const REPORT_HAS_THROUGHPUT: u64 = 1 << 1;
const REPORT_HAS_FLOPS: u64 = 1 << 2;
const REPORT_HAS_SEGMENTS: u64 = 1 << 3;
const REPORT_HAS_BREAKDOWN: u64 = 1 << 4;
const REPORT_HAS_CYCLE: u64 = 1 << 5;
const REPORT_CYCLE_HAS_ERROR: u64 = 1 << 6;
const REPORT_HAS_METRICS: u64 = 1 << 7;
const REPORT_KNOWN_BITS: u64 = REPORT_HAS_LATENCY
    | REPORT_HAS_THROUGHPUT
    | REPORT_HAS_FLOPS
    | REPORT_HAS_SEGMENTS
    | REPORT_HAS_BREAKDOWN
    | REPORT_HAS_CYCLE
    | REPORT_CYCLE_HAS_ERROR
    | REPORT_HAS_METRICS;

/// Appends one report in the dictionary/bitmap form: a presence bitmap,
/// dictionary strings for every label, and present fields back-to-back.
pub fn encode_report_dict(out: &mut Vec<u8>, report: &EvalReport, tx: &mut TxSymbols) {
    let mut bits = 0u64;
    if report.latency_s.is_some() {
        bits |= REPORT_HAS_LATENCY;
    }
    if report.throughput_tasks_per_s.is_some() {
        bits |= REPORT_HAS_THROUGHPUT;
    }
    if report.achieved_flops.is_some() {
        bits |= REPORT_HAS_FLOPS;
    }
    if !report.segments.is_empty() {
        bits |= REPORT_HAS_SEGMENTS;
    }
    if !report.breakdown.is_empty() {
        bits |= REPORT_HAS_BREAKDOWN;
    }
    if let Some(cycle) = &report.cycle {
        bits |= REPORT_HAS_CYCLE;
        if cycle.max_abs_error.is_some() {
            bits |= REPORT_CYCLE_HAS_ERROR;
        }
    }
    if !report.metrics.is_empty() {
        bits |= REPORT_HAS_METRICS;
    }
    put_varint(out, bits);
    tx.put(out, &report.backend);
    tx.put(out, &report.workload);
    if let Some(v) = report.latency_s {
        put_f64(out, v);
    }
    if let Some(v) = report.throughput_tasks_per_s {
        put_f64(out, v);
    }
    if let Some(v) = report.achieved_flops {
        put_f64(out, v);
    }
    if !report.segments.is_empty() {
        put_usize(out, report.segments.len());
        for s in &report.segments {
            tx.put(out, &s.name);
            put_f64(out, s.latency_s);
            put_f64(out, s.compute_s);
            put_f64(out, s.ddr_s);
            put_f64(out, s.lpddr_s);
            put_f64(out, s.phase_s);
        }
    }
    if !report.breakdown.is_empty() {
        put_usize(out, report.breakdown.len());
        for row in &report.breakdown {
            tx.put(out, &row.name);
            put_usize(out, row.values.len());
            for (key, value) in &row.values {
                tx.put(out, key);
                put_f64(out, *value);
            }
        }
    }
    if let Some(c) = &report.cycle {
        out.push(match c.scheduler {
            SchedulerKind::EventDriven => 0,
            SchedulerKind::RoundRobin => 1,
        });
        put_varint(out, c.steps);
        put_varint(out, c.fu_step_calls);
        put_varint(out, c.makespan_cycles);
        put_varint(out, c.uops_retired);
        put_varint(out, c.words_transferred);
        if let Some(e) = c.max_abs_error {
            put_f64(out, e);
        }
    }
    if !report.metrics.is_empty() {
        put_usize(out, report.metrics.len());
        for (key, value) in &report.metrics {
            tx.put(out, key);
            put_f64(out, *value);
        }
    }
}

fn read_report_dict(r: &mut Reader<'_>, rx: &mut RxSymbols) -> Result<EvalReport, DecodeError> {
    let bits = r.varint()?;
    if bits & !REPORT_KNOWN_BITS != 0 {
        return Err(r.error(format!("unknown report bitmap bits {bits:#x}")));
    }
    if bits & REPORT_CYCLE_HAS_ERROR != 0 && bits & REPORT_HAS_CYCLE == 0 {
        return Err(r.error("cycle error bit set without the cycle section"));
    }
    let backend = rx.get(r)?;
    let workload = rx.get(r)?;
    let mut report = EvalReport::new(backend, workload);
    if bits & REPORT_HAS_LATENCY != 0 {
        report.latency_s = Some(r.f64()?);
    }
    if bits & REPORT_HAS_THROUGHPUT != 0 {
        report.throughput_tasks_per_s = Some(r.f64()?);
    }
    if bits & REPORT_HAS_FLOPS != 0 {
        report.achieved_flops = Some(r.f64()?);
    }
    if bits & REPORT_HAS_SEGMENTS != 0 {
        let segment_count = r.len()?;
        report
            .segments
            .reserve(r.capacity_hint(segment_count, SEGMENT_MIN_BYTES));
        for _ in 0..segment_count {
            report.segments.push(SegmentMetric {
                name: rx.get(r)?,
                latency_s: r.f64()?,
                compute_s: r.f64()?,
                ddr_s: r.f64()?,
                lpddr_s: r.f64()?,
                phase_s: r.f64()?,
            });
        }
    }
    if bits & REPORT_HAS_BREAKDOWN != 0 {
        let row_count = r.len()?;
        report
            .breakdown
            .reserve(r.capacity_hint(row_count, ROW_MIN_BYTES));
        for _ in 0..row_count {
            let name = rx.get(r)?;
            let value_count = r.len()?;
            let mut values = Vec::with_capacity(r.capacity_hint(value_count, PAIR_MIN_BYTES));
            for _ in 0..value_count {
                values.push((rx.get(r)?, r.f64()?));
            }
            report.breakdown.push(BreakdownRow { name, values });
        }
    }
    if bits & REPORT_HAS_CYCLE != 0 {
        let scheduler = match r.byte()? {
            0 => SchedulerKind::EventDriven,
            1 => SchedulerKind::RoundRobin,
            other => return Err(r.error(format!("unknown scheduler tag {other:#04x}"))),
        };
        report.cycle = Some(CycleStats {
            scheduler,
            steps: r.varint()?,
            fu_step_calls: r.varint()?,
            makespan_cycles: r.varint()?,
            uops_retired: r.varint()?,
            words_transferred: r.varint()?,
            max_abs_error: if bits & REPORT_CYCLE_HAS_ERROR != 0 {
                Some(r.f64()?)
            } else {
                None
            },
        });
    }
    if bits & REPORT_HAS_METRICS != 0 {
        let metric_count = r.len()?;
        let mut metrics = Vec::with_capacity(r.capacity_hint(metric_count, PAIR_MIN_BYTES));
        for _ in 0..metric_count {
            metrics.push((rx.get(r)?, r.f64()?));
        }
        report.metrics = Metrics::from_entries(metrics);
    }
    Ok(report)
}

/// Appends one domain result in dictionary form (`0` = report, `1` =
/// error).  Errors keep the plain v6 field encoding — they are the cold
/// path, and their free-text payloads are poor dictionary citizens.
pub fn encode_result_dict(
    out: &mut Vec<u8>,
    result: &Result<EvalReport, EvalError>,
    tx: &mut TxSymbols,
) {
    match result {
        Ok(report) => {
            out.push(0);
            encode_report_dict(out, report, tx);
        }
        Err(error) => {
            out.push(1);
            encode_error(out, error);
        }
    }
}

fn read_result_dict(
    r: &mut Reader<'_>,
    rx: &mut RxSymbols,
) -> Result<Result<EvalReport, EvalError>, DecodeError> {
    match r.byte()? {
        0 => Ok(Ok(read_report_dict(r, rx)?)),
        1 => Ok(Err(read_error(r)?)),
        other => Err(r.error(format!("unknown result tag {other:#04x}"))),
    }
}

/// Encodes one request payload for a dictionary-negotiated connection.
/// Only the messages that carry labels worth a table slot (`supports`,
/// `evaluate`, `evaluate_batch` — their backend name repeats on every
/// exchange) use [`DICT_MAGIC`]; hello, stats and cancel keep their plain
/// [`MAGIC`] image, which never touches the tables — the magics interleave
/// freely on one connection.
pub fn encode_request_dict(out: &mut Vec<u8>, id: u64, request: &ShardRequest, tx: &mut TxSymbols) {
    match request {
        ShardRequest::Supports { backend, spec } => {
            out.push(DICT_MAGIC);
            out.push(TAG_SUPPORTS);
            put_varint(out, id);
            tx.put(out, backend);
            encode_spec(out, spec);
        }
        ShardRequest::Evaluate { backend, spec } => {
            out.push(DICT_MAGIC);
            out.push(TAG_EVALUATE);
            put_varint(out, id);
            tx.put(out, backend);
            encode_spec(out, spec);
        }
        ShardRequest::EvaluateBatch { backend, specs } => {
            out.push(DICT_MAGIC);
            out.push(TAG_EVALUATE_BATCH);
            put_varint(out, id);
            tx.put(out, backend);
            put_usize(out, specs.len());
            for spec in specs {
                encode_spec(out, spec);
            }
        }
        ShardRequest::Hello { .. } | ShardRequest::Stats | ShardRequest::Cancel { .. } => {
            encode_request(out, id, request);
        }
    }
}

/// Decodes one [`DICT_MAGIC`] request payload against the connection's
/// receive-side table.
pub fn decode_request_dict(
    bytes: &[u8],
    rx: &mut RxSymbols,
) -> Result<(u64, ShardRequest), DecodeError> {
    let mut r = Reader::new(bytes);
    if r.byte()? != DICT_MAGIC {
        return Err(r.error("payload does not start with the dictionary magic byte"));
    }
    let tag = r.byte()?;
    let id = r.varint()?;
    let request = match tag {
        TAG_SUPPORTS => ShardRequest::Supports {
            backend: rx.get(&mut r)?.to_string(),
            spec: read_spec(&mut r)?,
        },
        TAG_EVALUATE => ShardRequest::Evaluate {
            backend: rx.get(&mut r)?.to_string(),
            spec: read_spec(&mut r)?,
        },
        TAG_EVALUATE_BATCH => {
            let backend = rx.get(&mut r)?.to_string();
            let count = r.len()?;
            let mut specs = Vec::with_capacity(count);
            for _ in 0..count {
                specs.push(read_spec(&mut r)?);
            }
            ShardRequest::EvaluateBatch { backend, specs }
        }
        other => return Err(r.error(format!("unknown dictionary request tag {other:#04x}"))),
    };
    r.finish()?;
    Ok((id, request))
}

/// Encodes one response payload for a dictionary-negotiated connection.
/// Only results (`evaluated`, `evaluated_batch`) carry the repeating
/// labels dictionaries exist for; everything else keeps its plain image
/// (see [`encode_request_dict`]).
pub fn encode_response_dict(
    out: &mut Vec<u8>,
    id: u64,
    response: &ShardResponse,
    tx: &mut TxSymbols,
) {
    match response {
        ShardResponse::Evaluated(result) => {
            out.push(DICT_MAGIC);
            out.push(TAG_EVALUATED);
            put_varint(out, id);
            encode_result_dict(out, result, tx);
        }
        ShardResponse::EvaluatedBatch(results) => {
            out.push(DICT_MAGIC);
            out.push(TAG_EVALUATED_BATCH);
            put_varint(out, id);
            put_usize(out, results.len());
            for result in results {
                encode_result_dict(out, result, tx);
            }
        }
        _ => encode_response(out, id, response),
    }
}

/// Decodes one [`DICT_MAGIC`] response payload against the connection's
/// receive-side table.
pub fn decode_response_dict(
    bytes: &[u8],
    rx: &mut RxSymbols,
) -> Result<(u64, ShardResponse), DecodeError> {
    let mut r = Reader::new(bytes);
    if r.byte()? != DICT_MAGIC {
        return Err(r.error("payload does not start with the dictionary magic byte"));
    }
    let tag = r.byte()?;
    let id = r.varint()?;
    let response = match tag {
        TAG_EVALUATED => ShardResponse::Evaluated(Arc::new(read_result_dict(&mut r, rx)?)),
        TAG_EVALUATED_BATCH => {
            let count = r.len()?;
            let mut results: Vec<SharedResult> = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(Arc::new(read_result_dict(&mut r, rx)?));
            }
            ShardResponse::EvaluatedBatch(results)
        }
        other => return Err(r.error(format!("unknown dictionary response tag {other:#04x}"))),
    };
    r.finish()?;
    Ok((id, response))
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

fn put_bert_config(out: &mut Vec<u8>, cfg: &BertConfig) {
    put_usize(out, cfg.hidden);
    put_usize(out, cfg.heads);
    put_usize(out, cfg.ff_dim);
    put_usize(out, cfg.seq_len);
    put_usize(out, cfg.batch);
    put_usize(out, cfg.layers);
}

fn read_bert_config(r: &mut Reader<'_>) -> Result<BertConfig, DecodeError> {
    Ok(BertConfig {
        hidden: r.usize_val()?,
        heads: r.usize_val()?,
        ff_dim: r.usize_val()?,
        seq_len: r.usize_val()?,
        batch: r.usize_val()?,
        layers: r.usize_val()?,
    })
}

/// Appends one workload spec (a one-byte variant tag, then its fields).
pub fn encode_spec(out: &mut Vec<u8>, spec: &WorkloadSpec) {
    match spec {
        WorkloadSpec::EncoderLayer { cfg } => {
            out.push(0);
            put_bert_config(out, cfg);
        }
        WorkloadSpec::FullModel { cfg } => {
            out.push(1);
            put_bert_config(out, cfg);
        }
        WorkloadSpec::SquareGemm { n } => {
            out.push(2);
            put_usize(out, *n);
        }
        WorkloadSpec::ZooModel { kind } => {
            out.push(3);
            put_str(out, kind.name());
        }
        WorkloadSpec::AttentionMapping { cfg, mapping } => {
            out.push(4);
            put_bert_config(out, cfg);
            put_str(out, &mapping.letter().to_string());
        }
        WorkloadSpec::PowerBreakdown => out.push(5),
        WorkloadSpec::DatapathProperties => out.push(6),
        WorkloadSpec::InstructionFootprint { m, k, n } => {
            out.push(7);
            put_usize(out, *m);
            put_usize(out, *k);
            put_usize(out, *n);
        }
        WorkloadSpec::FunctionalGemm { m, k, n, seed } => {
            out.push(8);
            put_usize(out, *m);
            put_usize(out, *k);
            put_usize(out, *n);
            put_varint(out, *seed);
        }
        WorkloadSpec::FunctionalAttention { cfg, seed } => {
            out.push(9);
            put_bert_config(out, cfg);
            put_varint(out, *seed);
        }
        WorkloadSpec::ScalarPipeline { elements } => {
            out.push(10);
            put_usize(out, *elements);
        }
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<WorkloadSpec, DecodeError> {
    match r.byte()? {
        0 => Ok(WorkloadSpec::EncoderLayer {
            cfg: read_bert_config(r)?,
        }),
        1 => Ok(WorkloadSpec::FullModel {
            cfg: read_bert_config(r)?,
        }),
        2 => Ok(WorkloadSpec::SquareGemm { n: r.usize_val()? }),
        3 => {
            let name = r.str_ref()?;
            let kind = ModelKind::table7_models()
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| r.error(format!("unknown zoo model `{name}`")))?;
            Ok(WorkloadSpec::ZooModel { kind })
        }
        4 => {
            let cfg = read_bert_config(r)?;
            let letter = r.str_ref()?;
            let mapping = rsn_lib::mapping::MappingType::all()
                .into_iter()
                .find(|m| m.letter().to_string() == letter)
                .ok_or_else(|| r.error(format!("unknown mapping type `{letter}`")))?;
            Ok(WorkloadSpec::AttentionMapping { cfg, mapping })
        }
        5 => Ok(WorkloadSpec::PowerBreakdown),
        6 => Ok(WorkloadSpec::DatapathProperties),
        7 => Ok(WorkloadSpec::InstructionFootprint {
            m: r.usize_val()?,
            k: r.usize_val()?,
            n: r.usize_val()?,
        }),
        8 => Ok(WorkloadSpec::FunctionalGemm {
            m: r.usize_val()?,
            k: r.usize_val()?,
            n: r.usize_val()?,
            seed: r.varint()?,
        }),
        9 => Ok(WorkloadSpec::FunctionalAttention {
            cfg: read_bert_config(r)?,
            seed: r.varint()?,
        }),
        10 => Ok(WorkloadSpec::ScalarPipeline {
            elements: r.usize_val()?,
        }),
        other => Err(r.error(format!("unknown workload tag {other:#04x}"))),
    }
}

/// Decodes one standalone workload-spec document (used by tests; on the
/// wire specs travel inside request bodies).
pub fn decode_spec(bytes: &[u8]) -> Result<WorkloadSpec, DecodeError> {
    let mut r = Reader::new(bytes);
    let spec = read_spec(&mut r)?;
    r.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// EvalReport / EvalError / results
// ---------------------------------------------------------------------------

/// Appends one evaluation report.
pub fn encode_report(out: &mut Vec<u8>, report: &EvalReport) {
    put_str(out, &report.backend);
    put_str(out, &report.workload);
    put_opt_f64(out, report.latency_s);
    put_opt_f64(out, report.throughput_tasks_per_s);
    put_opt_f64(out, report.achieved_flops);
    put_usize(out, report.segments.len());
    for s in &report.segments {
        put_str(out, &s.name);
        put_f64(out, s.latency_s);
        put_f64(out, s.compute_s);
        put_f64(out, s.ddr_s);
        put_f64(out, s.lpddr_s);
        put_f64(out, s.phase_s);
    }
    put_usize(out, report.breakdown.len());
    for row in &report.breakdown {
        put_str(out, &row.name);
        put_usize(out, row.values.len());
        for (key, value) in &row.values {
            put_str(out, key);
            put_f64(out, *value);
        }
    }
    match &report.cycle {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            out.push(match c.scheduler {
                SchedulerKind::EventDriven => 0,
                SchedulerKind::RoundRobin => 1,
            });
            put_varint(out, c.steps);
            put_varint(out, c.fu_step_calls);
            put_varint(out, c.makespan_cycles);
            put_varint(out, c.uops_retired);
            put_varint(out, c.words_transferred);
            put_opt_f64(out, c.max_abs_error);
        }
    }
    put_usize(out, report.metrics.len());
    for (key, value) in &report.metrics {
        put_str(out, key);
        put_f64(out, *value);
    }
}

fn read_report(r: &mut Reader<'_>, names: &mut Interner) -> Result<EvalReport, DecodeError> {
    // Backend (and frequently workload) names repeat across every report of
    // a stream; borrow them out of the frame and intern, so a decoded
    // report aliases the same `Arc<str>`s the service uses as slot names
    // instead of allocating fresh `String`s.
    let backend = names.intern(r.str_ref()?);
    let workload = names.intern(r.str_ref()?);
    let mut report = EvalReport::new(backend, workload);
    report.latency_s = r.opt_f64()?;
    report.throughput_tasks_per_s = r.opt_f64()?;
    report.achieved_flops = r.opt_f64()?;
    let segment_count = r.len()?;
    report
        .segments
        .reserve(r.capacity_hint(segment_count, SEGMENT_MIN_BYTES));
    for _ in 0..segment_count {
        report.segments.push(SegmentMetric {
            // Segment, breakdown and metric labels are drawn from small
            // fixed vocabularies that repeat in every report of a stream —
            // intern them all, so a 2048-report burst decodes to aliases
            // of a handful of `Arc<str>`s instead of tens of thousands of
            // short-lived `String`s.
            name: names.intern(r.str_ref()?),
            latency_s: r.f64()?,
            compute_s: r.f64()?,
            ddr_s: r.f64()?,
            lpddr_s: r.f64()?,
            phase_s: r.f64()?,
        });
    }
    let row_count = r.len()?;
    report
        .breakdown
        .reserve(r.capacity_hint(row_count, ROW_MIN_BYTES));
    for _ in 0..row_count {
        let name = names.intern(r.str_ref()?);
        let value_count = r.len()?;
        let mut values = Vec::with_capacity(r.capacity_hint(value_count, PAIR_MIN_BYTES));
        for _ in 0..value_count {
            values.push((names.intern(r.str_ref()?), r.f64()?));
        }
        report.breakdown.push(BreakdownRow { name, values });
    }
    if r.bool()? {
        report.cycle = Some(read_cycle(r)?);
    }
    let metric_count = r.len()?;
    let mut metrics = Vec::with_capacity(r.capacity_hint(metric_count, PAIR_MIN_BYTES));
    for _ in 0..metric_count {
        metrics.push((names.intern(r.str_ref()?), r.f64()?));
    }
    // The encoder emits metrics in map (sorted) order, so this adopts the
    // vec after one sortedness check instead of one binary-search-and-shift
    // insert per key (O(k²) on a k-metric report).
    report.metrics = Metrics::from_entries(metrics);
    Ok(report)
}

/// Smallest possible wire footprint of one segment (a 1-byte name length
/// plus five raw doubles) — the pre-allocation clamp for segment counts.
const SEGMENT_MIN_BYTES: usize = 1 + 5 * 8;
/// Smallest possible breakdown row (1-byte name length, 1-byte value count).
const ROW_MIN_BYTES: usize = 2;
/// Smallest possible labelled `(key, f64)` pair (1-byte key length + bits).
const PAIR_MIN_BYTES: usize = 1 + 8;

fn read_cycle(r: &mut Reader<'_>) -> Result<CycleStats, DecodeError> {
    let scheduler = match r.byte()? {
        0 => SchedulerKind::EventDriven,
        1 => SchedulerKind::RoundRobin,
        other => return Err(r.error(format!("unknown scheduler tag {other:#04x}"))),
    };
    Ok(CycleStats {
        scheduler,
        steps: r.varint()?,
        fu_step_calls: r.varint()?,
        makespan_cycles: r.varint()?,
        uops_retired: r.varint()?,
        words_transferred: r.varint()?,
        max_abs_error: r.opt_f64()?,
    })
}

/// Decodes one standalone report document (used by tests).
pub fn decode_report(bytes: &[u8]) -> Result<EvalReport, DecodeError> {
    let mut r = Reader::new(bytes);
    let report = with_interner(|names| read_report(&mut r, names))?;
    r.finish()?;
    Ok(report)
}

/// Appends one evaluation error.  Like the JSON codec, engine errors encode
/// by display text (their payload types do not cross the wire) and decode
/// as [`EvalError::Remote`].
pub fn encode_error(out: &mut Vec<u8>, error: &EvalError) {
    match error {
        EvalError::Unsupported { backend, workload } => {
            out.push(0);
            put_str(out, backend);
            put_str(out, workload);
        }
        EvalError::TooLarge {
            backend,
            workload,
            limit,
        } => {
            out.push(1);
            put_str(out, backend);
            put_str(out, workload);
            put_str(out, limit);
        }
        EvalError::Engine(_) | EvalError::Remote { .. } => {
            out.push(2);
            put_str(out, &error.to_string());
        }
        EvalError::Panicked {
            backend,
            workload,
            reason,
        } => {
            out.push(3);
            put_str(out, backend);
            put_str(out, workload);
            put_str(out, reason);
        }
        EvalError::Transport { backend, detail } => {
            out.push(4);
            put_str(out, backend);
            put_str(out, detail);
        }
        EvalError::Overloaded { class, reason } => {
            out.push(5);
            put_str(out, class);
            put_str(out, reason);
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<EvalError, DecodeError> {
    match r.byte()? {
        0 => Ok(EvalError::Unsupported {
            backend: r.str()?,
            workload: r.str()?,
        }),
        1 => Ok(EvalError::TooLarge {
            backend: r.str()?,
            workload: r.str()?,
            limit: r.str()?,
        }),
        2 => Ok(EvalError::Remote { message: r.str()? }),
        3 => Ok(EvalError::Panicked {
            backend: r.str()?,
            workload: r.str()?,
            reason: r.str()?,
        }),
        4 => Ok(EvalError::Transport {
            backend: r.str()?,
            detail: r.str()?,
        }),
        5 => Ok(EvalError::Overloaded {
            class: r.str()?,
            reason: r.str()?,
        }),
        other => Err(r.error(format!("unknown error tag {other:#04x}"))),
    }
}

/// Decodes one standalone error document (used by tests).
pub fn decode_error(bytes: &[u8]) -> Result<EvalError, DecodeError> {
    let mut r = Reader::new(bytes);
    let error = read_error(&mut r)?;
    r.finish()?;
    Ok(error)
}

/// Appends one domain result (`0` = report, `1` = error).
pub fn encode_result(out: &mut Vec<u8>, result: &Result<EvalReport, EvalError>) {
    match result {
        Ok(report) => {
            out.push(0);
            encode_report(out, report);
        }
        Err(error) => {
            out.push(1);
            encode_error(out, error);
        }
    }
}

fn read_result(
    r: &mut Reader<'_>,
    names: &mut Interner,
) -> Result<Result<EvalReport, EvalError>, DecodeError> {
    match r.byte()? {
        0 => Ok(Ok(read_report(r, names)?)),
        1 => Ok(Err(read_error(r)?)),
        other => Err(r.error(format!("unknown result tag {other:#04x}"))),
    }
}

/// Decodes one standalone result document (used by tests).
pub fn decode_result(bytes: &[u8]) -> Result<Result<EvalReport, EvalError>, DecodeError> {
    let mut r = Reader::new(bytes);
    let result = with_interner(|names| read_result(&mut r, names))?;
    r.finish()?;
    Ok(result)
}

// ---------------------------------------------------------------------------
// ServiceStats
// ---------------------------------------------------------------------------

/// Appends one service-statistics snapshot.
pub fn encode_stats(out: &mut Vec<u8>, stats: &ServiceStats) {
    put_varint(out, stats.submitted);
    put_varint(out, stats.completed);
    put_varint(out, stats.batches);
    put_varint(out, stats.batched_requests);
    put_varint(out, stats.cache_hits);
    put_varint(out, stats.cache_misses);
    put_varint(out, stats.inflight_merged);
    put_varint(out, stats.evaluations);
    put_varint(out, stats.eval_errors);
    put_varint(out, stats.evictions);
    put_usize(out, stats.per_shard.len());
    for shard in &stats.per_shard {
        put_str(out, &shard.backend);
        put_varint(out, shard.evaluations);
        put_varint(out, shard.errors);
    }
    put_usize(out, stats.remote_pools.len());
    for pool in &stats.remote_pools {
        put_str(out, &pool.addr);
        // Pool records are extensible: a varint field count precedes the
        // counter varints, so a decoder reads the fields it knows, skips
        // any it does not, and zero-fills the rest.  New counters append.
        put_usize(out, POOL_FIELD_COUNT);
        put_varint(out, pool.checkouts);
        put_varint(out, pool.reused);
        put_varint(out, pool.dials);
        put_varint(out, pool.redials);
        put_varint(out, pool.discarded);
        put_varint(out, pool.pipelined_batches);
        put_varint(out, pool.pipelined_specs);
        put_varint(out, pool.bytes_sent);
        put_varint(out, pool.bytes_received);
        put_varint(out, pool.frames_coalesced);
        put_varint(out, pool.ring_exchanges);
        put_varint(out, pool.reactor_wakeups);
        put_varint(out, pool.inflight_per_conn);
        put_varint(out, pool.hedges_launched);
        put_varint(out, pool.hedges_won);
        put_varint(out, pool.failovers);
        put_varint(out, pool.breaker_trips);
        put_varint(out, pool.breaker_fast_fails);
        put_varint(out, pool.dict_defines);
        put_varint(out, pool.dict_hits);
    }
    // Trailing-optional per-class latency section, appended since v6.  It
    // is emitted only when populated: pre-v6 decoders `finish()` after the
    // pool records and would reject appended bytes, so servers clear
    // `classes` before answering a peer whose hello said < v6 (see the
    // front ends), and the resulting empty image is byte-identical to v5's.
    // Decoding the other way, a missing section reads as "no classes".
    if stats.classes.is_empty() {
        return;
    }
    put_usize(out, stats.classes.len());
    for class in &stats.classes {
        put_str(out, class.priority.as_str());
        put_varint(out, class.shed_deadline);
        put_varint(out, class.shed_queue);
        put_varint(out, class.latency.count);
        put_varint(out, class.latency.sum_us);
        put_varint(out, class.latency.max_us);
        put_usize(out, class.latency.bucket_counts().len());
        for &bucket in class.latency.bucket_counts() {
            put_varint(out, bucket);
        }
    }
}

/// Counter varints per pool record in this build's encoding (the record's
/// field-count prefix).  18 → 20 in v7: the two symbol-dictionary counters
/// append, and older peers' records zero-fill them leniently.
const POOL_FIELD_COUNT: usize = 20;

fn read_stats(r: &mut Reader<'_>) -> Result<ServiceStats, DecodeError> {
    let mut stats = ServiceStats {
        submitted: r.varint()?,
        completed: r.varint()?,
        batches: r.varint()?,
        batched_requests: r.varint()?,
        cache_hits: r.varint()?,
        cache_misses: r.varint()?,
        inflight_merged: r.varint()?,
        evaluations: r.varint()?,
        eval_errors: r.varint()?,
        evictions: r.varint()?,
        ..ServiceStats::default()
    };
    for _ in 0..r.len()? {
        stats.per_shard.push(ShardStats {
            backend: r.str()?,
            evaluations: r.varint()?,
            errors: r.varint()?,
        });
    }
    for _ in 0..r.len()? {
        let addr = r.str()?;
        // Lenient record decode: a shorter count (older peer) zero-fills
        // the missing counters, a longer one (newer peer) skips the extras.
        let mut fields = [0u64; POOL_FIELD_COUNT];
        for index in 0..r.len()? {
            let value = r.varint()?;
            if let Some(slot) = fields.get_mut(index) {
                *slot = value;
            }
        }
        stats.remote_pools.push(PoolStats {
            addr,
            checkouts: fields[0],
            reused: fields[1],
            dials: fields[2],
            redials: fields[3],
            discarded: fields[4],
            pipelined_batches: fields[5],
            pipelined_specs: fields[6],
            bytes_sent: fields[7],
            bytes_received: fields[8],
            frames_coalesced: fields[9],
            ring_exchanges: fields[10],
            reactor_wakeups: fields[11],
            inflight_per_conn: fields[12],
            hedges_launched: fields[13],
            hedges_won: fields[14],
            failovers: fields[15],
            breaker_trips: fields[16],
            breaker_fast_fails: fields[17],
            dict_defines: fields[18],
            dict_hits: fields[19],
        });
    }
    // Trailing-optional: a v1–v5 peer's image simply ends here.
    if r.remaining() > 0 {
        for _ in 0..r.len()? {
            let spelling = r.str()?;
            let priority = Priority::parse(&spelling)
                .ok_or_else(|| r.error(format!("unknown priority class `{spelling}`")))?;
            let shed_deadline = r.varint()?;
            let shed_queue = r.varint()?;
            let count = r.varint()?;
            let sum_us = r.varint()?;
            let max_us = r.varint()?;
            let bucket_count = r.len()?;
            let mut buckets = Vec::with_capacity(bucket_count);
            for _ in 0..bucket_count {
                buckets.push(r.varint()?);
            }
            stats.classes.push(ClassStats {
                priority,
                latency: LatencyHistogram::from_parts(buckets, count, sum_us, max_us),
                shed_deadline,
                shed_queue,
            });
        }
    }
    Ok(stats)
}

/// Decodes one standalone stats document (used by tests).
pub fn decode_stats(bytes: &[u8]) -> Result<ServiceStats, DecodeError> {
    let mut r = Reader::new(bytes);
    let stats = read_stats(&mut r)?;
    r.finish()?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// Encodes one request payload (magic, tag, id, body), **appending** to
/// `out` — the frame writer reserves its length-prefix placeholder in the
/// same buffer first, so the whole frame leaves in one `write`.
pub fn encode_request(out: &mut Vec<u8>, id: u64, request: &ShardRequest) {
    out.push(MAGIC);
    match request {
        ShardRequest::Hello { protocol } => {
            out.push(TAG_HELLO);
            put_varint(out, id);
            // Trailing optional client version, appended since v5 — pre-v5
            // decoders call `finish()` after the id and would reject the
            // extra varint, but clients always hello in JSON (where unknown
            // keys are ignored), so the binary image only ever reaches
            // peers that read it.
            put_varint(out, *protocol);
        }
        ShardRequest::Supports { backend, spec } => {
            out.push(TAG_SUPPORTS);
            put_varint(out, id);
            put_str(out, backend);
            encode_spec(out, spec);
        }
        ShardRequest::Evaluate { backend, spec } => {
            out.push(TAG_EVALUATE);
            put_varint(out, id);
            put_str(out, backend);
            encode_spec(out, spec);
        }
        ShardRequest::EvaluateBatch { backend, specs } => {
            out.push(TAG_EVALUATE_BATCH);
            put_varint(out, id);
            put_str(out, backend);
            put_usize(out, specs.len());
            for spec in specs {
                encode_spec(out, spec);
            }
        }
        ShardRequest::Stats => {
            out.push(TAG_STATS);
            put_varint(out, id);
        }
        ShardRequest::Cancel { target } => {
            out.push(TAG_CANCEL);
            put_varint(out, id);
            put_varint(out, *target);
        }
    }
}

/// Decodes one request payload (including the magic byte).
pub fn decode_request(bytes: &[u8]) -> Result<(u64, ShardRequest), DecodeError> {
    let mut r = Reader::new(bytes);
    if r.byte()? != MAGIC {
        return Err(r.error("payload does not start with the binary magic byte"));
    }
    let tag = r.byte()?;
    let id = r.varint()?;
    let request = match tag {
        TAG_HELLO => {
            // The client version varint arrived in v5; a payload ending
            // right after the id is an older client speaking version 1
            // semantics (no multiplexing, strict FIFO).
            let protocol = if r.remaining() > 0 { r.varint()? } else { 1 };
            ShardRequest::Hello { protocol }
        }
        TAG_SUPPORTS => ShardRequest::Supports {
            backend: r.str()?,
            spec: read_spec(&mut r)?,
        },
        TAG_EVALUATE => ShardRequest::Evaluate {
            backend: r.str()?,
            spec: read_spec(&mut r)?,
        },
        TAG_EVALUATE_BATCH => {
            let backend = r.str()?;
            let count = r.len()?;
            let mut specs = Vec::with_capacity(count);
            for _ in 0..count {
                specs.push(read_spec(&mut r)?);
            }
            ShardRequest::EvaluateBatch { backend, specs }
        }
        TAG_STATS => ShardRequest::Stats,
        TAG_CANCEL => ShardRequest::Cancel {
            target: r.varint()?,
        },
        other => return Err(r.error(format!("unknown request tag {other:#04x}"))),
    };
    r.finish()?;
    Ok((id, request))
}

/// Encodes one response payload (magic, tag, id, body), **appending** to
/// `out` (see [`encode_request`]).
pub fn encode_response(out: &mut Vec<u8>, id: u64, response: &ShardResponse) {
    out.push(MAGIC);
    match response {
        ShardResponse::Backends {
            names,
            protocol,
            ring,
            window,
        } => {
            out.push(TAG_BACKENDS);
            put_varint(out, id);
            put_usize(out, names.len());
            for name in names {
                put_str(out, name);
            }
            put_varint(out, *protocol);
            // Trailing optional ring path, appended only when offered —
            // decoders treat end-of-payload here as "no ring" so pre-v4
            // images stay decodable.
            if let Some(path) = ring {
                out.push(1);
                put_str(out, path);
            } else {
                out.push(0);
            }
            // Trailing optional credit window (v5), after the ring bytes;
            // decoders treat end-of-payload here as "no multiplexing".
            if let Some(credits) = window {
                out.push(1);
                put_varint(out, *credits);
            } else {
                out.push(0);
            }
        }
        ShardResponse::Supported(supported) => {
            out.push(TAG_SUPPORTED);
            put_varint(out, id);
            put_bool(out, *supported);
        }
        ShardResponse::Evaluated(result) => {
            out.push(TAG_EVALUATED);
            put_varint(out, id);
            encode_result(out, result);
        }
        ShardResponse::EvaluatedBatch(results) => {
            out.push(TAG_EVALUATED_BATCH);
            put_varint(out, id);
            put_usize(out, results.len());
            for result in results {
                encode_result(out, result);
            }
        }
        ShardResponse::Stats(stats) => {
            out.push(TAG_STATS_RESPONSE);
            put_varint(out, id);
            encode_stats(out, stats);
        }
        ShardResponse::Rejected(message) => {
            out.push(TAG_REJECTED);
            put_varint(out, id);
            put_str(out, message);
        }
    }
}

/// Decodes one response payload (including the magic byte).
pub fn decode_response(bytes: &[u8]) -> Result<(u64, ShardResponse), DecodeError> {
    let mut r = Reader::new(bytes);
    if r.byte()? != MAGIC {
        return Err(r.error("payload does not start with the binary magic byte"));
    }
    let tag = r.byte()?;
    let id = r.varint()?;
    let response = match tag {
        TAG_BACKENDS => {
            let count = r.len()?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(r.str()?);
            }
            let protocol = r.varint()?;
            // The ring field arrived in v4; a payload ending right after
            // the protocol varint is an older image with no ring offer.
            let ring = if r.remaining() == 0 {
                None
            } else {
                match r.byte()? {
                    0 => None,
                    1 => Some(r.str()?),
                    other => return Err(r.error(format!("invalid ring tag {other:#04x}"))),
                }
            };
            // The window field arrived in v5; a payload ending after the
            // ring bytes is a v4 image with no multiplexing offer.
            let window = if r.remaining() == 0 {
                None
            } else {
                match r.byte()? {
                    0 => None,
                    1 => Some(r.varint()?),
                    other => return Err(r.error(format!("invalid window tag {other:#04x}"))),
                }
            };
            ShardResponse::Backends {
                names,
                protocol,
                ring,
                window,
            }
        }
        TAG_SUPPORTED => ShardResponse::Supported(r.bool()?),
        TAG_EVALUATED => {
            ShardResponse::Evaluated(Arc::new(with_interner(|names| read_result(&mut r, names))?))
        }
        TAG_EVALUATED_BATCH => {
            let count = r.len()?;
            let mut results: Vec<SharedResult> = Vec::with_capacity(count);
            // One interner borrow for the whole batch: the table access is
            // hoisted out of the per-report decode loop.
            with_interner(|names| -> Result<(), DecodeError> {
                for _ in 0..count {
                    results.push(Arc::new(read_result(&mut r, names)?));
                }
                Ok(())
            })?;
            ShardResponse::EvaluatedBatch(results)
        }
        TAG_STATS_RESPONSE => ShardResponse::Stats(read_stats(&mut r)?),
        TAG_REJECTED => ShardResponse::Rejected(r.str()?),
        other => return Err(r.error(format!("unknown response tag {other:#04x}"))),
    };
    r.finish()?;
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_widths() {
        let mut out = Vec::new();
        for value in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            out.clear();
            put_varint(&mut out, value);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().expect("decodes"), value);
            r.finish().expect("consumed exactly");
        }
        // Single-byte encodings for the common small counters.
        out.clear();
        put_varint(&mut out, 42);
        assert_eq!(out, [42]);
    }

    #[test]
    fn floats_survive_non_finite_values() {
        let mut out = Vec::new();
        for value in [0.0f64, -1.5, f64::INFINITY, f64::NEG_INFINITY] {
            out.clear();
            put_f64(&mut out, value);
            assert_eq!(Reader::new(&out).f64().expect("decodes"), value);
        }
        out.clear();
        put_f64(&mut out, f64::NAN);
        assert!(Reader::new(&out).f64().expect("decodes").is_nan());
    }

    #[test]
    fn truncated_payloads_decode_to_errors_not_panics() {
        let mut out = Vec::new();
        encode_request(
            &mut out,
            9,
            &ShardRequest::Evaluate {
                backend: "rsn-xnn".to_string(),
                spec: WorkloadSpec::SquareGemm { n: 4096 },
            },
        );
        for cut in 0..out.len() {
            assert!(
                decode_request(&out[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(decode_request(&out).is_ok());
    }

    #[test]
    fn hostile_collection_lengths_are_rejected_before_allocation() {
        // An evaluate_batch frame promising u64::MAX specs in 4 bytes.
        let mut out = vec![MAGIC, TAG_EVALUATE_BATCH];
        put_varint(&mut out, 1); // id
        put_str(&mut out, "b");
        put_varint(&mut out, u64::MAX); // spec count
        let err = decode_request(&out).expect_err("must reject");
        assert!(err.message.contains("implausible"), "{err}");
    }

    #[test]
    fn json_frames_cannot_be_mistaken_for_binary() {
        assert!(decode_request(b"{\n  \"id\": 1\n}").is_err());
        assert!(decode_response(b"[1, 2]").is_err());
    }
}
