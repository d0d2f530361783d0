//! Property-style round-trip sweep of the binary wire codec (seeded, per
//! the PR 1 convention: a deterministic LCG drives randomised documents, so
//! a failure reproduces from the printed seed).
//!
//! Two invariants per document type, both over hundreds of randomised
//! documents spanning every variant:
//!
//! * **binary identity** — `binary::decode(binary::encode(x)) == x`,
//!   exactly (the binary codec preserves every value bit);
//! * **same emitted text** — the decoded document renders the same
//!   [`rsn_serve::json`] text as the original, byte for byte, so what an
//!   operator or a snapshot reads is unchanged by a trip across the wire.

use rsn_eval::{BreakdownRow, CycleStats, EvalError, EvalReport, SchedulerKind, WorkloadSpec};
use rsn_lib::mapping::MappingType;
use rsn_serve::json;
use rsn_serve::wire::{ShardRequest, ShardResponse, SharedResult};
use rsn_serve::{
    binary, ClassStats, LatencyHistogram, PoolStats, Priority, ServiceStats, ShardStats,
};
use rsn_workloads::bert::BertConfig;
use rsn_workloads::models::ModelKind;
use std::sync::Arc;

/// Deterministic 64-bit LCG (same constants as the concurrency stress
/// tests), so every generated document reproduces from the seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A finite f64 in a spread of magnitudes (JSON cannot represent
/// non-finite values — they emit as `null` — so the cross-codec sweep
/// sticks to finite ones; non-finite binary fidelity has its own test).
fn finite_f64(rng: &mut u64) -> f64 {
    let mantissa = (lcg(rng) % 2_000_001) as f64 / 1000.0 - 1000.0;
    let exponent = (lcg(rng) % 25) as i32 - 12;
    mantissa * 10f64.powi(exponent)
}

fn opt_f64(rng: &mut u64) -> Option<f64> {
    if lcg(rng).is_multiple_of(3) {
        None
    } else {
        Some(finite_f64(rng))
    }
}

/// Labels with escape-heavy candidates mixed in, so string encoding is
/// stressed on both codecs.
fn label(rng: &mut u64) -> String {
    const POOL: [&str; 8] = [
        "rsn-xnn",
        "charm",
        "encoder-layer L=512 B=6",
        "quote \" backslash \\",
        "newline\nand tab\t",
        "unicode × é 😀 ßµ",
        "",
        "control \u{1} \u{1f}",
    ];
    POOL[(lcg(rng) % POOL.len() as u64) as usize].to_string()
}

fn random_cfg(rng: &mut u64) -> BertConfig {
    BertConfig {
        hidden: (lcg(rng) % 4096 + 1) as usize,
        heads: (lcg(rng) % 64 + 1) as usize,
        ff_dim: (lcg(rng) % 16384 + 1) as usize,
        seq_len: (lcg(rng) % 2048 + 1) as usize,
        batch: (lcg(rng) % 64 + 1) as usize,
        layers: (lcg(rng) % 48 + 1) as usize,
    }
}

fn random_spec(rng: &mut u64) -> WorkloadSpec {
    match lcg(rng) % 11 {
        0 => WorkloadSpec::EncoderLayer {
            cfg: random_cfg(rng),
        },
        1 => WorkloadSpec::FullModel {
            cfg: random_cfg(rng),
        },
        2 => WorkloadSpec::SquareGemm {
            n: (lcg(rng) % 65536 + 1) as usize,
        },
        3 => {
            let models = ModelKind::table7_models();
            WorkloadSpec::ZooModel {
                kind: models[(lcg(rng) % models.len() as u64) as usize],
            }
        }
        4 => {
            let mappings = MappingType::all();
            WorkloadSpec::AttentionMapping {
                cfg: random_cfg(rng),
                mapping: mappings[(lcg(rng) % mappings.len() as u64) as usize],
            }
        }
        5 => WorkloadSpec::PowerBreakdown,
        6 => WorkloadSpec::DatapathProperties,
        7 => WorkloadSpec::InstructionFootprint {
            m: (lcg(rng) % 1024 + 1) as usize,
            k: (lcg(rng) % 1024 + 1) as usize,
            n: (lcg(rng) % 1024 + 1) as usize,
        },
        8 => WorkloadSpec::FunctionalGemm {
            m: (lcg(rng) % 64 + 1) as usize,
            k: (lcg(rng) % 64 + 1) as usize,
            n: (lcg(rng) % 64 + 1) as usize,
            seed: lcg(rng),
        },
        9 => WorkloadSpec::FunctionalAttention {
            cfg: random_cfg(rng),
            seed: lcg(rng),
        },
        _ => WorkloadSpec::ScalarPipeline {
            elements: (lcg(rng) % 10000 + 1) as usize,
        },
    }
}

fn random_report(rng: &mut u64) -> EvalReport {
    let mut report = EvalReport::new(label(rng), label(rng));
    report.latency_s = opt_f64(rng);
    report.throughput_tasks_per_s = opt_f64(rng);
    report.achieved_flops = opt_f64(rng);
    for i in 0..lcg(rng) % 4 {
        report.segments.push(rsn_eval::SegmentMetric {
            name: format!("segment-{i}").into(),
            latency_s: finite_f64(rng),
            compute_s: finite_f64(rng),
            ddr_s: finite_f64(rng),
            lpddr_s: finite_f64(rng),
            phase_s: finite_f64(rng),
        });
    }
    for i in 0..lcg(rng) % 3 {
        let values = (0..lcg(rng) % 4)
            .map(|j| (format!("metric-{j}").into(), finite_f64(rng)))
            .collect();
        report.breakdown.push(BreakdownRow {
            name: format!("row {i} {}", label(rng)).into(),
            values,
        });
    }
    if lcg(rng).is_multiple_of(2) {
        report.cycle = Some(CycleStats {
            scheduler: if lcg(rng).is_multiple_of(2) {
                SchedulerKind::EventDriven
            } else {
                SchedulerKind::RoundRobin
            },
            steps: lcg(rng) % 1_000_000,
            fu_step_calls: lcg(rng),
            makespan_cycles: lcg(rng) % 1_000_000_000,
            uops_retired: lcg(rng) % 100_000,
            words_transferred: lcg(rng) % 10_000_000,
            max_abs_error: opt_f64(rng),
        });
    }
    for i in 0..lcg(rng) % 5 {
        report.metrics.insert(format!("m{i}"), finite_f64(rng));
    }
    report
}

fn random_error(rng: &mut u64) -> EvalError {
    match lcg(rng) % 5 {
        0 => EvalError::Unsupported {
            backend: label(rng),
            workload: label(rng),
        },
        1 => EvalError::TooLarge {
            backend: label(rng),
            workload: label(rng),
            limit: label(rng),
        },
        2 => EvalError::Remote {
            message: label(rng),
        },
        3 => EvalError::Panicked {
            backend: label(rng),
            workload: label(rng),
            reason: label(rng),
        },
        _ => EvalError::Transport {
            backend: label(rng),
            detail: label(rng),
        },
    }
}

fn random_result(rng: &mut u64) -> Result<EvalReport, EvalError> {
    if lcg(rng).is_multiple_of(3) {
        Err(random_error(rng))
    } else {
        Ok(random_report(rng))
    }
}

/// A histogram built the way the service builds one: by recording, so its
/// trimmed bucket vector, count, sum, and max are all mutually consistent.
fn random_histogram(rng: &mut u64) -> LatencyHistogram {
    let mut histogram = LatencyHistogram::new();
    for _ in 0..lcg(rng) % 200 {
        let us = lcg(rng) % 10_000_000;
        histogram.record(std::time::Duration::from_micros(us));
    }
    histogram
}

fn random_stats(rng: &mut u64) -> ServiceStats {
    ServiceStats {
        submitted: lcg(rng) % 100_000,
        completed: lcg(rng) % 100_000,
        batches: lcg(rng) % 10_000,
        batched_requests: lcg(rng) % 100_000,
        cache_hits: lcg(rng) % 100_000,
        cache_misses: lcg(rng) % 100_000,
        inflight_merged: lcg(rng) % 10_000,
        evaluations: lcg(rng) % 100_000,
        eval_errors: lcg(rng) % 1_000,
        evictions: lcg(rng) % 1_000,
        per_shard: (0..lcg(rng) % 4)
            .map(|_| ShardStats {
                backend: label(rng),
                evaluations: lcg(rng) % 100_000,
                errors: lcg(rng) % 100,
            })
            .collect(),
        remote_pools: (0..lcg(rng) % 3)
            .map(|i| PoolStats {
                addr: format!("10.0.0.{i}:7070"),
                checkouts: lcg(rng) % 100_000,
                reused: lcg(rng) % 100_000,
                dials: lcg(rng) % 1_000,
                redials: lcg(rng) % 100,
                discarded: lcg(rng) % 100,
                pipelined_batches: lcg(rng) % 10_000,
                pipelined_specs: lcg(rng) % 100_000,
                bytes_sent: lcg(rng),
                bytes_received: lcg(rng),
                frames_coalesced: lcg(rng) % 100_000,
                ring_exchanges: lcg(rng) % 100_000,
                reactor_wakeups: lcg(rng) % 100_000,
                inflight_per_conn: lcg(rng) % 64,
                hedges_launched: lcg(rng) % 10_000,
                hedges_won: lcg(rng) % 10_000,
                failovers: lcg(rng) % 1_000,
                breaker_trips: lcg(rng) % 100,
                breaker_fast_fails: lcg(rng) % 1_000,
                dict_defines: lcg(rng) % 10_000,
                dict_hits: lcg(rng) % 1_000_000,
            })
            .collect(),
        // Roughly half the sweep has a populated per-class section, the
        // rest the empty shape (the section is then absent on the wire).
        classes: if lcg(rng).is_multiple_of(2) {
            Priority::ALL
                .iter()
                .map(|&priority| ClassStats {
                    priority,
                    latency: random_histogram(rng),
                    shed_deadline: lcg(rng) % 1_000,
                    shed_queue: lcg(rng) % 1_000,
                })
                .collect()
        } else {
            Vec::new()
        },
    }
}

fn shared(result: Result<EvalReport, EvalError>) -> SharedResult {
    Arc::new(result)
}

fn random_request(rng: &mut u64) -> ShardRequest {
    match lcg(rng) % 6 {
        0 => ShardRequest::Hello {
            protocol: lcg(rng) % 8,
        },
        5 => ShardRequest::Cancel {
            target: lcg(rng) % 1_000_000,
        },
        1 => ShardRequest::Supports {
            backend: label(rng),
            spec: random_spec(rng),
        },
        2 => ShardRequest::Evaluate {
            backend: label(rng),
            spec: random_spec(rng),
        },
        3 => ShardRequest::EvaluateBatch {
            backend: label(rng),
            specs: (0..lcg(rng) % 8).map(|_| random_spec(rng)).collect(),
        },
        _ => ShardRequest::Stats,
    }
}

fn random_response(rng: &mut u64) -> ShardResponse {
    match lcg(rng) % 6 {
        0 => ShardResponse::Backends {
            names: (0..lcg(rng) % 5).map(|_| label(rng)).collect(),
            protocol: lcg(rng) % 8,
            ring: if lcg(rng).is_multiple_of(2) {
                None
            } else {
                Some(format!("/dev/shm/rsn-ring-{}.ring", lcg(rng) % 100_000))
            },
            window: if lcg(rng).is_multiple_of(2) {
                None
            } else {
                Some(lcg(rng) % 128 + 1)
            },
        },
        1 => ShardResponse::Supported(lcg(rng).is_multiple_of(2)),
        2 => ShardResponse::Evaluated(shared(random_result(rng))),
        3 => ShardResponse::EvaluatedBatch(
            (0..lcg(rng) % 6)
                .map(|_| shared(random_result(rng)))
                .collect(),
        ),
        4 => ShardResponse::Stats(random_stats(rng)),
        _ => ShardResponse::Rejected(label(rng)),
    }
}

const SEED: u64 = 0xB1_AB1E_5EED;
const SWEEP: u64 = 400;

/// The JSON text of one domain result (report or structured error).
fn result_text(result: &Result<EvalReport, EvalError>) -> String {
    match result {
        Ok(report) => json::report_json(report).to_pretty(),
        Err(error) => json::error_json(error).to_pretty(),
    }
}

/// The JSON text of the documents a request carries (its specs).
fn request_docs_text(request: &ShardRequest) -> String {
    match request {
        ShardRequest::Supports { spec, .. } | ShardRequest::Evaluate { spec, .. } => {
            json::workload_spec_json(spec).to_pretty()
        }
        ShardRequest::EvaluateBatch { specs, .. } => specs
            .iter()
            .map(|spec| json::workload_spec_json(spec).to_pretty())
            .collect(),
        _ => String::new(),
    }
}

/// The JSON text of the documents a response carries (results, stats).
fn response_docs_text(response: &ShardResponse) -> String {
    match response {
        ShardResponse::Evaluated(result) => result_text(result),
        ShardResponse::EvaluatedBatch(results) => {
            results.iter().map(|result| result_text(result)).collect()
        }
        ShardResponse::Stats(stats) => json::stats_json(stats).to_pretty(),
        _ => String::new(),
    }
}

#[test]
fn specs_round_trip_identically_and_match_json() {
    let mut rng = SEED;
    let mut scratch = Vec::new();
    for i in 0..SWEEP {
        let spec = random_spec(&mut rng);
        scratch.clear();
        binary::encode_spec(&mut scratch, &spec);
        let decoded =
            binary::decode_spec(&scratch).unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i}: {e}"));
        assert_eq!(decoded, spec, "seed {SEED:#x} doc {i}");
        assert_eq!(
            json::workload_spec_json(&decoded).to_pretty(),
            json::workload_spec_json(&spec).to_pretty(),
            "seed {SEED:#x} doc {i}"
        );
    }
}

#[test]
fn reports_round_trip_identically_and_match_json() {
    let mut rng = SEED ^ 1;
    let mut scratch = Vec::new();
    for i in 0..SWEEP {
        let report = random_report(&mut rng);
        scratch.clear();
        binary::encode_report(&mut scratch, &report);
        let decoded = binary::decode_report(&scratch)
            .unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i}: {e}"));
        assert_eq!(decoded, report, "seed {SEED:#x} doc {i}");
        assert_eq!(
            json::report_json(&decoded).to_pretty(),
            json::report_json(&report).to_pretty(),
            "seed {SEED:#x} doc {i}"
        );
    }
}

#[test]
fn errors_and_results_round_trip_identically_and_match_json() {
    let mut rng = SEED ^ 2;
    let mut scratch = Vec::new();
    for i in 0..SWEEP {
        let error = random_error(&mut rng);
        scratch.clear();
        binary::encode_error(&mut scratch, &error);
        let decoded = binary::decode_error(&scratch)
            .unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i}: {e}"));
        assert_eq!(decoded, error, "seed {SEED:#x} doc {i}");
        assert_eq!(
            json::error_json(&decoded).to_pretty(),
            json::error_json(&error).to_pretty(),
            "seed {SEED:#x} doc {i}"
        );

        let result = random_result(&mut rng);
        scratch.clear();
        binary::encode_result(&mut scratch, &result);
        let decoded = binary::decode_result(&scratch).expect("result decodes");
        assert_eq!(decoded, result, "seed {SEED:#x} doc {i}");
        assert_eq!(
            result_text(&decoded),
            result_text(&result),
            "seed {SEED:#x} doc {i}"
        );
    }
}

#[test]
fn stats_round_trip_identically_and_match_json() {
    let mut rng = SEED ^ 3;
    let mut scratch = Vec::new();
    for i in 0..SWEEP / 4 {
        let stats = random_stats(&mut rng);
        scratch.clear();
        binary::encode_stats(&mut scratch, &stats);
        let decoded = binary::decode_stats(&scratch)
            .unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i}: {e}"));
        assert_eq!(decoded, stats, "seed {SEED:#x} doc {i}");
        assert_eq!(
            json::stats_json(&decoded).to_pretty(),
            json::stats_json(&stats).to_pretty(),
            "seed {SEED:#x} doc {i}"
        );
    }
}

#[test]
fn whole_messages_round_trip_identically_and_match_json() {
    let mut rng = SEED ^ 4;
    let mut scratch = Vec::new();
    for i in 0..SWEEP {
        let id = lcg(&mut rng) % 1_000_000;
        let request = random_request(&mut rng);
        scratch.clear();
        binary::encode_request(&mut scratch, id, &request);
        let (bin_id, bin_request) = binary::decode_request(&scratch).expect("request decodes");
        assert_eq!(
            (bin_id, &bin_request),
            (id, &request),
            "seed {SEED:#x} doc {i}"
        );
        assert_eq!(
            request_docs_text(&bin_request),
            request_docs_text(&request),
            "seed {SEED:#x} doc {i}"
        );

        let response = random_response(&mut rng);
        scratch.clear();
        binary::encode_response(&mut scratch, id, &response);
        let (bin_id, bin_response) = binary::decode_response(&scratch).expect("response decodes");
        assert_eq!(
            (bin_id, &bin_response),
            (id, &response),
            "seed {SEED:#x} doc {i}"
        );
        assert_eq!(
            response_docs_text(&bin_response),
            response_docs_text(&response),
            "seed {SEED:#x} doc {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// Shared-memory ring transport: wraparound fidelity and hostile-input fuzz
// ---------------------------------------------------------------------------

use rsn_serve::shm::{Direction, RingConn, Segment};
use rsn_serve::wire::{
    decode_request_payload, write_request_frame, FrameBuffer, WireEncoding, WireError,
};
use std::io::Read as _;
use std::time::{Duration, Instant};

fn ring_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rsn-ring-fuzz-{}-{name}.ring", std::process::id()))
}

#[test]
fn ring_frames_survive_wraparound_byte_identically() {
    let path = ring_path("wrap");
    let _ = std::fs::remove_file(&path);
    let segment = Segment::create(&path, 4096).expect("create segment");
    let mut producer = segment.producer(Direction::ClientToServer);
    let consumer_segment = Segment::open(&path).expect("peer mapping");
    let mut consumer = consumer_segment.consumer(Direction::ClientToServer);

    let mut rng = SEED ^ 7;
    let mut scratch = Vec::new();
    let mut wire = Vec::new();
    let mut requests = Vec::new();
    for _ in 0..64 {
        let id = lcg(&mut rng) % 1_000_000;
        let request = random_request(&mut rng);
        write_request_frame(&mut wire, id, &request, &mut scratch).expect("encode");
        requests.push((id, request));
    }
    // Push the burst through the tiny ring in ragged chunks, draining only
    // when the producer stalls: every frame crosses the wraparound boundary
    // many times over.
    let mut acc = Vec::new();
    let mut buf = [0u8; 1024];
    let mut offset = 0;
    while offset < wire.len() {
        let end = (offset + (lcg(&mut rng) % 900 + 1) as usize).min(wire.len());
        while offset < end {
            let n = producer.write_some(&wire[offset..end]).expect("ring write");
            offset += n;
            if n == 0 {
                let got = consumer.read_some(&mut buf).expect("ring read");
                acc.extend_from_slice(&buf[..got]);
            }
        }
    }
    loop {
        let got = consumer.read_some(&mut buf).expect("ring read");
        if got == 0 {
            break;
        }
        acc.extend_from_slice(&buf[..got]);
    }
    assert_eq!(acc, wire, "bytes through the ring are identical");

    let mut frames = FrameBuffer::new();
    let mut src: &[u8] = &acc;
    while frames.fill(&mut src).expect("fill") > 0 {}
    let mut decoded = Vec::new();
    while frames.take_frame(&mut scratch).expect("frame") {
        let (id, request, encoding) = decode_request_payload(&scratch).expect("decode");
        assert_eq!(encoding, WireEncoding::Binary);
        decoded.push((id, request));
    }
    assert_eq!(decoded, requests, "every frame decodes back identically");
}

#[test]
fn torn_length_prefixes_and_hostile_lengths_never_hang_or_panic() {
    let mut scratch = Vec::new();
    let mut wire = Vec::new();
    write_request_frame(
        &mut wire,
        7,
        &ShardRequest::Hello { protocol: 5 },
        &mut scratch,
    )
    .expect("encode");
    // A frame torn at every possible byte boundary — mid-prefix or
    // mid-payload — yields no frame until the missing tail arrives.
    for split in 1..wire.len() {
        let mut frames = FrameBuffer::new();
        let mut head: &[u8] = &wire[..split];
        frames.fill(&mut head).expect("fill head");
        assert!(
            !frames
                .take_frame(&mut scratch)
                .expect("no error on torn frame"),
            "split {split}: torn frame must stay incomplete"
        );
        let mut tail: &[u8] = &wire[split..];
        frames.fill(&mut tail).expect("fill tail");
        assert!(frames.take_frame(&mut scratch).expect("frame completes"));
        let (id, request, _) = decode_request_payload(&scratch).expect("decodes");
        assert_eq!((id, request), (7, ShardRequest::Hello { protocol: 5 }));
    }
    // An absurd length prefix is rejected outright — no allocation sized
    // by the attacker, no waiting for 4 GiB that never comes.
    let mut frames = FrameBuffer::new();
    let mut src: &[u8] = &u32::MAX.to_be_bytes();
    frames.fill(&mut src).expect("fill");
    assert!(matches!(
        frames.take_frame(&mut scratch),
        Err(WireError::FrameTooLarge(_))
    ));
}

#[test]
fn garbage_payloads_decode_to_errors_never_panics() {
    let mut rng = SEED ^ 8;
    for _ in 0..SWEEP {
        let len = (lcg(&mut rng) % 64) as usize;
        let mut payload: Vec<u8> = (0..len).map(|_| (lcg(&mut rng) & 0xFF) as u8).collect();
        // Whatever the leading byte is (binary magic or not), hostile
        // bytes must decode to an error, never a panic.
        let _ = decode_request_payload(&payload);
        if !payload.is_empty() {
            payload[0] = binary::MAGIC;
            let _ = decode_request_payload(&payload);
        }
    }
}

#[test]
fn dead_or_silent_ring_peers_fail_promptly_instead_of_hanging() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = std::net::TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let path = ring_path("dead");
    let _ = std::fs::remove_file(&path);
    let segment = Segment::create(&path, 4096).expect("create segment");
    let mut conn = RingConn::new(client, &segment, Duration::from_millis(300)).expect("ring conn");
    let mut buf = [0u8; 8];
    // Silent but alive peer: the read budget bounds the wait.
    let started = Instant::now();
    let err = conn.read(&mut buf).expect_err("nothing was sent");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(started.elapsed() < Duration::from_secs(10));
    // Dead peer: the liveness socket reports the EOF and the read aborts
    // without waiting out the whole budget pointlessly.
    drop(server);
    let started = Instant::now();
    let err = conn.read(&mut buf).expect_err("peer is gone");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn non_finite_floats_survive_binary_exactly() {
    // JSON flattens non-finite floats to null; the binary codec must not.
    let mut report = EvalReport::new("b", "w");
    report.latency_s = Some(f64::INFINITY);
    report.metrics.insert("nan", f64::NAN);
    let mut scratch = Vec::new();
    binary::encode_report(&mut scratch, &report);
    let decoded = binary::decode_report(&scratch).expect("decodes");
    assert_eq!(decoded.latency_s, Some(f64::INFINITY));
    assert!(decoded.metrics["nan"].is_nan());
}

/// LEB128, matching the codec's internal `put_varint` (the writer is
/// private; strings on the wire are varint-length-prefixed UTF-8).
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

#[test]
fn borrowed_string_reads_match_owned_over_a_seeded_sweep() {
    let mut rng = SEED ^ 6;
    for i in 0..SWEEP {
        let labels: Vec<String> = (0..lcg(&mut rng) % 16 + 1)
            .map(|_| label(&mut rng))
            .collect();
        let mut buf = Vec::new();
        for l in &labels {
            put_varint(&mut buf, l.len() as u64);
            buf.extend_from_slice(l.as_bytes());
        }
        let mut borrowed = binary::Reader::new(&buf);
        let mut owned = binary::Reader::new(&buf);
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        for (j, l) in labels.iter().enumerate() {
            let b = borrowed
                .str_ref()
                .unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i} str {j}: {e}"));
            let o = owned
                .str()
                .unwrap_or_else(|e| panic!("seed {SEED:#x} doc {i} str {j}: {e}"));
            assert_eq!(b, l.as_str(), "seed {SEED:#x} doc {i} str {j}");
            assert_eq!(o, *l, "seed {SEED:#x} doc {i} str {j}");
            // The borrowed read is genuinely zero-copy: the returned slice
            // points into the frame buffer itself.
            assert!(
                l.is_empty() || range.contains(&(b.as_ptr() as usize)),
                "seed {SEED:#x} doc {i} str {j}: borrowed slice escaped the frame"
            );
        }
        borrowed.finish().expect("borrowed reader consumed all");
        owned.finish().expect("owned reader consumed all");
    }
}

#[test]
fn interner_deduplicates_repeated_names_into_shared_arcs() {
    let mut interner = binary::Interner::new();
    let a = interner.intern("rsn-xnn");
    let b = interner.intern("rsn-xnn");
    assert!(Arc::ptr_eq(&a, &b), "repeat interning must share storage");
    let c = interner.intern("charm");
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(&*c, "charm");
}

#[test]
fn binary_images_are_deterministic_and_compact() {
    let mut rng = SEED ^ 5;
    for _ in 0..32 {
        let report = random_report(&mut rng);
        let json_len = json::report_json(&report).to_pretty().len();
        let response = ShardResponse::Evaluated(shared(Ok(report)));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        binary::encode_response(&mut a, 3, &response);
        binary::encode_response(&mut b, 3, &response);
        assert_eq!(a, b, "same document, same bytes");
        assert!(
            a.len() < json_len,
            "binary ({}) must undercut JSON ({})",
            a.len(),
            json_len
        );
    }
}

// ---------------------------------------------------------------------------
// Protocol-7 symbol dictionaries: round-trip, compaction, hostile inputs
// ---------------------------------------------------------------------------

use rsn_serve::binary::{ConnCodec, RxSymbols};

#[test]
fn dict_messages_round_trip_identically() {
    let mut rng = SEED ^ 9;
    let mut client = ConnCodec::new();
    let mut server = ConnCodec::new();
    let mut payload = Vec::new();
    for i in 0..SWEEP {
        let id = lcg(&mut rng) % 1_000_000;
        let request = random_request(&mut rng);
        payload.clear();
        binary::encode_request_dict(&mut payload, id, &request, &mut client.tx);
        let decoded = if payload.first() == Some(&binary::DICT_MAGIC) {
            binary::decode_request_dict(&payload, &mut server.rx).expect("dict request decodes")
        } else {
            // Label-free requests keep their plain image byte for byte.
            let mut plain = Vec::new();
            binary::encode_request(&mut plain, id, &request);
            assert_eq!(payload, plain, "seed {SEED:#x} doc {i}");
            binary::decode_request(&payload).expect("plain request decodes")
        };
        assert_eq!(decoded, (id, request), "seed {SEED:#x} doc {i}");

        let response = random_response(&mut rng);
        payload.clear();
        binary::encode_response_dict(&mut payload, id, &response, &mut server.tx);
        let (got_id, got) = if payload.first() == Some(&binary::DICT_MAGIC) {
            binary::decode_response_dict(&payload, &mut client.rx).expect("dict response decodes")
        } else {
            let mut plain = Vec::new();
            binary::encode_response(&mut plain, id, &response);
            assert_eq!(payload, plain, "seed {SEED:#x} doc {i}");
            binary::decode_response(&payload).expect("plain response decodes")
        };
        assert_eq!((got_id, got), (id, response), "seed {SEED:#x} doc {i}");
    }
}

#[test]
fn dict_reports_shrink_on_reuse_and_count_defines_and_hits() {
    let mut rng = SEED ^ 10;
    let report = random_report(&mut rng);
    let response = ShardResponse::Evaluated(shared(Ok(report)));
    let mut codec = ConnCodec::new();
    let mut rx = RxSymbols::new();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    binary::encode_response_dict(&mut first, 1, &response, &mut codec.tx);
    binary::encode_response_dict(&mut second, 1, &response, &mut codec.tx);
    assert!(
        second.len() < first.len(),
        "repeat frame ({}) must undercut the defining frame ({})",
        second.len(),
        first.len()
    );
    // And undercut the plain binary image too — that is the whole point.
    let mut plain = Vec::new();
    binary::encode_response(&mut plain, 1, &response);
    assert!(
        second.len() < plain.len(),
        "repeat dict frame ({}) must undercut plain binary ({})",
        second.len(),
        plain.len()
    );
    assert_eq!(
        binary::decode_response_dict(&first, &mut rx).expect("first decodes"),
        binary::decode_response_dict(&second, &mut rx).expect("second decodes"),
    );
    let (tx_defines, tx_hits) = codec.tx.take_counts();
    let (rx_defines, rx_hits) = rx.take_counts();
    assert_eq!((tx_defines, tx_hits), (rx_defines, rx_hits));
    // The report names a backend and a workload at minimum: at least two
    // defines in the first frame, each re-referenced by the second.
    assert!(tx_defines >= 2, "defines: {tx_defines}");
    assert!(
        tx_hits >= tx_defines,
        "hits {tx_hits} vs defines {tx_defines}"
    );
}

/// Hand-builds the head of a dict `supports` frame: magic, tag, id.
fn dict_supports_head(id: u64) -> Vec<u8> {
    let mut out = vec![binary::DICT_MAGIC, 0x02];
    put_varint(&mut out, id);
    out
}

#[test]
fn dict_reference_outside_the_table_is_an_error() {
    let mut payload = dict_supports_head(7);
    put_varint(&mut payload, 2 + 5); // reference id 5 against an empty table
    let mut rx = RxSymbols::new();
    let err = binary::decode_request_dict(&payload, &mut rx).expect_err("out-of-range reference");
    assert!(err.to_string().contains("dictionary reference"), "{err}");
}

#[test]
fn dict_duplicate_define_is_an_error_and_never_reinterns() {
    let spec = WorkloadSpec::SquareGemm { n: 64 };
    let request = ShardRequest::Supports {
        backend: "shard".to_string(),
        spec: spec.clone(),
    };
    let mut codec = ConnCodec::new();
    let mut rx = RxSymbols::new();
    let mut first = Vec::new();
    binary::encode_request_dict(&mut first, 1, &request, &mut codec.tx);
    binary::decode_request_dict(&first, &mut rx).expect("defining frame decodes");

    // A second define for id 0 (or any id not equal to the table length)
    // must be rejected, not silently rebind the slot.
    for bogus_id in [0u64, 2, 4096] {
        let mut dup = dict_supports_head(2);
        put_varint(&mut dup, 1); // DSTR_DEFINE
        put_varint(&mut dup, bogus_id);
        put_varint(&mut dup, 6);
        dup.extend_from_slice(b"poison");
        let err =
            binary::decode_request_dict(&dup, &mut rx).expect_err("duplicate/out-of-order define");
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    // The original binding survives: a reference frame still resolves to
    // the first definition.
    let mut reference = Vec::new();
    binary::encode_request_dict(&mut reference, 3, &request, &mut codec.tx);
    assert!(
        reference.windows(5).all(|w| w != b"shard"),
        "second frame must reference, not define"
    );
    let (_, decoded) = binary::decode_request_dict(&reference, &mut rx).expect("reference decodes");
    assert_eq!(
        decoded,
        ShardRequest::Supports {
            backend: "shard".to_string(),
            spec,
        }
    );
}

#[test]
fn dict_define_past_the_table_bound_is_an_error() {
    let mut codec = ConnCodec::new();
    let mut rx = RxSymbols::new();
    let mut payload = Vec::new();
    // Fill the table to the bound through the real encoder.
    for i in 0..binary::DICT_CAP {
        let request = ShardRequest::Supports {
            backend: format!("backend-{i:04}"),
            spec: WorkloadSpec::SquareGemm { n: 1 },
        };
        payload.clear();
        binary::encode_request_dict(&mut payload, i as u64, &request, &mut codec.tx);
        binary::decode_request_dict(&payload, &mut rx).expect("in-bound define decodes");
    }
    // The encoder itself now falls back to inline strings (no table slot).
    let overflow = ShardRequest::Supports {
        backend: "one-too-many".to_string(),
        spec: WorkloadSpec::SquareGemm { n: 1 },
    };
    payload.clear();
    binary::encode_request_dict(&mut payload, 9_999, &overflow, &mut codec.tx);
    binary::decode_request_dict(&payload, &mut rx).expect("inline fallback decodes");
    // A peer that defines past the bound anyway is rejected.
    let mut hostile = dict_supports_head(10_000);
    put_varint(&mut hostile, 1); // DSTR_DEFINE
    put_varint(&mut hostile, binary::DICT_CAP as u64);
    put_varint(&mut hostile, 4);
    hostile.extend_from_slice(b"evil");
    let err = binary::decode_request_dict(&hostile, &mut rx).expect_err("define past the bound");
    assert!(err.to_string().contains("table bound"), "{err}");
}

#[test]
fn truncated_and_garbage_dict_payloads_error_never_panic() {
    let mut codec = ConnCodec::new();
    let request = ShardRequest::Evaluate {
        backend: "shard".to_string(),
        spec: WorkloadSpec::SquareGemm { n: 64 },
    };
    let mut whole = Vec::new();
    binary::encode_request_dict(&mut whole, 42, &request, &mut codec.tx);
    // Every strict prefix — including ones torn mid-define — must decode
    // to an error against a fresh table, never panic or hang.
    for split in 0..whole.len() {
        let mut rx = RxSymbols::new();
        assert!(
            binary::decode_request_dict(&whole[..split], &mut rx).is_err(),
            "prefix of {split} bytes must not decode"
        );
    }
    // Random garbage behind the dict magic errors too (both directions).
    let mut rng = SEED ^ 11;
    for _ in 0..SWEEP {
        let len = (lcg(&mut rng) % 64) as usize;
        let mut payload: Vec<u8> = (0..len).map(|_| (lcg(&mut rng) & 0xFF) as u8).collect();
        if payload.is_empty() {
            continue;
        }
        payload[0] = binary::DICT_MAGIC;
        let mut rx = RxSymbols::new();
        let _ = binary::decode_request_dict(&payload, &mut rx);
        let mut rx = RxSymbols::new();
        let _ = binary::decode_response_dict(&payload, &mut rx);
    }
}
