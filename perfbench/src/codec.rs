//! Codec replay: the responses `sweep_remote` received, re-encoded and
//! decoded through the public `serve::binary` functions, with and without
//! per-connection symbol dictionaries.

use crate::measure::{median, ratio, Metric};
use rsn_eval::{EvalError, EvalReport};
use rsn_serve::binary::{
    decode_response, decode_response_dict, encode_response, encode_response_dict, RxSymbols,
    TxSymbols,
};
use rsn_serve::wire::ShardResponse;
use std::sync::Arc;
use std::time::Instant;

/// Timed passes over the captured frames; the figures are their medians.
const PASSES: usize = 9;

/// Per-report cost of the two response framings.
#[derive(Debug, Default, Clone)]
pub struct CodecReplay {
    pub dict_encode_ns: f64,
    pub dict_decode_ns: f64,
    pub dict_bytes: f64,
    pub plain_encode_ns: f64,
    pub plain_decode_ns: f64,
    pub plain_bytes: f64,
    /// Frames whose decode did not give back what was encoded.
    pub mismatches: u64,
}

impl CodecReplay {
    /// Replays `results` as `evaluated_batch` frames of `frame` results
    /// each, every pass on a fresh connection's dictionary.
    pub fn run(results: &[Arc<Result<EvalReport, EvalError>>], frame: usize) -> Self {
        let frames: Vec<ShardResponse> = results
            .chunks(frame.max(1))
            .map(|chunk| ShardResponse::EvaluatedBatch(chunk.to_vec()))
            .collect();
        let reports = results.len() as f64;
        let mut out = CodecReplay::default();
        let (mut de, mut dd, mut pe, mut pd) = (vec![], vec![], vec![], vec![]);
        for pass in 0..PASSES {
            let mut tx = TxSymbols::new();
            let t0 = Instant::now();
            let dict: Vec<Vec<u8>> = frames
                .iter()
                .enumerate()
                .map(|(id, f)| {
                    let mut buf = Vec::new();
                    encode_response_dict(&mut buf, id as u64, f, &mut tx);
                    buf
                })
                .collect();
            de.push(t0.elapsed().as_secs_f64() * 1e9 / reports);
            let mut rx = RxSymbols::new();
            let t0 = Instant::now();
            let decoded: Vec<_> = dict
                .iter()
                .map(|b| decode_response_dict(b, &mut rx))
                .collect();
            dd.push(t0.elapsed().as_secs_f64() * 1e9 / reports);

            let t0 = Instant::now();
            let plain: Vec<Vec<u8>> = frames
                .iter()
                .enumerate()
                .map(|(id, f)| {
                    let mut buf = Vec::new();
                    encode_response(&mut buf, id as u64, f);
                    buf
                })
                .collect();
            pe.push(t0.elapsed().as_secs_f64() * 1e9 / reports);
            let t0 = Instant::now();
            let decoded_plain: Vec<_> = plain.iter().map(|b| decode_response(b)).collect();
            pd.push(t0.elapsed().as_secs_f64() * 1e9 / reports);

            if pass == 0 {
                out.dict_bytes = ratio(dict.iter().map(Vec::len).sum::<usize>() as f64, reports);
                out.plain_bytes = ratio(plain.iter().map(Vec::len).sum::<usize>() as f64, reports);
                for (i, frame) in frames.iter().enumerate() {
                    for got in [&decoded[i], &decoded_plain[i]] {
                        if !matches!(got, Ok((id, r)) if *id == i as u64 && r == frame) {
                            out.mismatches += 1;
                        }
                    }
                }
            }
        }
        out.dict_encode_ns = median(&de);
        out.dict_decode_ns = median(&dd);
        out.plain_encode_ns = median(&pe);
        out.plain_decode_ns = median(&pd);
        out
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new(
                "serve.binary.dict.encode_ns_per_report",
                self.dict_encode_ns,
                "ns",
            ),
            Metric::new(
                "serve.binary.dict.decode_ns_per_report",
                self.dict_decode_ns,
                "ns",
            ),
            Metric::new("serve.binary.dict.bytes_per_report", self.dict_bytes, "B"),
            Metric::new(
                "serve.binary.plain.encode_ns_per_report",
                self.plain_encode_ns,
                "ns",
            ),
            Metric::new(
                "serve.binary.plain.decode_ns_per_report",
                self.plain_decode_ns,
                "ns",
            ),
            Metric::new("serve.binary.plain.bytes_per_report", self.plain_bytes, "B"),
        ]
    }
}
