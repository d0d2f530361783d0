//! Spans recorded from outside the program.
//!
//! [`Timed`] wraps a [`Backend`] and records one [`Span`] per call into
//! it, keyed by the specs the call carried.  Wrapping the client's
//! backends gives `client.backend` spans, wrapping each shard's local
//! backends gives `shard.backend` spans; the load generator records the
//! enclosing `request` spans itself.  Spans nest
//! `request ⊃ client.backend ⊃ shard.backend`, and a span's self time is
//! its duration minus the part of it its children cover.  Where several
//! children run in parallel, each instant counts once, for the innermost
//! span active at it.

use crate::measure::one_line;
use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use rsn_serve::json::JsonValue;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type SharedResult = Arc<Result<EvalReport, EvalError>>;

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A call into one of the client service's backends.
    Client,
    /// A call into one of a shard server's local backends.
    Shard,
}

/// One timed backend call.
#[derive(Debug)]
pub struct Span {
    pub layer: Layer,
    pub backend: Arc<str>,
    pub start: Instant,
    pub end: Instant,
    pub specs: Vec<WorkloadSpec>,
    /// Summed `makespan_cycles` of the cycle-engine reports it returned.
    pub cycles: u64,
    /// Summed `fu_step_calls` of the cycle-engine reports it returned.
    pub fu_steps: u64,
    /// Request frames the call sends when the backend is remote: one per
    /// chunk of a chunked call, one for any other call.
    pub frames: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Spans of one traced round, kept in memory until the round ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }
}

/// A timing decorator that forwards all six trait methods, so a traced
/// service runs the same code path as an untraced one.
pub struct Timed {
    inner: Box<dyn Backend>,
    name: Arc<str>,
    layer: Layer,
    log: Arc<SpanLog>,
}

impl Timed {
    pub fn wrap(inner: Box<dyn Backend>, layer: Layer, log: &Arc<SpanLog>) -> Box<dyn Backend> {
        let name = Arc::from(inner.name());
        Box::new(Self {
            inner,
            name,
            layer,
            log: Arc::clone(log),
        })
    }

    fn record<'a>(
        &self,
        start: Instant,
        frames: usize,
        specs: impl Iterator<Item = &'a WorkloadSpec>,
        results: impl Iterator<Item = &'a Result<EvalReport, EvalError>>,
    ) {
        let end = Instant::now();
        let (mut cycles, mut fu_steps) = (0, 0);
        for stats in results.filter_map(|r| r.as_ref().ok().and_then(|r| r.cycle.as_ref())) {
            cycles += stats.makespan_cycles;
            fu_steps += stats.fu_step_calls;
        }
        let span = Span {
            layer: self.layer,
            backend: Arc::clone(&self.name),
            start,
            end,
            specs: specs.cloned().collect(),
            cycles,
            fu_steps,
            frames: frames as u64,
        };
        self.log.spans.lock().expect("span log lock").push(span);
    }
}

impl Backend for Timed {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        self.inner.supports(workload)
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let start = Instant::now();
        let result = self.inner.evaluate(workload);
        self.record(
            start,
            1,
            std::iter::once(workload),
            std::iter::once(&result),
        );
        result
    }

    fn evaluate_many(&self, workloads: &[WorkloadSpec]) -> Vec<Result<EvalReport, EvalError>> {
        let start = Instant::now();
        let results = self.inner.evaluate_many(workloads);
        self.record(start, 1, workloads.iter(), results.iter());
        results
    }

    fn coalesces_chunks(&self) -> bool {
        self.inner.coalesces_chunks()
    }

    fn evaluate_chunks(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        let start = Instant::now();
        let results = self.inner.evaluate_chunks(chunks);
        self.record(
            start,
            chunks.len(),
            chunks.iter().flatten(),
            results.iter().flatten(),
        );
        results
    }

    fn evaluate_chunks_shared(&self, chunks: &[Vec<WorkloadSpec>]) -> Vec<Vec<SharedResult>> {
        let start = Instant::now();
        let results = self.inner.evaluate_chunks_shared(chunks);
        self.record(
            start,
            chunks.len(),
            chunks.iter().flatten(),
            results.iter().flatten().map(|r| &**r),
        );
        results
    }
}

/// A request as the load generator saw it: from its start (submit, or the
/// due instant in an open loop) to its response.
#[derive(Debug, Clone)]
pub struct RequestSpan {
    pub start: Instant,
    pub end: Instant,
    pub specs: Vec<WorkloadSpec>,
}

/// How the wall time inside request spans divides among the layers.
/// Each instant of a request goes to the innermost span active at it, so
/// the three parts sum to the request time even when spans overlap.
#[derive(Debug, Default, Clone, Copy)]
pub struct Breakdown {
    /// Summed request-span time.
    pub request: Duration,
    /// Request time inside no backend span: the client service's batcher,
    /// cache, hand-off and publish (plus, where the client's backend is not
    /// wrapped, everything between the client and the shard backends).
    pub service_self: Duration,
    /// Time inside a `client.backend` span but no `shard.backend` span:
    /// pool, codec, transport, shard front end and shard service.
    pub wire_self: Duration,
    /// Time inside an evaluating backend span.
    pub eval: Duration,
}

/// Length of the union of `children`, clipped to `parent`.
fn covered(parent: (Instant, Instant), mut children: Vec<(Instant, Instant)>) -> Duration {
    children.sort();
    let mut total = Duration::ZERO;
    let mut reach = parent.0;
    for (start, end) in children {
        let start = start.max(reach);
        let end = end.min(parent.1);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Spans of `layer` indexed by the specs they carried.
fn by_spec(spans: &[Span], layer: Layer) -> HashMap<&WorkloadSpec, Vec<usize>> {
    let mut index: HashMap<&WorkloadSpec, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate().filter(|(_, s)| s.layer == layer) {
        for spec in &span.specs {
            index.entry(spec).or_default().push(i);
        }
    }
    index
}

/// Spans of `index` that carried one of `specs` and started inside
/// `window` — a spec may repeat across a stream, so the time test picks
/// the occurrence that belongs to this parent.
fn children_of(
    index: &HashMap<&WorkloadSpec, Vec<usize>>,
    spans: &[Span],
    specs: &[WorkloadSpec],
    window: (Instant, Instant),
) -> Vec<usize> {
    let mut found: Vec<usize> = specs
        .iter()
        .filter_map(|spec| index.get(spec))
        .flatten()
        .copied()
        .filter(|&i| spans[i].start >= window.0 && spans[i].start <= window.1)
        .collect();
    found.sort_unstable();
    found.dedup();
    found
}

/// Attributes request time to the service, the wire path and the
/// evaluating backends.  `inner` is the layer whose spans evaluate: the
/// shard backends behind a wire, or the client's own local backends.
pub fn attribute(requests: &[RequestSpan], spans: &[Span], inner: Layer) -> Breakdown {
    let evals = by_spec(spans, inner);
    let wire = match inner {
        Layer::Shard => by_spec(spans, Layer::Client),
        Layer::Client => HashMap::new(),
    };
    let mut out = Breakdown::default();
    for request in requests {
        let window = (request.start, request.end);
        let eval_ids = children_of(&evals, spans, &request.specs, window);
        let mut all_ids = children_of(&wire, spans, &request.specs, window);
        all_ids.extend_from_slice(&eval_ids);
        let intervals = |ids: &[usize]| -> Vec<(Instant, Instant)> {
            ids.iter()
                .map(|&i| (spans[i].start, spans[i].end))
                .collect()
        };
        let eval = covered(window, intervals(&eval_ids));
        let any = covered(window, intervals(&all_ids));
        out.request += request.end - request.start;
        out.service_self += (request.end - request.start) - any;
        out.wire_self += any - eval;
        out.eval += eval;
    }
    out
}

/// Writes request and backend spans as JSON lines, times in µs from the
/// first request's start; a failed write is reported, not fatal.
pub fn write_spans(path: &Path, requests: &[RequestSpan], spans: &[Span]) {
    let Some(origin) = requests.iter().map(|r| r.start).min() else {
        return;
    };
    let line =
        |layer: &str, backend: &str, start: Instant, end: Instant, specs: &[WorkloadSpec]| {
            let at = |t: Instant| {
                JsonValue::Num(t.saturating_duration_since(origin).as_secs_f64() * 1e6)
            };
            let doc = JsonValue::obj([
                ("layer", JsonValue::Str(layer.to_string())),
                ("backend", JsonValue::Str(backend.to_string())),
                ("start_us", at(start)),
                ("end_us", at(end)),
                (
                    "specs",
                    JsonValue::Arr(
                        specs
                            .iter()
                            .map(|s| JsonValue::Str(format!("{s:?}")))
                            .collect(),
                    ),
                ),
            ]);
            one_line(&doc) + "\n"
        };
    let mut out: String = requests
        .iter()
        .map(|r| line("request", "", r.start, r.end, &r.specs))
        .collect();
    for s in spans {
        let layer = match s.layer {
            Layer::Client => "client.backend",
            Layer::Shard => "shard.backend",
        };
        out += &line(layer, &s.backend, s.start, s.end, &s.specs);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

/// Per-backend totals of the innermost spans: `(time, specs, cycles,
/// fu_steps)` by backend name.
pub fn eval_totals(spans: &[Span], layer: Layer) -> HashMap<Arc<str>, (Duration, u64, u64, u64)> {
    let mut totals: HashMap<Arc<str>, (Duration, u64, u64, u64)> = HashMap::new();
    for span in spans.iter().filter(|s| s.layer == layer) {
        let entry = totals.entry(Arc::clone(&span.backend)).or_default();
        entry.0 += span.duration();
        entry.1 += span.specs.len() as u64;
        entry.2 += span.cycles;
        entry.3 += span.fu_steps;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_parent() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let parent = (at(10), at(100));
        let children = vec![
            (at(0), at(20)),
            (at(15), at(30)),
            (at(50), at(60)),
            (at(90), at(200)),
        ];
        // [10,30) + [50,60) + [90,100)
        assert_eq!(covered(parent, children), Duration::from_micros(40));
        assert_eq!(covered(parent, Vec::new()), Duration::ZERO);
    }
}
