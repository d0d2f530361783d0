//! Output checks: every report the service returns is compared, by its
//! `serve::json` emission, with a direct in-process `Backend::evaluate` of
//! the same spec, and cycle-engine reports must meet the reference-math
//! tolerance the cycle tests use.

use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use rsn_serve::json::{report_json, JsonValue};
use std::collections::hash_map::{Entry, HashMap};

/// Largest `max_abs_error` a cycle-engine report may carry — the bound
/// the repository's cycle backend tests assert.
pub const CYCLE_TOLERANCE: f64 = 1e-2;

/// Direct evaluations of the specs seen, by backend, and the tallies.
pub struct Checker {
    backends: Vec<Box<dyn Backend>>,
    /// Emissions of direct evaluations, kept for streams that repeat specs.
    expected: Option<HashMap<(usize, WorkloadSpec), String>>,
    pub checked: u64,
    pub failed: u64,
    /// The first few mismatches, for the run record.
    pub mismatches: Vec<String>,
}

impl Checker {
    /// A checker evaluating directly on fresh instances of `backends`;
    /// `repeats` keeps each direct emission for specs the stream sends
    /// again, while a stream of distinct specs holds none in memory.
    pub fn new(backends: Vec<Box<dyn Backend>>, repeats: bool) -> Self {
        Self {
            backends,
            expected: repeats.then(HashMap::new),
            checked: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    /// Checks one answer of `backend` for `spec`; counts and returns
    /// whether it was right.
    pub fn check(
        &mut self,
        backend: &str,
        spec: &WorkloadSpec,
        got: &Result<EvalReport, EvalError>,
    ) -> bool {
        self.checked += 1;
        let verdict = self.verdict(backend, spec, got);
        if let Err(why) = &verdict {
            self.failed += 1;
            if self.mismatches.len() < 8 {
                self.mismatches
                    .push(format!("{backend} / {}: {why}", spec.name()));
            }
        }
        verdict.is_ok()
    }

    /// The tallies and first mismatches, for the run record.
    pub fn record(&self) -> JsonValue {
        JsonValue::obj([
            ("checked", JsonValue::Int(self.checked)),
            ("failed", JsonValue::Int(self.failed)),
            (
                "mismatches",
                JsonValue::Arr(
                    self.mismatches
                        .iter()
                        .cloned()
                        .map(JsonValue::Str)
                        .collect(),
                ),
            ),
        ])
    }

    fn verdict(
        &mut self,
        backend: &str,
        spec: &WorkloadSpec,
        got: &Result<EvalReport, EvalError>,
    ) -> Result<(), String> {
        let report = got.as_ref().map_err(|e| format!("error answer: {e}"))?;
        let index = self
            .backends
            .iter()
            .position(|b| b.name() == backend)
            .ok_or_else(|| format!("no reference backend named `{backend}`"))?;
        if let Some(cycle) = &report.cycle {
            match cycle.max_abs_error {
                Some(err) if err.is_finite() && err < CYCLE_TOLERANCE => {}
                other => return Err(format!("cycle max_abs_error {other:?}")),
            }
        }
        let direct = |backends: &[Box<dyn Backend>]| {
            backends[index]
                .evaluate(spec)
                .map(|r| report_json(&r).to_pretty())
                .map_err(|e| format!("direct evaluation failed: {e}"))
        };
        let expected = match &mut self.expected {
            Some(cache) => match cache.entry((index, spec.clone())) {
                Entry::Occupied(e) => e.into_mut().clone(),
                Entry::Vacant(e) => e.insert(direct(&self.backends)?).clone(),
            },
            None => direct(&self.backends)?,
        };
        if report_json(report).to_pretty() == expected {
            Ok(())
        } else {
            Err("report differs from the direct evaluation".to_string())
        }
    }
}
