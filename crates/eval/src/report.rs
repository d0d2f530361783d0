//! The backend-neutral result type.
//!
//! Every backend answers a [`WorkloadSpec`](crate::WorkloadSpec) with an
//! [`EvalReport`]: a small set of first-class scalars (latency, throughput,
//! achieved FLOP/s) that every comparison table uses, plus structured
//! optional sections — per-segment latency decompositions for the analytic
//! models, cycle statistics for the simulation backend, labelled breakdown
//! rows for property tables — and a free-form metric map for
//! backend-specific extras (energy efficiency, stall counts, published
//! reference latencies).

use crate::fnv::FnvBuild;
use rsn_core::sim::SchedulerKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// Deduplicates the small closed set of backend names, metric keys and
/// slot names that appear in every report and stats record, handing out a
/// shared `Arc<str>` instead of a fresh allocation per document — backends
/// build their labels through it, and wire decoders resolve theirs through
/// it.  Bounded so a hostile peer streaming unique names cannot grow the
/// table without limit: once full, lookups still hit for known names and
/// misses fall back to a fresh one-off `Arc`.
pub struct Interner {
    // FNV-keyed: the vocabulary is short human-chosen labels, and the table
    // is capped, so the cheap hash is safe — see [`crate::fnv`].
    set: HashSet<Arc<str>, FnvBuild>,
}

impl Interner {
    /// Names longer than this are never cached — real backend and workload
    /// labels are short, and skipping the hash probe for long one-off
    /// strings keeps the common path cheap.
    pub const MAX_LEN: usize = 64;
    /// Upper bound on distinct cached names.
    const CAP: usize = 256;

    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            set: HashSet::default(),
        }
    }

    /// Returns a shared copy of `s`, allocating only on first sight.
    #[inline]
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if s.len() > Self::MAX_LEN {
            return Arc::from(s);
        }
        if let Some(existing) = self.set.get(s) {
            return Arc::clone(existing);
        }
        let fresh: Arc<str> = Arc::from(s);
        if self.set.len() < Self::CAP {
            self.set.insert(Arc::clone(&fresh));
        }
        fresh
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread interning table shared by every report built or decoded
    /// on the thread — backend workers, pool exchange threads and shard
    /// connection threads each converge on one long-lived set of label
    /// `Arc`s.
    static INTERNER: RefCell<Interner> = RefCell::new(Interner::new());
}

/// Runs `f` with the thread's interning table borrowed once.  Decoders that
/// intern several labels per report hoist the TLS access and `RefCell`
/// borrow out of the per-label path — on a 2048-report burst that is four
/// fewer TLS round-trips per report.
pub fn with_interner<T>(f: impl FnOnce(&mut Interner) -> T) -> T {
    INTERNER.with(|table| f(&mut table.borrow_mut()))
}

/// The thread's shared copy of one label (see [`Interner`]).
pub(crate) fn intern(s: &str) -> Arc<str> {
    with_interner(|names| names.intern(s))
}

/// Ordered `name → value` map of backend-specific scalars, stored as a
/// key-sorted vec.  Reports carry a handful of metrics at most, and they
/// are built (one per evaluation) and decoded (one per wire report) on hot
/// paths where a B-tree's per-node heap allocation dominates the cost of
/// the map itself; a sorted vec costs zero allocations when empty and one
/// growable buffer otherwise, while keeping lookups and iteration order
/// identical to the `BTreeMap` it replaces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    entries: Vec<(Arc<str>, f64)>,
}

impl Metrics {
    /// An empty map (allocation-free).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces one scalar, returning the previous value if the
    /// key was present.
    pub fn insert(&mut self, key: impl Into<Arc<str>>, value: f64) -> Option<f64> {
        let key = key.into();
        match self.entries.binary_search_by(|(k, _)| (**k).cmp(&key)) {
            Ok(idx) => Some(std::mem::replace(&mut self.entries[idx].1, value)),
            Err(idx) => {
                self.entries.insert(idx, (key, value));
                None
            }
        }
    }

    /// Builds a map from entries that are *usually* already sorted — the
    /// wire codecs emit keys in map order, so a decoded report's entries
    /// arrive sorted and the map adopts the vec as-is after one linear
    /// sortedness check (no per-key binary search + shifting insert, which
    /// made a k-metric decode O(k²)).  Input that is not strictly
    /// key-sorted (a hostile or non-canonical peer) falls back to
    /// sort-then-dedup, where the *last* occurrence of a duplicated key
    /// wins — the same outcome as inserting the entries one by one.
    pub fn from_entries(mut entries: Vec<(Arc<str>, f64)>) -> Self {
        let sorted = entries.windows(2).all(|pair| pair[0].0 < pair[1].0);
        if !sorted {
            // Stable sort keeps equal keys in arrival order, so dedup can
            // keep the later occurrence deterministically.
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            let mut deduped: Vec<(Arc<str>, f64)> = Vec::with_capacity(entries.len());
            for (key, value) in entries {
                match deduped.last_mut() {
                    Some((last, slot)) if *last == key => *slot = value,
                    _ => deduped.push((key, value)),
                }
            }
            entries = deduped;
        }
        Self { entries }
    }

    /// Looks up one scalar by name.
    pub fn get(&self, key: &str) -> Option<&f64> {
        self.entries
            .binary_search_by(|(k, _)| (**k).cmp(key))
            .ok()
            .map(|idx| &self.entries[idx].1)
    }

    /// Number of named scalars.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no scalars are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &f64)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates values in key order.
    pub fn values(&self) -> impl Iterator<Item = &f64> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates names in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl std::ops::Index<&str> for Metrics {
    type Output = f64;

    fn index(&self, key: &str) -> &f64 {
        self.get(key).expect("no metric for key")
    }
}

impl<'a> IntoIterator for &'a Metrics {
    type Item = (&'a Arc<str>, &'a f64);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Arc<str>, f64)>,
        fn(&'a (Arc<str>, f64)) -> (&'a Arc<str>, &'a f64),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Latency decomposition of one model segment (a Table 9 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentMetric {
    /// Segment name.  Shared (`Arc<str>`) so decoded reports can alias one
    /// interned copy of each recurring label (segment names repeat across
    /// every report of a stream) instead of allocating per report.
    pub name: Arc<str>,
    /// Total modelled latency, seconds.
    pub latency_s: f64,
    /// Compute-bound component, seconds.
    pub compute_s: f64,
    /// DDR-channel component, seconds.
    pub ddr_s: f64,
    /// LPDDR-channel component, seconds.
    pub lpddr_s: f64,
    /// Non-hidden prolog/epilog component, seconds.
    pub phase_s: f64,
}

/// One labelled row of a property table (power breakdown, FU properties,
/// instruction footprints): a name plus ordered key/value pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Row label (component, FU type, ...).  Shared — see
    /// [`SegmentMetric::name`].
    pub name: Arc<str>,
    /// Ordered `(metric, value)` pairs; keys shared like the label.
    pub values: Vec<(Arc<str>, f64)>,
}

impl BreakdownRow {
    /// Looks up one value by metric name.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| &**k == key)
            .map(|(_, v)| *v)
    }
}

/// Aggregate statistics of a cycle-level engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Scheduling discipline that produced the run.
    pub scheduler: SchedulerKind,
    /// Scheduler iterations (see [`rsn_core::sim::RunReport::steps`]).
    pub steps: u64,
    /// Total `FunctionalUnit::step` invocations — the scheduler-neutral
    /// work metric.
    pub fu_step_calls: u64,
    /// Sum of per-run makespan estimates (max per-FU busy cycles).
    pub makespan_cycles: u64,
    /// Total uOPs retired.
    pub uops_retired: u64,
    /// Total FP32-equivalent words moved over streams.
    pub words_transferred: u64,
    /// Maximum absolute error against the reference math, when the workload
    /// has a functional reference.
    pub max_abs_error: Option<f64>,
}

/// The result of one `Backend::evaluate` call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Name of the backend that produced this report.  Shared (`Arc<str>`)
    /// so decoded and cached reports can alias one interned copy of each
    /// name instead of allocating a fresh `String` per report.
    pub backend: Arc<str>,
    /// Label of the evaluated workload.  Shared for the same reason.
    pub workload: Arc<str>,
    /// End-to-end latency, seconds (the primary comparison scalar).
    pub latency_s: Option<f64>,
    /// Tasks (sequences) per second.
    pub throughput_tasks_per_s: Option<f64>,
    /// Achieved compute throughput, FLOP/s.
    pub achieved_flops: Option<f64>,
    /// Per-segment latency decomposition (analytic backends).
    pub segments: Vec<SegmentMetric>,
    /// Labelled property rows (power, FU properties, footprints).
    pub breakdown: Vec<BreakdownRow>,
    /// Cycle-level statistics (simulation backend).
    pub cycle: Option<CycleStats>,
    /// Backend-specific named scalars.  Keys shared — see
    /// [`SegmentMetric::name`].
    pub metrics: Metrics,
}

impl EvalReport {
    /// Creates an empty report tagged with backend and workload labels.
    pub fn new(backend: impl Into<Arc<str>>, workload: impl Into<Arc<str>>) -> Self {
        Self {
            backend: backend.into(),
            workload: workload.into(),
            latency_s: None,
            throughput_tasks_per_s: None,
            achieved_flops: None,
            segments: Vec::new(),
            breakdown: Vec::new(),
            cycle: None,
            metrics: Metrics::new(),
        }
    }

    /// Inserts a named scalar metric (builder form).
    pub fn with_metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key, value);
        self
    }

    /// Looks up a named scalar metric.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// The headline scalar of this report: latency if present, else
    /// throughput, else achieved FLOP/s, else the cycle-level makespan,
    /// else the first breakdown value or named metric.
    pub fn primary_metric(&self) -> Option<f64> {
        self.latency_s
            .or(self.throughput_tasks_per_s)
            .or(self.achieved_flops)
            .or_else(|| self.cycle.as_ref().map(|c| c.makespan_cycles as f64))
            .or_else(|| {
                self.breakdown
                    .first()
                    .and_then(|row| row.values.first().map(|(_, v)| *v))
            })
            .or_else(|| self.metrics.values().next().copied())
    }

    /// Returns `true` when the headline scalar exists, is finite, and is
    /// strictly positive — the invariant the backend smoke test asserts.
    pub fn is_finite_nonzero(&self) -> bool {
        self.primary_metric()
            .is_some_and(|v| v.is_finite() && v > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_metric_prefers_latency() {
        let mut r = EvalReport::new("b", "w");
        assert!(r.primary_metric().is_none());
        assert!(!r.is_finite_nonzero());
        r.metrics.insert("x", 3.0);
        assert_eq!(r.primary_metric(), Some(3.0));
        r.latency_s = Some(1.5);
        assert_eq!(r.primary_metric(), Some(1.5));
        assert!(r.is_finite_nonzero());
    }

    #[test]
    fn nan_or_zero_is_not_finite_nonzero() {
        let mut r = EvalReport::new("b", "w");
        r.latency_s = Some(f64::NAN);
        assert!(!r.is_finite_nonzero());
        r.latency_s = Some(0.0);
        assert!(!r.is_finite_nonzero());
    }

    #[test]
    fn from_entries_adopts_sorted_input_and_repairs_hostile_input() {
        // The fast path: already sorted, adopted verbatim.
        let sorted: Vec<(Arc<str>, f64)> = (0..100)
            .map(|i| (Arc::from(format!("metric_{i:03}")), i as f64))
            .collect();
        let fast = Metrics::from_entries(sorted.clone());
        assert_eq!(fast.len(), 100);
        assert_eq!(fast.get("metric_042"), Some(&42.0));
        let mut by_insert = Metrics::new();
        for (k, v) in &sorted {
            by_insert.insert(Arc::clone(k), *v);
        }
        assert_eq!(fast, by_insert);

        // Hostile input: unsorted with a duplicated key — sorted, deduped,
        // last occurrence wins (matching repeated `insert` semantics).
        let hostile: Vec<(Arc<str>, f64)> = vec![
            ("zeta".into(), 1.0),
            ("alpha".into(), 2.0),
            ("zeta".into(), 3.0),
        ];
        let repaired = Metrics::from_entries(hostile);
        assert_eq!(repaired.len(), 2);
        assert_eq!(repaired.get("alpha"), Some(&2.0));
        assert_eq!(repaired.get("zeta"), Some(&3.0));
        assert_eq!(
            repaired.keys().map(|k| &**k).collect::<Vec<_>>(),
            ["alpha", "zeta"]
        );
    }

    #[test]
    fn interner_shares_short_labels_and_bounds_its_table() {
        let mut names = Interner::new();
        let a = names.intern("rsn-xnn");
        assert!(Arc::ptr_eq(&a, &names.intern("rsn-xnn")));
        // Long labels are one-offs: equal content, separate storage.
        let long = "x".repeat(Interner::MAX_LEN + 1);
        assert!(!Arc::ptr_eq(&names.intern(&long), &names.intern(&long)));
        // Past the cap, new labels still come back equal but uncached,
        // while labels cached before the cap keep hitting.
        for i in 0..Interner::CAP {
            names.intern(&format!("label-{i}"));
        }
        let late = names.intern("late");
        assert_eq!(&*late, "late");
        assert!(!Arc::ptr_eq(&late, &names.intern("late")));
        assert!(Arc::ptr_eq(&a, &names.intern("rsn-xnn")));
    }

    #[test]
    fn breakdown_lookup_by_key() {
        let row = BreakdownRow {
            name: "MME".into(),
            values: vec![("watts".into(), 60.8), ("share".into(), 0.6)],
        };
        assert_eq!(row.value("watts"), Some(60.8));
        assert_eq!(row.value("missing"), None);
    }
}
