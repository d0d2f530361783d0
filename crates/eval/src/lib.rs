//! # rsn-eval
//!
//! The unified evaluation layer of the RSN reproduction.
//!
//! Before this crate existed, the paper's evaluation (Tables 3–11,
//! Figs 9/16/18) was regenerated through five disconnected code paths — the
//! cycle-level engine, the analytic RSN-XNN timing model, and the
//! overlay/CHARM/GPU baselines — each with its own entry point.  Following
//! the architecture-evaluation discipline that all comparison points should
//! run through one harness, this crate funnels everything through a single
//! trait:
//!
//! ```text
//! WorkloadSpec  --Backend::evaluate-->  EvalReport
//! ```
//!
//! * [`WorkloadSpec`] describes *what* to evaluate (an encoder layer, a
//!   square GEMM, a functional attention block, a power breakdown, ...);
//! * [`Backend`] is *how*: the six built-ins are the RSN-XNN analytic model
//!   ([`XnnAnalyticBackend`]), the cycle-level engine
//!   ([`CycleEngineBackend`]), the overlay-style baseline
//!   ([`OverlayBackend`]), CHARM ([`CharmBackend`]), the Table 10 GPUs
//!   ([`GpuBackend`]) and the roofline lower bound ([`RooflineBackend`]);
//! * [`EvalReport`] is the backend-neutral answer: latency / throughput /
//!   achieved-FLOPs scalars plus structured segment, cycle and breakdown
//!   sections;
//! * [`Evaluator`] and [`evaluate_grid`] fan workload grids out across all
//!   cores, so table binaries evaluate their whole grid in parallel.
//!
//! ## Adding a backend
//!
//! Implement [`Backend`] (it must be `Send + Sync`; keep per-run state
//! inside `evaluate`), advertise the workloads you can answer in
//! `supports`, and register the value with [`Evaluator::register`] — every
//! harness built on the evaluator picks it up with no further changes.
//!
//! ```
//! use rsn_eval::{Backend, EvalError, EvalReport, Evaluator, WorkloadSpec};
//! use rsn_workloads::bert::BertConfig;
//!
//! struct PaperNumbers;
//!
//! impl Backend for PaperNumbers {
//!     fn name(&self) -> &str {
//!         "published"
//!     }
//!     fn supports(&self, w: &WorkloadSpec) -> bool {
//!         matches!(w, WorkloadSpec::EncoderLayer { .. })
//!     }
//!     fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
//!         let mut report = EvalReport::new(self.name(), w.name());
//!         report.latency_s = Some(17.98e-3); // Table 9 headline
//!         Ok(report)
//!     }
//! }
//!
//! let evaluator = Evaluator::empty().with_backend(Box::new(PaperNumbers));
//! let cfg = BertConfig::bert_large(512, 6);
//! let reports = evaluator.evaluate(&WorkloadSpec::EncoderLayer { cfg });
//! assert!(reports[0].as_ref().unwrap().is_finite_nonzero());
//! ```

pub mod backend;
pub mod backends;
pub mod fnv;
pub mod report;
pub mod sweep;
pub mod workload;

pub use backend::{Backend, EvalError};
pub use backends::{
    default_backends, CharmBackend, CycleEngineBackend, GpuBackend, OverlayBackend,
    RooflineBackend, XnnAnalyticBackend,
};
pub use report::{BreakdownRow, CycleStats, EvalReport, Metrics, SegmentMetric};
// Re-exported so downstream decoders (the serving layer's binary wire
// codec) can construct cycle statistics without a direct rsn-core
// dependency.
pub use rsn_core::sim::SchedulerKind;
pub use sweep::{evaluate_grid, Evaluator};
pub use workload::WorkloadSpec;
