//! The overlay-style baseline as a [`Backend`].
//!
//! Two flavours of "overlay" appear in the paper, and this backend covers
//! both behind one name:
//!
//! * for model-level workloads it is the §5.5 "typical overlay style"
//!   execution — the RSN-XNN machine run layer-serialised with no bandwidth
//!   interleaving and no attention pipelining
//!   ([`OptimizationFlags::none`]);
//! * for the Fig. 6 scalar pipeline it is the RISC-like vector-ISA overlay
//!   simulator ([`VectorOverlay`]), which pays a full-vector stall on every
//!   register hazard the stream datapath avoids by construction.

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, EvalReport};
use crate::workload::WorkloadSpec;
use rsn_baseline::overlay::{OverlayInstruction, VectorOverlay};
use rsn_hw::versal::Vck190Spec;
use rsn_workloads::models::ModelConfig;
use rsn_xnn::timing::{OptimizationFlags, XnnTimingModel};

/// The sequential overlay-style baseline.
#[derive(Debug, Clone)]
pub struct OverlayBackend {
    model: XnnTimingModel,
}

impl OverlayBackend {
    /// Builds the baseline over the calibrated machine model.
    pub fn new() -> Self {
        Self {
            model: XnnTimingModel::new(),
        }
    }
}

impl Default for OverlayBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for OverlayBackend {
    fn name(&self) -> &str {
        "overlay-style"
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            workload,
            WorkloadSpec::EncoderLayer { .. }
                | WorkloadSpec::FullModel { .. }
                | WorkloadSpec::ZooModel { .. }
                | WorkloadSpec::ScalarPipeline { .. }
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut report = EvalReport::new(intern(self.name()), workload.name());
        let opts = OptimizationFlags::none();
        match workload {
            WorkloadSpec::EncoderLayer { cfg } => {
                let latency = self.model.encoder_latency_s(cfg, opts);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(cfg.batch as f64 / latency);
            }
            WorkloadSpec::FullModel { cfg } => {
                let latency = self.model.model_latency_s(cfg, opts);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(cfg.batch as f64 / latency);
            }
            WorkloadSpec::ZooModel { kind } => {
                let cfg = ModelConfig::table7(*kind);
                report.latency_s = Some(self.model.model_config_latency_s(&cfg, opts));
            }
            WorkloadSpec::ScalarPipeline { elements } => {
                // LD / ADD / ST per full-vector chunk over three shared
                // registers, with v1 pre-loaded with ones — each dependent
                // pair serialises on a register hazard.
                let n = *elements;
                let vector_len = n.clamp(1, 100);
                let mut memory: Vec<f32> = (0..n).map(|x| x as f32).collect();
                memory.extend(vec![0.0; n]);
                let mut overlay = VectorOverlay::new(3, vector_len, memory);
                overlay.set_register(1, &vec![1.0; vector_len]);
                let mut program = Vec::new();
                let chunks = n.div_ceil(vector_len);
                for c in 0..chunks {
                    let addr = c * vector_len;
                    let len = vector_len.min(n - addr);
                    program.push(OverlayInstruction::Load { reg: 0, addr, len });
                    program.push(OverlayInstruction::Add { dst: 2, a: 0, b: 1 });
                    program.push(OverlayInstruction::Store {
                        reg: 2,
                        addr: n + addr,
                        len,
                    });
                }
                overlay.execute(&program);
                let clock = Vck190Spec::new().pl_clock_hz;
                report.latency_s = Some(overlay.cycles() as f64 / clock);
                report
                    .metrics
                    .insert(intern("cycles"), overlay.cycles() as f64);
                report
                    .metrics
                    .insert(intern("stall_cycles"), overlay.stall_cycles() as f64);
                let expected_first = memory_check(&overlay, n);
                report
                    .metrics
                    .insert(intern("functional_ok"), f64::from(expected_first));
            }
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}

/// Verifies the overlay produced `x + 1` in the output half of memory.
fn memory_check(overlay: &VectorOverlay, n: usize) -> bool {
    overlay.memory()[n..]
        .iter()
        .enumerate()
        .all(|(i, &v)| (v - (i as f32 + 1.0)).abs() < 1e-6)
}
