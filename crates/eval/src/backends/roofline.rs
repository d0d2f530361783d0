//! The first-order roofline bound as a [`Backend`].
//!
//! This backend answers every model-level workload with the hard lower
//! bound the VCK190 substrate permits: compute time at datasheet peak
//! versus data movement at aggregate off-chip bandwidth, whichever is
//! larger.  No overlap losses, no utilization factors — by construction
//! every other VCK190 backend must report a latency at or above this one,
//! which makes it the sanity floor of comparison tables.

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, EvalReport};
use crate::workload::WorkloadSpec;
use rsn_hw::roofline::RooflineEstimate;
use rsn_hw::versal::Vck190Spec;
use rsn_workloads::bert::BertConfig;
use rsn_workloads::gemm::GemmShape;
use rsn_workloads::models::ModelConfig;

/// The VCK190 roofline lower bound.
#[derive(Debug, Clone)]
pub struct RooflineBackend {
    spec: Vck190Spec,
}

impl RooflineBackend {
    /// Builds the bound over the VCK190 datasheet numbers.
    pub fn new() -> Self {
        Self {
            spec: Vck190Spec::new(),
        }
    }

    /// Minimal off-chip traffic of one encoder layer: weights once,
    /// input and output activations once.
    fn encoder_bytes(cfg: &BertConfig) -> f64 {
        let act = (cfg.tokens() * cfg.hidden * 4) as f64;
        cfg.encoder_weight_bytes() + 2.0 * act
    }

    fn bound(&self, report: &mut EvalReport, flops: f64, bytes: f64) {
        let est = RooflineEstimate::new(
            flops,
            bytes,
            self.spec.aie_peak_flops(),
            self.spec.total_offchip_peak_bw(),
        );
        report.latency_s = Some(est.latency_s());
        report.achieved_flops = Some(flops / est.latency_s());
        report
            .metrics
            .insert(intern("compute_time_s"), est.compute_time_s);
        report
            .metrics
            .insert(intern("memory_time_s"), est.memory_time_s);
        report
            .metrics
            .insert(intern("compute_bound"), f64::from(est.is_compute_bound()));
    }
}

impl Default for RooflineBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for RooflineBackend {
    fn name(&self) -> &str {
        "roofline-bound"
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            workload,
            WorkloadSpec::EncoderLayer { .. }
                | WorkloadSpec::FullModel { .. }
                | WorkloadSpec::SquareGemm { .. }
                | WorkloadSpec::ZooModel { .. }
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut report = EvalReport::new(intern(self.name()), workload.name());
        match workload {
            WorkloadSpec::EncoderLayer { cfg } => {
                self.bound(&mut report, cfg.encoder_flops(), Self::encoder_bytes(cfg));
                report.throughput_tasks_per_s = report.latency_s.map(|l| cfg.batch as f64 / l);
            }
            WorkloadSpec::FullModel { cfg } => {
                self.bound(
                    &mut report,
                    cfg.model_flops(),
                    Self::encoder_bytes(cfg) * cfg.layers as f64,
                );
                report.throughput_tasks_per_s = report.latency_s.map(|l| cfg.batch as f64 / l);
            }
            WorkloadSpec::SquareGemm { n } => {
                let shape = GemmShape::square(*n);
                let bytes = shape.lhs_bytes() + shape.rhs_bytes() + shape.out_bytes();
                self.bound(&mut report, shape.flops(), bytes);
            }
            WorkloadSpec::ZooModel { kind } => {
                let cfg = ModelConfig::table7(*kind);
                let mut flops = 0.0;
                let mut bytes = 0.0;
                for (_, gemm, _) in cfg.all_gemms() {
                    flops += gemm.flops();
                    bytes += gemm.lhs_bytes() + gemm.rhs_bytes() + gemm.out_bytes();
                }
                self.bound(&mut report, flops, bytes);
            }
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}
