//! CHARM — the prior state-of-the-art Versal accelerator — as a [`Backend`].

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, EvalReport};
use crate::workload::WorkloadSpec;
use rsn_baseline::charm::CharmModel;
use rsn_workloads::models::ModelConfig;

/// The calibrated CHARM latency/throughput model (Fig. 18, Tables 6b/7).
#[derive(Debug, Clone)]
pub struct CharmBackend {
    model: CharmModel,
}

impl CharmBackend {
    /// Builds the calibrated CHARM backend.
    pub fn new() -> Self {
        Self {
            model: CharmModel::new(),
        }
    }
}

impl Default for CharmBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for CharmBackend {
    fn name(&self) -> &str {
        "charm"
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
                let latency = self.model.encoder_latency_s(cfg);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s =
                    Some(self.model.encoder_throughput_tasks_per_s(cfg));
            }
            WorkloadSpec::FullModel { cfg } => {
                // CHARM executes layer-serialised, so the model latency is
                // the per-encoder latency times the layer count.
                let latency = self.model.encoder_latency_s(cfg) * cfg.layers as f64;
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(cfg.batch as f64 / latency);
            }
            WorkloadSpec::SquareGemm { n } => {
                let flops = 2.0 * (*n as f64).powi(3);
                let achieved = self.model.gemm_end_to_end_flops(*n);
                report.achieved_flops = Some(achieved);
                report.latency_s = Some(flops / achieved);
            }
            WorkloadSpec::ZooModel { kind } => {
                let cfg = ModelConfig::table7(*kind);
                let latency = self.model.model_config_latency_s(&cfg);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(1.0 / latency);
            }
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}
