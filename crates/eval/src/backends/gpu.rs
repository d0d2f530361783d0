//! The Table 10 GPU datasheet models as [`Backend`]s, one per device.

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, EvalReport};
use crate::workload::WorkloadSpec;
use rsn_baseline::gpu::estimate;
use rsn_hw::gpu::{GpuModel, GpuSpec};
use rsn_workloads::bert::BertConfig;

/// One GPU comparison point (roofline estimate plus published latencies).
#[derive(Debug, Clone)]
pub struct GpuBackend {
    name: String,
    model: GpuModel,
}

impl GpuBackend {
    /// Builds the backend for one device.
    pub fn new(model: GpuModel) -> Self {
        Self {
            name: format!("gpu {}", GpuSpec::of(model).name),
            model,
        }
    }

    /// The wrapped device model.
    pub fn model(&self) -> GpuModel {
        self.model
    }

    fn fill(&self, report: &mut EvalReport, cfg: &BertConfig) {
        let est = estimate(self.model, cfg);
        // Prefer the published measurement when the paper reports one for
        // this batch size; keep the roofline estimate alongside.
        let latency = est.published_latency_s.unwrap_or(est.estimated_latency_s);
        report.latency_s = Some(latency);
        report.throughput_tasks_per_s = Some(cfg.batch as f64 / latency);
        report
            .metrics
            .insert(intern("estimated_latency_s"), est.estimated_latency_s);
        if let Some(published) = est.published_latency_s {
            report
                .metrics
                .insert(intern("published_latency_s"), published);
        }
        report
            .metrics
            .insert(intern("operating_seq_per_j"), est.operating_seq_per_j);
        report
            .metrics
            .insert(intern("dynamic_seq_per_j"), est.dynamic_seq_per_j);
    }
}

impl Backend for GpuBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            workload,
            WorkloadSpec::EncoderLayer { .. } | WorkloadSpec::FullModel { .. }
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut report = EvalReport::new(intern(self.name()), workload.name());
        match workload {
            WorkloadSpec::FullModel { cfg } => self.fill(&mut report, cfg),
            WorkloadSpec::EncoderLayer { cfg } => {
                // The GPU model reasons at whole-model granularity; a
                // single-layer copy of the configuration yields the
                // per-encoder figure (published latencies do not apply at
                // this granularity, so only the estimate is reported).
                let one_layer = BertConfig { layers: 1, ..*cfg };
                let est = estimate(self.model, &one_layer);
                report.latency_s = Some(est.estimated_latency_s);
                report.throughput_tasks_per_s = Some(cfg.batch as f64 / est.estimated_latency_s);
            }
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}
