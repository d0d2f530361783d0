//! The RSN-XNN analytic timing model as a [`Backend`].

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, BreakdownRow, EvalReport, SegmentMetric};
use crate::workload::WorkloadSpec;
use rsn_hw::energy::{ComponentProfile, EnergyModel};
use rsn_lib::mapping::analyze_attention_mappings;
use rsn_xnn::datapath::XnnDatapath;
use rsn_xnn::timing::{OptimizationFlags, SegmentTiming, XnnTimingModel};

/// The calibrated analytic model of the RSN-XNN machine (the numbers behind
/// Tables 6–11 and Fig. 18).
///
/// Variants of this backend — different optimisation-flag sets or bandwidth
/// scales — are distinct [`Backend`] values with distinct names, so ablation
/// tables are expressed as several backends evaluating one workload grid.
#[derive(Debug, Clone)]
pub struct XnnAnalyticBackend {
    name: String,
    model: XnnTimingModel,
    opts: OptimizationFlags,
}

impl XnnAnalyticBackend {
    /// The shipped configuration: every optimisation enabled.
    pub fn new() -> Self {
        Self {
            name: "rsn-xnn".to_string(),
            model: XnnTimingModel::new(),
            opts: OptimizationFlags::all(),
        }
    }

    /// A variant with explicit optimisation flags (ablation columns).
    pub fn with_opts(label: &str, opts: OptimizationFlags) -> Self {
        Self {
            name: format!("rsn-xnn ({label})"),
            model: XnnTimingModel::new(),
            opts,
        }
    }

    /// A variant with both off-chip channels scaled (Table 11 sweep).
    pub fn with_bandwidth_scale(factor: f64) -> Self {
        Self {
            name: format!("rsn-xnn ({factor}x BW)"),
            model: XnnTimingModel::new().with_bandwidth_scale(factor),
            opts: OptimizationFlags::all(),
        }
    }

    /// The Table 11 "infinite BW & no setup" variant.
    pub fn with_infinite_bandwidth() -> Self {
        Self {
            name: "rsn-xnn (infinite BW)".to_string(),
            model: XnnTimingModel::new().with_infinite_bandwidth(),
            opts: OptimizationFlags::all(),
        }
    }

    /// The Table 11 "infinite compute" variant.
    pub fn with_infinite_compute() -> Self {
        Self {
            name: "rsn-xnn (infinite compute)".to_string(),
            model: XnnTimingModel::new().with_infinite_compute(),
            opts: OptimizationFlags::all(),
        }
    }

    /// The wrapped timing model (for calibration inspection).
    pub fn model(&self) -> &XnnTimingModel {
        &self.model
    }

    fn segment_metrics(timings: &[SegmentTiming]) -> Vec<SegmentMetric> {
        timings
            .iter()
            .map(|t| SegmentMetric {
                name: intern(&t.name),
                latency_s: t.latency_s,
                compute_s: t.compute_s,
                ddr_s: t.ddr_s,
                lpddr_s: t.lpddr_s,
                phase_s: t.phase_s,
            })
            .collect()
    }

    fn power_breakdown(&self, report: &mut EvalReport) {
        let energy = EnergyModel::calibrated();
        let mut rows = Vec::new();
        // Decoder profile: a few KB of FIFOs, ~1.4 MB/s instruction traffic.
        rows.push(energy.component_power(
            "Decoder",
            ComponentProfile {
                flops: 0.0,
                memory_bytes: 8.0e3,
                bandwidth_bytes_per_s: 1.4e6,
                instances: 1,
            },
        ));
        for p in &XnnDatapath::fu_properties() {
            let name = if p.fu_type == "MME" {
                "AIE (6 MME)"
            } else {
                &p.fu_type
            };
            rows.push(energy.component_power(
                name,
                ComponentProfile {
                    flops: p.tflops * 1e12 * p.instances as f64,
                    memory_bytes: p.memory_mb * 1e6 * p.instances as f64,
                    bandwidth_bytes_per_s: if p.fu_type == "MemC" {
                        p.bandwidth_gb_s * 1e9 * p.instances as f64
                    } else {
                        0.0
                    },
                    instances: p.instances,
                },
            ));
        }
        let total = EnergyModel::total_watts(&rows);
        report.breakdown = rows
            .iter()
            .map(|r| BreakdownRow {
                name: intern(&r.name),
                values: vec![
                    (intern("watts"), r.watts),
                    (intern("share"), r.watts / total),
                ],
            })
            .collect();
        report.metrics.insert(intern("total_watts"), total);
        report
            .metrics
            .insert(intern("board_operating_w"), energy.board_operating_power_w);
        report
            .metrics
            .insert(intern("board_dynamic_w"), energy.board_dynamic_power_w);
    }
}

impl Default for XnnAnalyticBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for XnnAnalyticBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            workload,
            WorkloadSpec::EncoderLayer { .. }
                | WorkloadSpec::FullModel { .. }
                | WorkloadSpec::SquareGemm { .. }
                | WorkloadSpec::ZooModel { .. }
                | WorkloadSpec::AttentionMapping { .. }
                | WorkloadSpec::PowerBreakdown
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut report = EvalReport::new(intern(self.name()), workload.name());
        report
            .metrics
            .insert(intern("bandwidth_scale"), self.model.bandwidth_scale());
        match workload {
            WorkloadSpec::EncoderLayer { cfg } => {
                let latency = self.model.encoder_latency_s(cfg, self.opts);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s =
                    Some(self.model.encoder_throughput_tasks_per_s(cfg, self.opts));
                report.achieved_flops = Some(cfg.encoder_flops() / latency);
                report.segments =
                    Self::segment_metrics(&self.model.encoder_segment_timings(cfg, self.opts));
            }
            WorkloadSpec::FullModel { cfg } => {
                let latency = self.model.model_latency_s(cfg, self.opts);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(cfg.batch as f64 / latency);
                report.achieved_flops = Some(self.model.achieved_bert_flops(cfg, self.opts));
                report.segments =
                    Self::segment_metrics(&self.model.encoder_segment_timings(cfg, self.opts));
                let energy = EnergyModel::calibrated();
                let tasks_per_s = cfg.batch as f64 / latency;
                report.metrics.insert(
                    intern("operating_seq_per_j"),
                    energy.operating_efficiency_seq_per_j(tasks_per_s),
                );
                report.metrics.insert(
                    intern("dynamic_seq_per_j"),
                    energy.dynamic_efficiency_seq_per_j(tasks_per_s),
                );
            }
            WorkloadSpec::SquareGemm { n } => {
                let flops = 2.0 * (*n as f64).powi(3);
                let achieved = self.model.gemm_end_to_end_flops(*n);
                report.achieved_flops = Some(achieved);
                report.latency_s = Some(flops / achieved);
            }
            WorkloadSpec::ZooModel { kind } => {
                let cfg = rsn_workloads::models::ModelConfig::table7(*kind);
                let latency = self.model.model_config_latency_s(&cfg, self.opts);
                report.latency_s = Some(latency);
                report.throughput_tasks_per_s = Some(1.0 / latency);
            }
            WorkloadSpec::AttentionMapping { cfg, mapping } => {
                let rows = analyze_attention_mappings(cfg);
                let row = rows
                    .iter()
                    .find(|r| r.mapping == *mapping)
                    .expect("all four mapping types analysed");
                report.latency_s = Some(row.final_latency_s);
                report
                    .metrics
                    .insert(intern("compute_time_s"), row.compute_time_s);
                report
                    .metrics
                    .insert(intern("memory_time_s"), row.memory_time_s);
                report
                    .metrics
                    .insert(intern("aie_utilization"), row.aie_utilization);
            }
            WorkloadSpec::PowerBreakdown => self.power_breakdown(&mut report),
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}
