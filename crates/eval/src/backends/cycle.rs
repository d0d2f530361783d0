//! The cycle-level RSN engine as a [`Backend`].
//!
//! This backend actually executes workloads on the simulated stream
//! datapath: every FP32 value flows through the FU network, results are
//! checked against the reference math, and the report carries the engine's
//! cycle statistics.  Because the simulation is value-accurate it is bounded
//! to small shapes — large configurations return [`EvalError::TooLarge`]
//! rather than silently taking hours.

use crate::backend::{unsupported, Backend, EvalError};
use crate::report::{intern, BreakdownRow, CycleStats, EvalReport, SegmentMetric};
use crate::workload::WorkloadSpec;
use rsn_core::sim::{RunReport, SchedulerKind};
use rsn_hw::versal::Vck190Spec;
use rsn_lib::api::EncoderHost;
use rsn_workloads::attention::{encoder_layer_forward, multi_head_attention, EncoderWeights};
use rsn_workloads::Matrix;
use rsn_xnn::config::XnnConfig;
use rsn_xnn::datapath::XnnDatapath;
use rsn_xnn::instr_stats::program_instr_stats;
use rsn_xnn::machine::XnnMachine;
use rsn_xnn::program::{
    attention_program, gemm_program, AttentionSpec, GemmSpec, PostOp, RhsOperand,
};

/// Largest `tokens × hidden` activation the simulator accepts per workload.
const MAX_ACTIVATION_ELEMENTS: usize = 64 * 64;

/// Cycle-level execution on the simulated RSN-XNN datapath.
#[derive(Debug, Clone)]
pub struct CycleEngineBackend {
    name: String,
    scheduler: SchedulerKind,
    xnn_cfg: XnnConfig,
}

impl CycleEngineBackend {
    /// The default cycle backend: event-driven engine over the small
    /// functional datapath configuration.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default())
    }

    /// A variant pinned to one scheduling discipline (used by the
    /// scheduler-equivalence tests).
    pub fn with_scheduler(scheduler: SchedulerKind) -> Self {
        let label = match scheduler {
            SchedulerKind::EventDriven => "cycle-engine",
            SchedulerKind::RoundRobin => "cycle-engine (round-robin)",
        };
        Self {
            name: label.to_string(),
            scheduler,
            xnn_cfg: XnnConfig::small(),
        }
    }

    /// The scheduling discipline this backend runs with.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    fn machine(&self) -> Result<XnnMachine, EvalError> {
        Ok(XnnMachine::new(self.xnn_cfg)?.with_scheduler(self.scheduler))
    }

    fn too_large(&self, workload: &WorkloadSpec, limit: String) -> EvalError {
        EvalError::TooLarge {
            backend: self.name.clone(),
            workload: workload.name(),
            limit,
        }
    }

    fn stats_from_reports<'a>(
        &self,
        reports: impl Iterator<Item = &'a RunReport>,
        max_abs_error: Option<f64>,
    ) -> CycleStats {
        let mut stats = CycleStats {
            scheduler: self.scheduler,
            steps: 0,
            fu_step_calls: 0,
            makespan_cycles: 0,
            uops_retired: 0,
            words_transferred: 0,
            max_abs_error,
        };
        for r in reports {
            stats.steps += r.steps;
            stats.fu_step_calls += r.fu_step_calls;
            stats.makespan_cycles += r.makespan_cycles();
            stats.uops_retired += r.total_uops_retired();
            stats.words_transferred += r.total_words_transferred();
        }
        stats
    }

    fn finish(&self, report: &mut EvalReport, stats: CycleStats) {
        // The makespan counts FU-local cycles; convert at the PL clock for a
        // coarse wall-clock figure.  This is a scheduling lower bound, not
        // the calibrated latency — the analytic backend owns that.
        let clock = Vck190Spec::new().pl_clock_hz;
        report.latency_s = Some(stats.makespan_cycles as f64 / clock);
        report.cycle = Some(stats);
    }
}

impl Default for CycleEngineBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for CycleEngineBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            workload,
            WorkloadSpec::EncoderLayer { .. }
                | WorkloadSpec::FunctionalGemm { .. }
                | WorkloadSpec::FunctionalAttention { .. }
                | WorkloadSpec::ScalarPipeline { .. }
                | WorkloadSpec::InstructionFootprint { .. }
                | WorkloadSpec::DatapathProperties
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let mut report = EvalReport::new(intern(self.name()), workload.name());
        match workload {
            WorkloadSpec::EncoderLayer { cfg } => {
                if cfg.tokens() * cfg.hidden > MAX_ACTIVATION_ELEMENTS {
                    return Err(self.too_large(
                        workload,
                        format!(
                            "tokens*hidden = {} > {MAX_ACTIVATION_ELEMENTS}",
                            cfg.tokens() * cfg.hidden
                        ),
                    ));
                }
                let x = Matrix::random(cfg.tokens(), cfg.hidden, 7);
                let weights = EncoderWeights::random(cfg, 11);
                let reference = encoder_layer_forward(cfg, &x, &weights);
                let mut host = EncoderHost::with_scheduler(self.xnn_cfg, *cfg, self.scheduler)?;
                let out = host.run_encoder_layer(&x, &weights)?;
                let err = out.max_abs_diff(&reference);
                report.segments = host
                    .segment_reports()
                    .iter()
                    .map(|(name, r)| SegmentMetric {
                        name: intern(name),
                        latency_s: r.makespan_cycles() as f64 / Vck190Spec::new().pl_clock_hz,
                        compute_s: 0.0,
                        ddr_s: 0.0,
                        lpddr_s: 0.0,
                        phase_s: 0.0,
                    })
                    .collect();
                report
                    .metrics
                    .insert(intern("mme_flops"), host.machine().total_mme_flops() as f64);
                report.metrics.insert(
                    intern("ddr_traffic_bytes"),
                    host.machine().ddr_traffic_bytes() as f64,
                );
                let stats = self.stats_from_reports(
                    host.segment_reports().iter().map(|(_, r)| r),
                    Some(f64::from(err)),
                );
                self.finish(&mut report, stats);
            }
            WorkloadSpec::FunctionalGemm { m, k, n, seed } => {
                if m * n > MAX_ACTIVATION_ELEMENTS {
                    return Err(self.too_large(workload, format!("m*n = {}", m * n)));
                }
                let lhs = Matrix::random(*m, *k, *seed);
                let rhs = Matrix::random(*k, *n, seed + 1);
                let expected = lhs.matmul(&rhs);
                let mut machine = self.machine()?;
                machine.load_ddr(1, lhs);
                machine.load_lpddr(2, rhs);
                machine.alloc_ddr(3, *m, *n);
                let spec = GemmSpec {
                    lhs: 1,
                    rhs: RhsOperand::Lpddr(2),
                    out: 3,
                    m: *m,
                    k: *k,
                    n: *n,
                    rhs_transposed: false,
                    post: PostOp::None,
                };
                let program = gemm_program(&self.xnn_cfg, machine.handles(), &spec);
                let run = machine.run_program(&program)?;
                let err = machine
                    .ddr_matrix(3)
                    .expect("output allocated")
                    .max_abs_diff(&expected);
                report
                    .metrics
                    .insert(intern("mme_flops"), machine.total_mme_flops() as f64);
                let stats = self.stats_from_reports(std::iter::once(&run), Some(f64::from(err)));
                self.finish(&mut report, stats);
            }
            WorkloadSpec::FunctionalAttention { cfg, seed } => {
                if cfg.tokens() * cfg.hidden > MAX_ACTIVATION_ELEMENTS {
                    return Err(self.too_large(
                        workload,
                        format!("tokens*hidden = {}", cfg.tokens() * cfg.hidden),
                    ));
                }
                let q = Matrix::random(cfg.tokens(), cfg.hidden, *seed);
                let k = Matrix::random(cfg.tokens(), cfg.hidden, seed + 1);
                let v = Matrix::random(cfg.tokens(), cfg.hidden, seed + 2);
                let reference = multi_head_attention(cfg, &q, &k, &v);
                let mut machine = self.machine()?;
                machine.load_ddr(1, q);
                machine.load_ddr(2, k);
                machine.load_ddr(3, v);
                machine.alloc_ddr(4, cfg.tokens(), cfg.hidden);
                machine.set_softmax_scale(1.0 / (cfg.head_dim() as f32).sqrt());
                let spec = AttentionSpec {
                    q: 1,
                    k: 2,
                    v: 3,
                    out: 4,
                    seq_len: cfg.seq_len,
                    batch: cfg.batch,
                    heads: cfg.heads,
                    head_dim: cfg.head_dim(),
                };
                let program = attention_program(&self.xnn_cfg, machine.handles(), &spec);
                let run = machine.run_program(&program)?;
                let err = machine
                    .ddr_matrix(4)
                    .expect("output allocated")
                    .max_abs_diff(&reference);
                report.metrics.insert(
                    intern("ddr_traffic_bytes"),
                    machine.ddr_traffic_bytes() as f64,
                );
                let stats = self.stats_from_reports(std::iter::once(&run), Some(f64::from(err)));
                self.finish(&mut report, stats);
            }
            WorkloadSpec::ScalarPipeline { elements } => {
                use rsn_core::fus::{MapFu, MemSinkFu, MemSourceFu};
                use rsn_core::network::DatapathBuilder;
                use rsn_core::sim::Engine;
                use rsn_core::uop::Uop;
                let n = *elements;
                let mut b = DatapathBuilder::new();
                let s1 = b.add_stream("s1", 4);
                let s2 = b.add_stream("s2", 4);
                let input: Vec<f32> = (0..n).map(|x| x as f32).collect();
                let src = b.add_fu(MemSourceFu::new("src", input, vec![s1]));
                let map = b.add_fu(MapFu::new("map", s1, s2, |x| x + 1.0));
                let sink = b.add_fu(MemSinkFu::new("sink", n, vec![s2]));
                let mut engine = Engine::new(b.build()?).with_scheduler(self.scheduler);
                engine.push_uop(src, Uop::new("read", [0, n as i64, 0]));
                engine.push_uop(map, Uop::new("map", [n as i64]));
                engine.push_uop(sink, Uop::new("write", [0, n as i64, 0]));
                let run = engine.run()?;
                let first_wrong = engine
                    .fu::<MemSinkFu>(sink)
                    .expect("sink FU")
                    .memory()
                    .iter()
                    .enumerate()
                    .find(|(i, &v)| (v - (*i as f32 + 1.0)).abs() > 1e-6);
                let err = if first_wrong.is_none() { 0.0 } else { f64::NAN };
                let stats = self.stats_from_reports(std::iter::once(&run), Some(err));
                self.finish(&mut report, stats);
            }
            WorkloadSpec::InstructionFootprint { m, k, n } => {
                let cfg = XnnConfig::rsn_xnn().with_tiles(32, 32, 32);
                let (dp, handles) = XnnDatapath::build(&cfg)?;
                let spec = GemmSpec {
                    lhs: 1,
                    rhs: RhsOperand::Lpddr(2),
                    out: 3,
                    m: *m,
                    k: *k,
                    n: *n,
                    rhs_transposed: false,
                    post: PostOp::Bias,
                };
                let program = gemm_program(&cfg, &handles, &spec);
                let stats = program_instr_stats(&dp, &program)?;
                report.breakdown = stats
                    .per_type
                    .iter()
                    .map(|row| BreakdownRow {
                        name: intern(&row.fu_type),
                        values: vec![
                            (intern("rsn_packets"), row.rsn_packets as f64),
                            (intern("rsn_bytes"), row.rsn_bytes as f64),
                            (intern("expanded_uops"), row.expanded_uops as f64),
                            (intern("uop_bytes"), row.uop_bytes as f64),
                            (intern("compression"), row.compression_ratio()),
                        ],
                    })
                    .collect();
                let flops = 2.0 * (*m as f64) * (*k as f64) * (*n as f64);
                report
                    .metrics
                    .insert(intern("overall_compression"), stats.overall_compression());
                report.metrics.insert(
                    intern("flops_per_instruction_byte"),
                    stats.flops_per_instruction_byte(flops),
                );
                report
                    .metrics
                    .insert(intern("total_rsn_bytes"), stats.total_rsn_bytes() as f64);
            }
            WorkloadSpec::DatapathProperties => {
                report.breakdown = XnnDatapath::fu_properties()
                    .iter()
                    .map(|p| BreakdownRow {
                        name: intern(&p.fu_type),
                        values: vec![
                            (intern("instances"), p.instances as f64),
                            (intern("tflops"), p.tflops),
                            (intern("memory_mb"), p.memory_mb),
                            (intern("bandwidth_gb_s"), p.bandwidth_gb_s),
                        ],
                    })
                    .collect();
            }
            _ => return Err(unsupported(self, workload)),
        }
        Ok(report)
    }
}
