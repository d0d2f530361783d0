//! The built-in comparison points, one module per backend.

mod charm;
mod cycle;
mod gpu;
mod overlay;
mod roofline;
mod xnn;

pub use charm::CharmBackend;
pub use cycle::CycleEngineBackend;
pub use gpu::GpuBackend;
pub use overlay::OverlayBackend;
pub use roofline::RooflineBackend;
pub use xnn::XnnAnalyticBackend;

use crate::backend::Backend;
use rsn_hw::gpu::GpuModel;

/// Every backend of the standard comparison, in presentation order:
/// the RSN-XNN analytic model, the cycle-level engine, the overlay-style
/// baseline, CHARM, the five Table 10 GPUs, and the roofline bound.
pub fn default_backends() -> Vec<Box<dyn Backend>> {
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(XnnAnalyticBackend::new()),
        Box::new(CycleEngineBackend::new()),
        Box::new(OverlayBackend::new()),
        Box::new(CharmBackend::new()),
    ];
    for model in [
        GpuModel::T4,
        GpuModel::V100,
        GpuModel::A100Fp32,
        GpuModel::A100Fp16,
        GpuModel::L4,
    ] {
        backends.push(Box::new(GpuBackend::new(model)));
    }
    backends.push(Box::new(RooflineBackend::new()));
    backends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use std::sync::Arc;

    #[test]
    fn reports_of_one_backend_share_their_labels() {
        // Labels go through the thread's interner, so a stream of reports
        // holds one copy of each backend name and metric key, not one per
        // report.
        let specs = [
            WorkloadSpec::SquareGemm { n: 256 },
            WorkloadSpec::SquareGemm { n: 512 },
        ];
        let backends: [Box<dyn Backend>; 3] = [
            Box::new(XnnAnalyticBackend::new()),
            Box::new(CharmBackend::new()),
            Box::new(RooflineBackend::new()),
        ];
        for backend in &backends {
            let [a, b] = specs.each_ref().map(|spec| backend.evaluate(spec).unwrap());
            assert_eq!(&*a.backend, backend.name());
            assert!(Arc::ptr_eq(&a.backend, &b.backend), "{}", backend.name());
            assert_eq!(a.metrics.len(), b.metrics.len());
            for (ka, kb) in a.metrics.keys().zip(b.metrics.keys()) {
                assert!(Arc::ptr_eq(ka, kb), "{}: key {ka}", backend.name());
            }
        }
        let xnn = XnnAnalyticBackend::new().evaluate(&specs[0]).unwrap();
        assert!(xnn.metric("bandwidth_scale").is_some());
        let roofline = RooflineBackend::new().evaluate(&specs[0]).unwrap();
        assert!(roofline.metric("compute_bound").is_some());
    }
}
