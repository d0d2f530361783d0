//! The service's report cache, through the facade: a repeated spec is
//! answered from the cache on the submitting thread, so a streamed
//! request for it never waits out the micro-batcher's deadline, and the
//! answer emits exactly what the backends compute in-process.

use rsn::eval::{CharmBackend, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn::serve::json::grid_json;
use rsn::serve::{BackendSelector, EvalRequest, EvalService, Priority, ServiceConfig};
use rsn::workloads::bert::BertConfig;
use std::time::{Duration, Instant};

fn paper_backends() -> Evaluator {
    Evaluator::empty()
        .with_backend(Box::new(XnnAnalyticBackend::new()))
        .with_backend(Box::new(CharmBackend::new()))
}

#[test]
fn repeated_spec_is_answered_before_the_batch_deadline_byte_identically() {
    let deadline = Duration::from_secs(10);
    let service = EvalService::with_config(
        paper_backends(),
        ServiceConfig {
            batch_deadline: deadline,
            ..ServiceConfig::default()
        },
    );
    let specs = vec![WorkloadSpec::EncoderLayer {
        cfg: BertConfig::bert_large(512, 6),
    }];
    let names = service.backend_names().to_vec();
    let reference = grid_json(&names, &specs, &paper_backends().evaluate_grid(&specs)).to_pretty();

    // A burst flushes the batcher, so the first (missing) answer is prompt.
    let first = service
        .submit_batch(specs.clone(), BackendSelector::All, Priority::Normal)
        .wait();
    assert_eq!(first.results.len(), names.len());

    // A streamed submit would coalesce under the 10 s deadline; the repeat
    // is cached, so it must not wait for the batcher at all.
    let started = Instant::now();
    let repeat = service
        .submit(EvalRequest::all(specs[0].clone()))
        .wait_timeout(deadline / 10)
        .expect("a cached spec is answered without waiting out the batch deadline");
    assert!(started.elapsed() < deadline / 10);
    let grid: Vec<Vec<_>> = repeat
        .results
        .iter()
        .map(|(_, result)| vec![(**result).clone()])
        .collect();
    assert_eq!(grid_json(&names, &specs, &grid).to_pretty(), reference);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, names.len() as u64);
    assert_eq!(
        stats.batched_requests, 1,
        "only the first burst was batched"
    );
}
