//! The shard wire end to end, through the facade: a default-config
//! loopback [`ShardServer`] must answer exactly what the same backend
//! answers in-process, and must refuse anything that is not its one
//! binary protocol.

use rsn::eval::{Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn::serve::json::grid_json;
use rsn::serve::wire::{read_response_frame, ShardResponse};
use rsn::serve::{EvalService, ShardRouter, ShardServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn xnn() -> Evaluator {
    Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new()))
}

fn loopback_shard() -> ShardServer {
    ShardServer::bind("127.0.0.1:0", EvalService::new(xnn())).expect("bind loopback shard")
}

#[test]
fn loopback_shard_grid_is_byte_identical_to_in_process() {
    let server = loopback_shard();
    let service = ShardRouter::new()
        .remote(&server.local_addr().to_string())
        .expect("loopback shard reachable")
        .build()
        .expect("unique backend names");
    let specs: Vec<WorkloadSpec> = [256usize, 512, 1024, 2048, 4096]
        .into_iter()
        .map(|n| WorkloadSpec::SquareGemm { n })
        .collect();
    let names = service.backend_names().to_vec();
    assert_eq!(names, ["rsn-xnn"]);

    let remote = service.evaluate_grid(&specs);
    assert!(remote.iter().flatten().all(Result::is_ok));
    assert_eq!(
        grid_json(&names, &specs, &remote).to_pretty(),
        grid_json(&names, &specs, &xnn().evaluate_grid(&specs)).to_pretty(),
        "a grid evaluated through the shard must emit the in-process text"
    );
    assert!(
        server.stats().evaluations > 0,
        "the grid must really have crossed the wire"
    );
}

#[test]
fn loopback_shard_refuses_a_json_framed_hello() {
    let server = loopback_shard();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let hello = br#"{"id":1,"kind":"hello"}"#;
    stream
        .write_all(&(hello.len() as u32).to_be_bytes())
        .expect("write prefix");
    stream.write_all(hello).expect("write payload");

    // The answer is a binary frame: a rejection, not a backend list.
    let (_, response, _) = read_response_frame(&mut stream, &mut Vec::new())
        .expect("a binary response frame")
        .expect("an answer, not EOF");
    assert!(
        matches!(response, ShardResponse::Rejected(_)),
        "expected a rejection, got {response:?}"
    );
    // ...after which the shard closes the connection.
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the shard to close the connection, got {other:?}"),
    }
}
