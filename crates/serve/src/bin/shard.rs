//! `shardd` — hosts backend worker pools as a remote evaluation shard.
//!
//! ```sh
//! shardd --listen 127.0.0.1:7070 --backends rsn-xnn,charm --workers 2
//! shardd --topology deploy/shard-a.json
//! ```
//!
//! With `--topology` the shard loads everything (bind address via the
//! file's `"listen"` field, hosted backends via `"local"`, service and
//! transport tuning via `"service"`) from a topology file — see
//! [`rsn_serve::topology`] — and individual flags override the file.
//! The first stdout line is always `shardd listening on <addr>` (with the
//! real port when `--listen` used port 0), so launchers can scrape the
//! address; everything else goes to stderr.  The process serves until
//! killed — pooled clients re-dial transparently, so restarting a shard
//! costs its clients one transport error per in-flight request and
//! nothing after.

use rsn_eval::{default_backends, Evaluator};
use rsn_serve::remote::ShardServer;
use rsn_serve::topology::Topology;
use rsn_serve::EvalService;
use std::io::Write as _;

const USAGE: &str = "usage: shardd [--topology FILE] [--listen ADDR] [--backends NAME,NAME,...] \
                     [--workers N] [--cache-capacity N] [--encoding auto|binary_nodict] \
                     [--transport auto|socket|shm] [--frontend threads|reactor]\n\
                     \n\
                     --topology FILE      load listen address, hosted backends and service\n\
                     \x20                    tuning from a topology file (flags override it)\n\
                     --listen ADDR        bind address (default 127.0.0.1:7070; port 0 picks one)\n\
                     --backends NAMES     comma-separated backend names to host (default: all)\n\
                     --workers N          worker threads per hosted backend (default 2)\n\
                     --cache-capacity N   bound the report cache to N completed entries\n\
                     --encoding POLICY    answer framing: auto mirrors each request's symbol\n\
                     \x20                    dictionaries (default), binary_nodict forces plain\n\
                     \x20                    binary frames (json and binary were removed)\n\
                     --transport POLICY   shared-memory ring offers: auto offers one to\n\
                     \x20                    loopback peers (default), socket never offers,\n\
                     \x20                    shm offers to every peer (same-host fleets behind\n\
                     \x20                    a non-loopback address)\n\
                     --frontend POLICY    connection front end: threads serves each connection\n\
                     \x20                    from a blocking thread (default), reactor serves\n\
                     \x20                    them all from one event loop (request\n\
                     \x20                    multiplexing; never offers shm rings)\n";

fn fail(message: &str) -> ! {
    eprintln!("shardd: {message}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut listen: Option<String> = None;
    let mut backend_names: Option<Vec<String>> = None;
    let mut workers: Option<usize> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut encoding: Option<rsn_serve::EncodingPolicy> = None;
    let mut transport: Option<rsn_serve::TransportPolicy> = None;
    let mut frontend: Option<rsn_serve::FrontendPolicy> = None;
    let mut topology: Option<Topology> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--topology" => {
                let path = value("--topology");
                topology = Some(
                    Topology::from_file(std::path::Path::new(&path))
                        .unwrap_or_else(|e| fail(&e.to_string())),
                );
            }
            "--listen" => listen = Some(value("--listen")),
            "--backends" => {
                backend_names = Some(
                    value("--backends")
                        .split(',')
                        .map(|name| name.trim().to_string())
                        .filter(|name| !name.is_empty())
                        .collect(),
                );
            }
            "--workers" => {
                workers = Some(
                    value("--workers")
                        .parse()
                        .unwrap_or_else(|_| fail("--workers needs an integer")),
                );
            }
            "--cache-capacity" => {
                cache_capacity = Some(
                    value("--cache-capacity")
                        .parse()
                        .unwrap_or_else(|_| fail("--cache-capacity needs an integer")),
                );
            }
            "--encoding" => {
                let text = value("--encoding");
                encoding = Some(
                    rsn_serve::EncodingPolicy::parse(&text)
                        .unwrap_or_else(|message| fail(&message)),
                );
            }
            "--transport" => {
                let text = value("--transport");
                transport = Some(rsn_serve::TransportPolicy::parse(&text).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown transport `{text}` (expected auto, socket or shm)"
                    ))
                }));
            }
            "--frontend" => {
                let text = value("--frontend");
                frontend = Some(rsn_serve::FrontendPolicy::parse(&text).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown frontend `{text}` (expected threads or reactor)"
                    ))
                }));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    // Resolution order: explicit flag > topology file > built-in default.
    let mut config = topology
        .as_ref()
        .map(|t| t.service.clone())
        .unwrap_or_default();
    if let Some(workers) = workers {
        config.workers_per_backend = workers;
    }
    if let Some(capacity) = cache_capacity {
        config.cache_capacity = Some(capacity);
    }
    if let Some(encoding) = encoding {
        config.remote.encoding = encoding;
    }
    if let Some(transport) = transport {
        config.remote.transport = transport;
    }
    if let Some(frontend) = frontend {
        config.remote.frontend = frontend;
    }
    let listen = listen
        .or_else(|| topology.as_ref().and_then(|t| t.listen.clone()))
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    if backend_names.is_none() {
        if let Some(topology) = &topology {
            if !topology.local.is_empty() {
                backend_names = Some(topology.local.clone());
            }
            if !topology.remotes.is_empty() {
                eprintln!(
                    "shardd: note: topology `remotes` entries are ignored — a shard hosts \
                     local pools; point clients (table binaries, routers) at this shard instead"
                );
            }
        }
    }

    let mut evaluator = Evaluator::empty();
    let mut available = Vec::new();
    for backend in default_backends() {
        available.push(backend.name().to_string());
        let wanted = backend_names
            .as_ref()
            .is_none_or(|names| names.iter().any(|n| n == backend.name()));
        if wanted {
            evaluator.register(backend);
        }
    }
    if let Some(names) = &backend_names {
        for name in names {
            if !available.contains(name) {
                fail(&format!(
                    "unknown backend `{name}` (available: {})",
                    available.join(", ")
                ));
            }
        }
    }
    if evaluator.backends().is_empty() {
        fail("no backends selected");
    }

    let service = EvalService::with_config(evaluator, config);
    let server = match ShardServer::bind(&listen, service) {
        Ok(server) => server,
        Err(e) => fail(&format!("binding {listen} failed: {e}")),
    };
    println!("shardd listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush listen line");
    eprintln!("shardd hosting: {}", server.backend_names().join(", "));

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
