//! `hpcnet-serve`: stand up an orchestrator behind a TCP endpoint.
//!
//! ```text
//! hpcnet-serve --addr 127.0.0.1:7070 --demo
//! hpcnet-serve --addr 0.0.0.0:7070 --model AI-PCG-net=./saved_net.pt \
//!              --workers 4 --queue-depth 256 --default-deadline-ms 5000
//! ```
//!
//! `--workers N` is how many rounds may execute at once (the connection
//! threads execute them; the orchestrator has no threads of its own),
//! `--queue-depth N` how many requests may be pending behind them.
//!
//! The bound address is printed as `listening on <addr>` once the server
//! is accepting (scripts wait for that line). Graceful drain: send the
//! line `quit` on stdin — already-admitted requests finish, final stats
//! print, then the process exits. On stdin EOF the server keeps running
//! until the process is killed.

use std::io::BufRead;
use std::time::Duration;

use hpcnet_net::NetServer;
use hpcnet_runtime::{ModelBundle, Orchestrator, TensorStore};

struct Args {
    addr: String,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    default_deadline_ms: Option<u64>,
    window: Option<usize>,
    store_cap: Option<usize>,
    models: Vec<(String, String)>,
    demo: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hpcnet-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20                   [--default-deadline-ms N] [--window N] [--store-cap N]\n\
         \x20                   [--model NAME=PATH]... [--demo]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7070".to_string(),
        workers: None,
        queue_depth: None,
        default_deadline_ms: None,
        window: None,
        store_cap: None,
        models: Vec::new(),
        demo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--workers" => args.workers = Some(parse_num(&value("--workers"), "--workers")),
            "--queue-depth" => {
                args.queue_depth = Some(parse_num(&value("--queue-depth"), "--queue-depth"))
            }
            "--default-deadline-ms" => {
                args.default_deadline_ms =
                    Some(parse_num(&value("--default-deadline-ms"), "--default-deadline-ms") as u64)
            }
            "--window" => args.window = Some(parse_num(&value("--window"), "--window")),
            "--store-cap" => args.store_cap = Some(parse_num(&value("--store-cap"), "--store-cap")),
            "--model" => {
                let spec = value("--model");
                match spec.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        args.models.push((name.to_string(), path.to_string()))
                    }
                    _ => {
                        eprintln!("--model expects NAME=PATH, got `{spec}`");
                        usage()
                    }
                }
            }
            "--demo" => args.demo = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if args.models.is_empty() && !args.demo {
        eprintln!("no models: pass --model NAME=PATH or --demo");
        usage()
    }
    args
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{s}`");
        usage()
    })
}

fn main() {
    let args = parse_args();

    let store = match args.store_cap {
        Some(cap) => TensorStore::with_max_entries(cap),
        None => TensorStore::new(),
    };
    let mut builder = Orchestrator::builder().store(store);
    if let Some(w) = args.workers {
        builder = builder.workers(w);
    }
    if let Some(d) = args.queue_depth {
        builder = builder.queue_depth(d);
    }
    if let Some(ms) = args.default_deadline_ms {
        builder = builder.default_deadline(Duration::from_millis(ms));
    }
    let orchestrator = builder.build();

    if args.demo {
        orchestrator.register_model(hpcnet_net::DEMO_MODEL, hpcnet_net::demo_bundle());
        eprintln!("registered demo model `{}`", hpcnet_net::DEMO_MODEL);
    }
    for (name, path) in &args.models {
        let bundle = ModelBundle::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("loading model `{name}` from {path}: {e}");
            std::process::exit(1);
        });
        orchestrator.register_model(name, bundle);
        eprintln!("registered model `{name}` from {path}");
    }

    let mut server_builder = NetServer::builder(orchestrator);
    if let Some(w) = args.window {
        server_builder = server_builder.window(w);
    }
    let server = server_builder.serve(&args.addr).unwrap_or_else(|e| {
        eprintln!("binding {}: {e}", args.addr);
        std::process::exit(1);
    });
    // Scripts key off this exact line to know the port is accepting.
    println!("listening on {}", server.local_addr());

    // `quit` on stdin triggers the graceful drain; EOF keeps serving.
    let stdin = std::io::stdin();
    let mut saw_quit = false;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "quit" | "shutdown" => {
                saw_quit = true;
                break;
            }
            "" => {}
            other => eprintln!("unrecognized command `{other}` (try `quit`)"),
        }
    }
    if !saw_quit {
        // Detached from stdin (e.g. backgrounded with </dev/null): serve
        // until killed.
        loop {
            std::thread::park();
        }
    }

    eprintln!("draining...");
    let stats = server.shutdown();
    eprintln!(
        "drained: {} request(s), {} batch(es), {} error(s)",
        stats.requests, stats.batches, stats.errors
    );
}
