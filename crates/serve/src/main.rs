//! The `bbc-serve` binary: daemon mode and load-generator mode.
//!
//! ```text
//! bbc-serve --socket PATH [--peers N] [--budget K]
//!           [--scheduler round-robin|max-cost-first]
//!           [--state-dir DIR] [--restore]
//!           [--queue-depth D] [--auto-settle EVERY:BUDGET]
//!           [--metrics-file PATH] [--metrics-every N]
//!
//! bbc-serve --loadgen CLIENTS --socket PATH [--requests R] [--seed S]
//!           [--connections C] [--serial] [--state-dir DIR]
//!           [--expect-digest HEX] [--bench] [--peers N] [--budget K]
//! ```
//!
//! Daemon mode serves until a client sends `Shutdown` (or the process is
//! killed; with `--state-dir` the journal makes that recoverable via
//! `--restore`). Loadgen mode drives a running daemon and prints a JSON
//! [`bbc_serve::loadgen::LoadReport`]; `--expect-digest` turns a digest
//! mismatch into a nonzero exit, which is how CI pins the protocol.

use std::path::PathBuf;
use std::process::ExitCode;

use bbc_serve::loadgen::{self, LoadGen};
use bbc_serve::socket::run_listener;
use bbc_serve::{ServeConfig, Service};

struct Args {
    socket: Option<PathBuf>,
    loadgen: Option<u64>,
    requests: u64,
    seed: u64,
    connections: usize,
    serial: bool,
    expect_digest: Option<String>,
    bench: bool,
    cfg: ServeConfig,
}

fn usage() -> &'static str {
    "usage:\n  bbc-serve --socket PATH [--peers N] [--budget K] \
     [--scheduler round-robin|max-cost-first] [--state-dir DIR] [--restore] \
     [--queue-depth D] [--auto-settle EVERY:BUDGET] [--metrics-file PATH] \
     [--metrics-every N]\n  bbc-serve --loadgen CLIENTS \
     --socket PATH [--requests R] [--seed S] [--connections C] [--serial] \
     [--state-dir DIR] [--expect-digest HEX] [--bench] [--peers N] [--budget K]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        loadgen: None,
        requests: 4000,
        seed: 0xBBC,
        connections: 4,
        serial: false,
        expect_digest: None,
        bench: false,
        cfg: ServeConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--loadgen" => {
                args.loadgen = Some(parse_num(value("--loadgen")?, "--loadgen")?);
            }
            "--requests" => args.requests = parse_num(value("--requests")?, "--requests")?,
            "--seed" => args.seed = parse_num(value("--seed")?, "--seed")?,
            "--connections" => {
                args.connections = parse_num(value("--connections")?, "--connections")? as usize;
            }
            "--serial" => args.serial = true,
            "--expect-digest" => {
                args.expect_digest = Some(value("--expect-digest")?.clone());
            }
            "--bench" => args.bench = true,
            "--peers" => args.cfg.peers = parse_num(value("--peers")?, "--peers")? as usize,
            "--budget" => args.cfg.budget = parse_num(value("--budget")?, "--budget")?,
            "--scheduler" => {
                args.cfg.scheduler = match value("--scheduler")?.as_str() {
                    "round-robin" => bbc_core::Scheduler::RoundRobin,
                    "max-cost-first" => bbc_core::Scheduler::MaxCostFirst,
                    other => return Err(format!("unknown scheduler `{other}`")),
                };
            }
            "--state-dir" => args.cfg.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--restore" => args.cfg.restore = true,
            "--queue-depth" => {
                args.cfg.queue_depth =
                    parse_num(value("--queue-depth")?, "--queue-depth")? as usize;
            }
            "--metrics-file" => {
                args.cfg.metrics_file = Some(PathBuf::from(value("--metrics-file")?));
            }
            "--metrics-every" => {
                args.cfg.metrics_every = parse_num(value("--metrics-every")?, "--metrics-every")?;
            }
            "--auto-settle" => {
                let spec = value("--auto-settle")?;
                let (every, budget) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--auto-settle wants EVERY:BUDGET, got `{spec}`"))?;
                args.cfg.auto_settle_every = parse_num(every, "--auto-settle EVERY")?;
                args.cfg.auto_settle_budget = parse_num(budget, "--auto-settle BUDGET")?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_num(text: &str, name: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{name}: `{text}` is not a number"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(socket) = args.socket.clone() else {
        eprintln!("--socket is required\n{}", usage());
        return ExitCode::from(2);
    };
    match args.loadgen {
        Some(clients) => run_loadgen(&args, clients, &socket),
        None => run_daemon(&args, &socket),
    }
}

fn run_daemon(args: &Args, socket: &std::path::Path) -> ExitCode {
    let service = match Service::start(args.cfg.clone()) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("bbc-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = service.handle();
    let listen_path = socket.to_path_buf();
    let listener = std::thread::Builder::new()
        .name("bbc-serve-listener".to_string())
        .spawn(move || run_listener(&listen_path, &handle));
    match listener {
        Ok(_) => {}
        Err(e) => {
            eprintln!("bbc-serve: cannot spawn the listener: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("bbc-serve: listening on {}", socket.display());
    // The owner loop exits on Shutdown, and `join` returns once the
    // connection that carried it has written `Bye`; the listener thread
    // dies with the process.
    let code = match service.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bbc-serve: {e}");
            ExitCode::FAILURE
        }
    };
    let _ = std::fs::remove_file(socket);
    code
}

fn run_loadgen(args: &Args, clients: u64, socket: &std::path::Path) -> ExitCode {
    let load = LoadGen {
        clients,
        requests: args.requests,
        seed: args.seed,
        connections: args.connections,
        serial: args.serial,
        verify_state_dir: args.cfg.state_dir.clone(),
    };
    let report = match loadgen::run(&load, &args.cfg, socket) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bbc-serve --loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("bbc-serve --loadgen: cannot encode the report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.bench {
        report.record_bench();
        criterion::write_results();
    }
    if !report.reference_digest.is_empty() && !report.verified {
        eprintln!(
            "bbc-serve --loadgen: digest {} diverges from the reference replay {}",
            report.digest, report.reference_digest
        );
        return ExitCode::FAILURE;
    }
    if let Some(expected) = &args.expect_digest {
        if *expected != report.digest {
            eprintln!(
                "bbc-serve --loadgen: digest {} does not match the pinned {expected}",
                report.digest
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
