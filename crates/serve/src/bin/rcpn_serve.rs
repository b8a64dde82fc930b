//! The simulation service daemon.
//!
//! ```text
//! rcpn-serve serve [--addr A] [--workers N] [--queue N]
//!     Compile all registry models, print the bound address, and serve
//!     jobs until a client sends Shutdown. Exit 2 on usage errors,
//!     including a zero worker or queue count.
//! ```

use std::process::ExitCode;

use rcpn_serve::server::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "serve" => serve(rest),
        _ => {
            eprintln!("usage: rcpn-serve serve [--addr A] [--workers N] [--queue N]");
            ExitCode::from(2)
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        let result = match flag.as_str() {
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--workers" => value("--workers").and_then(|v| {
                v.parse().map(|n| config.workers = n).map_err(|e| format!("--workers: {e}"))
            }),
            "--queue" => value("--queue").and_then(|v| {
                v.parse().map(|n| config.queue_capacity = n).map_err(|e| format!("--queue: {e}"))
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("rcpn-serve: {e}");
            return ExitCode::from(2);
        }
    }
    // The library accepts zero workers (jobs queue but never run, which
    // the backpressure tests rely on); a served daemon would hang every
    // client in `collect`.
    if config.workers == 0 {
        eprintln!("rcpn-serve: --workers must be at least 1");
        return ExitCode::from(2);
    }
    if config.queue_capacity == 0 {
        eprintln!("rcpn-serve: --queue must be at least 1");
        return ExitCode::from(2);
    }
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rcpn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "rcpn-serve: listening on {} ({} models warmed, {} workers, queue {})",
        server.local_addr(),
        server.model_labels().len(),
        config.workers,
        config.queue_capacity,
    );
    match server.run() {
        Ok(()) => {
            println!("rcpn-serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rcpn-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
