//! The simulation service daemon and its observability reporter.
//!
//! ```text
//! rcpn-serve serve [--addr A] [--workers N] [--queue N]
//!     Compile all registry models, print the bound address, and serve
//!     jobs until a client sends Shutdown.
//!
//! rcpn-serve sweep-diff OLD NEW [--tolerance PCT]
//! rcpn-serve sweep-diff OLD --live ADDR [--scale S] [--tolerance PCT]
//!     Diff two BENCH_sweep.json records (or a committed record against
//!     a live server's freshly recorded sweep). Exit 0 on a zero diff,
//!     1 when differences were found, 2 on usage errors.
//! ```

use std::process::ExitCode;

use rcpn_bench::record::{SweepDiff, SweepRecord};
use rcpn_serve::client::Client;
use rcpn_serve::server::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "serve" => serve(rest),
        Some((cmd, rest)) if cmd == "sweep-diff" => sweep_diff(rest),
        _ => {
            eprintln!(
                "usage: rcpn-serve serve [--addr A] [--workers N] [--queue N]\n\
                 \x20      rcpn-serve sweep-diff OLD (NEW | --live ADDR [--scale S]) [--tolerance PCT]"
            );
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

fn sweep_diff(args: &[String]) -> ExitCode {
    let mut old_path = None;
    let mut new_path = None;
    let mut live_addr = None;
    let mut scale = 0.0f64;
    let mut tolerance = 0.10f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        let result = match arg.as_str() {
            "--live" => value("--live").map(|v| live_addr = Some(v)),
            "--scale" => value("--scale")
                .and_then(|v| v.parse().map(|s| scale = s).map_err(|e| format!("--scale: {e}"))),
            "--tolerance" => value("--tolerance").and_then(|v| {
                v.parse::<f64>()
                    .map(|t| tolerance = t / 100.0)
                    .map_err(|e| format!("--tolerance: {e}"))
            }),
            _ if old_path.is_none() => {
                old_path = Some(arg.clone());
                Ok(())
            }
            _ if new_path.is_none() => {
                new_path = Some(arg.clone());
                Ok(())
            }
            other => Err(format!("unexpected argument {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("rcpn-serve: {e}");
            return ExitCode::from(2);
        }
    }
    let Some(old_path) = old_path else {
        eprintln!("rcpn-serve: sweep-diff needs an OLD record path");
        return ExitCode::from(2);
    };
    let new_text = match (&new_path, &live_addr) {
        (Some(path), None) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rcpn-serve: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(addr)) => {
            // Record a fresh sweep on the live server; its rows carry the
            // default-variant labels, so they intersect a committed record.
            let run = Client::connect(addr.as_str()).and_then(|mut c| c.run_sweep(scale));
            match run {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("rcpn-serve: {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            eprintln!("rcpn-serve: sweep-diff needs either NEW or --live ADDR (not both)");
            return ExitCode::from(2);
        }
    };
    let old_text = match std::fs::read_to_string(&old_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rcpn-serve: {old_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parse =
        |name: &str, text: &str| SweepRecord::parse(text).map_err(|e| format!("{name}: {e}"));
    let (old, new) = match (parse(&old_path, &old_text), parse("NEW", &new_text)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rcpn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diff = SweepDiff::between(&old, &new, tolerance);
    print!("{}", diff.render());
    if diff.is_zero() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
