//! Command-line client for a running `rcpn-serve` instance.
//!
//! ```text
//! rcpn-client ping ADDR [--retry N]
//!     Connect (retrying up to N times while the server starts), print
//!     the server's models and pool geometry.
//!
//! rcpn-client drive ADDR [--check]
//!     Submit the six fig10 kernels against every served model, stream
//!     the results back, and — with --check — verify each against an
//!     in-process run of the same compiled model (bit-identical Stats
//!     and SchedStats, the service determinism guarantee).
//!
//! rcpn-client shutdown ADDR
//!     Ask the server to shut down cleanly.
//! ```

use std::process::ExitCode;
use std::time::Duration;

use processors::sim::{CompiledSim, ProcModel};
use rcpn::batch::BatchRunner;
use rcpn_bench::MAX_CYCLES;
use rcpn_serve::client::{Admission, Client};
use workloads::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some((addr, flags)) = rest.split_first() else {
        return usage();
    };
    let run = match cmd.as_str() {
        "ping" => ping(addr, flags),
        "drive" => drive(addr, flags),
        "shutdown" => shutdown(addr, flags),
        _ => return usage(),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rcpn-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcpn-client ping ADDR [--retry N]\n\
         \x20      rcpn-client drive ADDR [--check]\n\
         \x20      rcpn-client shutdown ADDR"
    );
    ExitCode::from(2)
}

fn ping(addr: &str, flags: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut retries = 0u32;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--retry" => {
                retries = it
                    .next()
                    .ok_or("--retry needs a value")?
                    .parse()
                    .map_err(|e| format!("--retry: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    let mut client = connect_with_retry(addr, retries)?;
    let info = client.hello()?;
    println!(
        "rcpn-serve at {addr}: models [{}], {} workers, queue {}",
        info.models.join(", "),
        info.workers,
        info.queue_capacity,
    );
    Ok(ExitCode::SUCCESS)
}

fn connect_with_retry(addr: &str, retries: u32) -> Result<Client, Box<dyn std::error::Error>> {
    let mut attempt = 0;
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if attempt < retries => {
                eprintln!("rcpn-client: connect attempt {}: {e}; retrying", attempt + 1);
                attempt += 1;
                std::thread::sleep(Duration::from_millis(500));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn drive(addr: &str, flags: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let check = match flags {
        [] => false,
        [f] if f == "--check" => true,
        _ => return Err("drive takes only --check".into()),
    };
    let mut client = Client::connect(addr)?;
    let info = client.hello()?;
    let workloads = Workload::suite(0.0);

    // Submit everything up front (resubmitting on Busy), then collect in
    // submission order — the inbox pairs results back up even though the
    // server streams completions as they happen.
    let mut pending: Vec<(u64, String, usize)> = Vec::new();
    for model in &info.models {
        for (w, workload) in workloads.iter().enumerate() {
            loop {
                let (job_id, admission) = client.submit(model, &workload.program, MAX_CYCLES)?;
                match admission {
                    Admission::Accepted => {
                        pending.push((job_id, model.clone(), w));
                        break;
                    }
                    Admission::Busy => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
    }

    let mut failures = 0usize;
    for (job_id, model, w) in pending {
        let workload = &workloads[w];
        let outcome = client.collect(job_id)?;
        let ok = outcome.result.exit == Some(workload.expected);
        if !ok {
            failures += 1;
        }
        let verdict = if check {
            // The determinism guarantee, verified end to end: an
            // in-process run of the same compiled model must produce
            // bit-identical results and statistics.
            let proc = ProcModel::ALL
                .iter()
                .copied()
                .find(|m| m.label() == model)
                .ok_or_else(|| format!("server model {model:?} not in local registry"))?;
            let sim = CompiledSim::of(proc);
            let local = sim
                .run_batch(
                    std::slice::from_ref(&workload.program),
                    MAX_CYCLES,
                    &BatchRunner::new(1),
                )
                .remove(0);
            let identical = local.result == outcome.result
                && local.stats == outcome.stats
                && local.sched == outcome.sched;
            if !identical {
                failures += 1;
            }
            if identical {
                "  identical"
            } else {
                "  MISMATCH vs in-process"
            }
        } else {
            ""
        };
        println!(
            "{model}/{}: {} cycles, {} instrs, exit {:?}{verdict}",
            workload.kernel, outcome.result.cycles, outcome.result.instrs, outcome.result.exit,
        );
    }
    if failures == 0 {
        println!("drive: all jobs completed with expected checksums");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("drive: {failures} job(s) failed");
        Ok(ExitCode::FAILURE)
    }
}

fn shutdown(addr: &str, flags: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    if !flags.is_empty() {
        return Err("shutdown takes no flags".into());
    }
    let mut client = Client::connect(addr)?;
    client.shutdown()?;
    println!("rcpn-client: server acknowledged shutdown");
    Ok(ExitCode::SUCCESS)
}
