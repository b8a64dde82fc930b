//! The repository benchmark: Figure 10 speed-up, a memory-bound design
//! point and served jobs, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path rcpnbench/Cargo.toml -- \
//!     --workload fig10|memory-bound|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call into the workspace's crates and
//! prints the per-layer metrics. The last line of standard output is the
//! JSON result; the lines before it are a human-readable report.

mod declared;
mod layers;
mod plan;
mod report;
mod rounds;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use plan::{Rng, Workload};
use report::Metric;
use rounds::Rounds;
use stats::Tally;
use trace::Tracer;

/// Length of one `serve-mix` burst of served jobs; a paired in-process
/// round follows each.
const SERVE_BURST: Duration = Duration::from_millis(2000);

/// Served jobs completed even when the time window is shorter: enough for
/// the 95th percentile to have ten samples beyond it.
pub const SERVE_MIN_JOBS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let specs = plan::programs(args.workload, args.seed);
    let mut tr = Tracer::new(args.trace);
    let mut tally = Tally::default();

    let t = Instant::now();
    let mut setup = setup::setup(args.workload, &specs, &mut tr, Some(&mut tally)).map_err(io)?;
    // Set-up time is sampled again before every round (the copy is
    // dropped) and normalised by that round's baseline speed.
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let window = Duration::from_secs(args.seconds);
    let server = setup.server.take();
    let mut rounds = Rounds::new(&setup, Rng::new(args.seed ^ 0x726f_756e_6473), args.trace);
    // Returns the number of rounds run so far.
    let mut next_round = |tr: &mut Tracer, tally: &mut Tally| -> Result<usize, String> {
        if !rounds.paired.rounds.is_empty() {
            let t = Instant::now();
            drop(setup::setup(args.workload, &specs, tr, None).map_err(io)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        rounds.round(tr, tally);
        Ok(rounds.paired.rounds.len())
    };
    let served = match server {
        Some(server) => {
            let jobs = plan::serve_jobs(setup.programs.len(), args.seed);
            let schedule = serve::Schedule {
                window,
                burst: SERVE_BURST,
                min_bursts: rounds::MIN_ROUNDS,
                min_jobs: SERVE_MIN_JOBS,
                max_in_flight: setup::host_threads(),
            };
            let mut failed = None;
            let mut between = |tr: &mut Tracer, tally: &mut Tally| {
                if let Err(e) = next_round(tr, tally) {
                    failed.get_or_insert(e);
                }
            };
            let served = serve::serve_phase(
                server,
                &setup.programs,
                &jobs,
                schedule,
                &mut tr,
                &mut tally,
                &mut between,
            );
            if let Some(e) = failed {
                return Err(e);
            }
            Some(served.map_err(io)?)
        }
        None => {
            let start = Instant::now();
            loop {
                let done = next_round(&mut tr, &mut tally)?;
                if done >= rounds::MIN_ROUNDS && start.elapsed() >= window {
                    break None;
                }
            }
        }
    };
    let paired = rounds.paired;
    if let Some(s) = &served {
        check_served_against_in_process(s, &paired, &setup, &mut tally);
    }

    let metrics: Vec<Metric> = if args.trace {
        let m = layers::per_layer(&setup, &paired, served.as_ref(), &mut tr, &mut tally);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tr.write_jsonl(&path).map_err(io)?;
        println!(
            "workload {} (traced); {} spans written to {}",
            args.workload.name(),
            tr.spans().len(),
            path.display()
        );
        for m in &m {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        m
    } else {
        let rows =
            report::end_to_end(&setup, &paired, served.as_ref(), &setup_s, report::peak_rss_mb());
        report::print_table(args.workload, &rows);
        report::print_speedups(&rows, &layers::cycle_gaps(&setup, &paired));
        rows.into_iter().map(|r| r.metric).collect()
    };
    declared::check(&metrics, args.trace)?;
    println!(
        "error_rate {} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for (reason, n) in &tally.reasons {
        println!("failure: {reason} ×{n}");
    }
    println!("{}", report::result_line(&tally, &metrics));
    Ok(())
}

/// Each distinct served job's first outcome must be bit-identical to the
/// in-process run of the same (model, program).
fn check_served_against_in_process(
    served: &serve::Served,
    paired: &rounds::Paired,
    setup: &setup::Setup,
    tally: &mut Tally,
) {
    for (&(model, program), outcome) in &served.first {
        let model = processors::sim::ProcModel::ALL[model];
        let config = setup.configs.iter().position(|c| c.model() == Some(model));
        let same = config.and_then(|c| paired.rcpn(c, program)).is_some_and(|f| {
            f.result == outcome.result && f.stats == outcome.stats && f.sched == outcome.sched
        });
        tally.record((!same).then(|| "served result differs from the in-process run".to_string()));
    }
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
