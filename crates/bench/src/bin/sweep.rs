//! Batched sweep over the full {kernel × table-mode × engine-config}
//! matrix, serial vs parallel: a correctness check, not a timing.
//!
//! ```text
//! cargo run --bin sweep                    # test-size matrix, host threads
//! cargo run --bin sweep -- --scale 0.2     # larger workloads (scale in [0, 1])
//! cargo run --bin sweep -- --workers 4     # explicit worker count
//! ```
//!
//! Every engine variant is compiled once; the batch runners instantiate
//! engines from the shared artifacts. The binary runs the matrix twice —
//! once on one worker, once on N — asserts the two runs are bit-identical
//! and that every engine variant of a model simulates each workload
//! identically, then prints the cycles table. Any divergence panics.

use rcpn::batch::BatchRunner;
use rcpn_bench::sweep::Sweep;
use workloads::Kernel;

fn main() {
    let mut scale = 0.0f64;
    // Floor of 2 so the parallel run exercises the thread pool even on a
    // single-CPU host.
    let mut workers = BatchRunner::host_parallel().workers().max(2);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let parsed = it.next().and_then(|s| s.parse().ok());
                scale = parsed
                    .ok_or("--scale needs a number".to_string())
                    .and_then(Kernel::check_scale)
                    .unwrap_or_else(|e| {
                        eprintln!("sweep: {e}");
                        std::process::exit(2)
                    });
            }
            "--workers" => {
                workers = it.next().and_then(|s| s.parse().ok()).expect("--workers needs a count");
            }
            other => {
                eprintln!("unknown argument {other:?}; try --scale N | --workers N");
                std::process::exit(2);
            }
        }
    }

    let sweep = Sweep::new(scale);
    println!(
        "matrix: {} engine variants x {} workloads = {} jobs",
        sweep.variants.len(),
        sweep.workloads.len(),
        sweep.len(),
    );

    let serial = sweep.run(&BatchRunner::new(1));
    let parallel = sweep.run(&BatchRunner::new(workers));
    assert!(
        serial.simulation_identical(&parallel),
        "parallel sweep diverged from the serial run — determinism is broken"
    );
    // Engine knobs are speed knobs: identical timing across the whole
    // axis, and the activity-driven scheduler bit-matches its oracle.
    sweep.assert_cross_engine_identity(&serial);

    println!("{:<34}{:>12}{:>12}{:>10}", "", "cycles", "instrs", "cpi");
    for row in &parallel.rows {
        println!(
            "{:<34}{:>12}{:>12}{:>10.3}",
            format!("{}/{}", row.variant, row.kernel),
            row.cycles,
            row.instrs,
            row.cycles as f64 / row.instrs as f64,
        );
    }
    println!(
        "\n{} jobs, {} total simulated cycles, merged stats bit-identical at 1 and {} workers",
        parallel.rows.len(),
        parallel.total_cycles(),
        parallel.workers,
    );
}
