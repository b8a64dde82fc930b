//! Quiescence fast-forward on the ARM models: `CaSim::run` jumps over idle
//! stretches, `CaSim::step` never does, and the two must end in the same
//! place. The caches are the memory-bound design point (a 4-set
//! direct-mapped cache with 10-cycle I-misses and 100-cycle D-misses), where
//! most cycles wait out a miss and the jump does real work.

use memsys::cache::CacheConfig;
use processors::res::SimConfig;
use processors::sim::{CaSim, CompiledSim, ProcModel, SimResult};
use rcpn::engine::{EngineConfig, SchedulerMode, TraceEvent};
use rcpn::stats::{SchedStats, Stats};
use workloads::{Kernel, Workload};

const MAX_CYCLES: u64 = 50_000_000;

fn memory_bound(model: ProcModel, scheduler: SchedulerMode) -> CompiledSim {
    let icache = CacheConfig::tiny();
    let config = SimConfig {
        icache,
        dcache: CacheConfig { miss_latency: 100, ..icache },
        engine: EngineConfig { trace: true, scheduler, ..Default::default() },
        ..model.default_config()
    };
    CompiledSim::new(model, &config)
}

/// Everything a run leaves behind that must not depend on how it was driven.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: SimResult,
    stats: Stats,
    sched: SchedStats,
    trace: Vec<TraceEvent>,
}

fn outcome(mut sim: CaSim) -> Outcome {
    Outcome {
        result: sim.result(),
        stats: sim.engine.stats().clone(),
        sched: sim.sched().clone(),
        trace: sim.engine.take_trace(),
    }
}

/// `CaSim::run`'s loop, one `CaSim::step` at a time.
fn stepped(mut sim: CaSim) -> Outcome {
    while !sim.halted() && sim.engine.cycle() < MAX_CYCLES {
        sim.step();
        if sim.res().exit.is_some() && sim.engine.live_tokens() == 0 {
            break;
        }
    }
    assert_eq!(sim.engine.cycles_skipped(), 0, "step must never jump");
    outcome(sim)
}

#[test]
fn run_matches_step_and_the_exhaustive_oracle_on_memory_bound_caches() {
    let workloads: Vec<Workload> =
        Kernel::ALL.iter().map(|&k| Workload::build(k, k.test_size())).collect();
    for model in ProcModel::ALL {
        let activity = memory_bound(model, SchedulerMode::ActivityDriven);
        let exhaustive = memory_bound(model, SchedulerMode::Exhaustive);
        let mut skipping_kernels = 0;
        for w in &workloads {
            let name = format!("{} {}", model.label(), w.kernel);

            let mut sim = activity.instantiate(&w.program);
            sim.run(MAX_CYCLES);
            let (skipped, runs) = (sim.engine.cycles_skipped(), sim.engine.skip_runs());
            let run = outcome(sim);
            assert_eq!(run.result.exit, Some(w.expected), "{name}: wrong checksum");
            assert_eq!(run.result.fault, None, "{name} faulted");

            let step = stepped(activity.instantiate(&w.program));
            assert_eq!(run.result, step.result, "{name}: SimResult differs from stepping");
            assert_eq!(run.stats, step.stats, "{name}: Stats differ from stepping");
            assert_eq!(run.sched, step.sched, "{name}: SchedStats differ from stepping");
            assert!(run.trace == step.trace, "{name}: trace differs from stepping");

            let mut oracle = exhaustive.instantiate(&w.program);
            oracle.run(MAX_CYCLES);
            assert_eq!(oracle.engine.cycles_skipped(), 0, "{name}: the oracle must never jump");
            let oracle = outcome(oracle);
            assert_eq!(run.stats, oracle.stats, "{name}: Stats differ from the exhaustive oracle");
            assert!(run.trace == oracle.trace, "{name}: trace differs from the exhaustive oracle");

            assert!(skipped < run.result.cycles && runs <= skipped, "{name}: {skipped} in {runs}");
            if skipped > 0 {
                skipping_kernels += 1;
            }
        }
        assert!(
            skipping_kernels >= 4,
            "{}: only {skipping_kernels} kernels fast-forwarded on memory-bound caches",
            model.label()
        );
    }
}

/// Slicing a run (as the benchmark does) and mixing in single steps must
/// not change anything either: each `run` call starts its quiescence
/// detection afresh.
#[test]
fn sliced_and_mixed_driving_matches_one_run() {
    let w = Workload::build(Kernel::Crc, Kernel::Crc.test_size());
    let compiled = memory_bound(ProcModel::StrongArm, SchedulerMode::ActivityDriven);
    let mut mixed = compiled.instantiate(&w.program);
    while (mixed.res().exit.is_none() || mixed.engine.live_tokens() > 0)
        && !mixed.halted()
        && mixed.engine.cycle() < MAX_CYCLES
    {
        mixed.run(997);
        for _ in 0..13 {
            mixed.step();
        }
    }
    // The stepped tail may run past the drain point, so the reference is
    // a step-by-step run to the same cycle.
    let cycles = mixed.engine.cycle();
    let mut reference = compiled.instantiate(&w.program);
    while reference.engine.cycle() < cycles {
        reference.step();
    }
    assert!(mixed.engine.cycles_skipped() > 0, "the sliced runs must still fast-forward");
    assert_eq!(mixed.engine.stats(), reference.engine.stats());
    assert_eq!(mixed.sched(), reference.sched());
    assert!(mixed.engine.take_trace() == reference.engine.take_trace());
}
