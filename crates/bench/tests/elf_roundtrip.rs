//! The image-subsystem acceptance gate: for **all three ARM processor
//! models** on **all six Fig. 10 kernels**, the ELF round trip
//! `assemble → to_elf_bytes → load_elf → run` must be **bit-identical**
//! to the in-process path — same trace, same `Stats`, same `SchedStats`,
//! same final registers, same architectural result — and a committed
//! golden `.elf` driven the way `rcpn-run` drives it must reproduce its
//! kernel's gold checksum.

use arm_isa::program::MemLayout;
use processors::sim::{CaSim, CompiledSim, ProcModel};
use rcpn::engine::TraceEvent;
use rcpn::stats::{SchedStats, Stats};
use rcpn_loader::{load_elf, ProgramToElf};
use workloads::{Kernel, Workload};

/// One simulator's complete observable outcome on one workload: the
/// architectural result, the microarchitectural record, and the final
/// register file.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: Option<u32>,
    cycles: u64,
    instrs: u64,
    trace: Vec<TraceEvent>,
    stats: Stats,
    sched: SchedStats,
    regs: [u32; 15],
}

fn outcome(mut sim: CaSim) -> Outcome {
    let r = sim.run(50_000_000);
    let mut regs = [0u32; 15];
    for (n, slot) in regs.iter_mut().enumerate() {
        *slot = sim.reg(n);
    }
    Outcome {
        exit: r.exit,
        cycles: r.cycles,
        instrs: r.instrs,
        trace: sim.engine.take_trace(),
        stats: sim.engine.stats().clone(),
        sched: sim.engine.sched().clone(),
        regs,
    }
}

/// Every `(ARM model, fig10 kernel)` cell: the ELF-round-tripped image is
/// bit-identical to the in-process program.
#[test]
fn all_models_all_kernels_roundtrip_bit_identically() {
    let workloads: Vec<Workload> =
        Kernel::ALL.iter().map(|&k| Workload::build(k, k.test_size())).collect();
    assert_eq!(workloads.len(), 6, "the fig10 kernel suite has six benchmarks");
    for model in ProcModel::ALL {
        let mut config = model.default_config();
        config.engine.trace = true;
        let sim = CompiledSim::new(model, &config);
        for w in &workloads {
            let image = load_elf(&w.program.to_elf_bytes()).expect("writer output loads");
            assert_eq!(image.program, w.program, "{}: program drift", w.kernel);
            assert_eq!(
                image.layout,
                MemLayout::default(),
                "{}: fig10 images must derive the historical layout",
                w.kernel
            );
            let direct = outcome(sim.instantiate(&w.program));
            let via_elf = outcome(sim.instantiate_image(&image));
            assert_eq!(
                direct.exit,
                Some(w.expected),
                "{}/{}: in-process run must pass the gold checksum",
                model.figure_name(),
                w.kernel
            );
            assert_eq!(
                direct,
                via_elf,
                "{}/{}: ELF round trip != in-process",
                model.figure_name(),
                w.kernel
            );
        }
    }
}

/// The `rcpn-run` path on committed binaries: load each golden `.elf`
/// from `crates/workloads/fixtures/`, run it on each registry model
/// compiled once, and require the kernel's gold checksum.
#[test]
fn committed_fixtures_reproduce_gold_checksums() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../workloads/fixtures");
    for model in ProcModel::ALL {
        let sim = CompiledSim::of(model);
        for &kernel in Kernel::ALL.iter() {
            let w = Workload::build(kernel, kernel.test_size());
            let path = format!("{fixtures}/{}.elf", kernel.name());
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); see the bless flow"));
            let image = load_elf(&bytes).expect("committed fixture loads");
            let mut run = sim.instantiate_image(&image);
            let result = run.run(50_000_000);
            assert_eq!(result.fault, None, "{}/{kernel}: faulted", model.figure_name());
            assert_eq!(
                result.exit,
                Some(w.expected),
                "{}/{kernel}: committed .elf no longer reproduces the gold checksum",
                model.figure_name()
            );
            assert_eq!(run.unknown_swis(), 0, "{}/{kernel}: unknown SWIs", model.figure_name());
        }
    }
}
