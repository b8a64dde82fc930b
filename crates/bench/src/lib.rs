//! # rcpn-bench — table generators for the paper's figures
//!
//! Everything here exists to produce *honest* numbers: model compilation
//! stays outside every timed region, and every timed run must exit with
//! its workload's gold checksum before its time is reported — a
//! mis-simulating configuration is a panic, never a data point. The
//! paired Figure 10 measurement is the repository benchmark in
//! `rcpnbench/`; the tables here print one machine's rates on demand.
//!
//! Helpers shared by the `figures`/`sweep` binaries: timed runs of each
//! simulator over each benchmark, the table generators for Figure 10
//! (simulation performance in Mcycles/s), Figure 11 (CPI), the Figure 1/2
//! model-size comparison and the Section 5 model-effort summary — plus
//! the [`sweep`] module, which batches the full
//! {kernel × table-mode × engine-config} job matrix across worker threads
//! on the compiled-model seam and checks that every engine variant
//! simulates identically, serially and in parallel.

pub mod sweep;

use std::time::Instant;

use arm_isa::iss::Iss;
use baseline_sim::SsArm;
use processors::sim::{CompiledSim, ProcModel};
use workloads::Workload;

/// Cycle budget nothing should ever hit.
pub const MAX_CYCLES: u64 = 4_000_000_000;

/// One timed simulator run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Host seconds.
    pub seconds: f64,
}

impl Measurement {
    /// Million simulated cycles per host second (Figure 10's metric).
    pub fn mcps(&self) -> f64 {
        self.cycles as f64 / self.seconds / 1.0e6
    }

    /// Cycles per instruction (Figure 11's metric).
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instrs as f64
    }
}

/// Which simulator to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simulator {
    /// The SimpleScalar-style baseline (the paper's comparator).
    Baseline,
    /// RCPN-generated XScale.
    RcpnXScale,
    /// RCPN-generated StrongARM.
    RcpnStrongArm,
    /// RCPN-generated SuperARM (the spec-defined seven-stage core).
    RcpnSuperArm,
    /// The functional ISS (no timing; context number).
    FunctionalIss,
}

impl Simulator {
    /// The Figure 10 measurement matrix: the paper's baseline plus every
    /// [`ProcModel`] of the processor registry. The `figures fig10` table
    /// iterates this list (and the registry-guard test fails if a
    /// `ProcModel` is missing here).
    pub const FIG10: [Simulator; 4] = [
        Simulator::Baseline,
        Simulator::RcpnXScale,
        Simulator::RcpnStrongArm,
        Simulator::RcpnSuperArm,
    ];

    /// For RCPN-backed simulators: the processor-registry model — the
    /// single place a [`Simulator`] row is tied to a [`ProcModel`]. `None`
    /// for the non-RCPN comparators.
    pub fn rcpn_config(self) -> Option<ProcModel> {
        match self {
            Simulator::RcpnXScale => Some(ProcModel::XScale),
            Simulator::RcpnStrongArm => Some(ProcModel::StrongArm),
            Simulator::RcpnSuperArm => Some(ProcModel::SuperArm),
            Simulator::Baseline | Simulator::FunctionalIss => None,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Simulator::Baseline => "SimpleScalar-Arm",
            Simulator::FunctionalIss => "Functional-ISS",
            rcpn => rcpn.rcpn_config().expect("RCPN simulator").figure_name(),
        }
    }
}

/// Runs one simulator over one workload, timed, verifying the checksum.
///
/// # Panics
///
/// Panics if the simulation does not exit with the gold checksum — a
/// mis-simulating benchmark must never be timed.
pub fn measure(sim: Simulator, w: &Workload) -> Measurement {
    if let Some(compiled) = compiled_sim(sim) {
        return measure_compiled(&compiled, w);
    }
    match sim {
        Simulator::Baseline => {
            let mut s = SsArm::new(&w.program);
            let t0 = Instant::now();
            let r = s.run(MAX_CYCLES);
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(r.exit, Some(w.expected), "baseline/{}", w.kernel);
            Measurement { cycles: r.cycles, instrs: r.instrs, seconds }
        }
        Simulator::FunctionalIss => {
            let mut s = Iss::from_program(&w.program);
            let t0 = Instant::now();
            s.run(u64::MAX).expect("iss clean");
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(s.exit_code(), w.expected, "iss/{}", w.kernel);
            Measurement { cycles: s.instr_count(), instrs: s.instr_count(), seconds }
        }
        rcpn => unreachable!("{rcpn:?} is RCPN-backed and measured above"),
    }
}

/// The compiled (generated) simulator for an RCPN-backed [`Simulator`],
/// or `None` for the non-RCPN comparators. Build it once and pass it to
/// [`measure_compiled`] to keep model compilation out of the timed region
/// and out of per-kernel loops.
pub fn compiled_sim(sim: Simulator) -> Option<CompiledSim> {
    let proc = sim.rcpn_config()?;
    Some(CompiledSim::new(proc, &proc.default_config()))
}

/// Runs one instantiation of a compiled simulator over one workload,
/// timed, verifying the checksum. Only the simulation itself is inside
/// the timed region — neither model compilation nor per-program
/// instantiation — matching how the baseline path constructs its
/// simulator before starting the clock.
///
/// # Panics
///
/// Panics if the simulation does not exit with the gold checksum.
pub fn measure_compiled(compiled: &CompiledSim, w: &Workload) -> Measurement {
    let mut s = compiled.instantiate(&w.program);
    let t0 = Instant::now();
    let r = s.run(MAX_CYCLES);
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(r.exit, Some(w.expected), "{}/{}", compiled.model().figure_name(), w.kernel);
    Measurement { cycles: r.cycles, instrs: r.instrs, seconds }
}

/// Builds the benchmark suite at a size scale: 1.0 = the paper-style bench
/// sizes, smaller for quick runs.
pub fn suite(scale: f64) -> Vec<Workload> {
    Workload::suite(scale)
}

/// Arithmetic mean (the paper's "Average" bars).
pub fn average(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Kernel;

    #[test]
    fn measurement_math() {
        let m = Measurement { cycles: 2_000_000, instrs: 1_000_000, seconds: 0.5 };
        assert!((m.mcps() - 4.0).abs() < 1e-9);
        assert!((m.cpi() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_measurements_run() {
        let w = Workload::build(Kernel::Crc, 64);
        for sim in Simulator::FIG10.into_iter().chain([Simulator::FunctionalIss]) {
            let m = measure(sim, &w);
            assert!(m.cycles > 0);
        }
    }

    /// The registry guard: a processor added to [`ProcModel::ALL`] must
    /// appear on every measurement harness — the fig10 matrix (bench,
    /// figures table, CI gate) and the sweep engine axis. This is what
    /// makes "new processor silently missing from a harness" a test
    /// failure instead of a data gap.
    #[test]
    fn processor_registry_reaches_every_harness() {
        for proc in ProcModel::ALL {
            assert!(
                Simulator::FIG10.iter().any(|s| s.rcpn_config() == Some(proc)),
                "{proc:?} missing from the fig10 matrix"
            );
            assert!(
                crate::sweep::engine_axis().iter().any(|v| v.proc == proc),
                "{proc:?} missing from the sweep engine axis"
            );
        }
    }

    #[test]
    fn average_is_arithmetic() {
        assert!((average(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
