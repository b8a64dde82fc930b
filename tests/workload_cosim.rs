//! End-to-end co-simulation across the whole stack: every benchmark kernel
//! must produce its gold checksum on the functional ISS, every registered
//! RCPN cycle-accurate simulator ([`ProcModel::ALL`]), and the
//! SimpleScalar-style baseline. Cycle counts must also be architecturally
//! sane (CPI within the band of a scalar in-order pipeline), and each
//! RCPN model's counts are pinned: a changed count is a timing-model
//! change and must be made on purpose.

use arm_isa::iss::Iss;
use baseline_sim::SsArm;
use processors::sim::{CaSim, ProcModel};
use workloads::{Kernel, Workload};

const MAX_CYCLES: u64 = 200_000_000;

/// `(cycles, instrs)` of each RCPN model at `kernel.test_size()` under its
/// default configuration, indexed `[ProcModel::ALL][Kernel::ALL]`.
const PINNED: [[(u64, u64); 6]; 3] = [
    // strongarm: adpcm, blowfish, compress, crc, g721, go
    [
        (20612, 13208),
        (25514, 12188),
        (159973, 114623),
        (9792, 5556),
        (31421, 17710),
        (51061, 25262),
    ],
    // xscale
    [
        (20494, 13208),
        (25783, 12188),
        (149975, 114623),
        (9100, 5556),
        (32106, 17710),
        (50284, 25262),
    ],
    // superarm
    [
        (24331, 13208),
        (31506, 12188),
        (179285, 114623),
        (12490, 5556),
        (37286, 17710),
        (63861, 25262),
    ],
];

#[test]
fn all_kernels_agree_on_all_simulators() {
    for (k, kernel) in Kernel::ALL.into_iter().enumerate() {
        let w = Workload::build(kernel, kernel.test_size());

        let mut iss = Iss::from_program(&w.program);
        iss.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{kernel} ISS fault: {e}"));
        assert!(iss.halted(), "{kernel}: ISS did not exit");
        assert_eq!(iss.exit_code(), w.expected, "{kernel}: ISS vs gold");

        for (p, proc) in ProcModel::ALL.into_iter().enumerate() {
            let name = proc.label();
            let mut ca = CaSim::with_config(proc, &w.program, &proc.default_config());
            let r = ca.run(MAX_CYCLES);
            assert_eq!(r.fault, None, "{kernel}: {name} fault");
            assert_eq!(r.exit, Some(w.expected), "{kernel}: {name} vs gold");
            assert_eq!(r.instrs, iss.instr_count(), "{kernel}: {name} instr count");
            assert_eq!((r.cycles, r.instrs), PINNED[p][k], "{kernel}: {name} pinned counts");
            let cpi = r.cpi();
            assert!(
                (1.0..8.0).contains(&cpi),
                "{kernel}/{name}: CPI {cpi:.3} outside the plausible band"
            );
        }

        let mut ss = SsArm::new(&w.program);
        let ss_r = ss.run(MAX_CYCLES);
        assert_eq!(ss_r.exit, Some(w.expected), "{kernel}: baseline vs gold");
        assert_eq!(ss_r.instrs, iss.instr_count(), "{kernel}: baseline instr count");
        let cpi = ss_r.cpi();
        assert!(
            (1.0..8.0).contains(&cpi),
            "{kernel}/baseline: CPI {cpi:.3} outside the plausible band"
        );
    }
}

#[test]
fn register_and_memory_state_converge_on_strongarm() {
    // Deep-dive on one kernel: compare final registers, not just checksums.
    let w = Workload::build(Kernel::Adpcm, Kernel::Adpcm.test_size());
    let mut iss = Iss::from_program(&w.program);
    iss.run(MAX_CYCLES).unwrap();

    let mut sa = CaSim::strongarm(&w.program);
    let r = sa.run(MAX_CYCLES);
    assert_eq!(r.exit, Some(iss.exit_code()));
    for i in 0..13 {
        assert_eq!(sa.reg(i), iss.regs[i], "r{i}");
    }
    assert_eq!(sa.res().mem.oob_accesses(), 0, "kernel must stay in bounds");
}

#[test]
fn paper_cpi_relationships_hold() {
    // Figure 11's qualitative shape: the RCPN StrongARM model reads
    // operands at issue (one forwarding step later than the baseline's
    // RUU-wakeup network), so its CPI sits slightly above the baseline's —
    // the paper reports ~10% in the same direction. Check the ordering and
    // that the gap stays moderate, per benchmark.
    for kernel in Kernel::ALL {
        let w = Workload::build(kernel, kernel.test_size());
        let sa = CaSim::strongarm(&w.program).run(MAX_CYCLES);
        let ss = SsArm::new(&w.program).run(MAX_CYCLES);
        let ratio = sa.cpi() / ss.cpi();
        assert!(
            (0.85..2.2).contains(&ratio),
            "{kernel}: RCPN/baseline CPI ratio {ratio:.2} (sa {:.2}, ss {:.2})",
            sa.cpi(),
            ss.cpi()
        );
    }
}

#[test]
fn xscale_btb_beats_strongarm_on_branchy_code() {
    // The XScale front end predicts loop branches; `go` and `crc` are
    // branch-dense, so XScale should squash far less than StrongARM.
    let w = Workload::build(Kernel::Go, Kernel::Go.test_size());
    let mut sa = CaSim::strongarm(&w.program);
    sa.run(MAX_CYCLES);
    let mut xs = CaSim::xscale(&w.program);
    xs.run(MAX_CYCLES);
    assert!(
        xs.res().squashes * 2 < sa.res().squashes,
        "BTB must remove most squashes: xscale {} vs strongarm {}",
        xs.res().squashes,
        sa.res().squashes
    );
}

#[test]
fn caches_warm_up() {
    let w = Workload::build(Kernel::Crc, Kernel::Crc.test_size());
    let mut sa = CaSim::strongarm(&w.program);
    sa.run(MAX_CYCLES);
    assert!(sa.res().icache.stats().hit_ratio() > 0.95, "tight loop must hit the icache");
    assert!(sa.res().dcache.stats().hit_ratio() > 0.8);
}
