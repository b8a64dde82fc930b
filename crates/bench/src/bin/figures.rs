//! Regenerates the paper's tables and figures on this machine.
//!
//! ```text
//! cargo run -p rcpn-bench --release --bin figures -- all
//! cargo run -p rcpn-bench --release --bin figures -- fig10 --scale 0.2
//! ```
//!
//! Subcommands: `fig10` (simulation performance), `fig11` (CPI), `fig2`
//! (RCPN vs CPN model size and speed), `effort` (Section 5 model
//! statistics), `all`. `--scale` must lie in `[0, 1]`.

use std::time::Instant;

use processors::sim::{CaSim, ProcModel};
use rcpn::builder::ModelBuilder;
use rcpn::engine::Engine;
use rcpn::ids::OpClassId;
use rcpn::model::{Machine, Model};
use rcpn::reg::RegisterFile;
use rcpn::token::InstrData;
use rcpn_bench::{average, compiled_sim, measure, measure_compiled, suite, Simulator};
use workloads::{Kernel, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let parsed = it.next().and_then(|s| s.parse().ok());
                scale = parsed
                    .ok_or("--scale needs a number".to_string())
                    .and_then(Kernel::check_scale)
                    .unwrap_or_else(|e| {
                        eprintln!("figures: {e}");
                        std::process::exit(2)
                    });
            }
            c => cmds.push(c.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    for c in &cmds {
        match c.as_str() {
            "fig10" => fig10(scale),
            "fig11" => fig11(scale),
            "fig2" => fig2(),
            "effort" => effort(),
            "all" => {
                fig2();
                effort();
                fig11(scale);
                fig10(scale);
            }
            other => {
                eprintln!("unknown figure {other:?}; try fig10|fig11|fig2|effort|all");
                std::process::exit(2);
            }
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn bench_names() -> Vec<&'static str> {
    Kernel::ALL.iter().map(|k| k.name()).chain(["Average"]).collect()
}

fn print_table(rows: &[(&str, Vec<f64>)], prec: usize) {
    print!("{:<22}", "");
    for n in bench_names() {
        print!("{n:>10}");
    }
    println!();
    for (label, values) in rows {
        let mut values = values.clone();
        values.push(average(&values));
        print!("{label:<22}");
        for v in values {
            print!("{v:>10.prec$}");
        }
        println!();
    }
}

/// Figure 10: simulation performance (million simulated cycles per host
/// second) of the baseline and every RCPN-generated simulator. Each RCPN
/// simulator is compiled once and shared across the kernel columns.
fn fig10(scale: f64) {
    header("Figure 10 — Simulation performance (Mcycles/s)");
    println!("(workload scale {scale}; paper: SimpleScalar ~0.6, RCPN-XScale ~8.2, RCPN-StrongArm ~12.2 on a P4/1.8GHz)");
    let ws = suite(scale);
    let mut rows = Vec::new();
    for sim in Simulator::FIG10 {
        let compiled = compiled_sim(sim);
        let values: Vec<f64> = ws
            .iter()
            .map(|w| match &compiled {
                Some(compiled) => measure_compiled(compiled, w).mcps(),
                None => measure(sim, w).mcps(),
            })
            .collect();
        rows.push((sim.name(), values));
    }
    print_table(&rows, 2);
    let avg_of = |name: &str| {
        let (_, values) = rows.iter().find(|(n, _)| *n == name).expect("fig10 row exists");
        average(values)
    };
    let base = avg_of(Simulator::Baseline.name());
    print!("speedup vs baseline: ");
    for proc in ProcModel::ALL {
        print!("  {} {:.1}x", proc.figure_name(), avg_of(proc.figure_name()) / base);
    }
    println!("   (paper: ~14x / ~20x, \"order of magnitude\")");
}

/// Figure 11: CPI of the baseline vs the RCPN StrongARM simulator.
fn fig11(scale: f64) {
    header("Figure 11 — Cycles per instruction (CPI)");
    println!("(paper: SimpleScalar avg ~1.8, RCPN-StrongArm avg ~2.0, ~10% apart)");
    let ws = suite(scale);
    let mut rows = Vec::new();
    for sim in [Simulator::Baseline, Simulator::RcpnStrongArm] {
        let values: Vec<f64> = ws.iter().map(|w| measure(sim, w).cpi()).collect();
        rows.push((sim.name(), values));
    }
    print_table(&rows, 2);
    let delta = 100.0 * (average(&rows[1].1) / average(&rows[0].1) - 1.0);
    println!("RCPN-StrongArm CPI is {delta:+.1}% vs baseline (paper: ~+10%)");
}

/// Instruction token of the Figure 2 pipeline: just its operation class.
#[derive(Debug)]
struct Tok(OpClassId);

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.0
    }
}

/// Tokens the Figure 2 source still has to issue, and how many it issued.
#[derive(Debug)]
struct Feed {
    left: u32,
    count: u64,
}

/// Tokens fed through the Figure 2 pipeline per timed run.
const FIG2_TOKENS: u32 = 20_000;

/// The paper's Figure 2 pipeline: L1 feeds U4 (short) or U2->L2->U3
/// (long). The source issues [`FIG2_TOKENS`] tokens, every fourth one
/// short, in the order the CPN lowering's program replays.
fn fig2_model() -> Model<Tok, Feed> {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let l2 = b.stage("L2", 1);
    let p1 = b.place("P1", l1);
    let p2 = b.place("P2", l2);
    let end = b.end_place();
    let (short, _) = b.class_net("Short");
    let (long, _) = b.class_net("Long");
    b.transition(short, "U4").from(p1).to(end).done();
    b.transition(long, "U2").from(p1).to(p2).done();
    b.transition(long, "U3").from(p2).to(end).done();
    b.source("U1")
        .to(p1)
        .produce(move |m, _fx| {
            if m.res.left == 0 {
                return None;
            }
            m.res.left -= 1;
            m.res.count += 1;
            Some(Tok(if m.res.count % 4 == 1 { short } else { long }))
        })
        .done();
    b.build().expect("fig2 model")
}

/// One timed run of the Figure 2 pipeline on the RCPN engine: host
/// seconds, simulated cycles and retired tokens.
fn fig2_rcpn_run() -> (f64, u64, u64) {
    let feed = Feed { left: FIG2_TOKENS, count: 0 };
    let mut e = Engine::new(fig2_model(), Machine::new(RegisterFile::new(), feed));
    let t0 = Instant::now();
    e.run(3 * u64::from(FIG2_TOKENS));
    (t0.elapsed().as_secs_f64(), e.stats().cycles, e.stats().retired)
}

/// The same run on the model's standard-CPN lowering under the generic
/// enabled-transition search.
fn fig2_cpn_run() -> (f64, u64, u64) {
    let program: Vec<OpClassId> =
        (0..FIG2_TOKENS).map(|i| OpClassId::from_index(if i % 4 == 0 { 0 } else { 1 })).collect();
    let mut net = rcpn::cpn::convert(&fig2_model(), &program).expect("structural model converts");
    let t0 = Instant::now();
    net.run(3 * u64::from(FIG2_TOKENS));
    (t0.elapsed().as_secs_f64(), net.stats().cycles, net.stats().retired)
}

/// Figure 1/2: model complexity of RCPN vs the equivalent CPN, and the
/// speed of simulating the same token game on each.
fn fig2() {
    header("Figure 1/2 — RCPN vs CPN model size (Fig. 2 pipeline)");
    let cmp = rcpn::cpn::compare_sizes(&fig2_model()).expect("structural model converts");
    println!("{:<14}{:>8}{:>13}{:>8}", "", "places", "transitions", "arcs");
    println!(
        "{:<14}{:>8}{:>13}{:>8}",
        "RCPN", cmp.rcpn_places, cmp.rcpn_transitions, cmp.rcpn_arcs
    );
    println!("{:<14}{:>8}{:>13}{:>8}", "CPN", cmp.cpn_places, cmp.cpn_transitions, cmp.cpn_arcs);
    println!(
        "CPN needs {:+} places (capacity/back-edge machinery) and {:+} arcs",
        cmp.cpn_places as i64 - cmp.rcpn_places as i64,
        cmp.cpn_arcs as i64 - cmp.rcpn_arcs as i64
    );
    // Alternating rounds, so host drift hits both engines alike; the
    // reported ratio is the median round's.
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let (rcpn_s, rcpn_cycles, rcpn_retired) = fig2_rcpn_run();
        let (cpn_s, cpn_cycles, cpn_retired) = fig2_cpn_run();
        assert_eq!(rcpn_retired, u64::from(FIG2_TOKENS), "RCPN engine retires every token");
        assert_eq!(
            (rcpn_cycles, rcpn_retired),
            (cpn_cycles, cpn_retired),
            "both engines simulate the same token game"
        );
        ratios.push(cpn_s / rcpn_s);
    }
    ratios.sort_by(f64::total_cmp);
    println!(
        "RCPN engine vs CPN interpreter, {FIG2_TOKENS} tokens: {:.1}x faster (median of {} rounds)",
        ratios[ratios.len() / 2],
        ratios.len()
    );
}

/// Section 5 model statistics (the machine-checkable part of the "model
/// effort" discussion: sub-net and class counts, net sizes).
fn effort() {
    header("Section 5 — model statistics");
    let w = Workload::build(Kernel::Crc, 64);
    for model in ProcModel::ALL {
        let name = model.figure_name();
        let sim = CaSim::with_config(model, &w.program, &model.default_config());
        let m = sim.engine.model();
        let a = m.analysis();
        println!(
            "{name:<16} sub-nets={} op-classes={} places={} transitions={} sources={} two-list={} (flow cycles {}, feedback {})",
            m.subnet_count(),
            m.op_class_count(),
            m.place_count(),
            m.transition_count(),
            m.source_count(),
            a.two_list_count(),
            a.flow_cycle_places(),
            a.feedback_places(),
        );
    }
    println!("(paper: six operation classes; six sub-nets in the StrongARM model;");
    println!(
        " development effort 1 man-day StrongARM / 3 man-days XScale is not machine-reproducible)"
    );
}
