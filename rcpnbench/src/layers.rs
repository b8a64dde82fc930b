//! The traced run's per-layer metrics: probes that time single layers from
//! outside (compile, `CaSim::step`, the functional ISS) and the counters
//! the crates expose (`Stats`, `SchedStats`, `CacheStats`, `ArmRes`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use arm_isa::iss::Iss;
use processors::sim::{CompiledSim, ProcModel};
use workloads::Kernel;

use crate::report::Metric;
use crate::rounds::{ns, Paired, RcpnFacts, MAX_CYCLES};
use crate::serve::Served;
use crate::setup::{Engine, Setup, STRONGARM, XSCALE};
use crate::stats::{median, tail, Tally};
use crate::trace::{durations, self_time_by_layer, Tracer};

/// Compiles per registry model in the compile probe.
const COMPILE_REPEATS: usize = 10;
/// Every `STEP_STRIDE`-th cycle of the step probe is timed.
const STEP_STRIDE: u64 = 64;
/// Passes of the ISS probe.
const ISS_PASSES: usize = 3;

/// `CompiledSim::new` at the default configuration, per registry model.
fn compile_probe(tr: &mut Tracer, out: &mut Vec<Metric>) {
    for model in ProcModel::ALL {
        let config = model.default_config();
        let mut us = Vec::with_capacity(COMPILE_REPEATS);
        for _ in 0..COMPILE_REPEATS {
            let o = tr.enter("processors.compile", 0);
            let t = Instant::now();
            black_box(CompiledSim::new(model, &config));
            us.push(ns(t.elapsed()) as f64 / 1e3);
            tr.exit(o);
        }
        out.push(Metric::new(
            format!("processors.compile_us.{}", model.label()),
            "us",
            median(&us),
        ));
    }
}

/// Cost of reading the clock twice around nothing: the overhead included
/// in every sampled step time.
fn timer_overhead_ns() -> f64 {
    let v: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            ns(black_box(t).elapsed()) as f64
        })
        .collect();
    median(&v)
}

/// `CaSim::step` on RCPN-StrongArm, every [`STEP_STRIDE`]-th cycle timed
/// (and its live tokens counted), over the middle half of each program.
/// The run is then finished with `CaSim::run` and must reproduce the
/// paired rounds' facts.
fn step_probe(setup: &Setup, paired: &Paired, tally: &mut Tally, out: &mut Vec<Metric>) {
    let Engine::Rcpn(compiled) = &setup.configs[STRONGARM] else {
        unreachable!("StrongARM is RCPN")
    };
    let (mut samples, mut live) = (Vec::new(), Vec::new());
    for (i, p) in setup.programs.iter().enumerate() {
        let Some(reference) = paired.rcpn(STRONGARM, i) else { continue };
        let total = reference.result.cycles;
        let mut sim = compiled.instantiate_with(&p.program, p.layout);
        sim.run(total / 4);
        for k in 0..total / 2 {
            if k % STEP_STRIDE == 0 {
                let t = Instant::now();
                sim.step();
                samples.push(ns(t.elapsed()) as f64);
                live.push(sim.engine.live_tokens() as f64);
            } else {
                sim.step();
            }
        }
        sim.run(MAX_CYCLES);
        let same = RcpnFacts::of(&sim) == *reference;
        tally.record((!same).then(|| "step-driven run differs from CaSim::run".to_string()));
    }
    let (pct, tail_ns) = tail(&samples);
    out.push(Metric::new("processors.step_ns_p50", "ns", median(&samples)));
    out.push(Metric::new("processors.step_ns_tail", "ns", tail_ns));
    out.push(Metric::new("processors.step_tail_pct", "%", pct));
    out.push(Metric::new("processors.step_samples", "count", samples.len() as f64));
    out.push(Metric::new("processors.step_timer_ns", "ns", timer_overhead_ns()));
    let mean_live = live.iter().sum::<f64>() / live.len().max(1) as f64;
    out.push(Metric::new("core.tokens_in_flight_mean", "tokens", mean_live));
}

/// The functional ISS on the same programs: host ns per instruction.
fn iss_probe(setup: &Setup, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let mut per_pass = Vec::with_capacity(ISS_PASSES);
    for pass in 0..ISS_PASSES {
        let (mut instrs, mut host_ns) = (0u64, 0u64);
        for (i, p) in setup.programs.iter().enumerate() {
            let mut iss = Iss::from_program_with(&p.program, p.layout);
            let o = tr.enter("isa.iss_run", i as u64);
            let t = Instant::now();
            let status = iss.run(MAX_CYCLES);
            host_ns += ns(t.elapsed());
            tr.exit(o);
            instrs += iss.instr_count();
            if pass == 0 {
                let ok = status.is_ok() && iss.halted() && iss.exit_code() == p.expected;
                tally.record((!ok).then(|| "ISS missed the gold checksum".to_string()));
            }
        }
        per_pass.push(host_ns as f64 / instrs.max(1) as f64);
    }
    median(&per_pass)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Sums the first-run facts of `config` over every program.
fn summed(paired: &Paired, config: usize, programs: usize) -> RcpnFacts {
    let mut acc: Option<RcpnFacts> = None;
    for f in (0..programs).filter_map(|p| paired.rcpn(config, p)) {
        match &mut acc {
            None => acc = Some(f.clone()),
            Some(a) => {
                a.result.cycles += f.result.cycles;
                a.result.instrs += f.result.instrs;
                a.stats.merge(&f.stats);
                a.sched.merge(&f.sched);
                a.icache.hits += f.icache.hits;
                a.icache.misses += f.icache.misses;
                a.dcache.hits += f.dcache.hits;
                a.dcache.misses += f.dcache.misses;
                a.btb = match (a.btb, f.btb) {
                    (Some(x), Some(y)) => Some((x.0 + y.0, x.1 + y.1, x.2 + y.2)),
                    (x, _) => x,
                };
                a.redirects += f.redirects;
                a.squashes += f.squashes;
            }
        }
    }
    acc.expect("at least one program ran")
}

fn miss_ratio(c: memsys::cache::CacheStats) -> f64 {
    per(c.misses, c.accesses())
}

/// Engine work per simulated cycle and the simulated statistics of
/// RCPN-StrongArm (BTB accuracy from RCPN-XScale), summed over programs.
fn counters(setup: &Setup, paired: &Paired, out: &mut Vec<Metric>) {
    let n = setup.programs.len();
    let sa = summed(paired, STRONGARM, n);
    let (s, q, c) = (&sa.stats, &sa.sched, sa.result.cycles);
    let fires: u64 = s.fires.iter().sum();
    let rows: [(&str, &str, f64); 17] = [
        ("core.place_visits_per_cycle", "1/cycle", per(q.place_visits, c)),
        ("core.token_visits_per_cycle", "1/cycle", per(q.token_visits, c)),
        ("core.trans_visits_per_cycle", "1/cycle", per(q.trans_visits, c)),
        ("core.guard_evals_per_cycle", "1/cycle", per(q.guard_evals(), c)),
        ("core.fires_per_cycle", "1/cycle", per(fires, c)),
        ("core.two_list_commits_per_cycle", "1/cycle", per(s.two_list_commits, c)),
        ("core.expiry_scans_per_cycle", "1/cycle", per(q.expiry_scans, c)),
        ("core.superblocks_per_cycle", "1/cycle", per(q.superblocks_entered, c)),
        ("core.chain_links_per_cycle", "1/cycle", per(q.chain_links_fired, c)),
        ("core.place_skip_ratio", "ratio", q.place_skip_ratio()),
        ("core.fires_per_trans_visit", "ratio", per(fires, q.trans_visits)),
        ("core.stalls_per_cycle", "1/cycle", per(s.stalls, c)),
        ("core.capacity_blocks_per_cycle", "1/cycle", per(s.capacity_blocks, c)),
        ("core.guard_fails_per_cycle", "1/cycle", per(s.guard_fails, c)),
        ("processors.cycles", "cycles", c as f64),
        ("processors.cpi", "cycles/instr", sa.result.cpi()),
        ("processors.redirects_per_kinstr", "1/kinstr", per(sa.redirects * 1000, sa.result.instrs)),
    ];
    out.extend(rows.into_iter().map(|(name, unit, v)| Metric::new(name, unit, v)));
    out.push(Metric::new(
        "processors.squashes_per_kinstr",
        "1/kinstr",
        per(sa.squashes * 1000, sa.result.instrs),
    ));
    out.push(Metric::new("mem.icache_miss_ratio", "ratio", miss_ratio(sa.icache)));
    out.push(Metric::new("mem.dcache_miss_ratio", "ratio", miss_ratio(sa.dcache)));
    let xs = summed(paired, XSCALE, n);
    let (_, correct, wrong) = xs.btb.unwrap_or_default();
    out.push(Metric::new("mem.btb_accuracy", "ratio", per(correct, correct + wrong)));
}

/// `(SimpleScalar cycles − RCPN-StrongArm cycles) ÷ RCPN-StrongArm cycles`
/// per kernel, then over all kernels. The models are unvalidated for
/// timing against hardware; this gap is the only cross-check.
pub fn cycle_gaps(setup: &Setup, paired: &Paired) -> Vec<(String, f64)> {
    let cycles = |config: usize, kernel: Kernel| -> u64 {
        let programs = setup.programs.iter().enumerate().filter(|(_, p)| p.spec.kernel == kernel);
        programs.filter_map(|(i, _)| paired.first.get(&(config, i))).map(|f| f.cycles()).sum()
    };
    let gap = |sa: u64, ss: u64| (ss as f64 - sa as f64) / sa.max(1) as f64;
    let (mut all_sa, mut all_ss) = (0, 0);
    let mut gaps = Vec::new();
    for kernel in Kernel::ALL {
        let (sa, ss) = (cycles(STRONGARM, kernel), cycles(setup.baseline(), kernel));
        (all_sa, all_ss) = (all_sa + sa, all_ss + ss);
        gaps.push((format!("baseline.cycle_gap.{kernel}"), gap(sa, ss)));
    }
    gaps.push(("baseline.cycle_gap".to_string(), gap(all_sa, all_ss)));
    gaps
}

/// Serve-layer metrics; zero on workloads that start no server.
fn serve_metrics(
    served: Option<&Served>,
    paired: &Paired,
    setup: &Setup,
    bind_ms: f64,
) -> Vec<Metric> {
    let empty = Served::default();
    let s = served.unwrap_or(&empty);
    // Served latency minus the in-process instantiate + run time of the
    // same (model, program), median over distinct jobs.
    let mut served_ms: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for d in &s.done {
        served_ms.entry((d.model, d.program)).or_default().push(d.ms);
    }
    let overhead: Vec<f64> = served_ms
        .iter()
        .filter_map(|(&(model, program), lat)| {
            let config =
                setup.configs.iter().position(|c| c.model() == Some(ProcModel::ALL[model]))?;
            let local: Vec<f64> = paired
                .samples
                .iter()
                .filter(|x| x.config == config && x.program == program)
                .map(|x| (x.timing.instantiate_ns + x.timing.run_ns) as f64 / 1e6)
                .collect();
            (!local.is_empty()).then(|| median(lat) - median(&local))
        })
        .collect();
    vec![
        Metric::new("serve.bind_ms", "ms", bind_ms),
        Metric::new("serve.admit_us", "us", median(&s.admit_us)),
        Metric::new("serve.collect_ms", "ms", median(&s.collect_ms)),
        Metric::new("serve.overhead_ms", "ms", median(&overhead)),
        Metric::new("serve.busy_ratio", "ratio", per(s.busy, s.submitted)),
        Metric::new("serve.request_bytes", "bytes", median(&s.request_bytes)),
        Metric::new("serve.reply_bytes", "bytes", median(&s.reply_bytes)),
        Metric::new("serve.encode_us", "us", median(&s.encode_ns) / 1e3),
        Metric::new("serve.decode_us", "us", median(&s.decode_ns) / 1e3),
    ]
}

/// Every per-layer metric of a traced run.
pub fn per_layer(
    setup: &Setup,
    paired: &Paired,
    served: Option<&Served>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let spans_ms = |tr: &Tracer, name: &str| median(&durations(tr.spans(), name)) / 1e6;
    out.push(Metric::new("workloads.build_ms", "ms", spans_ms(tr, "workloads.build")));
    out.push(Metric::new("loader.to_elf_us", "us", spans_ms(tr, "loader.to_elf_bytes") * 1e3));
    out.push(Metric::new("loader.load_elf_us", "us", spans_ms(tr, "loader.load_elf") * 1e3));
    let elf_bytes: usize = setup.programs.iter().map(|p| p.elf_bytes).sum();
    out.push(Metric::new("loader.elf_bytes", "bytes", elf_bytes as f64));
    let bind_ms = spans_ms(tr, "serve.bind");
    compile_probe(tr, &mut out);

    let sa: Vec<_> = paired.samples.iter().filter(|s| s.config == STRONGARM).collect();
    let inst: Vec<f64> = paired
        .samples
        .iter()
        .filter(|s| setup.configs[s.config].model().is_some())
        .map(|s| s.timing.instantiate_ns as f64 / 1e3)
        .collect();
    out.push(Metric::new("processors.instantiate_us", "us", median(&inst)));
    let sa_ns: u64 = sa.iter().map(|s| s.timing.run_ns).sum();
    let sa_cycles: u64 = sa.iter().map(|s| s.cycles).sum();
    let sa_instrs: u64 = sa.iter().map(|s| s.instrs).sum();
    out.push(Metric::new("processors.run_ns_per_cycle", "ns/cycle", per(sa_ns, sa_cycles)));
    let mcps: Vec<f64> = paired.rounds.iter().map(|r| r.total(STRONGARM).rate() / 1e6).collect();
    out.push(Metric::new("processors.sim_mcps", "Mcycles/s", median(&mcps)));
    step_probe(setup, paired, tally, &mut out);

    let iss_ns_per_instr = iss_probe(setup, tr, tally);
    out.push(Metric::new("isa.iss_mips", "Minstr/s", 1e3 / iss_ns_per_instr));
    let engine_ns_per_instr = per(sa_ns, sa_instrs);
    out.push(Metric::new("core.engine_over_iss", "ratio", engine_ns_per_instr / iss_ns_per_instr));
    counters(setup, paired, &mut out);

    let ss = setup.baseline();
    let ss_mcps: Vec<f64> = paired.rounds.iter().map(|r| r.total(ss).rate() / 1e6).collect();
    out.push(Metric::new("baseline.ss_mcps", "Mcycles/s", median(&ss_mcps)));
    out.extend(
        cycle_gaps(setup, paired).into_iter().map(|(name, v)| Metric::new(name, "ratio", v)),
    );
    out.extend(serve_metrics(served, paired, setup, bind_ms));

    // Tracing overhead: traced rounds alternate with untraced ones.
    let wall = |traced: bool| -> Vec<f64> {
        paired.rounds.iter().filter(|r| r.traced == traced).map(|r| r.wall_ns as f64).collect()
    };
    let (on, off) = (median(&wall(true)), median(&wall(false)));
    out.push(Metric::new(
        "trace.overhead_pct",
        "%",
        if off > 0.0 { (on / off - 1.0) * 100.0 } else { 0.0 },
    ));
    out.push(Metric::new("trace.spans", "count", tr.spans().len() as f64));
    let host: Vec<f64> = paired.rounds.iter().map(|r| r.host_factor()).collect();
    out.push(Metric::new("bench.host_factor", "ratio", median(&host)));
    let self_ns = self_time_by_layer(tr.spans(), &["bench.round", "bench.serve"]);
    let total: u64 = self_ns.values().sum();
    for layer in SELF_TIME_LAYERS {
        let v = self_ns.get(layer).copied().unwrap_or(0);
        out.push(Metric::new(format!("{layer}.self_pct"), "%", per(v * 100, total)));
    }
    out
}

/// Layers with spans inside the measured rounds and serve phase (`core`
/// and `mem` run inside `processors.run` and have no span of their own).
const SELF_TIME_LAYERS: [&str; 4] = ["bench", "processors", "baseline", "serve"];
