//! Paired rounds: every configuration on every program once per round, in
//! a seeded rotation. Ratios are taken inside a round, so host drift slower
//! than a round cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use baseline_sim::{SsArm, SsResult};
use memsys::cache::CacheStats;
use processors::sim::{CaSim, SimResult};
use rcpn::stats::{SchedStats, Stats};

use crate::plan::{round_order, Rng};
use crate::setup::{Engine, Prepared, Setup};
use crate::stats::{geomean_speedup, RoundTotal, Tally};
use crate::trace::Tracer;

/// Cycle budget of one simulation; reaching it is a failure.
pub const MAX_CYCLES: u64 = 500_000_000;

/// Rounds run even when the time window is shorter: enough in-process
/// jobs (RCPN-StrongArm and RCPN-XScale on six kernels per round) for the
/// 90th percentile to have ten samples beyond it.
pub const MIN_ROUNDS: usize = 9;

/// Everything simulated about one RCPN run; equal runs of the same
/// (configuration, program) must produce equal facts.
#[derive(Debug, Clone, PartialEq)]
pub struct RcpnFacts {
    pub result: SimResult,
    pub stats: Stats,
    pub sched: SchedStats,
    pub icache: CacheStats,
    pub dcache: CacheStats,
    /// BTB `(lookups, correct, mispredicts)`, on models with a BTB.
    pub btb: Option<(u64, u64, u64)>,
    pub redirects: u64,
    pub squashes: u64,
}

impl RcpnFacts {
    pub fn of(sim: &CaSim) -> RcpnFacts {
        let res = sim.res();
        RcpnFacts {
            result: sim.result(),
            stats: sim.engine.stats().clone(),
            sched: sim.sched().clone(),
            icache: *res.icache.stats(),
            dcache: *res.dcache.stats(),
            btb: res.btb.as_ref().map(|b| {
                let s = b.stats();
                (s.lookups, s.correct, s.mispredicts)
            }),
            redirects: res.redirects,
            squashes: res.squashes,
        }
    }
}

/// What one simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Facts {
    Rcpn(Box<RcpnFacts>),
    Baseline(SsResult, CacheStats),
}

impl Facts {
    pub fn cycles(&self) -> u64 {
        match self {
            Facts::Rcpn(f) => f.result.cycles,
            Facts::Baseline(r, _) => r.cycles,
        }
    }

    pub fn instrs(&self) -> u64 {
        match self {
            Facts::Rcpn(f) => f.result.instrs,
            Facts::Baseline(r, _) => r.instrs,
        }
    }

    /// Why this run failed its gold check, if it did.
    fn failure(&self, expected: u32) -> Option<String> {
        let (exit, fault, cycles) = match self {
            Facts::Rcpn(f) => (f.result.exit, f.result.fault.clone(), f.result.cycles),
            Facts::Baseline(r, _) => (r.exit, None, r.cycles),
        };
        match (exit, fault) {
            (_, Some(f)) => Some(format!("fault: {f}")),
            (Some(x), None) if x == expected => None,
            (Some(_), None) => Some("wrong gold checksum".into()),
            (None, None) if cycles >= MAX_CYCLES => Some("cycle budget ran out".into()),
            (None, None) => Some("stopped without exit".into()),
        }
    }
}

/// Host times of one simulation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub instantiate_ns: u64,
    pub run_ns: u64,
}

/// Simulated cycles per slice: the configurations of one program run in
/// turns of this many cycles, so host drift slower than a few
/// milliseconds cancels in their ratio.
pub const SLICE_CYCLES: u64 = 16_384;

/// A simulation in progress.
enum Live {
    Rcpn(Box<CaSim>),
    Baseline(Box<SsArm>, SsResult),
}

impl Live {
    /// Instantiates `program` on configuration `config`.
    fn new(setup: &Setup, config: usize, p: &Prepared, tr: &mut Tracer, job: u64) -> Live {
        match &setup.configs[config] {
            Engine::Rcpn(compiled) => {
                let o = tr.enter("processors.instantiate", job);
                let sim = compiled.instantiate_with(&p.program, p.layout);
                tr.exit(o);
                Live::Rcpn(Box::new(sim))
            }
            Engine::Baseline(cfg) => {
                let o = tr.enter("baseline.new", job);
                let ss = Box::new(SsArm::with_config(&p.program, cfg.clone()));
                tr.exit(o);
                let start = SsResult { cycles: 0, instrs: 0, exit: None };
                Live::Baseline(ss, start)
            }
        }
    }

    /// Runs up to [`SLICE_CYCLES`] more cycles; returns whether the
    /// simulation has finished (exited and drained, halted, faulted or
    /// out of budget). Slicing leaves every simulated result unchanged.
    fn slice(&mut self, tr: &mut Tracer, job: u64) -> bool {
        match self {
            Live::Rcpn(sim) => {
                let o = tr.enter("processors.run", job);
                let r = black_box(sim.run(SLICE_CYCLES));
                tr.exit(o);
                let drained = r.exit.is_some() && sim.engine.live_tokens() == 0;
                drained || sim.halted() || r.fault.is_some() || r.cycles >= MAX_CYCLES
            }
            Live::Baseline(ss, result) => {
                let o = tr.enter("baseline.run", job);
                *result = black_box(ss.run(SLICE_CYCLES));
                tr.exit(o);
                ss.done() || result.cycles >= MAX_CYCLES
            }
        }
    }

    fn facts(&self) -> Facts {
        match self {
            Live::Rcpn(sim) => Facts::Rcpn(Box::new(RcpnFacts::of(sim))),
            Live::Baseline(ss, result) => Facts::Baseline(result.clone(), *ss.dcache_stats()),
        }
    }
}

/// Runs `program` on every configuration in `configs` order, in turns of
/// [`SLICE_CYCLES`] until all have finished.
fn simulate_together(
    setup: &Setup,
    configs: &[usize],
    p: &Prepared,
    tr: &mut Tracer,
    job: u64,
) -> Vec<(usize, Facts, Timing)> {
    let mut live = Vec::with_capacity(configs.len());
    for &config in configs {
        let t = Instant::now();
        let sim = Live::new(setup, config, p, tr, job);
        live.push((config, sim, Timing { instantiate_ns: ns(t.elapsed()), run_ns: 0 }, false));
    }
    while live.iter().any(|l| !l.3) {
        for (_, sim, timing, done) in live.iter_mut().filter(|l| !l.3) {
            let t = Instant::now();
            *done = sim.slice(tr, job);
            timing.run_ns += ns(t.elapsed());
        }
    }
    live.into_iter().map(|(config, sim, timing, _)| (config, sim.facts(), timing)).collect()
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// SimpleScalar-Arm speed at which host-normalised times equal raw times.
///
/// On a shared 2-vCPU VM the absolute speed of simulator code swung by up
/// to 2× between processes while same-round ratios stayed within a few
/// percent, and no benchmark-owned loop tracked the swing. Host times are
/// therefore also reported scaled by the same round's baseline speed:
/// `t × (baseline Mcycles/s ÷ 4.0)`, i.e. milliseconds on a host where the
/// baseline simulates 4 Mcycles/s.
pub const BASELINE_NOMINAL_MCPS: f64 = 4.0;

/// One round's simulated cycles and host time per (program, configuration).
#[derive(Debug, Clone)]
pub struct Round {
    /// `cells[program][config]`.
    pub cells: Vec<Vec<RoundTotal>>,
    pub wall_ns: u64,
    pub traced: bool,
}

impl Round {
    /// Configuration `config` summed over the round's programs.
    pub fn total(&self, config: usize) -> RoundTotal {
        let mut t = RoundTotal::default();
        for cell in &self.cells {
            t.add(cell[config].cycles, cell[config].host_ns);
        }
        t
    }

    /// Speed of `a` over `b`: the geometric mean over programs of each
    /// program's same-round ratio (see [`geomean_speedup`]).
    pub fn speedup(&self, a: usize, b: usize) -> f64 {
        geomean_speedup(self.cells.iter().map(|c| (c[a], c[b])))
    }

    /// Factor that turns this round's host times into host-normalised
    /// times (see [`BASELINE_NOMINAL_MCPS`]).
    pub fn host_factor(&self) -> f64 {
        self.total(self.baseline()).rate() / 1e6 / BASELINE_NOMINAL_MCPS
    }

    /// [`Round::host_factor`] from `program`'s baseline turns alone: the
    /// tightest pairing for that program's own simulations, which ran in
    /// turns with them.
    pub fn program_host_factor(&self, program: usize) -> f64 {
        self.cells[program][self.baseline()].rate() / 1e6 / BASELINE_NOMINAL_MCPS
    }

    fn baseline(&self) -> usize {
        self.cells.first().map_or(0, |c| c.len() - 1)
    }
}

/// One timed simulation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub round: usize,
    pub config: usize,
    pub program: usize,
    pub cycles: u64,
    pub instrs: u64,
    pub timing: Timing,
}

/// All paired rounds of a run.
#[derive(Default)]
pub struct Paired {
    pub rounds: Vec<Round>,
    pub samples: Vec<Sample>,
    /// First run's facts of each (configuration, program).
    pub first: BTreeMap<(usize, usize), Facts>,
}

impl Paired {
    /// RCPN facts of the first run of (`config`, `program`).
    pub fn rcpn(&self, config: usize, program: usize) -> Option<&RcpnFacts> {
        match self.first.get(&(config, program)) {
            Some(Facts::Rcpn(f)) => Some(f),
            _ => None,
        }
    }
}

/// Runs paired rounds one at a time. With `alternate_trace`, odd rounds are
/// traced and even rounds are not, so the traced run can state its
/// overhead.
pub struct Rounds<'a> {
    setup: &'a Setup,
    rng: Rng,
    alternate_trace: bool,
    pub paired: Paired,
}

impl<'a> Rounds<'a> {
    pub fn new(setup: &'a Setup, rng: Rng, alternate_trace: bool) -> Rounds<'a> {
        Rounds { setup, rng, alternate_trace, paired: Paired::default() }
    }

    /// Runs one round: every configuration on every program.
    pub fn round(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let (setup, paired) = (self.setup, &mut self.paired);
        let index = paired.rounds.len();
        let traced = self.alternate_trace && index % 2 == 1;
        tr.set_on(traced);
        let n_configs = setup.configs.len();
        let order = round_order(&mut self.rng, setup.programs.len(), n_configs);
        let cells = vec![vec![RoundTotal::default(); n_configs]; setup.programs.len()];
        let mut round = Round { cells, wall_ns: 0, traced };
        let t_round = Instant::now();
        let root = tr.enter("bench.round", index as u64);
        for chunk in order.chunk_by(|a, b| a.0 == b.0) {
            let program = chunk[0].0;
            let configs: Vec<usize> = chunk.iter().map(|&(_, c)| c).collect();
            let p = &setup.programs[program];
            let job = (index * 1000 + program) as u64;
            for (config, facts, timing) in simulate_together(setup, &configs, p, tr, job) {
                let mut failure = facts.failure(p.expected);
                match paired.first.get(&(config, program)) {
                    None => {
                        paired.first.insert((config, program), facts.clone());
                    }
                    Some(first) if *first != facts && failure.is_none() => {
                        failure = Some("simulated statistics differ from the first run".into());
                    }
                    Some(_) => {}
                }
                tally.record(failure);
                round.cells[program][config].add(facts.cycles(), timing.run_ns);
                let (cycles, instrs) = (facts.cycles(), facts.instrs());
                paired.samples.push(Sample {
                    round: index,
                    config,
                    program,
                    cycles,
                    instrs,
                    timing,
                });
            }
        }
        tr.exit(root);
        round.wall_ns = ns(t_round.elapsed());
        paired.rounds.push(round);
        tr.set_on(self.alternate_trace);
    }
}
