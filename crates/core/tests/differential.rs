//! Differential property test: the activity-driven scheduler against the
//! exhaustive-sweep oracle.
//!
//! Random small pipeline models × random programs are executed under both
//! [`SchedulerMode`]s, for every candidate-table mode and for the
//! two-list-everywhere fixpoint scheme. The contract is *bit-identity of
//! everything simulated*: the full trace (generation, firing, retirement
//! and flush events, in order) and the complete [`Stats`] block must not
//! depend on the scheduler — skipped work must be provably work that
//! would have had no effect.
//!
//! The generated models deliberately exercise every wake-up path of the
//! dirty-place worklist: multi-cycle place delays and data-dependent
//! token delays (timer wake-ups), machine-state guards that flip with the
//! cycle counter (stall re-arming), join transitions with extra inputs,
//! reservation arcs (expiry scans), micro-op emission and flushes
//! (mid-cycle re-dirtying), and stage-capacity back-pressure.

use std::cell::RefCell;
use std::collections::VecDeque;

use proptest::prelude::*;
use rcpn::engine::TraceEvent;
use rcpn::prelude::*;

/// Instruction payload: a class plus an immediate the guards/actions key on.
#[derive(Debug, Clone)]
struct Tok {
    class: OpClassId,
    imm: u32,
}

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
}

/// Program feed (per-engine resource; refilled per run from the spec).
#[derive(Debug, Default)]
struct Feed {
    program: RefCell<VecDeque<Tok>>,
}

/// A randomly generated model + program, deterministic to rebuild (model
/// closures are pure functions of the spec, so two builds simulate
/// identically).
#[derive(Debug, Clone)]
struct Spec {
    /// Pipeline depth: one place per stage, 2..=4.
    n_stages: usize,
    /// Stage capacities, 1..=2.
    caps: Vec<u32>,
    /// Place delays, 0..=2.
    delays: Vec<u32>,
    /// Class-B alternative edges `place i → place j` (`j == n_stages`
    /// means the end place).
    skips: Vec<(usize, usize)>,
    /// When nonzero: class-B spine transitions carry the machine-state
    /// guard `cycle % guard_every != 0` (flips every few cycles).
    guard_every: u32,
    /// Class B's first transition overrides the token delay with
    /// `imm % 4` (data-dependent latency — the parked-token case).
    token_delays: bool,
    /// Class B's final transition deposits a reservation token into
    /// place `.0` expiring after `.1` cycles.
    reserve: Option<(usize, u32)>,
    /// Class A's final transition emits a follow-up micro-op for tokens
    /// with `imm % 4 == 0` (terminates: the emitted token gets `imm + 1`).
    emit: bool,
    /// When nonzero: class-B retirement flushes place 0 for tokens with
    /// `imm % flush_every == 0`.
    flush_every: u32,
    /// The program: `(is_class_b, imm)` per instruction.
    program: Vec<(bool, u32)>,
    /// Fetch width, 1..=2.
    width: u32,
}

fn build_model(spec: &Spec) -> (Model<Tok, Feed>, OpClassId, OpClassId) {
    let n = spec.n_stages;
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let stages: Vec<_> =
        (0..n).map(|i| b.stage(&format!("S{i}"), spec.caps[i % spec.caps.len()])).collect();
    let places: Vec<_> = (0..n)
        .map(|i| {
            b.place_with_delay(&format!("P{i}"), stages[i], spec.delays[i % spec.delays.len()])
        })
        .collect();
    let end = b.end_place();
    let (ca, _) = b.class_net("A");
    let (cb, _) = b.class_net("B");
    let dest = |j: usize| if j >= n { end } else { places[j] };

    // Class A spine, with optional terminating micro-op emission.
    for i in 0..n {
        let t = b.transition(ca, &format!("a{i}")).from(places[i]).to(dest(i + 1)).priority(0);
        let t = if i + 1 == n && spec.emit {
            let p0 = places[0];
            t.action(move |_m, tok, fx| {
                if tok.imm % 4 == 0 {
                    fx.emit(Tok { class: tok.class, imm: tok.imm + 1 }, p0, 1);
                }
            })
        } else {
            t
        };
        t.done();
    }

    // Class B spine: cycle-flipping guards, data-dependent delay, a
    // reservation arc and a conditional flush at the end.
    for i in 0..n {
        let mut t = b.transition(cb, &format!("b{i}")).from(places[i]).to(dest(i + 1)).priority(0);
        if spec.guard_every > 0 {
            let ge = u64::from(spec.guard_every);
            t = t.guard(move |m, _tok| m.cycle % ge != 0);
        }
        if i == 0 && spec.token_delays {
            t = t.action(|_m, tok, fx| fx.set_token_delay(tok.imm % 4));
        }
        if i + 1 == n {
            if let Some((rp, expire)) = spec.reserve {
                t = t.reserve(places[rp % n], expire);
            }
            if spec.flush_every > 0 {
                let fe = spec.flush_every;
                let p0 = places[0];
                t = t.action(move |_m, tok, fx| {
                    if tok.imm % fe == 0 {
                        fx.flush(p0);
                    }
                });
            }
        }
        t.done();
    }

    // Class-B alternative edges (skips), guarded on the token. The first
    // one is a join: it additionally consumes the oldest ready token of
    // the next place (exercising the extra-input miss → stall → re-arm
    // wake-up path).
    for (k, &(i, j)) in spec.skips.iter().enumerate() {
        let (i, j) = (i % n, (j % (n + 1)).max(i + 1));
        let mut t = b
            .transition(cb, &format!("skip{k}"))
            .from(places[i])
            .to(dest(j))
            .priority(1 + k as u32)
            .guard(|_m, tok: &Tok| tok.imm % 3 == 0);
        if k == 0 {
            t = t.extra_input(places[(i + 1) % n]);
        }
        t.done();
    }

    b.source("fetch")
        .to(places[0])
        .width(spec.width)
        .produce(|m: &mut Machine<Feed>, _fx| m.res.program.borrow_mut().pop_front())
        .done();

    (b.build().expect("generated spec must be a valid model"), ca, cb)
}

/// Runs the spec under `cfg` for a fixed cycle budget, returning the full
/// trace and statistics.
fn run_spec(spec: &Spec, cfg: EngineConfig) -> (Vec<TraceEvent>, Stats, SchedStats) {
    let (trace, stats, sched, _) = drive_spec(spec, cfg, false);
    (trace, stats, sched)
}

/// [`run_spec`] through `Engine::run`, or one `Engine::step` at a time
/// when `stepped`; also returns the cycles the run fast-forwarded over.
fn drive_spec(
    spec: &Spec,
    mut cfg: EngineConfig,
    stepped: bool,
) -> (Vec<TraceEvent>, Stats, SchedStats, u64) {
    cfg.trace = true;
    let (model, ca, cb) = build_model(spec);
    let feed = Feed::default();
    feed.program.borrow_mut().extend(
        spec.program.iter().map(|&(is_b, imm)| Tok { class: if is_b { cb } else { ca }, imm }),
    );
    let mut e = Engine::with_config(model, Machine::new(RegisterFile::new(), feed), cfg);
    if stepped {
        for _ in 0..300 {
            e.step();
        }
    } else {
        e.run(300);
    }
    let trace = e.take_trace();
    (trace, e.stats().clone(), e.sched().clone(), e.cycles_skipped())
}

/// A fixed case in which the activity scheduler fast-forwards: the
/// one-slot first stage holds each token for nine cycles, so the source is
/// capacity-blocked behind a delayed token and nothing opaque runs while
/// it waits. Reservations, emission and flushes stay in play. The jumped
/// run must match the exhaustive oracle in trace and `Stats`, and a
/// step-driven run in `SchedStats` as well.
#[test]
fn fast_forward_behind_a_capacity_blocked_source_matches_the_oracle() {
    let spec = Spec {
        n_stages: 3,
        caps: vec![1],
        delays: vec![9, 1, 2],
        skips: vec![],
        guard_every: 0,
        token_delays: true,
        reserve: Some((2, 5)),
        emit: true,
        flush_every: 3,
        program: (0..24).map(|i| (i % 3 == 1, i * 7 % 64)).collect(),
        width: 1,
    };
    let configs = [
        EngineConfig::default(),
        EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
        EngineConfig { two_list_everywhere: true, ..Default::default() },
    ];
    for base in configs {
        let activity = EngineConfig { scheduler: SchedulerMode::ActivityDriven, ..base.clone() };
        let run = drive_spec(&spec, activity.clone(), false);
        let step = drive_spec(&spec, activity, true);
        let exh = drive_spec(
            &spec,
            EngineConfig { scheduler: SchedulerMode::Exhaustive, ..base.clone() },
            false,
        );
        assert!(run.3 > 0, "no cycle was fast-forwarded under {base:?}");
        assert_eq!(step.3, 0);
        assert_eq!(exh.3, 0, "the oracle never jumps");
        assert_eq!(run.0, exh.0, "trace diverged from the oracle under {base:?}");
        assert_eq!(run.1, exh.1, "stats diverged from the oracle under {base:?}");
        assert_eq!(run.0, step.0, "trace diverged from stepping under {base:?}");
        assert_eq!(run.1, step.1, "stats diverged from stepping under {base:?}");
        assert_eq!(run.2, step.2, "sched diverged from stepping under {base:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random models + random programs simulate bit-identically under the
    /// activity-driven scheduler and the exhaustive oracle, across all
    /// candidate-table modes and the two-list-everywhere fixpoint scheme.
    #[test]
    fn activity_scheduler_is_bit_identical_to_exhaustive_oracle(
        n_stages in 2usize..=4,
        caps in proptest::collection::vec(1u32..=2, 1..=4),
        delays in proptest::collection::vec(0u32..=2, 1..=4),
        skips in proptest::collection::vec((0usize..4, 1usize..=4), 0..3),
        guard_every in 0u32..=4,
        token_delays in any::<bool>(),
        reserve_raw in (0usize..4, 0u32..=3),
        use_reserve in any::<bool>(),
        emit in any::<bool>(),
        flush_every in 0u32..=5,
        program in proptest::collection::vec((any::<bool>(), 0u32..64), 1..32),
        width in 1u32..=2,
    ) {
        let spec = Spec {
            n_stages,
            caps,
            delays,
            skips,
            guard_every: if guard_every < 2 { 0 } else { guard_every },
            token_delays,
            reserve: use_reserve.then_some(reserve_raw),
            emit,
            flush_every: if flush_every < 2 { 0 } else { flush_every },
            program,
            width,
        };
        let configs = [
            EngineConfig::default(),
            EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
            EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
            EngineConfig { two_list_everywhere: true, ..Default::default() },
        ];
        for base in configs {
            let act = run_spec(
                &spec,
                EngineConfig { scheduler: SchedulerMode::ActivityDriven, ..base.clone() },
            );
            let exh = run_spec(
                &spec,
                EngineConfig { scheduler: SchedulerMode::Exhaustive, ..base.clone() },
            );
            prop_assert_eq!(
                &act.0, &exh.0,
                "trace diverged under {:?} for {:?}", base, spec
            );
            prop_assert_eq!(
                &act.1, &exh.1,
                "stats diverged under {:?} for {:?}", base, spec
            );
            // The oracle, by definition, never skips; the activity
            // scheduler never visits more than the oracle.
            prop_assert_eq!(exh.2.place_skips, 0);
            prop_assert!(
                act.2.place_visits + act.2.place_skips <= exh.2.place_visits,
                "activity visits+skips {} exceed oracle visits {}",
                act.2.place_visits + act.2.place_skips, exh.2.place_visits
            );
        }
    }

    /// The compiled reverse index is exactly the input/extra-input arcs of
    /// the model — the dependency structure the worklist reasons about.
    #[test]
    fn dependents_index_matches_model_arcs(
        n_stages in 2usize..=4,
        skips in proptest::collection::vec((0usize..4, 1usize..=4), 0..3),
    ) {
        let spec = Spec {
            n_stages,
            caps: vec![2],
            delays: vec![0],
            skips,
            guard_every: 0,
            token_delays: false,
            reserve: None,
            emit: false,
            flush_every: 0,
            program: vec![(false, 0)],
            width: 1,
        };
        let (model, _, _) = build_model(&spec);
        let compiled = CompiledModel::compile(model);
        for p in compiled.model().place_ids() {
            let deps = compiled.dependents_of(p);
            prop_assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            for t in compiled.model().transition_ids() {
                let td = compiled.model().transition(t);
                let is_dep = td.input() == p || td.extra_inputs().contains(&p);
                prop_assert_eq!(
                    deps.contains(&t), is_dep,
                    "place {:?} vs transition {:?}", p, t
                );
            }
        }
    }
}
