//! A pinned simulation: a small fixed two-class spec, lowered and
//! compiled with tracing on, must replay the same 60-cycle trace, final
//! cycle and retire count forever. Any engine or lowering change that
//! moves a single trace event trips the digest here.
//!
//! The spec exercises every closure kind a spec can attach: transition
//! guard and action, a context action with flushes, source guard and
//! producer, and a squash handler.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use rcpn::engine::TraceEvent;
use rcpn::prelude::*;
use rcpn::spec::PipelineSpec;

/// Token payload: a class plus an immediate the closures key on.
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

#[derive(Debug, Default)]
struct Feed {
    q: RefCell<VecDeque<Tok>>,
    retired: Cell<u32>,
}

fn golden_spec() -> PipelineSpec<Tok, Feed> {
    let mut s: PipelineSpec<Tok, Feed> = PipelineSpec::new("golden");
    s.stage("F", 1);
    s.latch("pf", "F");
    s.stage("X", 2);
    s.latch("px", "X");
    s.redirect("r", "px");
    {
        let a = s.class("A");
        a.step("px").guard(|m, t: &Tok| t.imm % 2 == 1 || m.cycle % 4 == 0);
        a.step("end").act(|m, _t, _fx| {
            m.res.retired.set(m.res.retired.get() + 1);
        });
    }
    {
        let b = s.class("B");
        b.step("px");
        b.step("end");
        b.flushes("r").act_ctx(|_m, t, fx, cx| {
            if t.imm % 3 == 0 {
                for &pl in &cx.flush {
                    fx.flush(pl);
                }
            }
        });
    }
    s.on_squash(|m, _t| m.res.retired.set(m.res.retired.get()));
    s.source("fetch")
        .to("pf")
        .guard(|_m| true)
        .produce(|m: &mut Machine<Feed>, _fx| m.res.q.borrow_mut().pop_front());
    s
}

fn golden_machine() -> Machine<Feed> {
    let feed = Feed::default();
    let (ca, cb) = (OpClassId::from_index(0), OpClassId::from_index(1));
    feed.q.borrow_mut().extend(
        [(0u32, false), (1, true), (3, true), (5, false), (2, false), (9, true), (7, false)]
            .into_iter()
            .map(|(imm, is_b)| Tok { class: if is_b { cb } else { ca }, imm }),
    );
    Machine::new(RegisterFile::new(), feed)
}

/// FNV-1a-64 over the `Debug` rendering of every trace event, one per
/// line.
fn trace_digest(trace: &[TraceEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ev in trace {
        for &b in format!("{ev:?}\n").as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

const GOLDEN_TRACE_FNV: u64 = 0xeb20_5252_ed03_1d6d;
const GOLDEN_CYCLES: u64 = 60;
const GOLDEN_RETIRED: u32 = 2;

#[test]
fn golden_spec_simulates_the_pinned_trace() {
    let model = golden_spec().lower().expect("golden spec lowers");
    let compiled =
        CompiledModel::compile_with(model, EngineConfig { trace: true, ..Default::default() });
    let mut e = compiled.instantiate(golden_machine());
    e.run(60);
    let retired = e.machine().res.retired.get();
    assert_eq!(e.cycle(), GOLDEN_CYCLES, "pinned final cycle");
    assert_eq!(retired, GOLDEN_RETIRED, "pinned retire count");
    assert_eq!(trace_digest(&e.take_trace()), GOLDEN_TRACE_FNV, "pinned trace digest");
}
