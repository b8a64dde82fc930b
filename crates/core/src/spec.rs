//! Declarative pipeline specification — the model-*authoring* layer.
//!
//! [`crate::builder::ModelBuilder`] is the RCPN assembly language: every
//! transition is wired by hand with its own guard and action closures.
//! That is flexible but verbose — real processor models repeat the same
//! ready/acquire/flush wiring once per operation class. `PipelineSpec` is
//! the layer the paper's *generic modeling* claim asks for: a processor is
//! described once as a pipeline — stages, per-class **paths** through
//! them, an operand read/forwarding policy, redirect/flush rules — and
//! [`PipelineSpec::lower`] *generates* the RCPN model, synthesizing the
//! per-class guards and actions from a small policy pair:
//!
//! * [`OperandPolicy`] — how a path's read step checks operand
//!   availability (register file or forwarding latches) and latches
//!   values / reserves destinations;
//! * [`HazardPolicy`] — how a redirect rule's resolve point maps to the
//!   ordered list of squashed places ([`SquashOrder`] covers the common
//!   front-first / nearest-first conventions).
//!
//! Lowering is deterministic: stages, places, classes, transitions and
//! sources are registered in declaration order, so a spec-generated model
//! is bit-identical — traces, statistics, analysis — to an equivalent
//! hand-wired `ModelBuilder` model that declares its entities in the same
//! order (the processor crates pin exactly this with differential tests).
//!
//! # Example
//!
//! A two-class pipeline in a page of description:
//!
//! ```
//! use rcpn::prelude::*;
//! use rcpn::spec::{Forward, OperandPolicy, PipelineSpec};
//!
//! #[derive(Debug)]
//! struct Tok {
//!     class: OpClassId,
//! }
//! impl InstrData for Tok {
//!     fn op_class(&self) -> OpClassId { self.class }
//! }
//!
//! /// Tokens carry no registers: always ready, nothing to latch.
//! struct NoOperands;
//! impl<R> OperandPolicy<Tok, R> for NoOperands {
//!     fn ready(&self, _m: &Machine<R>, _t: &Tok, _fwd: &[PlaceId]) -> bool { true }
//!     fn acquire(&self, _m: &mut Machine<R>, _t: &mut Tok, _fx: &mut Fx<Tok>, _f: &[PlaceId]) {}
//! }
//!
//! # fn main() -> Result<(), rcpn::error::BuildError> {
//! let mut s = PipelineSpec::<Tok, u64>::new("demo");
//! s.pipe("F", 1).pipe("D", 1).pipe("E", 1);
//! s.forwards(&["E"]);
//! s.operand_policy(NoOperands);
//! s.class("Short").step("D").read(Forward::All).step("end");
//! s.class("Long").step("D").read(Forward::All).step("E").step("end");
//! s.source("fetch").to("F").produce(|m: &mut Machine<u64>, _fx| {
//!     m.res += 1;
//!     Some(Tok { class: OpClassId::from_index((m.res % 2) as usize) })
//! });
//! let model = s.lower()?;
//! assert_eq!(model.op_class_count(), 2);
//! let mut engine = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
//! engine.run(100);
//! assert!(engine.stats().retired > 0);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::builder::ModelBuilder;
use crate::error::BuildError;
use crate::ids::PlaceId;
use crate::ir::{self, MicroOp, Program};
use crate::model::{Fx, Machine, Model, SourceAction, SourceGuard};
use crate::token::InstrData;

/// How [`PipelineSpec::lower`] represents the guards/actions it
/// *synthesizes* (read steps). User-supplied closures are always kept as
/// closures; this knob only selects the representation of synthesized
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lowering {
    /// Lower synthesized read steps to micro-op IR ([`crate::ir`])
    /// whenever the [`OperandPolicy`] opts in
    /// ([`OperandPolicy::lowers_to_ir`]) and the forwarding set fits the
    /// place bitmask; fall back to closures otherwise.
    #[default]
    Auto,
    /// Force closure lowering everywhere — the pre-IR representation,
    /// kept as the compile-time differential oracle: an `Auto`-lowered
    /// model must simulate bit-identically to its `Closures`-lowered
    /// twin.
    Closures,
}

/// How a path's read step checks and latches operands.
///
/// The spec layer synthesizes a read step's guard from
/// [`OperandPolicy::ready`] and its action from [`OperandPolicy::acquire`];
/// the `fwd` slice is the resolved forwarding set ([`PipelineSpec::forwards`]
/// when the step reads with [`Forward::All`], empty for [`Forward::None`]).
pub trait OperandPolicy<D, R>: Send + Sync {
    /// True when the token's operands can all be supplied now (register
    /// file or a forwarding latch in `fwd`) and its destinations reserved.
    fn ready(&self, m: &Machine<R>, t: &D, fwd: &[PlaceId]) -> bool;
    /// Latches operand values and reserves destinations. Only called when
    /// [`OperandPolicy::ready`] held in the same cycle.
    fn acquire(&self, m: &mut Machine<R>, t: &mut D, fx: &mut Fx<D>, fwd: &[PlaceId]);
    /// Opt-in to micro-op IR lowering ([`crate::ir`]): return `true` iff
    /// this policy's `ready`/`acquire` are *exactly* the standard
    /// scoreboard discipline the `CheckReady`/`AcquireOperands` micro-ops
    /// implement over the token's [`crate::token::InstrData`] operand
    /// views — every source obtainable (register file, or forwarded from
    /// a writer resident in the forwarding set) and every destination
    /// reservable; acquire latches each source from its best source and
    /// reserves the destinations. The spec layer then compiles read
    /// steps to IR instead of closures; the oracle tests pin the two
    /// representations bit-identical. Defaults to `false`.
    fn lowers_to_ir(&self) -> bool {
        false
    }
}

/// How a redirect rule's resolve point maps to squashed places.
///
/// [`PipelineSpec::redirect`] hands the policy the pipeline places
/// strictly upstream of the resolve point, in pipeline (declaration)
/// order; the policy returns the list in the order flushes are issued.
pub trait HazardPolicy: Send + Sync {
    /// Chooses and orders the squash list from the upstream places.
    fn squash_list(&self, upstream: &[PlaceId]) -> Vec<PlaceId>;
}

/// The two stock [`HazardPolicy`] orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashOrder {
    /// Squash every upstream place, pipeline-front first (fetch end
    /// first) — the StrongARM convention.
    FrontFirst,
    /// Squash every upstream place, nearest to the resolve point first —
    /// the XScale convention.
    NearestFirst,
}

impl HazardPolicy for SquashOrder {
    fn squash_list(&self, upstream: &[PlaceId]) -> Vec<PlaceId> {
        let mut list = upstream.to_vec();
        if matches!(self, SquashOrder::NearestFirst) {
            list.reverse();
        }
        list
    }
}

/// Forwarding selection of a read step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forward {
    /// Operands may come from any latch named in [`PipelineSpec::forwards`].
    All,
    /// Operands come from the register file only.
    None,
}

/// The resolved surroundings of one path step, passed to `*_ctx` closures.
///
/// Specs are written in terms of latch *names*; place ids exist only after
/// lowering. Closures that need them — a custom guard probing the
/// forwarding latches, an action flushing the front end or emitting a
/// micro-op back into its own place — receive this resolved context
/// instead of capturing ids they cannot know yet.
#[derive(Debug, Clone)]
pub struct StepCtx {
    /// The resolved forwarding set ([`PipelineSpec::forwards`], or empty
    /// for a [`Forward::None`] read step).
    pub fwd: Vec<PlaceId>,
    /// The resolved squash list of the step's redirect rule
    /// ([`PathSpec::flushes`]; empty when the step has no rule).
    pub flush: Vec<PlaceId>,
    /// The place the step consumes its token from.
    pub from: PlaceId,
    /// The step's destination place.
    pub to: PlaceId,
}

type CtxGuard<D, R> = Arc<dyn Fn(&Machine<R>, &D, &StepCtx) -> bool + Send + Sync>;
type CtxAction<D, R> = Arc<dyn Fn(&mut Machine<R>, &mut D, &mut Fx<D>, &StepCtx) + Send + Sync>;
type PlainAction<D, R> = Arc<dyn Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync>;
type Squash<D, R> = Box<dyn Fn(&mut Machine<R>, &mut D) + Send + Sync>;

/// One transition-to-be on a class path.
struct StepSpec<D, R> {
    name: Option<String>,
    to: String,
    /// Whether the step moves the path's current place forward
    /// ([`PathSpec::step`]) or branches off it ([`PathSpec::alt`]).
    advances: bool,
    priority: Option<u32>,
    read: Option<Forward>,
    read_then: Option<PlainAction<D, R>>,
    guard: Option<CtxGuard<D, R>>,
    action: Option<CtxAction<D, R>>,
    flush_rule: Option<String>,
    reads_forward: bool,
    reserve: Vec<(String, u32)>,
    delay: u32,
    /// Guard on the token's pre-resolved condition ([`PathSpec::when_cond`]).
    when_cond: Option<bool>,
    /// Publish destination results after the action ([`PathSpec::publish`]).
    publish: bool,
    /// Annul the token before the action ([`PathSpec::annuls`]).
    annuls: bool,
    /// Flush the bound rule's squash list unconditionally on firing
    /// ([`PathSpec::flushes_always`]).
    static_flush: bool,
}

/// One operation class's path through the pipeline; created by
/// [`PipelineSpec::class`].
///
/// A path is an ordered chain of steps. [`PathSpec::step`] appends a
/// transition from the current place to a destination latch and advances
/// the chain; [`PathSpec::alt`] appends an alternative transition out of
/// the current place without advancing (use [`PathSpec::priority`] to
/// disambiguate alternatives). Modifier methods apply to the most
/// recently appended step.
pub struct PathSpec<D, R> {
    name: String,
    start: Option<String>,
    steps: Vec<StepSpec<D, R>>,
}

impl<D, R> PathSpec<D, R> {
    fn new(name: &str) -> Self {
        PathSpec { name: name.to_string(), start: None, steps: Vec::new() }
    }

    /// Overrides the latch the path starts at (defaults to the first
    /// declared latch — where the fetch source deposits tokens).
    pub fn start(&mut self, latch: &str) -> &mut Self {
        self.start = Some(latch.to_string());
        self
    }

    /// Appends a step to latch `to` (`"end"` targets the virtual end
    /// place) and advances the chain: the next step consumes from `to`.
    pub fn step(&mut self, to: &str) -> &mut Self {
        self.push(to, true)
    }

    /// Appends an *alternative* step out of the current chain place
    /// without advancing it — a second way tokens may leave the place
    /// (condition-failed skips, forwarding variants).
    pub fn alt(&mut self, to: &str) -> &mut Self {
        self.push(to, false)
    }

    fn push(&mut self, to: &str, advances: bool) -> &mut Self {
        self.steps.push(StepSpec {
            name: None,
            to: to.to_string(),
            advances,
            priority: None,
            read: None,
            read_then: None,
            guard: None,
            action: None,
            flush_rule: None,
            reads_forward: false,
            reserve: Vec::new(),
            delay: 0,
            when_cond: None,
            publish: false,
            annuls: false,
            static_flush: false,
        });
        self
    }

    fn last(&mut self) -> &mut StepSpec<D, R> {
        self.steps.last_mut().unwrap_or_else(|| {
            panic!("path {:?}: call step()/alt() before step modifiers", self.name)
        })
    }

    /// Names the last step's transition (defaults to a generated unique
    /// name). Useful when tests look transitions up by name.
    pub fn name(&mut self, name: &str) -> &mut Self {
        self.last().name = Some(name.to_string());
        self
    }

    /// Sets the last step's arc priority (lower fires first).
    pub fn priority(&mut self, priority: u32) -> &mut Self {
        self.last().priority = Some(priority);
        self
    }

    /// Marks the last step as the path's operand-*read* step: its guard
    /// and action are synthesized from the spec's [`OperandPolicy`], and
    /// [`Forward::All`] additionally declares `reads_state` arcs on every
    /// forwarding latch (required for correct two-list analysis).
    pub fn read(&mut self, forward: Forward) -> &mut Self {
        self.last().read = Some(forward);
        self
    }

    /// Like [`PathSpec::read`], with an extra action executed right after
    /// the synthesized acquire (e.g. address pre-computation at issue).
    pub fn read_then(
        &mut self,
        forward: Forward,
        then: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> &mut Self {
        let s = self.last();
        s.read = Some(forward);
        s.read_then = Some(Arc::new(then));
        self
    }

    /// Sets a custom guard on the last step (mutually exclusive with
    /// [`PathSpec::read`], which synthesizes the guard).
    pub fn guard(
        &mut self,
        guard: impl Fn(&Machine<R>, &D) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        let s = self.last();
        s.guard = Some(Arc::new(move |m, t, _cx| guard(m, t)));
        self
    }

    /// Like [`PathSpec::guard`], with the resolved [`StepCtx`] available.
    pub fn guard_ctx(
        &mut self,
        guard: impl Fn(&Machine<R>, &D, &StepCtx) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        let s = self.last();
        s.guard = Some(Arc::new(guard));
        self
    }

    /// Sets a custom action on the last step.
    pub fn act(
        &mut self,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> &mut Self {
        let s = self.last();
        s.action = Some(Arc::new(move |m, t, fx, _cx| action(m, t, fx)));
        self
    }

    /// Like [`PathSpec::act`], with the resolved [`StepCtx`] available
    /// (forwarding set, flush list, own places).
    pub fn act_ctx(
        &mut self,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>, &StepCtx) + Send + Sync + 'static,
    ) -> &mut Self {
        let s = self.last();
        s.action = Some(Arc::new(action));
        self
    }

    /// Binds the last step to a redirect rule: the rule's resolved squash
    /// list becomes [`StepCtx::flush`] for the step's closures.
    pub fn flushes(&mut self, rule: &str) -> &mut Self {
        self.last().flush_rule = Some(rule.to_string());
        self
    }

    /// Binds the last step to a redirect rule *and* issues the rule's
    /// flushes unconditionally every time the step fires — a static
    /// redirect whose squash list is pure data. Lowers to an
    /// [`MicroOp::EmitRedirect`] under [`Lowering::Auto`]; the
    /// closure-lowered twin flushes the same places in the same order.
    /// Mutually exclusive with [`PathSpec::read`].
    pub fn flushes_always(&mut self, rule: &str) -> &mut Self {
        let s = self.last();
        s.flush_rule = Some(rule.to_string());
        s.static_flush = true;
        self
    }

    /// Guards the last step on the token's pre-resolved condition
    /// ([`crate::token::InstrData::cond_passes`]`() == expect`). Lowers
    /// to an [`MicroOp::CheckCond`] under [`Lowering::Auto`]. Only
    /// meaningful for payloads that resolve their condition into the
    /// token; conditions that read machine state (e.g. ARM's CPSR) must
    /// use [`PathSpec::guard`] instead. Mutually exclusive with
    /// [`PathSpec::guard`] and [`PathSpec::read`].
    pub fn when_cond(&mut self, expect: bool) -> &mut Self {
        self.last().when_cond = Some(expect);
        self
    }

    /// Publishes every destination operand's latched value to the
    /// forwarding scoreboard after the last step's action runs — the
    /// declarative form of a simple execute stage's "make the result
    /// bypassable" epilogue. Lowers to an [`MicroOp::Publish`] under
    /// [`Lowering::Auto`], so a step whose value is already latched
    /// needs no closure at all. Mutually exclusive with
    /// [`PathSpec::read`].
    pub fn publish(&mut self) -> &mut Self {
        self.last().publish = true;
        self
    }

    /// Annuls the firing token before the last step's action runs: the
    /// payload is marked annulled and every register reservation it
    /// holds is released. Lowers to an [`MicroOp::Annul`] under
    /// [`Lowering::Auto`]; any [`PathSpec::act`] on the step runs after
    /// the annul (as a hook) for model-specific bookkeeping. Mutually
    /// exclusive with [`PathSpec::read`].
    pub fn annuls(&mut self) -> &mut Self {
        self.last().annuls = true;
        self
    }

    /// Declares `reads_state` arcs from every forwarding latch on the
    /// last step — for custom steps whose guard probes the forwarding set
    /// (read steps with [`Forward::All`] get this automatically).
    pub fn reads_forward(&mut self) -> &mut Self {
        self.last().reads_forward = true;
        self
    }

    /// Adds a reservation-token output arc to the last step: firing
    /// occupies `latch`'s stage with a dataless token for `expire` cycles.
    pub fn reserve(&mut self, latch: &str, expire: u32) -> &mut Self {
        self.last().reserve.push((latch.to_string(), expire));
        self
    }

    /// Sets the last step's execution delay.
    pub fn delay(&mut self, cycles: u32) -> &mut Self {
        self.last().delay = cycles;
        self
    }
}

impl<D, R> std::fmt::Debug for PathSpec<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathSpec")
            .field("name", &self.name)
            .field("steps", &self.steps.len())
            .finish()
    }
}

/// A source-transition declaration; created by [`PipelineSpec::source`].
pub struct SourceSpec<D, R> {
    name: String,
    to: Option<String>,
    width: u32,
    guard: Option<SourceGuard<R>>,
    produce: Option<SourceAction<D, R>>,
}

impl<D, R> SourceSpec<D, R> {
    /// Sets the latch generated tokens are deposited into.
    pub fn to(&mut self, latch: &str) -> &mut Self {
        self.to = Some(latch.to_string());
        self
    }

    /// Sets the fetch width (tokens per cycle); defaults to 1.
    pub fn width(&mut self, max_per_cycle: u32) -> &mut Self {
        self.width = max_per_cycle;
        self
    }

    /// Sets the guard; the source fires only while it holds.
    pub fn guard(
        &mut self,
        guard: impl Fn(&Machine<R>) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        self.guard = Some(Box::new(guard));
        self
    }

    /// Sets the producer: the payload of a new token, or `None` to stall.
    pub fn produce(
        &mut self,
        produce: impl Fn(&mut Machine<R>, &mut Fx<D>) -> Option<D> + Send + Sync + 'static,
    ) -> &mut Self {
        self.produce = Some(Box::new(produce));
        self
    }
}

impl<D, R> std::fmt::Debug for SourceSpec<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceSpec").field("name", &self.name).field("to", &self.to).finish()
    }
}

/// How a redirect rule's squash list is specified.
enum Redirect {
    /// Everything strictly upstream of the named latch, ordered by the
    /// spec's [`HazardPolicy`].
    UpstreamOf(String),
    /// An explicit, ordered latch list.
    Explicit(Vec<String>),
}

/// A declarative pipeline description that *generates* an RCPN [`Model`].
///
/// See the [module documentation](self) for the overall shape and an
/// example; [`PipelineSpec::lower`] documents the generated structure.
pub struct PipelineSpec<D, R> {
    name: String,
    stages: Vec<(String, u32)>,
    latches: Vec<(String, String, Option<u32>)>,
    forwards: Vec<String>,
    redirects: Vec<(String, Redirect)>,
    hazard: Box<dyn HazardPolicy>,
    policy: Option<Arc<dyn OperandPolicy<D, R>>>,
    classes: Vec<PathSpec<D, R>>,
    sources: Vec<SourceSpec<D, R>>,
    squash: Option<Squash<D, R>>,
    lowering: Lowering,
}

impl<D, R> PipelineSpec<D, R> {
    /// Creates an empty spec named `name` (the name appears in lowering
    /// diagnostics). The hazard policy defaults to
    /// [`SquashOrder::NearestFirst`].
    pub fn new(name: &str) -> Self {
        PipelineSpec {
            name: name.to_string(),
            stages: Vec::new(),
            latches: Vec::new(),
            forwards: Vec::new(),
            redirects: Vec::new(),
            hazard: Box::new(SquashOrder::NearestFirst),
            policy: None,
            classes: Vec::new(),
            sources: Vec::new(),
            squash: None,
            lowering: Lowering::Auto,
        }
    }

    /// Selects how synthesized read steps are represented; defaults to
    /// [`Lowering::Auto`] (micro-op IR where the policy permits). Force
    /// [`Lowering::Closures`] to build the closure-dispatch oracle twin.
    pub fn lowering(&mut self, mode: Lowering) -> &mut Self {
        self.lowering = mode;
        self
    }

    /// Declares a pipeline stage (a storage element with a capacity).
    pub fn stage(&mut self, name: &str, capacity: u32) -> &mut Self {
        self.stages.push((name.to_string(), capacity));
        self
    }

    /// Declares a latch: an instruction state (place) bound to `stage`,
    /// with the default one-cycle residency.
    pub fn latch(&mut self, name: &str, stage: &str) -> &mut Self {
        self.latches.push((name.to_string(), stage.to_string(), None));
        self
    }

    /// Declares a latch with an explicit residency delay.
    pub fn latch_with_delay(&mut self, name: &str, stage: &str, delay: u32) -> &mut Self {
        self.latches.push((name.to_string(), stage.to_string(), Some(delay)));
        self
    }

    /// Declares a stage together with a same-named latch on it — the
    /// common case where every stage holds exactly one instruction state.
    pub fn pipe(&mut self, name: &str, capacity: u32) -> &mut Self {
        self.stage(name, capacity).latch(name, name)
    }

    /// Declares the forwarding set: the latches whose resident results
    /// operand reads may bypass the register file for. Order is
    /// significant (policies probe the latches in this order).
    pub fn forwards(&mut self, latches: &[&str]) -> &mut Self {
        self.forwards = latches.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Installs the operand read/forwarding policy used by
    /// [`PathSpec::read`] steps.
    pub fn operand_policy(&mut self, policy: impl OperandPolicy<D, R> + 'static) -> &mut Self {
        self.policy = Some(Arc::new(policy));
        self
    }

    /// Installs the control-hazard policy that orders
    /// [`PipelineSpec::redirect`] squash lists. Defaults to
    /// [`SquashOrder::NearestFirst`].
    pub fn hazard_policy(&mut self, policy: impl HazardPolicy + 'static) -> &mut Self {
        self.hazard = Box::new(policy);
        self
    }

    /// Declares a redirect rule: when a step bound to `rule` (via
    /// [`PathSpec::flushes`]) redirects the front end, every latch
    /// declared strictly before `resolve_from` — the place such steps
    /// consume from — is squashed, in the order chosen by the spec's
    /// [`HazardPolicy`].
    pub fn redirect(&mut self, rule: &str, resolve_from: &str) -> &mut Self {
        self.redirects.push((rule.to_string(), Redirect::UpstreamOf(resolve_from.to_string())));
        self
    }

    /// Declares a redirect rule with an explicit, ordered squash list
    /// (bypasses the [`HazardPolicy`]).
    pub fn redirect_explicit(&mut self, rule: &str, squash: &[&str]) -> &mut Self {
        self.redirects.push((
            rule.to_string(),
            Redirect::Explicit(squash.iter().map(|s| s.to_string()).collect()),
        ));
        self
    }

    /// Declares an operation class and returns its path for step-by-step
    /// description. Classes are registered in declaration order (their
    /// [`crate::ids::OpClassId`]s follow it).
    pub fn class(&mut self, name: &str) -> &mut PathSpec<D, R> {
        self.classes.push(PathSpec::new(name));
        self.classes.last_mut().expect("just pushed")
    }

    /// Declares a source transition (the instruction-independent
    /// sub-net; e.g. fetch) and returns it for configuration.
    pub fn source(&mut self, name: &str) -> &mut SourceSpec<D, R> {
        self.sources.push(SourceSpec {
            name: name.to_string(),
            to: None,
            width: 1,
            guard: None,
            produce: None,
        });
        self.sources.last_mut().expect("just pushed")
    }

    /// Installs a cleanup hook called for every instruction token removed
    /// by a flush (see [`crate::model::SquashHandler`]).
    pub fn on_squash(
        &mut self,
        handler: impl Fn(&mut Machine<R>, &mut D) + Send + Sync + 'static,
    ) -> &mut Self {
        self.squash = Some(Box::new(handler));
        self
    }
}
impl<D: InstrData, R: 'static> PipelineSpec<D, R> {
    /// Lowers the spec into a validated RCPN [`Model`], synthesizing the
    /// read-step guards/actions from the [`OperandPolicy`] and resolving
    /// redirect rules through the [`HazardPolicy`].
    ///
    /// Generated structure, in registration order (this order is the
    /// bit-identity contract with equivalently hand-wired models): all
    /// stages, then all latches (places), then one class sub-net per
    /// [`PipelineSpec::class`] in declaration order, then each class's
    /// steps in path order, then the sources.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Spec`] for spec-level mistakes (unknown
    /// latch/stage/rule names, a read step without an operand policy,
    /// a read step combined with a custom guard, a source without
    /// destination or producer), and propagates every structural
    /// [`ModelBuilder::build`] validation error.
    pub fn lower(self) -> Result<Model<D, R>, BuildError> {
        let PipelineSpec {
            name: spec_name,
            stages,
            latches,
            forwards,
            redirects,
            hazard,
            policy,
            classes,
            sources,
            squash,
            lowering,
        } = self;
        let err = |detail: String| BuildError::Spec { spec: spec_name.clone(), detail };

        let mut b = ModelBuilder::<D, R>::new();
        let mut stage_ids = Vec::new();
        for (name, cap) in &stages {
            stage_ids.push((name.clone(), b.stage(name, *cap)));
        }
        let mut latch_ids: Vec<(String, PlaceId)> = Vec::new();
        for (name, stage, delay) in &latches {
            let &(_, sid) = stage_ids.iter().find(|(n, _)| n == stage).ok_or_else(|| {
                err(format!("latch {name:?} references undeclared stage {stage:?}"))
            })?;
            let pid = match delay {
                Some(d) => b.place_with_delay(name, sid, *d),
                None => b.place(name, sid),
            };
            latch_ids.push((name.clone(), pid));
        }
        let end = b.end_place();
        let resolve = |name: &str| -> Result<PlaceId, BuildError> {
            if name == "end" {
                return Ok(end);
            }
            latch_ids
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, p)| p)
                .ok_or_else(|| err(format!("undeclared latch {name:?}")))
        };

        let mut fwd = Vec::new();
        for f in &forwards {
            fwd.push(resolve(f)?);
        }

        let mut rules: Vec<(String, Vec<PlaceId>)> = Vec::new();
        for (rname, redirect) in &redirects {
            let list = match redirect {
                Redirect::Explicit(names) => {
                    names.iter().map(|n| resolve(n)).collect::<Result<Vec<_>, _>>()?
                }
                Redirect::UpstreamOf(from) => {
                    let idx = latch_ids.iter().position(|(n, _)| n == from).ok_or_else(|| {
                        err(format!("redirect {rname:?} resolves from undeclared latch {from:?}"))
                    })?;
                    let upstream: Vec<PlaceId> = latch_ids[..idx].iter().map(|&(_, p)| p).collect();
                    hazard.squash_list(&upstream)
                }
            };
            rules.push((rname.clone(), list));
        }

        let class_ids: Vec<_> = classes.iter().map(|c| b.class_net(&c.name).0).collect();
        for (class, &cid) in classes.iter().zip(&class_ids) {
            let mut chain = match &class.start {
                Some(s) => s.clone(),
                None => latch_ids
                    .first()
                    .ok_or_else(|| err(format!("class {:?} has no latch to start at", class.name)))?
                    .0
                    .clone(),
            };
            for (si, step) in class.steps.iter().enumerate() {
                let from_name = chain.clone();
                let from = resolve(&from_name)?;
                let to = resolve(&step.to)?;
                if step.advances {
                    chain = step.to.clone();
                }
                let flush = match &step.flush_rule {
                    Some(r) => {
                        rules.iter().find(|(n, _)| n == r).map(|(_, l)| l.clone()).ok_or_else(
                            || {
                                err(format!(
                                "class {:?} step {si} references undeclared redirect rule {r:?}",
                                class.name
                            ))
                            },
                        )?
                    }
                    None => Vec::new(),
                };
                let step_fwd =
                    if step.read == Some(Forward::None) { Vec::new() } else { fwd.clone() };
                let ctx = Arc::new(StepCtx { fwd: step_fwd, flush, from, to });
                let synth_action = step.annuls || step.publish || step.static_flush;
                if step.read.is_some() && (step.when_cond.is_some() || synth_action) {
                    return Err(err(format!(
                        "class {:?} step {si}: read() excludes \
                         when_cond()/publish()/annuls()/flushes_always()",
                        class.name
                    )));
                }
                if step.when_cond.is_some() && step.guard.is_some() {
                    return Err(err(format!(
                        "class {:?} step {si}: when_cond() and guard() are mutually exclusive",
                        class.name
                    )));
                }
                // Read steps: decide the representation (IR vs closure)
                // and register the read_then hook *before* the transition
                // builder borrows `b`. Hook ids are handed out in
                // declaration order, keeping lowering deterministic.
                let read_plan = if step.read.is_some() {
                    if step.guard.is_some() {
                        return Err(err(format!(
                            "class {:?} step {si}: read() and guard() are mutually exclusive",
                            class.name
                        )));
                    }
                    let pol = policy.clone().ok_or_else(|| {
                        err(format!(
                            "class {:?} step {si} is a read step but no operand_policy is set",
                            class.name
                        ))
                    })?;
                    let ir_mask = match lowering {
                        Lowering::Closures => None,
                        Lowering::Auto if pol.lowers_to_ir() => ir::place_mask(&ctx.fwd),
                        Lowering::Auto => None,
                    };
                    let then_hook = match (&step.read_then, ir_mask) {
                        (Some(f), Some(_)) => {
                            let f = Arc::clone(f);
                            Some(b.hook_action(move |m, t, fx| f(m, t, fx)))
                        }
                        _ => None,
                    };
                    Some((pol, ir_mask, then_hook))
                } else {
                    None
                };
                // Steps with synthesized action parts (annul/publish/
                // static flush) escape their user action — run between
                // the annul and the publish — through the hook table
                // under `Auto`; registered here for the same
                // declaration-order determinism as read_then hooks.
                let act_hook = match (&step.action, synth_action, lowering) {
                    (Some(a), true, Lowering::Auto) => {
                        let (a, c) = (Arc::clone(a), Arc::clone(&ctx));
                        Some(b.hook_action(move |m, t, fx| a(m, t, fx, &c)))
                    }
                    _ => None,
                };
                let tname = step
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{}.{si}:{from_name}>{}", class.name, step.to));
                let mut tb = b.transition(cid, &tname).from(from).to(to);
                if let Some(p) = step.priority {
                    tb = tb.priority(p);
                }
                if step.delay > 0 {
                    tb = tb.delay(step.delay);
                }
                if step.reads_forward || step.read == Some(Forward::All) {
                    for &p in &fwd {
                        tb = tb.reads_state(p);
                    }
                }
                for (latch, expire) in &step.reserve {
                    tb = tb.reserve(resolve(latch)?, *expire);
                }
                if let Some((pol, ir_mask, then_hook)) = read_plan {
                    if let Some(mask) = ir_mask {
                        // Synthesized discipline as data: the guard is one
                        // CheckReady, the action an AcquireOperands (the
                        // compile step fuses the pair) plus the user's
                        // read_then hook, if any, via the escape hatch.
                        tb =
                            tb.guard_ir(Program::new(vec![MicroOp::CheckReady { fwd_mask: mask }]));
                        let mut ops = vec![MicroOp::AcquireOperands { fwd_mask: mask }];
                        if let Some(h) = then_hook {
                            ops.push(MicroOp::CallHook(h));
                        }
                        tb = tb.action_ir(Program::new(ops));
                    } else {
                        let (p2, c2) = (Arc::clone(&pol), Arc::clone(&ctx));
                        tb = tb.guard(move |m, t| p2.ready(m, t, &c2.fwd));
                        let then = step.read_then.clone();
                        let c3 = Arc::clone(&ctx);
                        tb = tb.action(move |m, t, fx| {
                            pol.acquire(m, t, fx, &c3.fwd);
                            if let Some(f) = &then {
                                f(m, t, fx);
                            }
                        });
                    }
                } else {
                    match (step.when_cond, lowering) {
                        (Some(expect), Lowering::Auto) => {
                            tb = tb.guard_ir(Program::new(vec![MicroOp::CheckCond { expect }]));
                        }
                        (Some(expect), Lowering::Closures) => {
                            tb = tb.guard(move |_m, t: &D| t.cond_passes() == expect);
                        }
                        (None, _) => {
                            if let Some(g) = &step.guard {
                                let (g, c) = (Arc::clone(g), Arc::clone(&ctx));
                                tb = tb.guard(move |m, t| g(m, t, &c));
                            }
                        }
                    }
                    if synth_action {
                        match lowering {
                            Lowering::Auto => {
                                // Fixed assembly order — annul, user
                                // action, publish, static flush — shared
                                // with the closure twin below.
                                let mut ops = Vec::new();
                                if step.annuls {
                                    ops.push(MicroOp::Annul);
                                }
                                if let Some(h) = act_hook {
                                    ops.push(MicroOp::CallHook(h));
                                }
                                if step.publish {
                                    ops.push(MicroOp::Publish);
                                }
                                if step.static_flush {
                                    ops.push(MicroOp::EmitRedirect {
                                        flush: ctx.flush.clone().into_boxed_slice(),
                                    });
                                }
                                tb = tb.action_ir(Program::new(ops));
                            }
                            Lowering::Closures => {
                                let act = step.action.clone();
                                let c = Arc::clone(&ctx);
                                let (annuls, publish, static_flush) =
                                    (step.annuls, step.publish, step.static_flush);
                                tb = tb.action(move |m, t: &mut D, fx| {
                                    if annuls {
                                        t.set_annulled();
                                        m.regs.release(fx.token());
                                    }
                                    if let Some(a) = &act {
                                        a(m, t, fx, &c);
                                    }
                                    if publish {
                                        let tok = fx.token();
                                        for i in 0..t.dst_count() {
                                            t.dst_operand(i).publish(&mut m.regs, tok);
                                        }
                                    }
                                    if static_flush {
                                        for &p in &c.flush {
                                            fx.flush(p);
                                        }
                                    }
                                });
                            }
                        }
                    } else if let Some(a) = &step.action {
                        let (a, c) = (Arc::clone(a), Arc::clone(&ctx));
                        tb = tb.action(move |m, t, fx| a(m, t, fx, &c));
                    }
                }
                tb.done();
            }
        }

        for src in sources {
            let to = src
                .to
                .as_deref()
                .ok_or_else(|| err(format!("source {:?} needs .to(latch)", src.name)))?;
            let to = resolve(to)?;
            let produce = src
                .produce
                .ok_or_else(|| err(format!("source {:?} needs .produce(..)", src.name)))?;
            let mut sb = b.source(&src.name).to(to).width(src.width);
            if let Some(g) = src.guard {
                sb = sb.guard(move |m| g(m));
            }
            sb.produce(move |m, fx| produce(m, fx)).done();
        }

        if let Some(h) = squash {
            b.on_squash(move |m, d| h(m, d));
        }

        b.build()
    }
}

impl<D, R> std::fmt::Debug for PipelineSpec<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSpec")
            .field("name", &self.name)
            .field("stages", &self.stages.len())
            .field("latches", &self.latches.len())
            .field("classes", &self.classes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::ids::OpClassId;
    use crate::reg::RegisterFile;
    use crate::token::InstrData;

    #[derive(Debug)]
    struct Tok(OpClassId);
    impl InstrData for Tok {
        fn op_class(&self) -> OpClassId {
            self.0
        }
    }

    struct NoOperands;
    impl<R> OperandPolicy<Tok, R> for NoOperands {
        fn ready(&self, _m: &Machine<R>, _t: &Tok, _fwd: &[PlaceId]) -> bool {
            true
        }
        fn acquire(&self, _m: &mut Machine<R>, _t: &mut Tok, _fx: &mut Fx<Tok>, _f: &[PlaceId]) {}
    }

    fn three_deep() -> PipelineSpec<Tok, u64> {
        let mut s = PipelineSpec::new("t");
        s.pipe("F", 1).pipe("D", 1).pipe("E", 1);
        s.forwards(&["E"]);
        s.operand_policy(NoOperands);
        s.class("C").step("D").read(Forward::All).step("E").step("end");
        s.source("fetch")
            .to("F")
            .produce(|_m: &mut Machine<u64>, _fx| Some(Tok(OpClassId::from_index(0))));
        s
    }

    #[test]
    fn lowers_and_runs() {
        let model = three_deep().lower().expect("valid spec");
        assert_eq!(model.place_count(), 4); // end + F/D/E
        assert_eq!(model.transition_count(), 3);
        // The read step declared a reads_state arc on E, making E two-list.
        let e = model.find_place("E").unwrap();
        assert!(model.analysis().is_two_list(e));
        let mut engine = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
        engine.run(50);
        assert!(engine.stats().retired > 40);
    }

    #[test]
    fn unknown_latch_is_a_spec_error() {
        let mut s = three_deep();
        s.class("X").step("NOPE");
        let e = s.lower().unwrap_err();
        assert!(matches!(&e, BuildError::Spec { .. }), "{e:?}");
        assert!(e.to_string().contains("NOPE"), "{e}");
    }

    #[test]
    fn read_without_policy_is_a_spec_error() {
        let mut s = PipelineSpec::<Tok, ()>::new("nopol");
        s.pipe("F", 1).pipe("D", 1);
        s.class("C").step("D").read(Forward::All).step("end");
        s.source("f").to("F").produce(|_m, _fx| None);
        let e = s.lower().unwrap_err();
        assert!(e.to_string().contains("operand_policy"), "{e}");
    }

    #[test]
    fn redirect_upstream_resolves_in_hazard_order() {
        for (policy, expect) in
            [(SquashOrder::FrontFirst, ["F", "D"]), (SquashOrder::NearestFirst, ["D", "F"])]
        {
            // Single class whose E-entering step carries the rule; the
            // action records the resolved flush list the first time a
            // token reaches it.
            let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let seen2 = std::sync::Arc::clone(&seen);
            let mut s = PipelineSpec::<Tok, u64>::new("t");
            s.pipe("F", 1).pipe("D", 1).pipe("E", 1);
            s.hazard_policy(policy);
            s.redirect("r", "E");
            s.class("C")
                .step("D")
                .step("E")
                .flushes("r")
                .act_ctx(move |_m, _t, _fx, cx| {
                    let mut v = seen2.lock().unwrap();
                    if v.is_empty() {
                        v.extend(cx.flush.iter().copied());
                    }
                })
                .step("end");
            s.source("fetch")
                .to("F")
                .produce(|_m: &mut Machine<u64>, _fx| Some(Tok(OpClassId::from_index(0))));
            let model = s.lower().expect("valid");
            let expect_ids: Vec<PlaceId> =
                expect.iter().map(|n| model.find_place(n).unwrap()).collect();
            let mut engine = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
            engine.run(20);
            assert_eq!(*seen.lock().unwrap(), expect_ids, "{policy:?}");
        }
    }

    #[test]
    fn alt_steps_do_not_advance_the_chain() {
        let mut s = three_deep();
        // Second class: skip from D straight to end at priority 0, spine
        // D -> E at priority 1.
        s.class("Skippy")
            .step("D")
            .read(Forward::All)
            .alt("end")
            .name("skip")
            .priority(0)
            .guard(|_m, _t| false)
            .step("E")
            .name("spine")
            .priority(1)
            .step("end");
        let model = s.lower().expect("valid");
        let skip = model.find_transition("skip").unwrap();
        let spine = model.find_transition("spine").unwrap();
        let d = model.find_place("D").unwrap();
        assert_eq!(model.transition(skip).input(), d);
        assert_eq!(model.transition(spine).input(), d, "alt must not advance the chain");
        assert!(model.is_end_place(model.transition(skip).dest()));
    }
}
