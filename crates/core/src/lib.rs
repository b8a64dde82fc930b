//! # RCPN — Reduced Colored Petri Nets for pipelined processor modeling
//!
//! A reproduction of *"Generic Pipelined Processor Modeling and High
//! Performance Cycle-Accurate Simulator Generation"* (Reshadi & Dutt,
//! DATE 2005).
//!
//! RCPN is an instruction-centric variant of Colored Petri Nets for
//! describing pipelined processors. A model is a set of **sub-nets**: one
//! instruction-independent sub-net that generates instruction tokens
//! (fetch/decode), and one sub-net per **operation class** describing how
//! instructions of that class flow through the pipeline's **places**
//! (instruction states bound to **stages**) via guarded, prioritized
//! **transitions**. Structural and control hazards and variable operation
//! latencies are captured by tokens, capacities and delays; **data hazards**
//! are captured separately by the three-level register model in [`reg`].
//!
//! Models can be hand-wired with [`builder::ModelBuilder`] or — the
//! paper's *generic modeling* claim — **generated** from a declarative
//! [`spec::PipelineSpec`]: stages, per-class paths, an operand
//! read/forwarding policy and redirect rules, lowered into a validated
//! model with the per-class guards and actions synthesized.
//!
//! The same model drives a fast cycle-accurate simulator through an
//! explicit **model → compile → run** pipeline: [`analysis`] statically
//! extracts three properties (sorted per-(place, class) transition tables,
//! reverse-topological place evaluation, and two-list token storage only
//! where feedback demands it), [`compiled`] partially evaluates them into
//! the [`compiled::CompiledModel`] generated-simulator artifact, and
//! [`engine`] instantiates that artifact — once or many times — as
//! runnable [`engine::Engine`]s. [`batch`] fans many instantiations of a
//! shared artifact across worker threads with deterministic result
//! merging — the scale-out layer over the same seam.
//!
//! ## Quick start
//!
//! Model a two-stage pipeline and run tokens through it:
//!
//! ```
//! use rcpn::prelude::*;
//!
//! // Token payload: just an operation class.
//! #[derive(Debug)]
//! struct Tok(OpClassId);
//! impl InstrData for Tok {
//!     fn op_class(&self) -> OpClassId { self.0 }
//! }
//!
//! # fn main() -> Result<(), rcpn::error::BuildError> {
//! let mut b = ModelBuilder::<Tok, u32>::new();   // u32: a counter resource
//! let l1 = b.stage("L1", 1);
//! let l2 = b.stage("L2", 1);
//! let p1 = b.place("decode", l1);
//! let p2 = b.place("execute", l2);
//! let end = b.end_place();
//! let (alu, _) = b.class_net("Alu");
//!
//! b.transition(alu, "issue").from(p1).to(p2).done();
//! b.transition(alu, "complete")
//!     .from(p2)
//!     .to(end)
//!     .action(|m, _d, _fx| m.res += 1)
//!     .done();
//! b.source("fetch").to(p1).produce(move |_m, _fx| Some(Tok(alu))).done();
//!
//! let model = b.build()?;
//! let mut engine = Engine::new(model, Machine::new(RegisterFile::new(), 0u32));
//! engine.run(100);
//! assert!(engine.stats().retired > 90);
//! assert_eq!(engine.machine().res as u64, engine.stats().retired);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod builder;
pub mod compiled;
pub mod cpn;
pub mod engine;
pub mod error;
pub mod ids;
pub mod ir;
pub mod model;
pub mod reg;
pub mod spec;
pub mod stats;
pub mod token;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::batch::BatchRunner;
    pub use crate::builder::ModelBuilder;
    pub use crate::compiled::CompiledModel;
    pub use crate::engine::{Engine, EngineConfig, RunOutcome, SchedulerMode, TableMode};
    pub use crate::error::BuildError;
    pub use crate::ids::{OpClassId, PlaceId, RegId, StageId, SubnetId, TokenId, TransitionId};
    pub use crate::ir::{MicroOp, Program};
    pub use crate::model::{Fx, Machine, Model, UNLIMITED};
    pub use crate::reg::{Operand, RegRef, RegisterFile};
    pub use crate::spec::{
        Forward, HazardPolicy, Lowering, OperandPolicy, PipelineSpec, SquashOrder,
    };
    pub use crate::stats::{SchedStats, Stats};
    pub use crate::token::{InstrData, TokenKind};
}
