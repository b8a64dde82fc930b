//! # processors — RCPN processor models and generated simulators
//!
//! The paper's case studies, rebuilt on the [`rcpn`] engine:
//!
//! * [`strongarm`] — the StrongARM SA-110 five-stage pipeline (six class
//!   sub-nets, forwarding from the E/M latches, predict-not-taken).
//! * [`xscale`] — the Intel XScale superpipeline (Figure 9: X/D/MAC pipes,
//!   BTB front end, out-of-order completion).
//! * [`superarm`] — a seven-stage superpipelined in-order StrongARM
//!   variant, defined entirely through the [`rcpn::spec`] API.
//! * [`example`] — the representative out-of-order-completion processor of
//!   Figures 4–5, on a miniature ISA.
//! * [`tomasulo`] — a reservation-station (Tomasulo-style) model, the
//!   extension mentioned in Section 3.2.
//!
//! The ARM models share one token payload ([`armtok::ArmTok`]) with
//! decode-once templates and per-PC token caching, one resource block
//! ([`res::ArmRes`]) and one library of stage semantics ([`semantics`]),
//! so the *only* difference between processors is the net structure — the
//! paper's core modeling claim.
//!
//! Use [`sim::CaSim`] for a ready-to-run simulator:
//!
//! ```
//! use arm_isa::asm::assemble;
//! use processors::sim::CaSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("mov r0, #6\nmov r1, #7\nmul r0, r1, r0\nswi #0\n")?;
//! let mut sim = CaSim::strongarm(&program);
//! let result = sim.run(100_000);
//! assert_eq!(result.exit, Some(42));
//! assert!(result.cycles > result.instrs as u64, "CPI > 1 on a scalar pipeline");
//! # Ok(())
//! # }
//! ```

pub mod armtok;
pub mod example;
pub mod res;
pub mod semantics;
pub mod sim;
#[cfg(test)]
mod spec_oracle;
pub mod strongarm;
pub mod superarm;
pub mod tomasulo;
pub mod xscale;

pub use armtok::{ArmClass, ArmTok, DecInstr};
pub use res::{ArmRes, SimConfig};
pub use sim::{BatchOutcome, CaSim, CompiledSim, ProcModel, SimResult};
