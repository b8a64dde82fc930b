//! Simulation-as-a-service over RCPN simulators compiled in process.
//!
//! The paper's pitch is that generated cycle-accurate simulators are
//! fast enough for *interactive* design-space exploration. This crate is
//! the serving half of that story: a long-running TCP job server
//! ([`server::Server`], the `rcpn-serve` bin) that warms one compiled
//! simulator per [`processors::sim::ProcModel`] registry variant at bind
//! time, then accepts program + model simulation jobs over a small
//! length-prefixed binary protocol ([`protocol`]), runs them on a
//! scoped-thread worker pool, and streams per-job results back as they
//! complete. A bounded admission queue
//! turns overload into a typed [`protocol::Reply::Busy`] instead of
//! unbounded buffering, and the matching [`client::Client`] (the
//! `rcpn-client` bin) hides reply interleaving behind a blocking
//! submit/collect API.
//!
//! **Determinism guarantee:** a served job instantiates an engine from
//! the same shared compiled artifact and runs the same
//! instantiate-and-run body as `CompiledSim::run_batch`, so served
//! `SimResult`/`Stats`/`SchedStats` are bit-identical to an in-process
//! batch — the loopback tests pin this across every registry model.
//!
//! The wire protocol is self-contained and documented frame-by-frame in
//! [`protocol`] (and prose-form in `DESIGN.md` §3b). Encoding is plain
//! functions over byte vectors, so it can be exercised without a socket:
//!
//! ```
//! use rcpn_serve::protocol::{decode_request, encode_request, JobSpec, Request};
//!
//! // A submission: job 7, StrongARM, a two-word program image.
//! let spec = JobSpec {
//!     job_id: 7,
//!     model: "strongarm".to_string(),
//!     max_cycles: 1_000_000,
//!     base: 0x0,
//!     entry: 0x0,
//!     words: vec![0xe3a0_0000, 0xef00_0000],
//! };
//! let frame = encode_request(&Request::Submit(spec.clone()));
//!
//! // The frame is versioned and tagged...
//! assert_eq!(frame[0], rcpn_serve::protocol::PROTOCOL_VERSION);
//!
//! // ...and decodes back to exactly what was sent.
//! assert_eq!(decode_request(&frame).unwrap(), Request::Submit(spec));
//!
//! // Malformed input comes back as a typed error, never a panic.
//! let err = decode_request(&frame[..frame.len() - 1]).unwrap_err();
//! assert!(matches!(err, rcpn_serve::protocol::WireError::Truncated { .. }));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
