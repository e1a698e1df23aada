//! # accelerated-heartbeat
//!
//! A Rust reproduction of **"Accelerated Heartbeat Protocols"** (M. G. Gouda
//! and T. M. McGuire, ICDCS '98) together with the full formal analysis of
//! **"Formal Specification and Analysis of Accelerated Heartbeat Protocols"**
//! (M. Atif and M. R. Mousavi, TU/e CS-Report 09-04, 2009).
//!
//! This façade crate re-exports the workspace members:
//!
//! * [`core`] (`hb-core`) — the protocol family (binary, revised binary,
//!   two-phase, static, expanding, dynamic) as pure state machines, plus the
//!   Section-6 fixes, and what both runtimes share: the fault seam
//!   ([`core::fault`]) and the run record ([`core::schema`]).
//! * [`mck`] — an explicit-state model checker (BFS/DFS/parallel, LTS
//!   reduction, digital clocks).
//! * [`sim`] (`hb-sim`) — a discrete-event network simulator with lossy
//!   bounded-delay channels, crash/churn injection, and metrics.
//! * [`verify`] (`hb-verify`) — the composed timed models, the requirements
//!   R1–R3, and the verification campaign regenerating the paper's tables
//!   and counter-example figures.
//! * [`net`] (`hb-net`) — a live runtime: wire codec, loopback and UDP
//!   transports, wall/virtual time sources, and a deadline-driven node
//!   event loop running the unmodified machines in real time.
//! * [`monitor`] (`hb-monitor`) — streaming runtime verification: the
//!   R1–R3 requirement automata compiled from `hb-verify`'s declarative
//!   monitor definitions into O(participants) incremental checkers that
//!   tap the shared event stream of both runtimes and timestamp the
//!   first violation.
//! * [`chaos`] (`hb-chaos`) — deterministic fault injection: declarative
//!   JSON fault plans (burst loss, partitions, duplication, reordering,
//!   delay spikes, clock drift, crash/churn schedules) executed on both
//!   the simulator and the live runtime, plus a parallel chaos-campaign
//!   runner sweeping fault grids into deterministic reports.
//! * [`analyze`] (`hb-analyze`) — the static protocol analyzer: lints
//!   over the machines' transition-system IR (the AM09 timeout-vs-receive
//!   overlap, unreachable states, dead transitions, ambiguous receives,
//!   epoch monotonicity) and the soundness cross-check for the
//!   partial-order reduction in [`verify`](hb_verify::por).
//!
//! ## Quickstart
//!
//! Model-check requirement R2 on the original binary protocol with
//! `tmin = tmax = 10` (the paper's Figure 11 scenario) and print the
//! counterexample:
//!
//! ```
//! use accelerated_heartbeat::core::{Params, Variant, FixLevel};
//! use accelerated_heartbeat::verify::{verify, Requirement};
//!
//! let params = Params::new(10, 10).unwrap();
//! let verdict = verify(Variant::Binary, params, FixLevel::Original, Requirement::R2);
//! assert!(!verdict.holds); // the paper's Table 1: R2 fails at tmin = tmax
//! ```
//!
//! Run the protocol in the simulator instead:
//!
//! ```
//! use accelerated_heartbeat::core::{Params, Variant};
//! use accelerated_heartbeat::sim::{Scenario, run_scenario};
//!
//! let params = Params::new(2, 8).unwrap();
//! let report = run_scenario(&Scenario::steady_state(Variant::Binary, params, 200), 42);
//! assert_eq!(report.false_inactivations, 0);
//! ```

#![forbid(unsafe_code)]

pub use hb_analyze as analyze;
pub use hb_chaos as chaos;
pub use hb_core as core;
pub use hb_member as member;
pub use hb_monitor as monitor;
pub use hb_net as net;
pub use hb_sim as sim;
pub use hb_verify as verify;
pub use mck;
