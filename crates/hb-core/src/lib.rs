//! `hb-core` — the accelerated heartbeat protocol family of Gouda &
//! McGuire (ICDCS '98) as pure, deterministic state machines.
//!
//! A heartbeat protocol keeps a set of processes mutually aware of each
//! other's liveness: a coordinator `p[0]` exchanges periodic *heartbeat*
//! messages with participants `p[1..n]`; when a process or channel crashes,
//! every other process eventually *inactivates* itself. The *accelerated*
//! protocols cut the steady-state heartbeat rate to roughly one beat per
//! `tmax` by **halving** the waiting period only while beats are missing:
//! a silent round halves the next round (`tmax → tmax/2 → …`) until the
//! period would drop below `tmin`, at which point the coordinator
//! inactivates. This gives
//!
//! * low overhead (≈ `2/tmax` messages per time unit in steady state),
//! * bounded detection delay (≤ `3·tmax − tmin`, see [`params::Params`]),
//! * robustness: `⌊log₂(tmax/tmin)⌋ + 1` *consecutive* beats must be lost
//!   before a false inactivation.
//!
//! Six variants are implemented (see [`variant::Variant`]): **binary**
//! (two processes), **revised binary** (McGuire & Gouda 2004: the
//! coordinator sends its first beat immediately), **two-phase** (a silent
//! round drops the period straight to `tmin`), **static** (a fixed set of
//! `n` participants), **expanding** (participants may join at runtime), and
//! **dynamic** (participants may join and permanently leave).
//!
//! The state machines are *pure*: all inputs (elapsed time, message
//! arrival, crash) are explicit method calls and all outputs are returned
//! values. How a process reacts to each machine event is written once, in
//! [`react`], and shared by the `hb-sim` discrete-event simulator, the
//! `hb-net` live runtime and the `hb-verify` model-checking models.
//!
//! The module [`fixes`] implements the corrections proposed by Atif &
//! Mousavi (2009) after model checking found all original variants to
//! violate their natural requirements: receive-priority over timeouts and
//! corrected inactivation time bounds.
//!
//! # Example
//!
//! ```
//! use hb_core::{Params, Variant, FixLevel};
//! use hb_core::coordinator::{CoordSpec, TimeoutOutcome};
//!
//! let params = Params::new(1, 4)?;
//! let spec = CoordSpec::new(Variant::Binary, params, 1, FixLevel::Original);
//! let mut p0 = spec.init_state();
//!
//! // Let a full round elapse, silently.
//! for _ in 0..4 { spec.tick(&mut p0); }
//! assert!(spec.timeout_due(&p0));
//! match spec.on_timeout(&mut p0) {
//!     TimeoutOutcome::Beat => {
//!         assert_eq!(spec.recipients(&p0).collect::<Vec<_>>(), vec![1]);
//!     }
//!     TimeoutOutcome::Inactivated => unreachable!(),
//! }
//! # Ok::<(), hb_core::params::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod dataflow;
pub mod describe;
pub mod events;
pub mod fault;
pub mod fixes;
pub mod json;
pub mod msg;
pub mod params;
pub mod react;
pub mod responder;
pub mod schema;
pub mod serial;
pub mod slots;
pub mod trace;
pub mod variant;
pub mod view;

pub use coordinator::{CoordSpec, CoordState};
pub use describe::{DescribeMachine, MachineIr};
pub use fixes::FixLevel;
pub use msg::{Heartbeat, Pid, Status};
pub use params::Params;
pub use responder::{RespSpec, RespState};
pub use slots::Slots;
pub use variant::Variant;
pub use view::{View, MAX_VIEW_MEMBERS};
