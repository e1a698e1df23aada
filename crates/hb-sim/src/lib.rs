//! `hb-sim` — a discrete-event network simulator for heartbeat protocols.
//!
//! The simulator drives the *same* `hb-core` state machines as the
//! verification models, but with randomized channel delays, Bernoulli
//! message loss, scripted crash/join/leave injection and metrics
//! collection — the substrate for regenerating the performance claims of
//! the original ICDCS '98 paper:
//!
//! * **overhead** — steady-state message rate ≈ `2/tmax`, independent of
//!   the detection parameters
//!   ([`RunSummary::message_rate`](hb_core::schema::RunSummary::message_rate));
//! * **detection delay** — every crash is detected within the (corrected)
//!   analytical bounds;
//! * **reliability** — a false inactivation needs
//!   `⌊log₂(tmax/tmin)⌋ + 1` *consecutive* losses, so its probability
//!   falls off geometrically in the loss rate, unlike the naive
//!   fixed-period heartbeat ([`baseline`]).
//!
//! Time is discrete (`u64` ticks, same unit as
//! [`Params`](hb_core::Params)); each message is assigned a random delay
//! honouring the protocol's round-trip bound `tmin`; simultaneous events
//! within a tick are processed in random order for the original protocols
//! and deliveries-first under the §6.1 receive-priority fix — mirroring
//! the verification semantics exactly.
//!
//! # Example
//!
//! ```
//! use hb_core::{Params, Variant};
//! use hb_sim::{Scenario, run_scenario};
//!
//! let params = Params::new(2, 8)?;
//! // A participant crashes at t=100; detection must meet the bound.
//! let sc = Scenario::crash_at(Variant::Binary, params, 1, 100);
//! let report = run_scenario(&sc, 7);
//! let delay = report.detection_delay.expect("crash must be detected");
//! assert!(delay <= u64::from(params.p0_bound_corrected(Variant::Binary)));
//! # Ok::<(), hb_core::params::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod channel;
pub mod scenario;
pub mod world;

pub use baseline::{NaiveConfig, NaiveWorld};
pub use hb_core::fault::{FaultHook, SendFate};
pub use scenario::{run_scenario, Scenario};
pub use world::World;

/// The run record's path before it moved to [`hb_core::schema`].
pub mod schema {
    pub use hb_core::schema::RunSummary;
}
