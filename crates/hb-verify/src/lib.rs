//! `hb-verify` — formal verification of the accelerated heartbeat
//! protocols, reproducing the analysis of Atif & Mousavi (2009).
//!
//! The crate composes the pure protocol machines of `hb-core` with lossy
//! bounded-delay channels and requirement monitors into finite
//! discrete-time transition systems ([`model::HbModel`]), then model-checks
//! the three requirements of the paper with the `mck` explicit-state
//! checker:
//!
//! * **R1** — if `p[0]` stops receiving heartbeats from a (joined)
//!   participant, it becomes inactive within a bound (`2·tmax` as claimed
//!   by the original paper; the corrected per-variant bound under the §6.2
//!   fix).
//! * **R2** — with no crashes and no message loss, no *participant* is
//!   ever inactivated non-voluntarily.
//! * **R3** — with no crashes and no message loss, the *coordinator* is
//!   never inactivated non-voluntarily.
//!
//! [`verify`] checks one (variant, params, fix, requirement) cell;
//! [`tables`] regenerates the paper's Tables 1 and 2 and the all-pass table
//! for the fixed protocols; [`figures`] replays and shape-checks the
//! counter-examples of Figures 10–13; [`solo`] builds the isolated-process
//! transition systems of Figures 1–2. Beyond the paper, [`liveness`]
//! checks the original GM98 eventuality guarantee, [`symmetry`] provides
//! participant-permutation reduction for multi-party models, and
//! [`HbModel::rejoin_cap`] turns on the §7 crash/leave → rejoin lifecycle
//! on the same machines the runtimes execute.
//!
//! # Example
//!
//! ```
//! use hb_core::{Params, Variant, FixLevel};
//! use hb_verify::{verify, Requirement};
//!
//! // Figure 11 scenario: tmin = tmax makes R2 fail in the original
//! // binary protocol...
//! let p = Params::new(10, 10).unwrap();
//! assert!(!verify(Variant::Binary, p, FixLevel::Original, Requirement::R2).holds);
//! // ...and the full fix repairs it.
//! assert!(verify(Variant::Binary, p, FixLevel::Full, Requirement::R2).holds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod liveness;
pub mod model;
pub mod monitor;
pub mod packed;
pub mod por;
pub mod render;
pub mod requirements;
pub mod solo;
pub mod symmetry;
pub mod tables;

pub use model::{HbAction, HbModel, HbState, Msg};
pub use monitor::reference_verdicts;
pub use packed::HbCodec;
pub use por::{verify_with_n_por, HbAmpleOracle};
pub use requirements::{verify, verify_with_n, Requirement, Verdict};
pub use symmetry::{canonical_sorted, certified_canonical, SymmetryRefusal};
pub use tables::{
    render_scale, scale_cell, scale_disagreements, scale_grid, table1, table2, table_fixed,
    Reduction, ScaleCell, ScaleLimits, ScaleOutcome, TableReport,
};
