//! The benchmark of the accelerated-heartbeat workspace: six named
//! workloads, end-to-end metrics with regression bounds, per-layer
//! metrics priced from outside the crates, and a traced run.
//!
//! Everything here calls the crates' public items only. See
//! `benchmark/README.md` for the tables and how to read the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod decorators;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
