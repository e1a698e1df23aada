//! `hb-net` — a live runtime for the accelerated heartbeat protocols.
//!
//! The sans-IO machines in `hb-core` describe *what* the coordinator and
//! responders do at each tick; `hb-sim` executes them against a simulated
//! clock and channel. This crate runs the **unmodified** machines in real
//! time:
//!
//! * [`wire`] — a tiny length-prefixed codec for [`hb_core::Heartbeat`]
//!   frames (version byte, fuzz-resistant decoding);
//! * [`transport`] — the [`Transport`] abstraction, with two
//!   implementations: [`loopback`] (in-process, with injectable
//!   Bernoulli / burst loss and delays drawn exactly like the simulator's
//!   channel) and [`udp`] (one `std::net::UdpSocket` per node, no async
//!   runtime);
//! * [`time`] — [`WallClock`], mapping protocol ticks onto a real tick
//!   duration, and [`SkewedClock`], the per-node clock drift the
//!   deterministic cluster polls a drifted node at;
//! * [`node`] — [`NodeRuntime`], the deadline-driven event loop that
//!   polls a machine forward tick by tick, honouring
//!   `FixLevel::ReceivePriority` (drain deliverable messages before firing
//!   a simultaneous timeout, Atif & Mousavi §6.1);
//! * [`events`] — per-node counters and the shared sim/live JSON-lines
//!   event schema;
//! * [`cluster`] — [`VirtualCluster`], a deterministically steppable
//!   coordinator + N participants harness over loopback producing the same
//!   [`RunSummary`](hb_sim::schema::RunSummary) as the simulator, for
//!   direct live-vs-sim cross-validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod events;
pub mod loopback;
pub mod node;
pub mod time;
pub mod transport;
pub mod udp;
pub mod wire;

pub use cluster::{ClusterConfig, LiveReport, VirtualCluster};
pub use events::{Counters, EventSink, EventTap, SharedTap};
pub use loopback::{Faults, LoopbackCore, LoopbackEndpoint, LoopbackNet, NetStats};
pub use node::{NodeReport, NodeRuntime};
pub use time::{SkewedClock, Time, WallClock};
pub use transport::{Recv, Transport};
pub use udp::UdpTransport;
pub use wire::{Command, DecodeError, Frame, WIRE_VERSION};
