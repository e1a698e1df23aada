//! The transport abstraction: how frames move between nodes.
//!
//! A [`Transport`] hands [`Frame`]s between processes identified by
//! [`Pid`]. Implementations decide what the medium is — an in-process
//! loopback with injectable loss and delay ([`crate::loopback`]), or UDP
//! sockets ([`crate::udp`]).
//!
//! The interface mirrors the paper's channel assumptions: a send carries a
//! round-trip latency *budget* (the protocols assume send + immediate
//! reply completes within `tmin`), and every reception reports how much of
//! that budget an instant reply may still consume. Simulated transports
//! enforce the budget; real sockets report it as zero and rely on the
//! network being faster than a tick.

use std::io;
use std::time::Duration;

use hb_core::Pid;

use crate::events::EventSink;
use crate::time::Time;
use crate::wire::Frame;

/// A received frame plus the remaining round-trip budget (in ticks) an
/// immediate reply may consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recv {
    /// The decoded frame.
    pub frame: Frame,
    /// Remaining latency budget for an instant reply. Loopback transports
    /// draw reply delays from `0..=reply_budget`, keeping round trips
    /// within the protocol's `tmin` assumption; socket transports report
    /// 0 (real replies leave immediately).
    pub reply_budget: u32,
}

/// A bidirectional frame transport for one node.
pub trait Transport: Send {
    /// Send `frame` to `dst` at tick `now`, with `budget` ticks of
    /// one-way+reply latency budget. Lossy transports may silently drop
    /// the frame; an `Err` means the transport itself failed.
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()>;

    /// The next frame deliverable at tick `now`, if any. Must not block.
    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>>;

    /// Block until a frame may have arrived or `timeout` elapses,
    /// whichever is first. Spurious wakeups are fine; callers re-poll.
    fn wait(&mut self, timeout: Duration) -> io::Result<()>;

    /// The network's tap site, if it has one: a node whose transport has
    /// a site emits every event there and only there, not into its own
    /// sink, as every node of a [`VirtualCluster`](crate::VirtualCluster)
    /// does into the cluster's one site. Default `None`: the node emits
    /// into its own sink.
    #[inline]
    fn tap(&mut self) -> Option<&mut EventSink> {
        None
    }
}
