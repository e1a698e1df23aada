//! A coordinator and its participants as bare `NodeRuntime`s, driven
//! tick by tick from the one driver thread — what `live_udp` runs, and
//! what the traced `live_loopback` round runs in place of
//! `VirtualCluster` (whose endpoints cannot be decorated).

use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::responder::RespSpec;
use accelerated_heartbeat::core::{Pid, Status};
use accelerated_heartbeat::net::{NodeRuntime, Transport};

use super::{SteadyCell, SteadyOutcome};
use crate::trace::{span, Name};

/// The nodes of one steady cell.
pub struct NodeSet<T: Transport> {
    /// `p[0]`.
    pub coord: NodeRuntime<T>,
    /// `p[1..=n]`.
    pub parts: Vec<NodeRuntime<T>>,
    /// Last observed status per pid, to timestamp transitions.
    seen: Vec<Status>,
    crashes: Vec<(Pid, u64)>,
    nv_inactivations: Vec<(Pid, u64)>,
}

impl<T: Transport> NodeSet<T> {
    /// Build the cell's nodes over the transports `endpoint` hands out.
    pub fn new(cell: &SteadyCell, mut endpoint: impl FnMut(Pid) -> T) -> Self {
        let coord = NodeRuntime::coordinator(
            CoordSpec::new(SteadyCell::VARIANT, cell.params, cell.n, SteadyCell::FIX),
            endpoint(0),
        );
        let parts = (1..=cell.n)
            .map(|pid| {
                NodeRuntime::participant(
                    pid,
                    RespSpec::new(SteadyCell::VARIANT, cell.params, SteadyCell::FIX),
                    endpoint(pid),
                )
            })
            .collect();
        NodeSet {
            coord,
            parts,
            seen: vec![Status::Active; cell.n + 1],
            crashes: Vec::new(),
            nv_inactivations: Vec::new(),
        }
    }

    /// One pass at tick `now`: the coordinator, then every participant.
    pub fn poll_all<const TRACED: bool>(&mut self, now: u64) {
        let poll = |node: &mut NodeRuntime<T>| {
            let result = if TRACED {
                span(Name::NetNodePoll, || node.poll(now))
            } else {
                node.poll(now)
            };
            result.expect("polling a localhost node cannot fail");
        };
        poll(&mut self.coord);
        self.parts.iter_mut().for_each(poll);
    }

    /// The coordinator alone, to collect the replies of this tick.
    pub fn poll_coord<const TRACED: bool>(&mut self, now: u64) {
        let result = if TRACED {
            span(Name::NetNodePoll, || self.coord.poll(now))
        } else {
            self.coord.poll(now)
        };
        result.expect("polling a localhost node cannot fail");
    }

    /// Timestamp status transitions at the end of tick `now`.
    pub fn observe(&mut self, now: u64) {
        let statuses =
            std::iter::once(self.coord.status()).chain(self.parts.iter().map(|p| p.status()));
        for (pid, status) in statuses.enumerate() {
            if status != self.seen[pid] {
                match status {
                    Status::Crashed => self.crashes.push((pid, now)),
                    Status::NvInactive => self.nv_inactivations.push((pid, now)),
                    Status::Active => {}
                }
                self.seen[pid] = status;
            }
        }
    }

    /// Whether every node is inactive.
    pub fn all_inactive(&self) -> bool {
        self.seen.iter().all(|s| s.is_inactive())
    }

    /// Whether every node is still active.
    pub fn all_active(&self) -> bool {
        self.seen.iter().all(|s| s.is_active())
    }

    /// `(sent, received)` beat counters summed over the nodes.
    pub fn beats(&self) -> (u64, u64) {
        let nodes = std::iter::once(&self.coord).chain(&self.parts);
        nodes.fold((0, 0), |(s, r), n| {
            (s + n.counters.beats_sent, r + n.counters.beats_received)
        })
    }

    /// The run so far in the substrate-independent shape.
    pub fn outcome(&self, duration: u64) -> SteadyOutcome {
        let (sent, delivered) = self.beats();
        SteadyOutcome {
            duration,
            sent,
            delivered,
            crashes: self.crashes.clone(),
            nv_inactivations: self.nv_inactivations.clone(),
        }
    }
}
