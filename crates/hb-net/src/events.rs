//! Per-node observability: counters and an event sink.
//!
//! The live runtime records the same [`Event`](hb_core::trace::Event)s as
//! the simulator, in the shared JSON-lines schema of
//! [`hb_core::events`], so a live run and a simulated run are directly
//! diffable — and both can feed the same streaming requirement monitors
//! through an attached [`EventTap`].

pub use hb_core::events::{event_json, parse_event_json, EventSink, EventTap, OwnedTap, SharedTap};

/// Cheap always-on counters for one node. Timeouts, crashes and
/// non-voluntary inactivations are not counted: each is an event in the
/// node's stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Heartbeats handed to the transport.
    pub beats_sent: u64,
    /// Heartbeats received.
    pub beats_received: u64,
    /// Coordinator rounds that shortened the waiting time (the
    /// acceleration visibly kicking in).
    pub halvings: u64,
    /// Join heartbeats sent (join-phase variants).
    pub join_sends: u64,
    /// Graceful leaves observed (own leave for participants, acknowledged
    /// leaves for the coordinator).
    pub leaves: u64,
    /// Post-crash restarts executed (§7 rejoin).
    pub revives: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::trace::Event;

    #[test]
    fn memory_sink_records() {
        let mut s = EventSink::memory();
        s.emit(&Event::Timeout { at: 3, pid: 0 });
        assert_eq!(s.log().unwrap().len(), 1);
        let log = s.take_log();
        assert_eq!(log.events()[0].at(), 3);
    }

    #[test]
    fn disabled_sink_is_silent() {
        let mut s = EventSink::disabled();
        s.emit(&Event::Timeout { at: 1, pid: 0 });
        assert!(s.log().is_none());
        assert!(s.take_log().is_empty());
    }
}
