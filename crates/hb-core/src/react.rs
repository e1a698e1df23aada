//! The seven reactions of a heartbeat process, written once.
//!
//! GM98's protocols are defined by how each process reacts to a timeout,
//! a beat, a leave or a restart, and Atif & Mousavi's fixes change exactly
//! those reactions. The simulator (`hb_sim::World`), the live node
//! (`hb_net::NodeRuntime`) and the model checker (`hb_verify::HbModel`)
//! all react through these functions, each with its own [`Effects`]: a
//! channel, a transport, or the model state's in-flight bag. The rules:
//!
//! * beats, leave acks and join beats start a fresh round trip of `tmin`
//!   ticks; a reply continues the budget its beat was delivered with;
//! * [`Event::Timeout`] comes before the beats or [`Event::NvInactivate`],
//!   [`Event::Leave`] before the reply that carries it;
//! * a reaction runs only if its event is due and says whether it ran: a
//!   crash acts only on an active process, a revive only on a crashed one.
//!
//! Each driver keeps when a reaction runs and on what input: its event
//! order, dropping frames to unstarted participants, input guards and the
//! checker's ghost monitors. Out of scope on purpose:
//! `hb_member::MemberNode`, where a watchdog means a takeover and a
//! bottomed-out timeout an eviction; `hb_verify::solo`, whose Figure 1–2
//! models split each reaction into the committed steps the figures draw;
//! and the coordinator mirrors of `hb_monitor` and of the deliberately
//! different-shaped `hb_verify::monitor::reference_verdicts`, which replay
//! [`CoordSpec::on_heartbeat`] only to read its latches and epoch bars.

use crate::coordinator::{CoordReaction, CoordSpec, CoordState, TimeoutOutcome};
use crate::msg::{Heartbeat, Pid, Status};
use crate::responder::{LeaveDecision, RespSpec, RespState};
use crate::trace::Event;

/// Where a reaction's sends and events go.
pub trait Effects {
    /// `from` hands `hb` to the network for `to`, with `budget` ticks of
    /// its round trip left.
    fn send(&mut self, from: Pid, to: Pid, hb: Heartbeat, budget: u32);
    /// A reaction's event, in the order it happened.
    fn emit(&mut self, e: &Event);
}

/// Effects that go nowhere, for a mirror that needs only the state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Discard;

impl Effects for Discard {
    fn send(&mut self, _: Pid, _: Pid, _: Heartbeat, _: u32) {}
    fn emit(&mut self, _: &Event) {}
}

/// The coordinator's round timeout at `now`, if due: `Timeout`, then
/// either `NvInactivate` or one beat to each recipient in pid order.
#[inline]
pub fn coord_timeout(
    spec: &CoordSpec,
    s: &mut CoordState,
    now: u64,
    fx: &mut impl Effects,
) -> Option<TimeoutOutcome> {
    if !spec.timeout_due(s) {
        return None;
    }
    fx.emit(&Event::Timeout { at: now, pid: 0 });
    let outcome = spec.on_timeout(s);
    match outcome {
        TimeoutOutcome::Inactivated => fx.emit(&Event::NvInactivate { at: now, pid: 0 }),
        TimeoutOutcome::Beat => {
            let budget = spec.params().tmin();
            for pid in spec.recipients(s) {
                fx.send(0, pid, spec.beat_for(s, pid), budget);
            }
        }
    }
    Some(outcome)
}

/// The coordinator receives `hb` from participant `from` (in range: the
/// driver guards its input). Returns whether it acknowledged a leave; the
/// ack goes out at once.
#[inline]
pub fn coord_receive(
    spec: &CoordSpec,
    s: &mut CoordState,
    from: Pid,
    hb: Heartbeat,
    fx: &mut impl Effects,
) -> bool {
    match spec.on_heartbeat(s, from, hb) {
        CoordReaction::None => false,
        CoordReaction::LeaveAck(pid, ack) => {
            fx.send(0, pid, ack, spec.params().tmin());
            true
        }
    }
}

/// Participant `pid` receives the coordinator's `hb`, delivered with
/// `budget` ticks of its round trip left: `Leave` if it leaves now, then
/// the reply, if any.
#[inline]
pub fn resp_receive(
    spec: &RespSpec,
    s: &mut RespState,
    now: u64,
    pid: Pid,
    (hb, budget): (Heartbeat, u32),
    decision: LeaveDecision,
    fx: &mut impl Effects,
) {
    let was_left = s.left;
    let reply = spec.on_beat(s, hb, decision);
    if s.left && !was_left {
        fx.emit(&Event::Leave { at: now, pid });
    }
    if let Some(reply) = reply {
        fx.send(pid, 0, reply, budget);
    }
}

/// The decision of a participant told to leave at the first beat it
/// answers at or after `leave_after`, at `now`.
pub fn leave_decision(leave_after: Option<u64>, now: u64) -> LeaveDecision {
    match leave_after {
        Some(t) if now >= t => LeaveDecision::Leave,
        _ => LeaveDecision::Stay,
    }
}

/// Participant `pid`'s watchdog at `now`, if due: `NvInactivate`.
pub fn watchdog(
    spec: &RespSpec,
    s: &mut RespState,
    now: u64,
    pid: Pid,
    fx: &mut impl Effects,
) -> bool {
    if !spec.watchdog_due(s) {
        return false;
    }
    spec.on_watchdog(s);
    fx.emit(&Event::NvInactivate { at: now, pid });
    true
}

/// Participant `pid`'s join beat, if due.
pub fn join_send(spec: &RespSpec, s: &mut RespState, pid: Pid, fx: &mut impl Effects) -> bool {
    if !spec.join_send_due(s) {
        return false;
    }
    let hb = spec.on_join_send(s);
    fx.send(pid, 0, hb, spec.params().tmin());
    true
}

/// Process `pid` crashes at `now` if it is active: `Crash`. Both machines
/// crash alike, so this takes either one's status.
pub fn crash(status: &mut Status, now: u64, pid: Pid, fx: &mut impl Effects) -> bool {
    if !status.is_active() {
        return false;
    }
    *status = Status::Crashed;
    fx.emit(&Event::Crash { at: now, pid });
    true
}

/// Participant `pid` restarts at `now` if it is crashed: `Revive`. The
/// revived process is a fresh §7 incarnation, so it forgets a leave
/// instruction already given to its predecessor (`leave_after` at or
/// before `now`); one for a later time still stands.
pub fn revive(
    spec: &RespSpec,
    s: &mut RespState,
    leave_after: &mut Option<u64>,
    now: u64,
    pid: Pid,
    fx: &mut impl Effects,
) -> bool {
    if s.status != Status::Crashed {
        return false;
    }
    *s = spec.revive_state(s.epoch);
    *leave_after = leave_after.filter(|&t| t > now);
    fx.emit(&Event::Revive { at: now, pid });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixLevel, Params, Variant};

    /// What a reaction did, in order.
    #[derive(Debug, PartialEq)]
    enum Did {
        Send(Pid, Pid, Heartbeat, u32),
        Emit(Event),
    }

    impl Effects for Vec<Did> {
        fn send(&mut self, from: Pid, to: Pid, hb: Heartbeat, budget: u32) {
            self.push(Did::Send(from, to, hb, budget));
        }
        fn emit(&mut self, e: &Event) {
            self.push(Did::Emit(*e));
        }
    }

    const TMIN: u32 = 2;

    fn params() -> Params {
        Params::new(TMIN, 8).unwrap()
    }

    fn coord(variant: Variant, n: usize) -> CoordSpec {
        CoordSpec::new(variant, params(), n, FixLevel::Full)
    }

    fn resp(variant: Variant) -> RespSpec {
        RespSpec::new(variant, params(), FixLevel::Full)
    }

    #[test]
    fn a_beat_round_goes_to_the_recipients_in_pid_order_at_tmin() {
        let spec = coord(Variant::Expanding, 4);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        assert_eq!(coord_timeout(&spec, &mut s, 3, &mut did), None, "not due");
        assert!(did.is_empty());
        for pid in [4, 2] {
            assert!(!coord_receive(
                &spec,
                &mut s,
                pid,
                Heartbeat::plain(),
                &mut did
            ));
        }
        spec.advance(&mut s, 8);
        let outcome = coord_timeout(&spec, &mut s, 8, &mut did);
        assert_eq!(outcome, Some(TimeoutOutcome::Beat));
        let beat = Heartbeat::plain();
        assert_eq!(
            did,
            [
                Did::Emit(Event::Timeout { at: 8, pid: 0 }),
                Did::Send(0, 2, beat, TMIN),
                Did::Send(0, 4, beat, TMIN),
            ]
        );
    }

    #[test]
    fn an_inactivating_timeout_sends_nothing() {
        let spec = coord(Variant::Binary, 1);
        let mut s = spec.init_state();
        let mut now = 0;
        let outcome = loop {
            let mut did = Vec::new();
            let idle = spec.next_timeout_in(&s).unwrap();
            spec.advance(&mut s, idle);
            now += u64::from(idle);
            match coord_timeout(&spec, &mut s, now, &mut did) {
                Some(TimeoutOutcome::Beat) => continue,
                outcome => break (outcome, did),
            }
        };
        assert_eq!(
            outcome,
            (
                Some(TimeoutOutcome::Inactivated),
                vec![
                    Did::Emit(Event::Timeout { at: now, pid: 0 }),
                    Did::Emit(Event::NvInactivate { at: now, pid: 0 }),
                ]
            )
        );
    }

    #[test]
    fn a_leave_ack_goes_at_tmin() {
        let spec = coord(Variant::Dynamic, 2);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        let leave = Heartbeat::leave().with_epoch(3);
        assert!(coord_receive(&spec, &mut s, 2, leave, &mut did));
        assert_eq!(did, [Did::Send(0, 2, leave, TMIN)]);
    }

    #[test]
    fn a_reply_continues_the_delivered_budget_with_leave_before_it() {
        let spec = resp(Variant::Dynamic);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        let beat = Heartbeat::plain();
        resp_receive(
            &spec,
            &mut s,
            5,
            1,
            (beat, 1),
            LeaveDecision::Stay,
            &mut did,
        );
        assert_eq!(did, [Did::Send(1, 0, beat, 1)]);
        did.clear();
        let decision = leave_decision(Some(9), 9);
        resp_receive(&spec, &mut s, 9, 1, (beat, 0), decision, &mut did);
        assert_eq!(
            did,
            [
                Did::Emit(Event::Leave { at: 9, pid: 1 }),
                Did::Send(1, 0, Heartbeat::leave(), 0),
            ]
        );
        assert_eq!(leave_decision(Some(10), 9), LeaveDecision::Stay);
        assert_eq!(leave_decision(None, 9), LeaveDecision::Stay);
    }

    #[test]
    fn a_join_beat_goes_at_tmin() {
        let spec = resp(Variant::Expanding);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        assert!(!join_send(&spec, &mut s, 3, &mut did), "not yet due");
        spec.advance(&mut s, TMIN);
        assert!(join_send(&spec, &mut s, 3, &mut did));
        assert_eq!(did, [Did::Send(3, 0, Heartbeat::plain(), TMIN)]);
    }

    #[test]
    fn a_watchdog_fires_only_when_due() {
        let spec = resp(Variant::Binary);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        assert!(!watchdog(&spec, &mut s, 0, 1, &mut did));
        spec.advance(&mut s, spec.watchdog_bound());
        assert!(watchdog(&spec, &mut s, 16, 1, &mut did));
        assert!(!watchdog(&spec, &mut s, 16, 1, &mut did));
        assert_eq!(did, [Did::Emit(Event::NvInactivate { at: 16, pid: 1 })]);
    }

    #[test]
    fn crash_and_revive_are_idempotent_off_their_states() {
        let spec = resp(Variant::Expanding);
        let mut s = spec.init_state();
        let mut leave_after = Some(4);
        let mut did = Vec::new();
        assert!(
            !revive(&spec, &mut s, &mut leave_after, 1, 2, &mut did),
            "active"
        );
        assert!(crash(&mut s.status, 2, 2, &mut did));
        assert!(!crash(&mut s.status, 3, 2, &mut did), "already crashed");
        assert!(revive(&spec, &mut s, &mut leave_after, 4, 2, &mut did));
        assert_eq!((s.status, s.epoch, leave_after), (Status::Active, 1, None));
        assert!(
            !revive(&spec, &mut s, &mut leave_after, 5, 2, &mut did),
            "revived"
        );
        assert_eq!(
            did,
            [
                Did::Emit(Event::Crash { at: 2, pid: 2 }),
                Did::Emit(Event::Revive { at: 4, pid: 2 }),
            ]
        );
        // Nothing acts on a process the protocol has inactivated.
        s.status = Status::NvInactive;
        did.clear();
        assert!(!crash(&mut s.status, 6, 2, &mut did));
        assert!(!revive(&spec, &mut s, &mut leave_after, 6, 2, &mut did));
        assert!(did.is_empty());
    }

    #[test]
    fn a_revive_keeps_a_leave_instruction_for_a_later_time() {
        let spec = resp(Variant::Dynamic);
        let mut s = spec.init_state();
        let mut did = Vec::new();
        let mut leave_after = Some(9);
        assert!(crash(&mut s.status, 2, 1, &mut did));
        assert!(revive(&spec, &mut s, &mut leave_after, 8, 1, &mut did));
        assert_eq!(leave_after, Some(9), "not yet given at the revive");
        assert!(crash(&mut s.status, 10, 1, &mut did));
        assert!(revive(&spec, &mut s, &mut leave_after, 12, 1, &mut did));
        assert_eq!(leave_after, None, "given to the predecessor");
    }
}
