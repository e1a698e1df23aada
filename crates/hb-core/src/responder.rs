//! The participant processes `p[i]` (`i >= 1`), for every protocol
//! variant.
//!
//! A participant replies immediately to every coordinator heartbeat and
//! inactivates itself after a watchdog period without one. In the
//! expanding/dynamic variants it starts *outside* the protocol, sending a
//! join heartbeat every `tmin` units until the coordinator's beat confirms
//! the join; in the dynamic variant it may later leave for good by
//! replying with a `flag = false` heartbeat.

use crate::fixes::FixLevel;
use crate::msg::{Heartbeat, Status};
use crate::params::Params;
use crate::variant::Variant;

/// Immutable description of a participant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RespSpec {
    variant: Variant,
    params: Params,
    fix: FixLevel,
}

/// Mutable participant state (hashable; used directly inside model
/// states).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RespState {
    /// Liveness status.
    pub status: Status,
    /// Time since the last heartbeat from `p[0]` (or since start).
    pub waiting: u32,
    /// Time since the last join heartbeat was sent (join phase only).
    pub join_elapsed: u32,
    /// Whether the participant has (observed that it has) joined.
    pub joined: bool,
    /// Whether the participant has permanently left (dynamic only).
    pub left: bool,
    /// §7 incarnation of this participant: stamped on every outgoing
    /// beat, bumped by [`RespSpec::revive_state`] on each restart. The
    /// base protocols leave it at 0.
    pub epoch: u8,
}

/// The participant's decision when replying to a coordinator beat in the
/// dynamic protocol. Ignored by every other variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LeaveDecision {
    /// Remain in the protocol (reply `flag = true`).
    Stay,
    /// Leave the protocol for good (reply `flag = false`).
    Leave,
}

impl RespSpec {
    /// Describe a participant for `variant`.
    pub fn new(variant: Variant, params: Params, fix: FixLevel) -> Self {
        Self {
            variant,
            params,
            fix,
        }
    }

    /// The protocol variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The timing parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The fix level in effect.
    pub fn fix(&self) -> FixLevel {
        self.fix
    }

    /// The watchdog bound: time without a coordinator heartbeat after
    /// which the participant inactivates itself. `3·tmax − tmin` in the
    /// original protocols; the §6.2 corrected bounds under
    /// [`FixLevel::corrected_bounds`], which for the join variants cover
    /// a join at any phase of the coordinator's round (late start or §7
    /// rejoin; see [`Params::responder_bound_corrected`]).
    pub fn watchdog_bound(&self) -> u32 {
        if self.fix.corrected_bounds() {
            self.params.responder_bound_corrected(self.variant)
        } else {
            self.params.responder_bound_original()
        }
    }

    /// The initial participant state. Participants of non-join variants
    /// start joined; expanding/dynamic participants start un-joined with
    /// their first join beat due `tmin` units after start.
    pub fn init_state(&self) -> RespState {
        RespState {
            status: Status::Active,
            waiting: 0,
            join_elapsed: 0,
            joined: !self.variant.has_join_phase(),
            left: false,
            epoch: 0,
        }
    }

    /// The state of a restarted participant (§7 rejoin): a fresh
    /// [`init_state`](Self::init_state) — back in the join phase for the
    /// join variants — carrying the next incarnation after `prev_epoch`.
    /// [`crate::react::revive`] restarts a crashed participant so. The epoch
    /// wraps past 255 back to 0; the coordinator compares epochs in
    /// RFC 1982 serial order (see [`crate::serial`]), so the wrapped
    /// incarnation still registers as fresh.
    pub fn revive_state(&self, prev_epoch: u8) -> RespState {
        let mut s = self.init_state();
        s.epoch = crate::serial::serial_bump(prev_epoch);
        s
    }

    /// Whether this participant runs the §7 epoch-tagged rejoin (rides on
    /// the full §6 fix; see [`FixLevel::epoch_rejoin`]).
    pub fn epoch_rejoin(&self) -> bool {
        self.fix.epoch_rejoin()
    }

    /// Whether the participant's clocks are running (active and not left).
    fn clocks_running(&self, s: &RespState) -> bool {
        s.status.is_active() && !s.left
    }

    /// Whether the watchdog must fire now (urgent).
    pub fn watchdog_due(&self, s: &RespState) -> bool {
        self.clocks_running(s) && s.waiting >= self.watchdog_bound()
    }

    /// Whether a join heartbeat must be sent now (urgent). Join beats go
    /// out every `tmin` units, the first one `tmin` after start, until the
    /// coordinator's beat confirms the join.
    ///
    /// (The mCRL2/UPPAAL sources are ambiguous about whether the *first*
    /// join beat is sent at time 0 or time `tmin`; only the latter
    /// reproduces the paper's Table 2, so that is what we implement. See
    /// DESIGN.md.)
    pub fn join_send_due(&self, s: &RespState) -> bool {
        self.variant.has_join_phase()
            && self.clocks_running(s)
            && !s.joined
            && s.join_elapsed >= self.params.tmin()
    }

    /// Whether time may pass for this process (no urgent event pending).
    pub fn may_tick(&self, s: &RespState) -> bool {
        !self.watchdog_due(s) && !self.join_send_due(s)
    }

    /// Advance one time unit: [`advance`](Self::advance) by 1.
    #[inline]
    pub fn tick(&self, s: &mut RespState) {
        self.advance(s, 1);
    }

    /// Advance `k` time units at once — `tick` `k` times. Clocks freeze
    /// once inactive or left.
    ///
    /// # Panics
    ///
    /// Debug-panics if an urgent event falls due before the last of the
    /// `k` units: jump by at most [`next_event_in`](Self::next_event_in).
    #[inline]
    pub fn advance(&self, s: &mut RespState, k: u32) {
        debug_assert!(
            k == 0 || self.next_event_in(s).is_none_or(|due_in| k <= due_in),
            "time passes while a participant event is due"
        );
        if self.clocks_running(s) {
            s.waiting += k;
            if !s.joined {
                s.join_elapsed += k;
            }
        }
    }

    /// Fire the watchdog: non-voluntary inactivation.
    ///
    /// # Panics
    ///
    /// Debug-panics unless [`watchdog_due`](Self::watchdog_due).
    pub fn on_watchdog(&self, s: &mut RespState) {
        debug_assert!(self.watchdog_due(s));
        s.status = Status::NvInactive;
    }

    /// Emit a join heartbeat (resets the join timer).
    ///
    /// # Panics
    ///
    /// Debug-panics unless [`join_send_due`](Self::join_send_due).
    pub fn on_join_send(&self, s: &mut RespState) -> Heartbeat {
        debug_assert!(self.join_send_due(s));
        s.join_elapsed = 0;
        Heartbeat::plain().with_epoch(s.epoch)
    }

    /// Time until the next urgent participant event — the watchdog or, in
    /// the join phase, the next join-heartbeat send — whichever comes
    /// first. `None` once the clocks are frozen (inactive or left).
    ///
    /// This is the participant-side counterpart of
    /// [`CoordSpec::next_timeout_in`](crate::coordinator::CoordSpec::next_timeout_in);
    /// deadline-driven runtimes use it to sleep exactly until the next
    /// protocol event.
    pub fn next_event_in(&self, s: &RespState) -> Option<u32> {
        if !self.clocks_running(s) {
            return None;
        }
        let mut next = self.watchdog_bound().saturating_sub(s.waiting);
        if self.variant.has_join_phase() && !s.joined {
            next = next.min(self.params.tmin().saturating_sub(s.join_elapsed));
        }
        Some(next)
    }

    /// Handle a heartbeat from the coordinator; returns the immediate
    /// reply, if any.
    ///
    /// An active participant resets its watchdog, marks itself joined and
    /// replies at once. In the dynamic protocol the reply carries the
    /// participant's `decision`; a [`LeaveDecision::Leave`] reply makes the
    /// departure permanent. Inactive or left participants consume the
    /// message silently, as do coordinator leave-acknowledgements
    /// (`flag = false`).
    ///
    /// Under the §7 rejoin, a join-phase participant additionally ignores
    /// coordinator beats whose epoch echo does not match its own
    /// incarnation: after a restart the coordinator keeps echoing the
    /// superseded epoch until the fresh join beat registers, and those
    /// echoes must neither reset the watchdog nor confirm the join.
    /// Non-join variants have no join to confirm, so they accept any
    /// epoch and let their reply (stamped with the current incarnation)
    /// re-register them.
    pub fn on_beat(
        &self,
        s: &mut RespState,
        hb: Heartbeat,
        decision: LeaveDecision,
    ) -> Option<Heartbeat> {
        if !s.status.is_active() || s.left {
            return None;
        }
        if self.epoch_rejoin() && self.variant.has_join_phase() && hb.epoch != s.epoch {
            return None;
        }
        if !hb.flag {
            // Leave acknowledgement from p[0]; nothing further to do (we
            // already left when we sent the request — this only arrives
            // here in reordering corner cases and is ignored).
            return None;
        }
        s.waiting = 0;
        s.joined = true;
        if self.variant.supports_leave() && decision == LeaveDecision::Leave {
            s.left = true;
            Some(Heartbeat::leave().with_epoch(s.epoch))
        } else {
            Some(Heartbeat::plain().with_epoch(s.epoch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(variant: Variant, tmin: u32, tmax: u32, fix: FixLevel) -> RespSpec {
        RespSpec::new(variant, Params::new(tmin, tmax).unwrap(), fix)
    }

    #[test]
    fn watchdog_bounds_per_fix_level() {
        assert_eq!(
            spec(Variant::Binary, 1, 10, FixLevel::Original).watchdog_bound(),
            29
        );
        assert_eq!(
            spec(Variant::Binary, 1, 10, FixLevel::Full).watchdog_bound(),
            20
        );
        assert_eq!(
            spec(Variant::Expanding, 1, 10, FixLevel::Full).watchdog_bound(),
            21
        );
        assert_eq!(
            spec(Variant::Dynamic, 4, 10, FixLevel::CorrectedBounds).watchdog_bound(),
            24
        );
        // Receive-priority alone keeps the original bound.
        assert_eq!(
            spec(Variant::Binary, 1, 10, FixLevel::ReceivePriority).watchdog_bound(),
            29
        );
    }

    #[test]
    fn watchdog_fires_exactly_at_bound() {
        let sp = spec(Variant::Binary, 1, 2, FixLevel::Original); // bound = 5
        let mut s = sp.init_state();
        for _ in 0..4 {
            assert!(!sp.watchdog_due(&s));
            sp.tick(&mut s);
        }
        sp.tick(&mut s);
        assert!(sp.watchdog_due(&s));
        assert!(!sp.may_tick(&s));
        sp.on_watchdog(&mut s);
        assert_eq!(s.status, Status::NvInactive);
    }

    #[test]
    fn beat_resets_watchdog_and_replies() {
        let sp = spec(Variant::Binary, 1, 2, FixLevel::Original);
        let mut s = sp.init_state();
        for _ in 0..3 {
            sp.tick(&mut s);
        }
        let reply = sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay);
        assert_eq!(reply, Some(Heartbeat::plain()));
        assert_eq!(s.waiting, 0);
    }

    #[test]
    fn crashed_participant_never_replies() {
        let sp = spec(Variant::Binary, 1, 2, FixLevel::Original);
        let mut s = sp.init_state();
        s.status = Status::Crashed;
        assert_eq!(
            sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay),
            None
        );
        assert!(!sp.watchdog_due(&s));
    }

    #[test]
    fn join_phase_sends_every_tmin_starting_at_tmin() {
        let sp = spec(Variant::Expanding, 3, 10, FixLevel::Original);
        let mut s = sp.init_state();
        assert!(!s.joined);
        assert!(!sp.join_send_due(&s)); // not at time 0
        for _ in 0..3 {
            sp.tick(&mut s);
        }
        assert!(sp.join_send_due(&s));
        assert!(!sp.may_tick(&s));
        assert_eq!(sp.on_join_send(&mut s), Heartbeat::plain());
        assert_eq!(s.join_elapsed, 0);
        // resend cadence continues
        for _ in 0..3 {
            sp.tick(&mut s);
        }
        assert!(sp.join_send_due(&s));
    }

    #[test]
    fn coordinator_beat_confirms_join_and_stops_resends() {
        let sp = spec(Variant::Expanding, 3, 10, FixLevel::Original);
        let mut s = sp.init_state();
        sp.tick(&mut s);
        let reply = sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay);
        assert_eq!(reply, Some(Heartbeat::plain()));
        assert!(s.joined);
        for _ in 0..20 {
            assert!(!sp.join_send_due(&s));
            if sp.may_tick(&s) {
                sp.tick(&mut s);
            } else {
                break;
            }
        }
    }

    #[test]
    fn join_phase_watchdog_runs_from_start() {
        // Expanding p[i] inactivates 3*tmax - tmin after start if p[0]
        // never answers.
        let sp = spec(Variant::Expanding, 2, 4, FixLevel::Original); // bound 10
        let mut s = sp.init_state();
        let mut now = 0;
        loop {
            if sp.watchdog_due(&s) {
                break;
            }
            if sp.join_send_due(&s) {
                sp.on_join_send(&mut s);
                continue;
            }
            sp.tick(&mut s);
            now += 1;
        }
        assert_eq!(now, 10);
    }

    #[test]
    fn next_event_in_tracks_watchdog_and_join_timer() {
        let sp = spec(Variant::Expanding, 3, 10, FixLevel::Original); // bound 27
        let mut s = sp.init_state();
        // Join phase: the join send (due at tmin = 3) comes first.
        assert_eq!(sp.next_event_in(&s), Some(3));
        sp.tick(&mut s);
        assert_eq!(sp.next_event_in(&s), Some(2));
        // Once joined, only the watchdog remains.
        sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay);
        assert_eq!(sp.next_event_in(&s), Some(27));
        // Frozen clocks report no deadline.
        s.status = Status::Crashed;
        assert_eq!(sp.next_event_in(&s), None);
    }

    #[test]
    fn next_event_in_zero_when_due() {
        let sp = spec(Variant::Binary, 1, 2, FixLevel::Original); // bound 5
        let mut s = sp.init_state();
        for _ in 0..5 {
            sp.tick(&mut s);
        }
        assert!(sp.watchdog_due(&s));
        assert_eq!(sp.next_event_in(&s), Some(0));
    }

    #[test]
    fn dynamic_leave_is_permanent_and_silent() {
        let sp = spec(Variant::Dynamic, 1, 10, FixLevel::Original);
        let mut s = sp.init_state();
        sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay);
        assert!(s.joined && !s.left);
        let reply = sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Leave);
        assert_eq!(reply, Some(Heartbeat::leave()));
        assert!(s.left);
        // After leaving: no watchdog, no replies, clocks frozen.
        assert!(!sp.watchdog_due(&s));
        assert_eq!(
            sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay),
            None
        );
        sp.tick(&mut s);
        assert_eq!(s.waiting, 0);
    }

    #[test]
    fn leave_decision_ignored_outside_dynamic() {
        let sp = spec(Variant::Static, 1, 10, FixLevel::Original);
        let mut s = sp.init_state();
        let reply = sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Leave);
        assert_eq!(reply, Some(Heartbeat::plain()));
        assert!(!s.left);
    }

    #[test]
    fn leave_ack_is_ignored() {
        let sp = spec(Variant::Dynamic, 1, 10, FixLevel::Original);
        let mut s = sp.init_state();
        sp.tick(&mut s);
        let w = s.waiting;
        assert_eq!(
            sp.on_beat(&mut s, Heartbeat::leave(), LeaveDecision::Stay),
            None
        );
        assert_eq!(s.waiting, w, "leave ack must not reset the watchdog");
    }

    #[test]
    fn revive_state_bumps_the_epoch_and_reenters_the_join_phase() {
        let sp = spec(Variant::Expanding, 3, 10, FixLevel::Full);
        let mut s = sp.init_state();
        assert_eq!(s.epoch, 0);
        sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay);
        s.status = Status::Crashed;
        let r = sp.revive_state(s.epoch);
        assert_eq!(r.epoch, 1);
        assert_eq!(r.status, Status::Active);
        assert!(!r.joined, "restart re-enters the join phase");
        assert_eq!((r.waiting, r.join_elapsed), (0, 0));
        // Wrap-around at the top of the epoch space: the 257th
        // incarnation re-uses epoch 0 (RFC 1982 serial order keeps it
        // fresh at the coordinator).
        assert_eq!(sp.revive_state(255).epoch, 0);
        // Non-join variants restart straight into the joined steady state.
        let sp = spec(Variant::Binary, 3, 10, FixLevel::Full);
        assert!(sp.revive_state(0).joined);
        assert_eq!(sp.revive_state(0).epoch, 1);
    }

    #[test]
    fn outgoing_beats_carry_the_incarnation() {
        let sp = spec(Variant::Expanding, 2, 10, FixLevel::Full);
        let mut s = sp.revive_state(0);
        for _ in 0..2 {
            sp.tick(&mut s);
        }
        assert_eq!(
            sp.on_join_send(&mut s),
            Heartbeat::plain().with_epoch(1),
            "join beats announce the new incarnation"
        );
        let reply = sp.on_beat(
            &mut s,
            Heartbeat::plain().with_epoch(1),
            LeaveDecision::Stay,
        );
        assert_eq!(reply, Some(Heartbeat::plain().with_epoch(1)));
    }

    #[test]
    fn rejoin_participant_ignores_superseded_epoch_echoes() {
        let sp = spec(Variant::Expanding, 2, 10, FixLevel::Full);
        let mut s = sp.revive_state(0); // epoch 1
        sp.tick(&mut s);
        let w = s.waiting;
        // The coordinator still echoes the pre-crash epoch 0.
        assert_eq!(
            sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay),
            None
        );
        assert_eq!(s.waiting, w, "stale echo must not reset the watchdog");
        assert!(!s.joined, "stale echo must not confirm the join");
        // Without the rejoin fix the same echo is accepted (naive).
        let sp = spec(Variant::Expanding, 2, 10, FixLevel::CorrectedBounds);
        let mut s = sp.revive_state(0);
        assert!(sp
            .on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay)
            .is_some());
        // Non-join variants accept any epoch even under the full fix.
        let sp = spec(Variant::Binary, 2, 10, FixLevel::Full);
        let mut s = sp.revive_state(0);
        assert_eq!(
            sp.on_beat(&mut s, Heartbeat::plain(), LeaveDecision::Stay),
            Some(Heartbeat::plain().with_epoch(1))
        );
    }

    #[test]
    fn non_join_variants_start_joined() {
        for v in [
            Variant::Binary,
            Variant::RevisedBinary,
            Variant::TwoPhase,
            Variant::Static,
        ] {
            assert!(spec(v, 1, 10, FixLevel::Original).init_state().joined);
        }
        for v in [Variant::Expanding, Variant::Dynamic] {
            assert!(!spec(v, 1, 10, FixLevel::Original).init_state().joined);
        }
    }
}
