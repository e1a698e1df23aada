//! The coordinator process `p[0]`, for every protocol variant.
//!
//! `p[0]` runs in rounds. Each round it waits `t` time units, then (on its
//! *timeout*) recomputes the per-participant waiting times from the
//! heartbeats received during the round, either inactivates itself
//! (acceleration bottomed out below `tmin`) or broadcasts a fresh heartbeat
//! to every joined participant and starts the next round.
//!
//! The specification is split into an immutable [`CoordSpec`] (variant,
//! timing, participant count) and a small hashable [`CoordState`] so the
//! same transition functions drive both the discrete-event simulator and
//! the model-checking models.

use crate::fixes::FixLevel;
use crate::msg::{Heartbeat, Pid, Status};
use crate::params::Params;
use crate::serial::{serial_bump, serial_gt, serial_lt, serial_max};
use crate::variant::Variant;

/// Immutable description of a coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordSpec {
    variant: Variant,
    params: Params,
    n: usize,
    fix: FixLevel,
}

/// Mutable state of a coordinator (hashable; used directly inside model
/// states).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoordState {
    /// Liveness status.
    pub status: Status,
    /// Current round length.
    pub t: u32,
    /// Time elapsed in the current round (kept `<= t` by urgency).
    pub elapsed: u32,
    /// Per-participant: heartbeat received during the current round?
    pub rcvd: Vec<bool>,
    /// Per-participant waiting times (the paper's `tm` list).
    pub tm: Vec<u32>,
    /// Per-participant: joined the protocol? (All-true for non-join
    /// variants.)
    pub jnd: Vec<bool>,
    /// Per-participant: has permanently left (dynamic protocol only;
    /// unused when the §7 epoch rejoin is active — the epoch bar below
    /// replaces the latch).
    pub left: Vec<bool>,
    /// Per-participant §7 epoch bar: the registered incarnation. Beats
    /// tagged with a smaller epoch are stale leftovers of a superseded
    /// incarnation; an epoch-rejoin coordinator ignores them, the base
    /// protocols merely count them (see `stale_admitted`). Always
    /// maintained, so a run can report what naive rejoin would have let
    /// through.
    pub min_epoch: Vec<u8>,
    /// Stale beats processed as if fresh (naive rejoin only).
    pub stale_admitted: u32,
    /// Stale beats rejected by the epoch filter (§7 rejoin only).
    pub stale_filtered: u32,
}

/// What a coordinator round timeout produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeoutOutcome {
    /// The acceleration bottomed out: `p[0]` inactivated itself
    /// non-voluntarily.
    Inactivated,
    /// `p[0]` broadcast a heartbeat and started the next round. The
    /// broadcast goes to every joined participant — iterate them with
    /// [`CoordSpec::recipients`] (may be empty in the expanding/dynamic
    /// variants before anyone joins). Carrying no list keeps the round
    /// path allocation-free.
    Beat,
}

/// Reaction of the coordinator to an incoming heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordReaction {
    /// Nothing to send.
    None,
    /// Dynamic protocol: acknowledge a leave by sending this
    /// `Heartbeat::leave()`-style ack (tagged with the leaver's epoch) to
    /// this participant immediately.
    LeaveAck(Pid, Heartbeat),
}

impl CoordSpec {
    /// Describe a coordinator for `variant` with `n` participants.
    ///
    /// For [`Variant::Binary`], [`Variant::RevisedBinary`] and
    /// [`Variant::TwoPhase`] the paper fixes `n = 1`; this is asserted.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `n != 1` for a two-process variant.
    pub fn new(variant: Variant, params: Params, n: usize, fix: FixLevel) -> Self {
        assert!(n > 0, "a heartbeat protocol needs at least one participant");
        if matches!(
            variant,
            Variant::Binary | Variant::RevisedBinary | Variant::TwoPhase
        ) {
            assert_eq!(n, 1, "{variant} is a two-process protocol");
        }
        Self {
            variant,
            params,
            n,
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

    /// Number of (potential) participants.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fix level. The coordinator's own transition logic is
    /// fix-independent (both §6 corrections live in message/timeout
    /// *scheduling* and in the participants' bounds); the level is carried
    /// here as the single source of truth for composition layers.
    pub fn fix(&self) -> FixLevel {
        self.fix
    }

    /// The initial coordinator state.
    ///
    /// `rcvd` starts all-true, as in the paper's mCRL2 model: the first
    /// round is always a full `tmax` round. The revised binary protocol
    /// starts with its timeout already due, so the first beat goes out at
    /// time zero.
    pub fn init_state(&self) -> CoordState {
        let joined = !self.variant.has_join_phase();
        CoordState {
            status: Status::Active,
            t: self.params.tmax(),
            elapsed: if self.variant.initial_send_immediate() {
                self.params.tmax()
            } else {
                0
            },
            rcvd: vec![true; self.n],
            tm: vec![self.params.tmax(); self.n],
            jnd: vec![joined; self.n],
            left: vec![false; self.n],
            min_epoch: vec![0; self.n],
            stale_admitted: 0,
            stale_filtered: 0,
        }
    }

    /// Whether this coordinator runs the §7 epoch-tagged rejoin (it rides
    /// on the full §6 fix; see [`FixLevel::epoch_rejoin`]).
    pub fn epoch_rejoin(&self) -> bool {
        self.fix.epoch_rejoin()
    }

    /// Whether the round timeout must fire now (urgent).
    pub fn timeout_due(&self, s: &CoordState) -> bool {
        s.status.is_active() && s.elapsed >= s.t
    }

    /// Whether time may pass for this process (no urgent event pending).
    pub fn may_tick(&self, s: &CoordState) -> bool {
        !self.timeout_due(s)
    }

    /// Advance one time unit: [`advance`](Self::advance) by 1.
    #[inline]
    pub fn tick(&self, s: &mut CoordState) {
        self.advance(s, 1);
    }

    /// Advance `k` time units at once — `tick` `k` times. Clocks freeze
    /// once inactive.
    ///
    /// # Panics
    ///
    /// Debug-panics if the timeout falls due before the last of the `k`
    /// units (urgency violation): jump by at most
    /// [`next_timeout_in`](Self::next_timeout_in).
    #[inline]
    pub fn advance(&self, s: &mut CoordState, k: u32) {
        debug_assert!(
            k == 0 || self.next_timeout_in(s).is_none_or(|due_in| k <= due_in),
            "time passes while coordinator timeout is due"
        );
        if s.status.is_active() {
            s.elapsed += k;
        }
    }

    /// The per-participant waiting-time step for a silent round.
    fn silent_step(&self, tm_i: u32) -> u32 {
        let halved = Params::halve(tm_i);
        if self.variant.two_phase_step() && halved >= self.params.tmin() {
            // Two-phase acceleration: jump straight to tmin (the
            // inactivation condition below still keys off the halved
            // value, keeping verdicts aligned with the binary protocol).
            self.params.tmin()
        } else {
            halved
        }
    }

    /// Handle the round timeout: recompute waiting times, then either
    /// inactivate or broadcast and start the next round.
    ///
    /// # Panics
    ///
    /// Debug-panics unless [`timeout_due`](Self::timeout_due).
    pub fn on_timeout(&self, s: &mut CoordState) -> TimeoutOutcome {
        debug_assert!(self.timeout_due(s));
        // First pass (read-only): the inactivation-deciding minimum, which
        // for the two-phase variant is the *halved* value even though the
        // stored time jumps to tmin. Deciding before writing keeps the
        // inactivating timeout from mutating `tm` — exactly what the old
        // clone-then-discard achieved, without the per-round allocation.
        let mut decide_min = u32::MAX;
        for i in 0..self.n {
            if !s.jnd[i] {
                continue;
            }
            decide_min = decide_min.min(if s.rcvd[i] {
                self.params.tmax()
            } else {
                Params::halve(s.tm[i])
            });
        }
        if decide_min < self.params.tmin() {
            s.status = Status::NvInactive;
            return TimeoutOutcome::Inactivated;
        }
        // Second pass: commit the new waiting times in place and derive
        // the round length — the minimum waiting time over joined
        // participants, tmax while nobody has joined (every stored time is
        // at most tmax, so the tmax seed is exact, not a clamp).
        let mut round = self.params.tmax();
        for i in 0..self.n {
            if !s.jnd[i] {
                continue;
            }
            s.tm[i] = if s.rcvd[i] {
                self.params.tmax()
            } else {
                self.silent_step(s.tm[i])
            };
            round = round.min(s.tm[i]);
            s.rcvd[i] = false;
        }
        s.t = round;
        s.elapsed = 0;
        TimeoutOutcome::Beat
    }

    /// The pids a [`TimeoutOutcome::Beat`] broadcast goes to: the joined
    /// participants, in ascending pid order. `on_timeout` never changes
    /// the joined set, so this is valid (and stable) right after it.
    pub fn recipients<'a>(&self, s: &'a CoordState) -> impl Iterator<Item = Pid> + 'a {
        s.jnd
            .iter()
            .enumerate()
            .filter(|&(_, &joined)| joined)
            .map(|(i, _)| i + 1)
    }

    /// Handle a heartbeat from participant `from` (1-based pid).
    ///
    /// Crashed/inactive coordinators consume messages without reacting
    /// (the paper: messages to crashed processes are delivered but get no
    /// reply). A `flag = false` beat in the dynamic protocol removes the
    /// sender from the joined set and is acknowledged immediately.
    ///
    /// Without the §7 rejoin (any fix level below `Full`) a participant
    /// that left can never rejoin: its slot latches shut, and beats from
    /// superseded incarnations are *admitted* as if fresh (counted in
    /// `stale_admitted` — the naive-rejoin hazard). With
    /// [`epoch_rejoin`](Self::epoch_rejoin) the coordinator instead keeps
    /// a per-participant epoch bar: stale beats are dropped, a leave of
    /// epoch `e` raises the bar to `e + 1`, and a later incarnation
    /// registers by beating with a higher epoch.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn on_heartbeat(&self, s: &mut CoordState, from: Pid, hb: Heartbeat) -> CoordReaction {
        assert!((1..=self.n).contains(&from), "pid {from} out of range");
        let i = from - 1;
        if !s.status.is_active() {
            return CoordReaction::None;
        }
        let rejoin = self.epoch_rejoin();
        if s.left[i] && !rejoin {
            return CoordReaction::None;
        }
        if serial_lt(hb.epoch, s.min_epoch[i]) {
            if rejoin {
                s.stale_filtered = s.stale_filtered.saturating_add(1);
                return CoordReaction::None;
            }
            s.stale_admitted = s.stale_admitted.saturating_add(1);
        }
        if self.variant.supports_leave() && !hb.flag {
            s.jnd[i] = false;
            s.rcvd[i] = false;
            if rejoin {
                s.min_epoch[i] = serial_max(s.min_epoch[i], serial_bump(hb.epoch));
            } else {
                s.left[i] = true;
            }
            return CoordReaction::LeaveAck(from, Heartbeat::leave().with_epoch(hb.epoch));
        }
        s.rcvd[i] = true;
        if self.variant.has_join_phase() {
            s.jnd[i] = true;
        }
        if serial_gt(hb.epoch, s.min_epoch[i]) {
            s.min_epoch[i] = hb.epoch;
        }
        CoordReaction::None
    }

    /// The broadcast heartbeat for `pid`: echoes the participant's
    /// registered incarnation, so an epoch-aware responder can tell its
    /// own rounds from leftovers addressed to a superseded incarnation.
    /// For the base protocols every epoch is 0 and this is
    /// `Heartbeat::plain()`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn beat_for(&self, s: &CoordState, pid: Pid) -> Heartbeat {
        assert!((1..=self.n).contains(&pid), "pid {pid} out of range");
        Heartbeat::plain().with_epoch(s.min_epoch[pid - 1])
    }

    /// Time until the next round timeout, if the coordinator is active.
    pub fn next_timeout_in(&self, s: &CoordState) -> Option<u32> {
        s.status.is_active().then(|| s.t.saturating_sub(s.elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(variant: Variant, tmin: u32, tmax: u32, n: usize) -> CoordSpec {
        CoordSpec::new(
            variant,
            Params::new(tmin, tmax).unwrap(),
            n,
            FixLevel::Original,
        )
    }

    fn run_to_timeout(spec: &CoordSpec, s: &mut CoordState) -> TimeoutOutcome {
        while !spec.timeout_due(s) {
            spec.tick(s);
        }
        spec.on_timeout(s)
    }

    #[test]
    fn binary_first_round_is_tmax_and_broadcasts() {
        let sp = spec(Variant::Binary, 1, 10, 1);
        let mut s = sp.init_state();
        assert_eq!(sp.next_timeout_in(&s), Some(10));
        let out = run_to_timeout(&sp, &mut s);
        assert_eq!(out, TimeoutOutcome::Beat);
        assert_eq!(sp.recipients(&s).collect::<Vec<_>>(), vec![1]);
        // first round had rcvd=true, so t stays tmax
        assert_eq!(s.t, 10);
        assert!(!s.rcvd[0]);
    }

    #[test]
    fn revised_binary_fires_immediately() {
        let sp = spec(Variant::RevisedBinary, 1, 10, 1);
        let s = sp.init_state();
        assert!(sp.timeout_due(&s));
        assert_eq!(sp.next_timeout_in(&s), Some(0));
    }

    #[test]
    fn halving_chain_until_inactivation() {
        let sp = spec(Variant::Binary, 1, 10, 1);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s); // t = 10 (rcvd was initially true)
        let mut lengths = vec![];
        while let TimeoutOutcome::Beat = run_to_timeout(&sp, &mut s) {
            lengths.push(s.t);
        }
        assert_eq!(lengths, vec![5, 2, 1]);
        assert_eq!(s.status, Status::NvInactive);
    }

    #[test]
    fn heartbeat_restores_tmax() {
        let sp = spec(Variant::Binary, 1, 10, 1);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s);
        run_to_timeout(&sp, &mut s); // silent: t = 5
        assert_eq!(s.t, 5);
        assert_eq!(
            sp.on_heartbeat(&mut s, 1, Heartbeat::plain()),
            CoordReaction::None
        );
        run_to_timeout(&sp, &mut s);
        assert_eq!(s.t, 10);
    }

    #[test]
    fn two_phase_jumps_to_tmin() {
        let sp = spec(Variant::TwoPhase, 4, 10, 1);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s); // t = 10
        run_to_timeout(&sp, &mut s); // silent: halved 5 >= 4 -> jump to tmin
        assert_eq!(s.t, 4);
        // next silent round: halve(4)=2 < 4 -> inactivate
        assert_eq!(run_to_timeout(&sp, &mut s), TimeoutOutcome::Inactivated);
    }

    #[test]
    fn two_phase_inactivation_matches_binary_condition() {
        // tmin=9: halve(10)=5 < 9 => inactivate on the first silent round,
        // exactly like binary (this is the interpretation that keeps
        // Table 1 verdicts identical across the variants).
        let sp = spec(Variant::TwoPhase, 9, 10, 1);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s);
        assert_eq!(run_to_timeout(&sp, &mut s), TimeoutOutcome::Inactivated);
    }

    #[test]
    fn static_round_uses_min_tm() {
        let sp = spec(Variant::Static, 1, 10, 3);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s);
        // Only participant 2 responds.
        sp.on_heartbeat(&mut s, 2, Heartbeat::plain());
        run_to_timeout(&sp, &mut s);
        assert_eq!(s.tm, vec![5, 10, 5]);
        assert_eq!(s.t, 5);
    }

    #[test]
    fn static_inactivates_when_any_participant_bottoms_out() {
        let sp = spec(Variant::Static, 4, 10, 2);
        let mut s = sp.init_state();
        run_to_timeout(&sp, &mut s); // all tmax
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain());
        run_to_timeout(&sp, &mut s); // tm = [10, 5]
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain());
        // participant 2 still silent: halve(5)=2 < 4 -> inactivate
        assert_eq!(run_to_timeout(&sp, &mut s), TimeoutOutcome::Inactivated);
    }

    #[test]
    fn expanding_broadcasts_only_to_joined() {
        let sp = spec(Variant::Expanding, 1, 10, 2);
        let mut s = sp.init_state();
        match run_to_timeout(&sp, &mut s) {
            TimeoutOutcome::Beat => assert_eq!(sp.recipients(&s).count(), 0),
            _ => panic!("no one joined; p0 must not inactivate"),
        }
        sp.on_heartbeat(&mut s, 2, Heartbeat::plain());
        assert!(s.jnd[1]);
        match run_to_timeout(&sp, &mut s) {
            TimeoutOutcome::Beat => assert_eq!(sp.recipients(&s).collect::<Vec<_>>(), vec![2]),
            _ => panic!(),
        }
    }

    #[test]
    fn expanding_never_inactivates_without_participants() {
        let sp = spec(Variant::Expanding, 5, 10, 1);
        let mut s = sp.init_state();
        for _ in 0..20 {
            assert!(matches!(run_to_timeout(&sp, &mut s), TimeoutOutcome::Beat));
            assert_eq!(s.t, 10);
        }
    }

    #[test]
    fn dynamic_leave_is_acknowledged_and_permanent() {
        let sp = spec(Variant::Dynamic, 1, 10, 1);
        let mut s = sp.init_state();
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain());
        assert!(s.jnd[0]);
        assert_eq!(
            sp.on_heartbeat(&mut s, 1, Heartbeat::leave()),
            CoordReaction::LeaveAck(1, Heartbeat::leave())
        );
        assert!(!s.jnd[0]);
        assert!(s.left[0]);
        // A stale join/stay beat must not re-join a left participant.
        assert_eq!(
            sp.on_heartbeat(&mut s, 1, Heartbeat::plain()),
            CoordReaction::None
        );
        assert!(!s.jnd[0]);
    }

    #[test]
    fn dynamic_leave_does_not_disturb_others() {
        let sp = spec(Variant::Dynamic, 1, 10, 2);
        let mut s = sp.init_state();
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain());
        sp.on_heartbeat(&mut s, 2, Heartbeat::plain());
        run_to_timeout(&sp, &mut s);
        sp.on_heartbeat(&mut s, 1, Heartbeat::leave());
        sp.on_heartbeat(&mut s, 2, Heartbeat::plain());
        for _ in 0..10 {
            match run_to_timeout(&sp, &mut s) {
                TimeoutOutcome::Beat => assert_eq!(sp.recipients(&s).collect::<Vec<_>>(), vec![2]),
                _ => panic!("p0 must stay active"),
            }
            sp.on_heartbeat(&mut s, 2, Heartbeat::plain());
        }
    }

    #[test]
    fn crashed_coordinator_ignores_everything() {
        let sp = spec(Variant::Binary, 1, 10, 1);
        let mut s = sp.init_state();
        s.status = Status::Crashed;
        s.rcvd[0] = false;
        assert_eq!(
            sp.on_heartbeat(&mut s, 1, Heartbeat::plain()),
            CoordReaction::None
        );
        assert!(!s.rcvd[0], "crashed coordinator must not record receipts");
        assert!(!sp.timeout_due(&s));
        assert_eq!(sp.next_timeout_in(&s), None);
        // ticking is allowed and a no-op
        sp.tick(&mut s);
        assert_eq!(s.elapsed, 0);
    }

    #[test]
    #[should_panic(expected = "two-process protocol")]
    fn binary_rejects_multiple_participants() {
        spec(Variant::Binary, 1, 10, 2);
    }

    fn rejoin_spec(variant: Variant, n: usize) -> CoordSpec {
        CoordSpec::new(variant, Params::new(1, 10).unwrap(), n, FixLevel::Full)
    }

    #[test]
    fn epoch_rejoin_rides_on_the_full_fix_only() {
        for fix in [
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::CorrectedBounds,
        ] {
            let sp = CoordSpec::new(Variant::Binary, Params::new(1, 10).unwrap(), 1, fix);
            assert!(!sp.epoch_rejoin(), "{fix}");
        }
        assert!(rejoin_spec(Variant::Binary, 1).epoch_rejoin());
    }

    #[test]
    fn stale_beats_are_filtered_under_rejoin_and_admitted_without() {
        // Register epoch 2, then replay an epoch-1 leftover.
        let sp = rejoin_spec(Variant::Binary, 1);
        let mut s = sp.init_state();
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(2));
        assert_eq!(s.min_epoch, vec![2]);
        s.rcvd[0] = false;
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(1));
        assert!(!s.rcvd[0], "stale beat must not count as liveness");
        assert_eq!((s.stale_filtered, s.stale_admitted), (1, 0));

        // Naive rejoin (no epoch filter): the same leftover is admitted.
        let sp = spec(Variant::Binary, 1, 10, 1);
        let mut s = sp.init_state();
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(2));
        s.rcvd[0] = false;
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(1));
        assert!(s.rcvd[0], "naive coordinator counts the stale beat");
        assert_eq!((s.stale_filtered, s.stale_admitted), (0, 1));
    }

    #[test]
    fn epoch_bar_wraps_past_255_incarnations() {
        // Incarnations advance one step per revive, so a long-lived
        // deployment walks the registered bar all the way to 255. The
        // *next* revive wraps to epoch 0, which must still register as
        // fresh (RFC 1982 serial order), not get filtered as stale.
        let sp = rejoin_spec(Variant::Binary, 1);
        let mut s = sp.init_state();
        s.min_epoch[0] = 255;
        s.rcvd[0] = false;
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(0));
        assert!(s.rcvd[0], "wrapped incarnation must re-register");
        assert_eq!(s.min_epoch, vec![0], "bar follows the wrap");
        assert_eq!((s.stale_filtered, s.stale_admitted), (0, 0));
        // A leftover beat of the superseded incarnation 255 is now stale.
        s.rcvd[0] = false;
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(255));
        assert!(!s.rcvd[0]);
        assert_eq!(s.stale_filtered, 1);
    }

    #[test]
    fn rejoin_leave_raises_the_bar_instead_of_latching() {
        let sp = rejoin_spec(Variant::Dynamic, 1);
        let mut s = sp.init_state();
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(1));
        assert!(s.jnd[0]);
        assert_eq!(
            sp.on_heartbeat(&mut s, 1, Heartbeat::leave().with_epoch(1)),
            CoordReaction::LeaveAck(1, Heartbeat::leave().with_epoch(1))
        );
        assert!(!s.jnd[0]);
        assert!(!s.left[0], "no permanent latch under rejoin");
        assert_eq!(s.min_epoch, vec![2]);
        // The old incarnation can no longer re-enrol...
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(1));
        assert!(!s.jnd[0]);
        // ...but a fresh one can.
        sp.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(2));
        assert!(s.jnd[0]);
        assert_eq!(s.min_epoch, vec![2]);
        // A straggling leave of the old incarnation must not un-enrol it.
        sp.on_heartbeat(&mut s, 1, Heartbeat::leave().with_epoch(1));
        assert!(s.jnd[0]);
    }

    #[test]
    fn beat_for_echoes_the_registered_epoch() {
        let sp = rejoin_spec(Variant::Expanding, 2);
        let mut s = sp.init_state();
        assert_eq!(sp.beat_for(&s, 1), Heartbeat::plain());
        sp.on_heartbeat(&mut s, 2, Heartbeat::plain().with_epoch(3));
        assert_eq!(sp.beat_for(&s, 2), Heartbeat::plain().with_epoch(3));
        assert_eq!(sp.beat_for(&s, 1), Heartbeat::plain());
    }

    #[test]
    fn beats_within_round_keep_protocol_alive_forever() {
        let sp = spec(Variant::Binary, 5, 10, 1);
        let mut s = sp.init_state();
        for _ in 0..100 {
            match run_to_timeout(&sp, &mut s) {
                TimeoutOutcome::Beat => {}
                TimeoutOutcome::Inactivated => panic!("must not inactivate"),
            }
            sp.on_heartbeat(&mut s, 1, Heartbeat::plain());
        }
        assert_eq!(s.status, Status::Active);
    }
}
