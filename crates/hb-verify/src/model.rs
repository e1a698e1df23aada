//! The composed timed transition system: coordinator + participants +
//! lossy bounded-delay channels + ghost monitors.
//!
//! # Semantics (see DESIGN.md for the full rationale)
//!
//! * **One reaction per event.** Every process step is a call to
//!   [`hb_core::react`], the code the simulator and the live node run.
//!   The model's effects push each send into the state's in-flight bag;
//!   the events are dropped while checking and logged when a path is
//!   rendered ([`crate::render`]). What the model adds is the choice of
//!   which enabled step comes next, and the ghost monitors.
//! * **Digital clocks.** A single [`HbAction::Tick`] advances every clock
//!   by one unit. `Tick` is disabled while any *urgent* event is pending:
//!   a due coordinator timeout, a due participant watchdog or join-send, or
//!   an in-flight message whose delay budget is exhausted.
//! * **Round-trip budget.** `tmin` bounds the `p[0] → p[i] → p[0]` round
//!   trip: an outbound beat starts with budget `tmin`; the instant reply
//!   inherits whatever budget is left at delivery. Join beats and leave
//!   acks are one-way messages with a fresh `tmin` budget.
//! * **Interleaving.** Simultaneous events interleave in every order —
//!   this is what makes the paper's Figure 11/12/13 races reachable. The
//!   §6.1 *receive-priority* fix disables due timeouts while any message
//!   is urgent (budget 0), forcing same-instant deliveries to win ties.
//! * **Faults.** Active processes may crash at any time; the channel may
//!   lose any in-flight message, latching the ghost `lost` flag. Both
//!   fault classes can be disabled to encode the premises of requirements
//!   R2/R3.
//! * **§7 rejoin.** Off by default (crashes and leaves are then final, as
//!   in both papers). With [`HbModel::rejoin_cap`] above zero a crashed or
//!   departed participant may restart at any instant as its next
//!   incarnation ([`HbAction::Rejoin`], the runtimes' own
//!   [`react::revive`]); whether the coordinator tells the
//!   incarnations apart is decided by the [`FixLevel`], exactly as at
//!   runtime (epoch filter under `Full`, naive admission below it).
//! * **R1 monitor.** A ghost saturating counter per participant tracks the
//!   time since `p[0]` last received a beat from that participant. It arms
//!   on the first such delivery (participants of non-join variants arm at
//!   start) and disarms when `p[0]` receives a leave beat. The error
//!   predicate is `armed ∧ p[0] active ∧ counter > bound`.

use std::hash::{Hash, Hasher};

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::react::{self, Effects};
use hb_core::responder::{LeaveDecision, RespSpec, RespState};
use hb_core::serial::serial_lt;
use hb_core::trace::{Event, EventLog};
use hb_core::{FixLevel, Heartbeat, Params, Pid, Status, Variant};
use mck::Model;

/// An in-flight heartbeat message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Msg {
    /// Sender pid (`0` = coordinator).
    pub src: Pid,
    /// Destination pid.
    pub dst: Pid,
    /// The heartbeat carried.
    pub hb: Heartbeat,
    /// Remaining delay budget; delivery is urgent at `0`.
    pub budget: u32,
}

/// A global configuration of the composed system.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct HbState {
    /// Coordinator state.
    pub coord: CoordState,
    /// Participant states (index `i` is pid `i + 1`).
    pub resps: Vec<RespState>,
    /// In-flight messages, kept sorted: the canonical form for hashing,
    /// and [`crate::symmetry::canonicalize`] reads each participant's
    /// messages off it as two sorted runs without re-sorting. Every
    /// producer ([`HbModel`]'s sends, the symmetry relabelling, the
    /// packed codec's decode of a sorted encode) keeps it so.
    pub channel: Vec<Msg>,
    /// Ghost: has any message ever been lost?
    pub lost: bool,
    /// Ghost R1 monitors, one per participant (empty when monitoring is
    /// off).
    pub monitors: Vec<MonitorState>,
}

/// One word per participant, message and monitor, plus two for the
/// scalars and lengths. Every field is hashed, so equal states hash
/// equal; each field has a lane wide enough for the values the checker
/// reaches, and a larger value spills into its neighbour's lane, which
/// only costs a collision.
impl Hash for HbState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let c = &self.coord;
        h.write_u64(
            c.status as u64
                | u64::from(self.lost) << 2
                | u64::from(c.t) << 8
                | u64::from(c.elapsed) << 24
                | (self.channel.len() as u64) << 40
                | (self.monitors.len() as u64) << 52,
        );
        h.write_u64(u64::from(c.stale_admitted) | u64::from(c.stale_filtered) << 32);
        for (i, r) in self.resps.iter().enumerate() {
            h.write_u64(
                r.status as u64
                    | u64::from(r.joined) << 2
                    | u64::from(r.left) << 3
                    | u64::from(c.rcvd[i]) << 4
                    | u64::from(c.jnd[i]) << 5
                    | u64::from(c.left[i]) << 6
                    | u64::from(r.epoch) << 8
                    | u64::from(c.min_epoch[i]) << 16
                    | u64::from(r.waiting) << 24
                    | u64::from(r.join_elapsed) << 38
                    | u64::from(c.tm[i]) << 51,
            );
        }
        for m in &self.channel {
            h.write_u64(
                u64::from(m.budget)
                    | u64::from(m.hb.epoch) << 16
                    | u64::from(m.hb.flag) << 24
                    | (m.dst as u64) << 25
                    | (m.src as u64) << 45,
            );
        }
        for m in &self.monitors {
            h.write_u64(u64::from(m.since_last) | u64::from(m.armed) << 32);
        }
    }
}

/// Ghost R1 watchdog for one participant (the paper's Figure 9 monitor
/// automaton).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonitorState {
    /// Whether `p[0]` currently expects beats from this participant.
    pub armed: bool,
    /// Time since the last beat from this participant was delivered to
    /// `p[0]` (saturating at `bound + 1`).
    pub since_last: u32,
}

/// A transition of the composed system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HbAction {
    /// One unit of time passes everywhere.
    Tick,
    /// The coordinator's round timeout fires.
    CoordTimeout,
    /// Participant `pid`'s watchdog fires (non-voluntary inactivation).
    RespWatchdog(Pid),
    /// Participant `pid` sends a join heartbeat.
    JoinSend(Pid),
    /// The channel delivers `msg`; a dynamic-protocol participant replies
    /// with a leave beat iff `leave`.
    Deliver {
        /// The message being delivered.
        msg: Msg,
        /// Dynamic protocol: reply with a leave beat.
        leave: bool,
    },
    /// The channel loses `msg`.
    Lose(Msg),
    /// Process `pid` crashes (voluntary inactivation).
    Crash(Pid),
    /// Participant `pid`, crashed or departed, restarts as its next
    /// incarnation (§7; enabled only under [`HbModel::rejoin_cap`]).
    Rejoin(Pid),
}

/// The composed model. Construct with [`HbModel::new`] and configure fault
/// switches and monitoring before checking.
#[derive(Clone, Debug)]
pub struct HbModel {
    coord: CoordSpec,
    resp: RespSpec,
    n: usize,
    allow_loss: bool,
    crashable: Vec<bool>,
    allow_leave: bool,
    monitor_bound: Option<u32>,
    stagger: bool,
    rejoin_cap: u8,
}

impl HbModel {
    /// A model of `variant` with `n` participants at the given fix level,
    /// with all faults enabled, leaves enabled (dynamic only) and no R1
    /// monitor.
    pub fn new(variant: Variant, params: Params, n: usize, fix: FixLevel) -> Self {
        Self {
            coord: CoordSpec::new(variant, params, n, fix),
            resp: RespSpec::new(variant, params, fix),
            n,
            allow_loss: true,
            crashable: vec![true; n + 1],
            allow_leave: variant.supports_leave(),
            monitor_bound: None,
            stagger: false,
            rejoin_cap: 0,
        }
    }

    /// Stagger the participants' initial clocks: participant `i` starts
    /// with its watchdog (or join timer) advanced by `i` modulo the
    /// firing bound, so the group does not move in lockstep. Staggering
    /// breaks the *initial-state* symmetry only — the transition
    /// relation still treats participants interchangeably, which is all
    /// the quotient construction needs (canonicalization is an
    /// automorphism of the transition system regardless of where the
    /// run starts).
    pub fn stagger_starts(mut self, yes: bool) -> Self {
        self.stagger = yes;
        self
    }

    /// Enable/disable message loss.
    pub fn allow_loss(mut self, yes: bool) -> Self {
        self.allow_loss = yes;
        self
    }

    /// Enable/disable crashes for every process at once.
    pub fn allow_crashes(mut self, yes: bool) -> Self {
        self.crashable = vec![yes; self.n + 1];
        self
    }

    /// Enable/disable the crash of one process.
    pub fn crashable(mut self, pid: Pid, yes: bool) -> Self {
        self.crashable[pid] = yes;
        self
    }

    /// Enable/disable voluntary leaves (meaningful for the dynamic variant
    /// only).
    pub fn allow_leave(mut self, yes: bool) -> Self {
        self.allow_leave = yes && self.coord.variant().supports_leave();
        self
    }

    /// Attach R1 ghost monitors with the given bound.
    pub fn monitor_bound(mut self, bound: u32) -> Self {
        self.monitor_bound = Some(bound);
        self
    }

    /// Let every participant rejoin up to `cap` times (§7): while its
    /// incarnation number is below `cap`, a crashed or departed
    /// participant may take [`HbAction::Rejoin`]. The cap keeps the model
    /// finite; the default 0 is the papers' model, where crashes and
    /// leaves are final.
    pub fn rejoin_cap(mut self, cap: u8) -> Self {
        self.rejoin_cap = cap;
        self
    }

    /// The coordinator spec.
    pub fn coord_spec(&self) -> &CoordSpec {
        &self.coord
    }

    /// The participant spec.
    pub fn resp_spec(&self) -> &RespSpec {
        &self.resp
    }

    /// Number of participants.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The R1 monitor bound, if monitoring is on.
    pub fn monitor_bound_value(&self) -> Option<u32> {
        self.monitor_bound
    }

    /// How many times each participant may rejoin (0 = never).
    pub fn rejoin_cap_value(&self) -> u8 {
        self.rejoin_cap
    }

    /// Whether voluntary leaves are enabled.
    pub fn leave_allowed(&self) -> bool {
        self.allow_leave
    }

    /// Whether every *participant* has the same crash switch — part of
    /// the symmetry soundness obligation (the coordinator's switch is
    /// irrelevant: permutations never touch `p[0]`).
    pub fn participant_faults_uniform(&self) -> bool {
        self.crashable[1..].windows(2).all(|w| w[0] == w[1])
    }

    /// The protocol variant.
    pub fn variant(&self) -> Variant {
        self.coord.variant()
    }

    /// The timing parameters.
    pub fn params(&self) -> Params {
        self.coord.params()
    }

    fn monitor_cap(&self) -> u32 {
        self.monitor_bound.map(|b| b + 1).unwrap_or(0)
    }

    /// Whether any in-flight message is urgent (budget exhausted) — the
    /// receive-priority test.
    ///
    /// The §6.1 fix is *global* action priority: every same-instant
    /// delivery (urgent message) is processed before any timeout fires.
    /// Per-destination priority would not be enough — at `tmin = tmax` the
    /// cascade "beat delivered to `p[i]`, instant reply, reply delivered to
    /// `p[0]`" happens entirely at the instant of `p[0]`'s timeout, and the
    /// first message of the cascade is addressed to `p[i]`, not `p[0]`.
    fn any_urgent_delivery(&self, s: &HbState) -> bool {
        s.channel.iter().any(|m| m.budget == 0)
    }

    fn receive_priority(&self) -> bool {
        self.coord.fix().receive_priority()
    }

    /// Whether `r` may restart now: out of the protocol by crash or by
    /// leave (never after a non-voluntary inactivation — that is the
    /// protocol's verdict, not a fault), with incarnations to spare.
    fn may_rejoin(&self, r: &RespState) -> bool {
        r.epoch < self.rejoin_cap
            && (r.status == Status::Crashed || (r.status.is_active() && r.left))
    }

    /// Whether time may pass in `s` (no urgent event anywhere).
    pub fn may_tick(&self, s: &HbState) -> bool {
        self.coord.may_tick(&s.coord)
            && s.resps.iter().all(|r| self.resp.may_tick(r))
            && s.channel.iter().all(|m| m.budget > 0)
    }

    /// The R1 error predicate on a state: some armed monitor exceeded the
    /// bound while the coordinator is still active.
    pub fn monitor_error(&self, s: &HbState) -> bool {
        let Some(bound) = self.monitor_bound else {
            return false;
        };
        s.coord.status.is_active() && s.monitors.iter().any(|m| m.armed && m.since_last > bound)
    }

    fn remove_msg(channel: &mut Vec<Msg>, msg: &Msg) -> bool {
        if let Some(pos) = channel.iter().position(|m| m == msg) {
            channel.remove(pos);
            true
        } else {
            false
        }
    }

    /// One transition out of `s`, as [`Model::next_state`]. With `log`,
    /// the step's events also go there, stamped with the time the caller
    /// keeps: a delivery or loss, then the reaction's events and sends in
    /// the order it made them.
    pub(crate) fn step(
        &self,
        s: &HbState,
        action: &HbAction,
        log: Option<(&mut EventLog, u64)>,
    ) -> Option<HbState> {
        let mut next = s.clone();
        let (log, now) = log.map_or((None, 0), |(log, now)| (Some(log), now));
        let fx = &mut InFlight {
            channel: &mut next.channel,
            log,
            now,
        };
        match action {
            HbAction::Tick => {
                if !self.may_tick(s) {
                    return None;
                }
                self.coord.tick(&mut next.coord);
                for r in &mut next.resps {
                    self.resp.tick(r);
                }
                for m in fx.channel.iter_mut() {
                    m.budget -= 1;
                }
                let cap = self.monitor_cap();
                for m in &mut next.monitors {
                    if m.armed {
                        m.since_last = (m.since_last + 1).min(cap);
                    }
                }
            }
            HbAction::CoordTimeout => {
                react::coord_timeout(&self.coord, &mut next.coord, now, fx)?;
            }
            HbAction::RespWatchdog(pid) => {
                if !react::watchdog(&self.resp, &mut next.resps[pid - 1], now, *pid, fx) {
                    return None;
                }
            }
            HbAction::JoinSend(pid) => {
                if !react::join_send(&self.resp, &mut next.resps[pid - 1], *pid, fx) {
                    return None;
                }
            }
            HbAction::Deliver { msg, leave } => {
                if !Self::remove_msg(fx.channel, msg) {
                    return None;
                }
                let (at, from, to, hb) = (now, msg.src, msg.dst, msg.hb);
                fx.emit(&Event::Deliver { at, from, to, hb });
                if to == 0 {
                    // Beat from participant `from` arrives at p[0].
                    if !next.monitors.is_empty() {
                        let m = &mut next.monitors[from - 1];
                        // A stale join/stay beat overtaken by a leave must
                        // not re-arm the monitor: p[0] ignores it (via the
                        // `left` latch, or the epoch bar under the §7
                        // rejoin fix), so it expects nothing more from
                        // this incarnation.
                        let ignored = if self.coord.fix().epoch_rejoin() {
                            serial_lt(hb.epoch, next.coord.min_epoch[from - 1])
                        } else {
                            next.coord.left[from - 1]
                        };
                        if !hb.flag {
                            m.armed = false;
                        } else if !ignored {
                            m.armed = true;
                            m.since_last = 0;
                        }
                    }
                    react::coord_receive(&self.coord, &mut next.coord, from, hb, fx);
                } else {
                    let decision = if *leave {
                        LeaveDecision::Leave
                    } else {
                        LeaveDecision::Stay
                    };
                    let r = &mut next.resps[to - 1];
                    react::resp_receive(&self.resp, r, now, to, (hb, msg.budget), decision, fx);
                }
            }
            HbAction::Lose(msg) => {
                if !Self::remove_msg(fx.channel, msg) {
                    return None;
                }
                let (at, from, to) = (now, msg.src, msg.dst);
                fx.emit(&Event::Lose { at, from, to });
                next.lost = true;
            }
            HbAction::Crash(pid) => {
                let status = match pid {
                    0 => &mut next.coord.status,
                    _ => &mut next.resps[pid - 1].status,
                };
                if !react::crash(status, now, *pid, fx) {
                    return None;
                }
            }
            HbAction::Rejoin(pid) => {
                let r = &mut next.resps[pid - 1];
                if !self.may_rejoin(r) {
                    return None;
                }
                // A departed participant is out of the protocol as a
                // crashed one is, and restarts by the same §7 revive.
                r.status = Status::Crashed;
                react::revive(&self.resp, r, &mut None, now, *pid, fx);
            }
        }
        // The successor is the state the store keeps: no spare room from
        // a growing insert or a removal without a reply.
        if next.channel.capacity() > next.channel.len() {
            next.channel = next.channel.to_vec();
        }
        Some(next)
    }
}

/// The model's effects: a send goes into the state's in-flight bag,
/// where it sorts. While checking, events are dropped; a path being
/// rendered logs them, the sends included.
struct InFlight<'a> {
    channel: &'a mut Vec<Msg>,
    log: Option<&'a mut EventLog>,
    now: u64,
}

impl Effects for InFlight<'_> {
    fn send(&mut self, src: Pid, dst: Pid, hb: Heartbeat, budget: u32) {
        let msg = Msg {
            src,
            dst,
            hb,
            budget,
        };
        self.channel
            .insert(self.channel.partition_point(|m| *m < msg), msg);
        let (at, from, to) = (self.now, src, dst);
        self.emit(&Event::Send { at, from, to, hb });
    }

    fn emit(&mut self, e: &Event) {
        if let Some(log) = &mut self.log {
            log.push(*e);
        }
    }
}

impl Model for HbModel {
    type State = HbState;
    type Action = HbAction;

    fn initial_states(&self) -> Vec<HbState> {
        let monitors = if self.monitor_bound.is_some() {
            // Non-join variants expect every participant from the start;
            // join variants arm on the first delivered beat.
            let armed = !self.variant().has_join_phase();
            vec![
                MonitorState {
                    armed,
                    since_last: 0,
                };
                self.n
            ]
        } else {
            Vec::new()
        };
        let resps = (0..self.n)
            .map(|i| {
                let mut r = self.resp.init_state();
                if self.stagger {
                    // Advance each participant's governing timer by its
                    // index — values inside the dataflow ranges, so the
                    // packed codec needs no special case. The watchdog
                    // offset must stay below the protocol's own margin:
                    // fault-free beats are at most tmax (round) + tmin
                    // (delivery) apart, so an initial offset under
                    // bound − (tmax + tmin) can never cause a spurious
                    // firing, while anything larger injects a premise
                    // violation the requirements would rightly flag.
                    if self.variant().has_join_phase() {
                        r.join_elapsed = (i as u32) % self.params().tmin().max(1);
                    } else {
                        let slack = self
                            .resp
                            .watchdog_bound()
                            .saturating_sub(self.params().tmax() + self.params().tmin());
                        r.waiting = (i as u32) % slack.max(1);
                    }
                }
                r
            })
            .collect();
        vec![HbState {
            coord: self.coord.init_state(),
            resps,
            channel: Vec::new(),
            lost: false,
            monitors,
        }]
    }

    fn actions(&self, s: &HbState, out: &mut Vec<HbAction>) {
        // Crashes.
        if self.crashable[0] && s.coord.status.is_active() {
            out.push(HbAction::Crash(0));
        }
        for (i, r) in s.resps.iter().enumerate() {
            if self.crashable[i + 1] && r.status.is_active() && !r.left {
                out.push(HbAction::Crash(i + 1));
            }
            if self.may_rejoin(r) {
                out.push(HbAction::Rejoin(i + 1));
            }
        }
        // Urgent process events (receive-priority may defer timeouts to
        // urgent deliveries).
        let defer_timeouts = self.receive_priority() && self.any_urgent_delivery(s);
        if self.coord.timeout_due(&s.coord) && !defer_timeouts {
            out.push(HbAction::CoordTimeout);
        }
        for (i, r) in s.resps.iter().enumerate() {
            let pid = i + 1;
            if self.resp.watchdog_due(r) && !defer_timeouts {
                out.push(HbAction::RespWatchdog(pid));
            }
            if self.resp.join_send_due(r) {
                out.push(HbAction::JoinSend(pid));
            }
        }
        // Channel: each distinct in-flight message may be delivered (with
        // either leave decision in the dynamic protocol) or lost.
        let mut seen: Option<&Msg> = None;
        for m in &s.channel {
            if seen == Some(m) {
                continue; // duplicate message: identical actions
            }
            seen = Some(m);
            out.push(HbAction::Deliver {
                msg: *m,
                leave: false,
            });
            if self.allow_leave && m.dst != 0 && m.hb.flag {
                let r = &s.resps[m.dst - 1];
                if r.status.is_active() && !r.left {
                    out.push(HbAction::Deliver {
                        msg: *m,
                        leave: true,
                    });
                }
            }
            if self.allow_loss {
                out.push(HbAction::Lose(*m));
            }
        }
        // Time.
        if self.may_tick(s) {
            out.push(HbAction::Tick);
        }
    }

    fn next_state(&self, s: &HbState, action: &HbAction) -> Option<HbState> {
        self.step(s, action, None)
    }

    fn format_action(&self, action: &HbAction) -> String {
        match action {
            HbAction::Tick => "tick".into(),
            HbAction::CoordTimeout => "timeout at p[0]".into(),
            HbAction::RespWatchdog(pid) => format!("nv-inactivate p[{pid}]"),
            HbAction::JoinSend(pid) => format!("p[{pid}] sends join beat"),
            HbAction::Deliver { msg, leave } => {
                let extra = if *leave { " (replies leave)" } else { "" };
                format!(
                    "deliver {} p[{}]->p[{}] (budget {}){}",
                    msg.hb, msg.src, msg.dst, msg.budget, extra
                )
            }
            HbAction::Lose(msg) => format!("lose {} p[{}]->p[{}]", msg.hb, msg.src, msg.dst),
            HbAction::Crash(pid) => format!("crash p[{pid}]"),
            HbAction::Rejoin(pid) => format!("p[{pid}] rejoins"),
        }
    }

    fn format_state(&self, s: &HbState) -> String {
        let resp_s: Vec<String> = s
            .resps
            .iter()
            .map(|r| {
                format!(
                    "{:?}(w={},j={},l={})",
                    r.status, r.waiting, r.joined, r.left
                )
            })
            .collect();
        format!(
            "p0={:?}(t={},e={}) resps=[{}] chan={} lost={}",
            s.coord.status,
            s.coord.t,
            s.coord.elapsed,
            resp_s.join(", "),
            s.channel.len(),
            s.lost
        )
    }
}

/// The rejoin-enabled n = 2 cell the reduction stacks are cross-checked
/// on: static (1,3), lossless, participants may crash and rejoin once.
#[cfg(test)]
pub(crate) fn rejoin_n2(fix: FixLevel) -> HbModel {
    HbModel::new(Variant::Static, Params::new(1, 3).unwrap(), 2, fix)
        .allow_loss(false)
        .crashable(0, false)
        .rejoin_cap(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::Checker;

    fn binary(tmin: u32, tmax: u32, fix: FixLevel) -> HbModel {
        HbModel::new(Variant::Binary, Params::new(tmin, tmax).unwrap(), 1, fix)
    }

    /// A full coordinator round at `tmax = 4`, ending in its broadcast.
    const ROUND_OF_4: [HbAction; 5] = {
        use HbAction::{CoordTimeout, Tick};
        [Tick, Tick, Tick, Tick, CoordTimeout]
    };

    /// Fire each action in turn.
    fn run(m: &HbModel, mut s: HbState, actions: &[HbAction]) -> HbState {
        for a in actions {
            s = m
                .next_state(&s, a)
                .unwrap_or_else(|| panic!("{a:?} disabled"));
        }
        s
    }

    /// Deliver the only in-flight message.
    fn deliver(m: &HbModel, s: HbState, leave: bool) -> HbState {
        assert_eq!(s.channel.len(), 1, "{}", m.format_state(&s));
        let msg = s.channel[0];
        run(m, s, &[HbAction::Deliver { msg, leave }])
    }

    #[test]
    fn initial_state_is_quiet() {
        let m = binary(1, 4, FixLevel::Original);
        let init = &m.initial_states()[0];
        assert!(init.channel.is_empty());
        assert!(!init.lost);
        assert_eq!(init.coord.status, Status::Active);
    }

    #[test]
    fn no_deadlocks_small_binary() {
        let m = binary(1, 3, FixLevel::Original);
        let out = Checker::new(&m).check_invariant(|_| true);
        assert!(out.holds());
        // every state must have a successor (tick at minimum)
        let m2 = binary(1, 2, FixLevel::Original);
        let out2 = Checker::new(&m2).check_reachability(|s| {
            let mut acts = Vec::new();
            m2.actions(s, &mut acts);
            acts.iter().all(|a| m2.next_state(s, a).is_none())
        });
        assert!(out2.unreachable(), "deadlock found");
    }

    #[test]
    fn ticks_are_blocked_by_urgency() {
        let m = binary(2, 4, FixLevel::Original);
        let mut s = m.initial_states().remove(0);
        // advance to the coordinator timeout
        for _ in 0..4 {
            assert!(m.may_tick(&s));
            s = m.next_state(&s, &HbAction::Tick).unwrap();
        }
        assert!(!m.may_tick(&s), "due timeout must block ticking");
        let mut acts = Vec::new();
        m.actions(&s, &mut acts);
        assert!(!acts.contains(&HbAction::Tick));
        assert!(acts.contains(&HbAction::CoordTimeout));
    }

    #[test]
    fn beat_exchange_round_trip() {
        let m = binary(2, 4, FixLevel::Original)
            .allow_loss(false)
            .allow_crashes(false);
        let mut s = run(&m, m.initial_states().remove(0), &ROUND_OF_4);
        let msg = s.channel[0];
        assert_eq!((msg.src, msg.dst, msg.budget), (0, 1, 2));
        // deliver immediately: p1 replies with the remaining budget
        s = deliver(&m, s, false);
        let reply = s.channel[0];
        assert_eq!((reply.src, reply.dst, reply.budget), (1, 0, 2));
        assert_eq!(s.resps[0].waiting, 0);
        // deliver the reply: p0 records the receipt
        s = deliver(&m, s, false);
        assert!(s.coord.rcvd[0]);
        assert!(s.channel.is_empty());
    }

    #[test]
    fn budget_decrements_and_forces_delivery() {
        let m = binary(2, 4, FixLevel::Original)
            .allow_loss(false)
            .allow_crashes(false);
        let s = run(&m, m.initial_states().remove(0), &ROUND_OF_4);
        let s = run(&m, s, &[HbAction::Tick, HbAction::Tick]);
        assert_eq!(s.channel[0].budget, 0);
        assert!(!m.may_tick(&s), "exhausted budget must force delivery");
    }

    #[test]
    fn lose_sets_ghost_flag() {
        let m = binary(2, 4, FixLevel::Original);
        let s = run(&m, m.initial_states().remove(0), &ROUND_OF_4);
        let msg = s.channel[0];
        let s = run(&m, s, &[HbAction::Lose(msg)]);
        assert!(s.lost);
        assert!(s.channel.is_empty());
    }

    #[test]
    fn crash_action_is_monotone() {
        let m = binary(1, 2, FixLevel::Original);
        let s = m.initial_states().remove(0);
        let s = m.next_state(&s, &HbAction::Crash(0)).unwrap();
        assert_eq!(s.coord.status, Status::Crashed);
        assert!(m.next_state(&s, &HbAction::Crash(0)).is_none());
    }

    #[test]
    fn receive_priority_defers_timeout_to_urgent_delivery() {
        // tmin = tmax = 2: the Figure 11/12 tie in miniature.
        let orig = binary(2, 2, FixLevel::Original)
            .allow_loss(false)
            .allow_crashes(false);
        let fixed = binary(2, 2, FixLevel::Full)
            .allow_loss(false)
            .allow_crashes(false);
        // Drive both to a state where a message with budget 0 is queued for
        // p[0] while p[0]'s timeout is due: in `orig` both actions are
        // enabled; in `fixed` only the delivery.
        for (m, expect_timeout) in [(&orig, true), (&fixed, false)] {
            // round 1: wait 2, beat out, deliver instantly, reply queued
            let round = [HbAction::Tick, HbAction::Tick, HbAction::CoordTimeout];
            let s = run(m, m.initial_states().remove(0), &round);
            let s = deliver(m, s, false);
            // let the reply ride for its full budget: 2 ticks to the next
            // coordinator timeout
            let s = run(m, s, &[HbAction::Tick, HbAction::Tick]);
            assert!(m.coord_spec().timeout_due(&s.coord));
            assert_eq!(s.channel[0].budget, 0);
            let mut acts = Vec::new();
            m.actions(&s, &mut acts);
            assert_eq!(
                acts.contains(&HbAction::CoordTimeout),
                expect_timeout,
                "receive-priority mismatch"
            );
        }
    }

    #[test]
    fn join_beats_flow_in_expanding() {
        let m = HbModel::new(
            Variant::Expanding,
            Params::new(2, 4).unwrap(),
            1,
            FixLevel::Original,
        )
        .allow_loss(false)
        .allow_crashes(false);
        // First join send due at tmin = 2.
        let mut s = run(
            &m,
            m.initial_states().remove(0),
            &[HbAction::Tick, HbAction::Tick],
        );
        let mut acts = Vec::new();
        m.actions(&s, &mut acts);
        assert!(acts.contains(&HbAction::JoinSend(1)));
        assert!(!acts.contains(&HbAction::Tick), "join send is urgent");
        s = run(&m, s, &[HbAction::JoinSend(1)]);
        assert_eq!((s.channel[0].src, s.channel[0].dst), (1, 0));
        s = deliver(&m, s, false);
        assert!(s.coord.jnd[0], "join beat must register at p[0]");
        assert!(s.coord.rcvd[0]);
    }

    #[test]
    fn dynamic_leave_round_trip_then_rejoin() {
        use HbAction::{CoordTimeout, JoinSend, Rejoin, Tick};
        for fix in [FixLevel::Original, FixLevel::Full] {
            let m = HbModel::new(Variant::Dynamic, Params::new(2, 4).unwrap(), 1, fix)
                .allow_loss(false)
                .allow_crashes(false)
                .monitor_bound(8)
                .rejoin_cap(1);
            let mut s = m.initial_states().remove(0);
            assert!(!s.monitors[0].armed, "join variants arm on first delivery");
            s = run(&m, s, &[Tick, Tick, JoinSend(1)]);
            s = deliver(&m, s, false);
            assert!(s.monitors[0].armed);
            // p0 timeout broadcasts at t=4; participant replies with a leave
            s = run(&m, s, &[Tick, Tick, CoordTimeout]);
            s = deliver(&m, s, true);
            assert!(s.resps[0].left);
            assert!(!s.channel[0].hb.flag);
            // p0 receives the leave: unjoins, acks, disarms the monitor
            s = deliver(&m, s, false);
            assert!(!s.coord.jnd[0]);
            assert!(!s.monitors[0].armed);
            assert_eq!(s.channel.len(), 1, "leave ack in flight");
            assert!(!s.channel[0].hb.flag);
            // The ack is absorbed. §7: the departed participant comes back
            // as incarnation 1.
            s = deliver(&m, s, false);
            s = run(&m, s, &[Rejoin(1), Tick, Tick, JoinSend(1)]);
            assert_eq!(s.channel[0].hb.epoch, 1, "join beats carry the incarnation");
            s = deliver(&m, s, false);
            // The leave of epoch 0 raised the epoch bar to 1, which the
            // new incarnation clears; the original's latch is permanent.
            assert_eq!(s.coord.jnd[0], fix == FixLevel::Full);
            if fix == FixLevel::Full {
                s = run(&m, s, &[Tick, Tick, CoordTimeout]);
                assert_eq!(s.channel[0].hb.epoch, 1, "p[0] echoes the registered epoch");
                s = deliver(&m, s, false);
                assert!(s.resps[0].joined);
                assert_eq!(s.coord.stale_filtered + s.coord.stale_admitted, 0);
            }
        }
    }

    #[test]
    fn rejoin_is_bounded_by_the_cap() {
        use HbAction::{Crash, Rejoin};
        // Default cap 0: a crash is final, as in both papers.
        let base = binary(2, 4, FixLevel::Full);
        let s = run(&base, base.initial_states().remove(0), &[Crash(1)]);
        assert!(base.next_state(&s, &Rejoin(1)).is_none());
        // Cap 2: two rejoins, each bumping the incarnation, then final.
        let m = base.rejoin_cap(2);
        let mut s = m.initial_states().remove(0);
        assert!(m.next_state(&s, &Rejoin(1)).is_none(), "p[1] is up");
        for epoch in 1..=2 {
            s = run(&m, s, &[Crash(1), Rejoin(1)]);
            assert_eq!(
                (s.resps[0].epoch, s.resps[0].status),
                (epoch, Status::Active)
            );
        }
        s = run(&m, s, &[Crash(1)]);
        let mut acts = Vec::new();
        m.actions(&s, &mut acts);
        assert!(!acts.contains(&Rejoin(1)), "cap reached");
        // A non-voluntary inactivation is the protocol's verdict: final.
        s.resps[0] = m.resp_spec().init_state();
        s.resps[0].status = Status::NvInactive;
        assert!(m.next_state(&s, &Rejoin(1)).is_none());
    }

    #[test]
    fn monitor_counts_and_saturates() {
        let m = binary(1, 2, FixLevel::Original)
            .monitor_bound(4)
            .allow_loss(false);
        let mut s = m.initial_states().remove(0);
        assert!(s.monitors[0].armed, "binary monitors arm at start");
        // crash p1 so nothing ever resets the monitor
        s = m.next_state(&s, &HbAction::Crash(1)).unwrap();
        let mut guard = 0;
        while !m.monitor_error(&s) {
            let mut acts = Vec::new();
            m.actions(&s, &mut acts);
            // pick tick if possible, else the first urgent action
            let a = if acts.contains(&HbAction::Tick) {
                HbAction::Tick
            } else {
                acts.into_iter()
                    .find(|a| !matches!(a, HbAction::Crash(_)))
                    .expect("must have an urgent action")
            };
            // p0 inactivating would end the run; in this tiny instance the
            // monitor errors first (bound 4 < chain start 2+2)
            s = m.next_state(&s, &a).unwrap();
            guard += 1;
            assert!(guard < 50, "monitor never errored");
        }
        assert_eq!(s.monitors[0].since_last, 5); // bound + 1 saturation
    }

    fn hash_of(s: &HbState) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(s)
    }

    #[test]
    fn equal_states_hash_equal_whatever_their_path_or_capacity() {
        use HbAction::{Crash, Deliver};
        let m = HbModel::new(
            Variant::Static,
            Params::new(2, 4).unwrap(),
            3,
            FixLevel::Full,
        )
        .monitor_bound(8);
        let round = run(&m, m.initial_states().remove(0), &ROUND_OF_4);
        assert_eq!(round.channel.len(), 3, "one beat to each participant");
        let beat = |k: usize| Deliver {
            msg: round.channel[k],
            leave: false,
        };
        // Two replies pushed in either order, and two crashes in either
        // order: the same state by four different paths.
        let a = run(&m, round.clone(), &[beat(0), beat(1), Crash(1), Crash(3)]);
        let b = run(&m, round.clone(), &[beat(1), Crash(3), beat(0), Crash(1)]);
        let c = run(&m, round.clone(), &[Crash(3), beat(1), beat(0), Crash(1)]);
        assert_eq!((&a, &a), (&b, &c));
        assert_eq!((hash_of(&a), hash_of(&a)), (hash_of(&b), hash_of(&c)));
        // Spare capacity in every vector is not part of the state.
        let mut roomy = a.clone();
        roomy.channel.reserve(64);
        roomy.resps.reserve(7);
        roomy.monitors.reserve(3);
        for v in [&mut roomy.coord.rcvd, &mut roomy.coord.jnd] {
            v.reserve(11);
        }
        roomy.coord.tm.reserve(5);
        roomy.coord.min_epoch.reserve(2);
        assert_eq!(roomy, a);
        assert_eq!(hash_of(&roomy), hash_of(&a));
        // A different state hashes differently here (not a contract, but
        // a hash that ignored the channel would fail it).
        assert_ne!(hash_of(&round), hash_of(&a));
    }

    #[test]
    fn channel_stays_sorted_and_bounded() {
        let m = binary(1, 3, FixLevel::Original);
        let out = Checker::new(&m).check_invariant(|s| {
            s.channel.windows(2).all(|w| w[0] <= w[1]) && s.channel.len() <= 4
        });
        assert!(out.holds(), "{:?}", out.stats());
    }
}
