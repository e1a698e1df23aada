//! The sans-IO membership machine: one [`MemberNode`] per process.
//!
//! A member node *wraps* the unmodified GM98 state machines
//! ([`CoordSpec`]/[`RespSpec`]) and reinterprets their inactivation
//! verdicts as membership actions:
//!
//! * a **participant watchdog firing** no longer inactivates the
//!   participant — it is the failure detection of the coordinator. The
//!   member of succession rank `r` (rank 0 = lowest live pid) claims the
//!   coordinator seat on its `r + 1`-th consecutive fire, so the first
//!   successor takes over one watchdog period ahead of the second: when
//!   both the coordinator *and* the first successor are dead, rank 1
//!   fires twice and takes over instead, and so on down the line.
//! * the **coordinator's acceleration bottoming out** no longer
//!   inactivates the group — the silent members are declared dead and
//!   *evicted* into the next view.
//!
//! Every view install is broadcast as a wire-v3
//! [`ViewChange`](Frame::ViewChange) frame and judged by
//! [`View::supersedes`]: a process only ever replaces its view with a
//! superseding one, so a deposed coordinator that was merely slow (or
//! partitioned) is *demoted* — it receives a superseding view, becomes a
//! plain participant (or a joiner, if it was evicted) — instead of
//! splitting the group.
//!
//! Rejoin is a state transfer in the Moirai shape: the revived process
//! broadcasts a [`StateRequest`](Frame::StateRequest) carrying its fresh
//! §7 epoch; the coordinator admits it ([`View::admit`]) with the epoch
//! as its min-epoch bar — so stale beats of the superseded incarnation
//! stay filtered — and answers with a [`StateReply`](Frame::StateReply)
//! holding the full view.
//!
//! The machine is sans-IO: inputs are explicit method calls, outputs are
//! `(destination, frame, delay budget)` triples pushed into a caller
//! vector, and observability is [`Event`]s emitted into the caller's
//! [`EventSink`] — the same schema the plain runtimes use, so `hb-monitor`
//! taps work unchanged.
//!
//! The pid ↔ machine-slot mapping: a coordinator for view `v` runs a
//! [`CoordSpec`] with `v.len() - 1` participant slots, slot `k` (1-based)
//! being the `k`-th non-coordinator member of `v` in ascending pid order.
//! For the genesis view (coordinator 0, members `0..=n`) this is the
//! identity, so a fault-free membership run *is* the plain protocol.

use hb_core::coordinator::{CoordReaction, CoordState, TimeoutOutcome};
use hb_core::events::EventSink;
use hb_core::responder::{LeaveDecision, RespState};
use hb_core::serial::serial_bump;
use hb_core::trace::Event;
use hb_core::{CoordSpec, FixLevel, Params, Pid, RespSpec, Slots, Variant, View, MAX_VIEW_MEMBERS};
use hb_net::wire::Frame;

/// An outgoing frame: `(destination, frame, delay budget)`.
pub type Outbound = (Pid, Frame, u32);

/// The protocol cell a membership group runs: variant, timing, fix level.
///
/// The membership layer is variant-generic but meant for the join
/// variants; [`MemberSpec::dynamic_full`] is the §I configuration
/// (dynamic protocol, full Atif–Mousavi fix, §7 epochs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberSpec {
    /// Protocol variant (the two-process variants cap the group at 2).
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level; [`FixLevel::Full`] enables the §7 epoch filtering the
    /// state-transfer bars rely on.
    pub fix: FixLevel,
}

impl MemberSpec {
    /// A spec for the given cell.
    pub fn new(variant: Variant, params: Params, fix: FixLevel) -> Self {
        MemberSpec {
            variant,
            params,
            fix,
        }
    }

    /// The default membership cell: dynamic variant, full fix.
    pub fn dynamic_full(params: Params) -> Self {
        Self::new(Variant::Dynamic, params, FixLevel::Full)
    }

    fn resp_spec(&self) -> RespSpec {
        RespSpec::new(self.variant, self.params, self.fix)
    }

    fn coord_spec(&self, n: usize) -> CoordSpec {
        CoordSpec::new(self.variant, self.params, n, self.fix)
    }
}

/// What a member node currently is, as reported to harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoleKind {
    /// Coordinating the current view.
    Coordinator,
    /// A ranked participant of the current view.
    Participant,
    /// Outside the current view, requesting a state transfer.
    Joiner,
    /// Sole member of its view, periodically probing the universe for a
    /// group to merge with.
    Solo,
    /// Crashed.
    Down,
}

#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
enum Role {
    Coordinator { cs: CoordState },
    Participant { rs: RespState, fires: u32 },
    Joiner { elapsed: u32 },
    Solo { elapsed: u32 },
    Down,
}

/// One process of a membership group.
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub struct MemberNode {
    spec: MemberSpec,
    pid: Pid,
    /// The genesis universe size: pids `0..group` exist. Joiner and Solo
    /// anti-entropy broadcasts target the whole universe, not the
    /// (possibly stale, possibly singleton) current view — that is what
    /// lets fragmented islands find each other again.
    group: usize,
    epoch: u8,
    view: View,
    role: Role,
}

impl MemberNode {
    /// A node of the genesis group `0..group` (pid 0 coordinating).
    ///
    /// # Panics
    ///
    /// Panics if `group` is not in `2..=MAX_VIEW_MEMBERS` or `pid` is out
    /// of range.
    pub fn new(spec: MemberSpec, pid: Pid, group: usize) -> Self {
        assert!(
            (2..=MAX_VIEW_MEMBERS).contains(&group),
            "a membership group needs 2..={MAX_VIEW_MEMBERS} processes"
        );
        assert!(pid < group, "pid {pid} outside the genesis group");
        let view = View::genesis(group - 1);
        let role = if pid == 0 {
            // Genesis coordinator: the plain protocol's initial state
            // (join-variant participants enrol via their join beats).
            Role::Coordinator {
                cs: spec.coord_spec(group - 1).init_state(),
            }
        } else {
            Role::Participant {
                rs: spec.resp_spec().init_state(),
                fires: 0,
            }
        };
        MemberNode {
            spec,
            pid,
            group,
            epoch: 0,
            view,
            role,
        }
    }

    /// This node's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The currently installed view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The node's §7 incarnation.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// What the node currently is.
    pub fn role_kind(&self) -> RoleKind {
        match self.role {
            Role::Coordinator { .. } => RoleKind::Coordinator,
            Role::Participant { .. } => RoleKind::Participant,
            Role::Joiner { .. } => RoleKind::Joiner,
            Role::Solo { .. } => RoleKind::Solo,
            Role::Down => RoleKind::Down,
        }
    }

    /// Whether the node is running (not crashed).
    pub fn is_up(&self) -> bool {
        !matches!(self.role, Role::Down)
    }

    /// Announce the genesis view (emits the `view_no = 0` install event;
    /// call once at time zero).
    pub fn start(&mut self, sink: &mut EventSink) {
        sink.emit(&Event::ViewChange {
            at: 0,
            pid: self.pid,
            view_no: self.view.view_no,
            coordinator: self.view.coordinator,
        });
    }

    /// The non-coordinator members of `view`, ascending: slot `k`
    /// (1-based) of the wrapped coordinator machine is `slots[k-1]`. Only a
    /// coordinator's paths build them.
    fn slots(view: &View) -> Slots<Pid, MAX_VIEW_MEMBERS> {
        let coordinator = view.coordinator;
        view.members().filter(|&p| p != coordinator).collect()
    }

    /// Whether an urgent machine event is due (the harness must call
    /// [`fire`](Self::fire) before letting time pass).
    pub fn urgent(&self) -> bool {
        match &self.role {
            Role::Coordinator { cs } => self.spec.coord_spec(self.view.len() - 1).timeout_due(cs),
            Role::Participant { rs, .. } => {
                let sp = self.spec.resp_spec();
                sp.watchdog_due(rs) || sp.join_send_due(rs)
            }
            Role::Joiner { elapsed } => *elapsed >= self.spec.params.tmin(),
            Role::Solo { elapsed } => *elapsed >= self.spec.params.tmax(),
            Role::Down => false,
        }
    }

    /// Fire one due machine event. Call repeatedly while
    /// [`urgent`](Self::urgent).
    pub fn fire(&mut self, now: u64, sink: &mut EventSink, out: &mut Vec<Outbound>) {
        enum Act {
            None,
            Evict(Vec<Pid>),
            Takeover,
            RequestState,
            Probe,
        }
        let pid = self.pid;
        let fresh = self.spec.params.tmin();
        let tmin = self.spec.params.tmin();
        let mut act = Act::None;
        match &mut self.role {
            Role::Coordinator { cs } => {
                let slots = Self::slots(&self.view);
                let cspec = self.spec.coord_spec(slots.len());
                if !cspec.timeout_due(cs) {
                    return;
                }
                // The slots whose acceleration has bottomed out — exactly
                // the condition under which the plain coordinator would
                // inactivate the whole group. The membership layer reads
                // it as "these members are dead" and evicts them instead.
                let bottomed: Vec<Pid> = slots
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| cs.jnd[k] && !cs.rcvd[k] && Params::halve(cs.tm[k]) < tmin)
                    .map(|(_, &p)| p)
                    .collect();
                if bottomed.is_empty() {
                    sink.emit(&Event::Timeout { at: now, pid });
                    match cspec.on_timeout(cs) {
                        TimeoutOutcome::Beat => {
                            for r in cspec.recipients(cs) {
                                let beat = Frame::beat(pid, cspec.beat_for(cs, r));
                                out.push((slots[r - 1], beat, fresh));
                            }
                        }
                        TimeoutOutcome::Inactivated => {
                            unreachable!("bottomed slots were pre-computed empty")
                        }
                    }
                } else {
                    act = Act::Evict(bottomed);
                }
            }
            Role::Participant { rs, fires } => {
                let rspec = self.spec.resp_spec();
                if rspec.watchdog_due(rs) {
                    // Coordinator silence: restart the watchdog and,
                    // once this member's succession turn has come, claim
                    // the seat.
                    *fires += 1;
                    rs.waiting = 0;
                    #[expect(
                        clippy::expect_used,
                        reason = "install seats a participant only in a view that lists it and another coordinator"
                    )]
                    let rank = self
                        .view
                        .succession_rank(pid)
                        .expect("a participant is a ranked member");
                    if *fires as usize > rank {
                        act = Act::Takeover;
                    }
                } else if rspec.join_send_due(rs) {
                    let hb = rspec.on_join_send(rs);
                    out.push((self.view.coordinator, Frame::beat(pid, hb), fresh));
                } else {
                    return;
                }
            }
            Role::Joiner { elapsed } => {
                if *elapsed < tmin {
                    return;
                }
                *elapsed = 0;
                act = Act::RequestState;
            }
            Role::Solo { elapsed } => {
                if *elapsed < self.spec.params.tmax() {
                    return;
                }
                *elapsed = 0;
                act = Act::Probe;
            }
            Role::Down => return,
        }
        match act {
            Act::None => {}
            Act::Evict(dead) => {
                let mut v = self.view;
                for d in dead {
                    v = v.evict(d, pid);
                }
                self.install(v, None, now, sink, out);
                self.broadcast_view(out);
            }
            Act::Takeover => {
                let v = self.view.evict(self.view.coordinator, pid);
                self.install(v, None, now, sink, out);
                self.broadcast_view(out);
            }
            Act::RequestState => self.push_state_request(out),
            Act::Probe => {
                // Anti-entropy: tell the whole universe who we think we
                // are. Any process with a superseding view answers with
                // it (demoting us to a joiner of the larger group); any
                // process we supersede installs ours and rejoins us.
                let f = Frame::view_change(pid, self.view);
                for p in 0..self.group {
                    if p != pid {
                        out.push((p, f, fresh));
                    }
                }
            }
        }
    }

    /// Handle one delivered frame. `reply_budget` is the round-trip
    /// budget left at delivery; immediate replies ride on it, exactly as
    /// in the plain runtimes.
    pub fn on_frame(
        &mut self,
        now: u64,
        frame: Frame,
        reply_budget: u32,
        sink: &mut EventSink,
        out: &mut Vec<Outbound>,
    ) {
        if matches!(self.role, Role::Down) {
            // Messages to crashed processes are delivered but get no
            // reply (the paper's crash model).
            return;
        }
        let pid = self.pid;
        let fresh = self.spec.params.tmin();
        match frame {
            Frame::Beat { src, hb } => {
                let mut reassert = false;
                match &mut self.role {
                    Role::Coordinator { cs } => {
                        let slots = Self::slots(&self.view);
                        if let Some(k) = slots.iter().position(|&p| p == src) {
                            let cspec = self.spec.coord_spec(slots.len());
                            match cspec.on_heartbeat(cs, k + 1, hb) {
                                CoordReaction::LeaveAck(slot, ack) => {
                                    out.push((
                                        slots[slot - 1],
                                        Frame::beat(pid, ack),
                                        reply_budget,
                                    ));
                                }
                                CoordReaction::None => {}
                            }
                        } else {
                            reassert = true;
                        }
                    }
                    Role::Participant { rs, fires } => {
                        if src == self.view.coordinator {
                            let rspec = self.spec.resp_spec();
                            if let Some(reply) = rspec.on_beat(rs, hb, LeaveDecision::Stay) {
                                *fires = 0;
                                out.push((src, Frame::beat(pid, reply), reply_budget));
                            }
                        } else {
                            reassert = true;
                        }
                    }
                    Role::Solo { .. } => reassert = true,
                    Role::Joiner { .. } => {} // no standing in the group yet
                    Role::Down => unreachable!(),
                }
                // A beat from outside the view (or from a deposed
                // coordinator still beating) means the sender's view is
                // stale: demote it by re-asserting ours.
                if reassert {
                    out.push((src, Frame::view_change(pid, self.view), fresh));
                }
            }
            Frame::ViewChange { src, view } | Frame::StateReply { src, view } => {
                if view.supersedes(&self.view) {
                    self.install(view, None, now, sink, out);
                } else if self.view.supersedes(&view) {
                    out.push((src, Frame::view_change(pid, self.view), fresh));
                }
                // Equal views: already agreed, nothing to say.
            }
            Frame::StateRequest {
                src,
                epoch,
                view_no: _,
            } => {
                if !matches!(self.role, Role::Coordinator { .. } | Role::Solo { .. }) {
                    return; // the coordinator answers state requests
                }
                if self.view.contains(src) && self.view.bar_of(src) == Some(epoch) {
                    // A resend of a request already admitted: answer with
                    // the current view without burning a view number.
                    sink.emit(&Event::StateTransfer {
                        at: now,
                        from: pid,
                        to: src,
                        view_no: self.view.view_no,
                    });
                    out.push((src, Frame::state_reply(pid, self.view), fresh));
                } else {
                    let v = self.view.admit(src, epoch);
                    self.install(v, Some(src), now, sink, out);
                    sink.emit(&Event::StateTransfer {
                        at: now,
                        from: pid,
                        to: src,
                        view_no: v.view_no,
                    });
                    out.push((src, Frame::state_reply(pid, v), fresh));
                    self.broadcast_view_except(out, src);
                }
            }
            Frame::Control { .. } => {} // injection traffic is the harness's hand
        }
    }

    /// Advance one time unit.
    pub fn tick(&mut self) {
        self.advance(1);
    }

    /// Time until [`urgent`](Self::urgent) turns true by the clock alone
    /// (`Some(0)`: it is now); `None` while crashed.
    pub(crate) fn next_event_in(&self) -> Option<u32> {
        let spec = self.spec;
        match &self.role {
            Role::Coordinator { cs } => spec.coord_spec(self.view.len() - 1).next_timeout_in(cs),
            Role::Participant { rs, .. } => spec.resp_spec().next_event_in(rs),
            Role::Joiner { elapsed } => Some(spec.params.tmin().saturating_sub(*elapsed)),
            Role::Solo { elapsed } => Some(spec.params.tmax().saturating_sub(*elapsed)),
            Role::Down => None,
        }
    }

    /// Advance `k` time units at once, none of them past
    /// [`next_event_in`](Self::next_event_in).
    pub(crate) fn advance(&mut self, k: u32) {
        match &mut self.role {
            Role::Coordinator { cs } => {
                self.spec.coord_spec(self.view.len() - 1).advance(cs, k);
            }
            Role::Participant { rs, .. } => self.spec.resp_spec().advance(rs, k),
            Role::Joiner { elapsed } | Role::Solo { elapsed } => *elapsed += k,
            Role::Down => {}
        }
    }

    /// Crash the node (idempotent).
    pub fn crash(&mut self, now: u64, sink: &mut EventSink) {
        if matches!(self.role, Role::Down) {
            return;
        }
        self.role = Role::Down;
        sink.emit(&Event::Crash {
            at: now,
            pid: self.pid,
        });
    }

    /// Restart a crashed node: the next §7 incarnation, immediately
    /// requesting a state transfer from whoever now coordinates.
    pub fn revive(&mut self, now: u64, sink: &mut EventSink, out: &mut Vec<Outbound>) {
        if !matches!(self.role, Role::Down) {
            return;
        }
        self.epoch = serial_bump(self.epoch);
        sink.emit(&Event::Revive {
            at: now,
            pid: self.pid,
        });
        self.role = Role::Joiner { elapsed: 0 };
        self.push_state_request(out);
    }

    /// Install `v` and re-seat this node's role in it. `joiner` marks a
    /// freshly admitted member (its slot starts un-joined in the join
    /// variants, so the §5 join handshake re-registers it).
    fn install(
        &mut self,
        v: View,
        joiner: Option<Pid>,
        now: u64,
        sink: &mut EventSink,
        out: &mut Vec<Outbound>,
    ) {
        self.view = v;
        sink.emit(&Event::ViewChange {
            at: now,
            pid: self.pid,
            view_no: v.view_no,
            coordinator: v.coordinator,
        });
        if !v.contains(self.pid) {
            // Evicted (e.g. a falsely suspected, now deposed
            // coordinator): fall back to a state transfer.
            self.role = Role::Joiner { elapsed: 0 };
            self.push_state_request(out);
        } else if v.coordinator == self.pid {
            self.seat_coordinator(joiner);
        } else if let Role::Participant { fires, .. } = &mut self.role {
            // Already a participant: the watchdog keeps running across
            // the install (the new coordinator's first beat resets it).
            *fires = 0;
        } else {
            // Demoted ex-coordinator or admitted joiner: a fresh
            // participant of the current incarnation.
            let mut rs = self.spec.resp_spec().init_state();
            rs.epoch = self.epoch;
            self.role = Role::Participant { rs, fires: 0 };
        }
    }

    /// Become the coordinator of the current view: a fresh machine whose
    /// slots inherit the view's §7 bars, with every carried member
    /// already joined (`joiner` excepted) and the first broadcast due
    /// immediately.
    fn seat_coordinator(&mut self, joiner: Option<Pid>) {
        let slots = Self::slots(&self.view);
        if slots.is_empty() {
            // Alone: start probing for other islands right away.
            self.role = Role::Solo {
                elapsed: self.spec.params.tmax(),
            };
            return;
        }
        let cspec = self.spec.coord_spec(slots.len());
        let mut cs = cspec.init_state();
        let join_variant = self.spec.variant.has_join_phase();
        for (k, &p) in slots.iter().enumerate() {
            #[expect(clippy::expect_used, reason = "slots lists members of the view")]
            let bar = self.view.bar_of(p).expect("slot is a member");
            cs.min_epoch[k] = bar;
            cs.jnd[k] = !join_variant || Some(p) != joiner;
        }
        cs.elapsed = cs.t; // first beat goes out now
        self.role = Role::Coordinator { cs };
    }

    /// Broadcast the current view to every other member.
    fn broadcast_view(&self, out: &mut Vec<Outbound>) {
        self.broadcast_view_except(out, self.pid);
    }

    /// Broadcast the current view to every member other than this node
    /// and `skip` (who is answered separately).
    fn broadcast_view_except(&self, out: &mut Vec<Outbound>, skip: Pid) {
        let f = Frame::view_change(self.pid, self.view);
        for p in self.view.members() {
            if p != self.pid && p != skip {
                out.push((p, f, self.spec.params.tmin()));
            }
        }
    }

    /// Broadcast a state request to the whole universe: after an absence
    /// our view is stale (and may be a singleton), so we cannot know who
    /// coordinates now — but whoever does is among `0..group` and only
    /// the coordinator answers.
    fn push_state_request(&self, out: &mut Vec<Outbound>) {
        let f = Frame::state_request(self.pid, self.epoch, self.view.view_no);
        for p in 0..self.group {
            if p != self.pid {
                out.push((p, f, self.spec.params.tmin()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::Heartbeat;

    fn spec() -> MemberSpec {
        MemberSpec::dynamic_full(Params::new(2, 8).unwrap())
    }

    fn sink() -> EventSink {
        EventSink::memory()
    }

    /// Drive a node's time forward one unit, firing anything urgent first.
    fn advance(n: &mut MemberNode, now: u64, s: &mut EventSink, out: &mut Vec<Outbound>) {
        while n.urgent() {
            n.fire(now, s, out);
        }
        n.tick();
    }

    #[test]
    fn genesis_reduces_to_the_plain_protocol() {
        let mut c = MemberNode::new(spec(), 0, 4);
        let mut s = sink();
        let mut out = Vec::new();
        c.start(&mut s);
        // Dynamic coordinator: first broadcast at tmax, to nobody (no one
        // has joined yet).
        for t in 0..=8 {
            advance(&mut c, t, &mut s, &mut out);
        }
        assert!(out.is_empty(), "no joined participants to beat");
        // A join beat enrols pid 2 in slot 2 (identity mapping).
        c.on_frame(9, Frame::beat(2, Heartbeat::plain()), 0, &mut s, &mut out);
        for t in 9..=17 {
            advance(&mut c, t, &mut s, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2, "slot 2 maps back to pid 2");
    }

    #[test]
    fn rank_zero_takes_over_on_first_fire_rank_one_on_second() {
        let mut p1 = MemberNode::new(spec(), 1, 4);
        let mut p2 = MemberNode::new(spec(), 2, 4);
        let mut s = sink();
        let mut out = Vec::new();
        // Join both, then let the coordinator fall silent.
        p1.on_frame(0, Frame::beat(0, Heartbeat::plain()), 0, &mut s, &mut out);
        p2.on_frame(0, Frame::beat(0, Heartbeat::plain()), 0, &mut s, &mut out);
        out.clear();
        let bound = RespSpec::new(Variant::Dynamic, Params::new(2, 8).unwrap(), FixLevel::Full)
            .watchdog_bound();
        let mut t = 0;
        for _ in 0..=bound {
            advance(&mut p1, t, &mut s, &mut out);
            advance(&mut p2, t, &mut s, &mut out);
            t += 1;
        }
        // Rank 0 (pid 1) has claimed the seat and broadcast its view.
        assert_eq!(p1.role_kind(), RoleKind::Coordinator);
        assert_eq!(p1.view().coordinator, 1);
        assert_eq!(p1.view().view_no, 1);
        assert!(!p1.view().contains(0), "the dead coordinator is evicted");
        // Rank 1 (pid 2) restarted its watchdog instead.
        assert_eq!(p2.role_kind(), RoleKind::Participant);
        assert_eq!(p2.view().view_no, 0);
        // Another full bound of silence and pid 2 gives up on pid 1 too.
        for _ in 0..=bound {
            advance(&mut p2, t, &mut s, &mut out);
            t += 1;
        }
        assert_eq!(p2.role_kind(), RoleKind::Coordinator);
        assert_eq!(p2.view().coordinator, 2);
        assert_eq!(
            p2.view().members().collect::<Vec<_>>(),
            vec![1, 2, 3],
            "pid 2 only knows the old coordinator is dead"
        );
        // The rival same-numbered views resolve by the tie-break: the
        // lower coordinator's wins, so pid 2 would be demoted on contact.
        assert!(p1.view().supersedes(&p2.view()));
        assert!(!p2.view().supersedes(&p1.view()));
    }

    #[test]
    fn superseding_view_demotes_a_stale_coordinator() {
        let mut old = MemberNode::new(spec(), 0, 4);
        let mut s = sink();
        let mut out = Vec::new();
        let newer = View::genesis(3).evict(0, 1).admit(0, 0);
        old.on_frame(50, Frame::view_change(1, newer), 0, &mut s, &mut out);
        assert_eq!(old.role_kind(), RoleKind::Participant);
        assert_eq!(old.view().coordinator, 1);
        // ...and a view it supersedes is answered with a re-assert.
        out.clear();
        old.on_frame(
            51,
            Frame::view_change(3, View::genesis(3)),
            0,
            &mut s,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Frame::ViewChange { src: 0, .. }));
    }

    #[test]
    fn eviction_makes_the_node_request_state() {
        let mut node = MemberNode::new(spec(), 2, 4);
        let mut s = sink();
        let mut out = Vec::new();
        let without_me = View::genesis(3).evict(2, 0);
        node.on_frame(9, Frame::view_change(0, without_me), 0, &mut s, &mut out);
        assert_eq!(node.role_kind(), RoleKind::Joiner);
        let reqs: Vec<_> = out
            .iter()
            .filter(|(_, f, _)| matches!(f, Frame::StateRequest { src: 2, .. }))
            .collect();
        assert_eq!(reqs.len(), 3, "state request broadcast to the old view");
    }

    #[test]
    fn coordinator_admits_a_requester_and_transfers_state() {
        let mut c = MemberNode::new(spec(), 1, 4);
        let mut s = sink();
        let mut out = Vec::new();
        // Seat pid 1 as coordinator of {1, 2, 3}.
        let v = View::genesis(3).evict(0, 1);
        c.on_frame(30, Frame::view_change(1, v), 0, &mut s, &mut out);
        assert_eq!(c.role_kind(), RoleKind::Coordinator);
        out.clear();
        // Pid 0's next incarnation requests readmission.
        c.on_frame(40, Frame::state_request(0, 1, 0), 0, &mut s, &mut out);
        assert!(c.view().contains(0));
        assert_eq!(c.view().bar_of(0), Some(1), "bar set to the new epoch");
        assert_eq!(c.view().coordinator, 1, "admission does not re-seat");
        let reply = out
            .iter()
            .find(|(d, f, _)| *d == 0 && matches!(f, Frame::StateReply { .. }))
            .expect("state reply to the joiner");
        if let Frame::StateReply { view, .. } = reply.1 {
            assert!(view.contains(0));
        }
        // The other members got the new view.
        assert!(out
            .iter()
            .any(|(d, f, _)| *d == 2 && matches!(f, Frame::ViewChange { .. })));
        assert!(out
            .iter()
            .any(|(d, f, _)| *d == 3 && matches!(f, Frame::ViewChange { .. })));
        // A resend of the same request is answered without a new view.
        let burned = c.view().view_no;
        out.clear();
        c.on_frame(41, Frame::state_request(0, 1, 0), 0, &mut s, &mut out);
        assert_eq!(c.view().view_no, burned, "duplicate admit burns no number");
        assert_eq!(out.len(), 1, "just the state reply");
    }

    #[test]
    fn revive_bumps_the_epoch_and_requests_state() {
        let mut node = MemberNode::new(spec(), 0, 3);
        let mut s = sink();
        let mut out = Vec::new();
        node.crash(10, &mut s);
        assert_eq!(node.role_kind(), RoleKind::Down);
        node.revive(20, &mut s, &mut out);
        assert_eq!(node.epoch(), 1);
        assert_eq!(node.role_kind(), RoleKind::Joiner);
        assert_eq!(out.len(), 2, "requests to the two other processes");
        let log = s.take_log();
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, Event::Revive { at: 20, pid: 0 })));
    }

    #[test]
    fn takeover_to_an_empty_succession_goes_solo() {
        let mut p1 = MemberNode::new(spec(), 1, 2);
        let mut s = sink();
        let mut out = Vec::new();
        p1.on_frame(0, Frame::beat(0, Heartbeat::plain()), 0, &mut s, &mut out);
        let bound = RespSpec::new(Variant::Dynamic, Params::new(2, 8).unwrap(), FixLevel::Full)
            .watchdog_bound();
        for t in 0..=bound {
            advance(&mut p1, u64::from(t), &mut s, &mut out);
        }
        assert_eq!(p1.role_kind(), RoleKind::Solo);
        assert_eq!(p1.view().members().collect::<Vec<_>>(), vec![1]);
    }

    proptest::proptest! {
        /// `advance(k)` is `tick` k times and `next_event_in` is exact —
        /// `urgent` turns true on that tick and no sooner, `None` means
        /// time changes nothing — from each of the five roles and
        /// wherever random ticks, firings, frames, crashes and revivals
        /// take the node from there.
        #[test]
        fn advance_is_tick_k_times_in_every_role(
            role in 0usize..5,
            stims in proptest::prop::collection::vec((0u8..5, 0u8..24), 0..30),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut s = sink();
            let mut out = Vec::new();
            let mut node = MemberNode::new(spec(), if role == 0 { 0 } else { 2 }, 4);
            let evicted = View::genesis(3).evict(2, 0);
            match role {
                0 => prop_assert_eq!(node.role_kind(), RoleKind::Coordinator),
                1 => prop_assert_eq!(node.role_kind(), RoleKind::Participant),
                2 => {
                    node.on_frame(5, Frame::view_change(0, evicted), 0, &mut s, &mut out);
                    prop_assert_eq!(node.role_kind(), RoleKind::Joiner);
                }
                3 => {
                    let alone = View::new(1, 2, &[(2, 0)]);
                    node.on_frame(5, Frame::view_change(2, alone), 0, &mut s, &mut out);
                    prop_assert_eq!(node.role_kind(), RoleKind::Solo);
                }
                _ => node.crash(5, &mut s),
            }
            for (kind, arg) in stims {
                match kind {
                    0 => {
                        for _ in 0..arg {
                            while node.urgent() {
                                node.fire(9, &mut s, &mut out);
                            }
                            node.tick();
                        }
                    }
                    1 => {
                        let src = usize::from(arg) % 4;
                        node.on_frame(9, Frame::beat(src, Heartbeat::plain()), 2, &mut s, &mut out);
                    }
                    2 => node.on_frame(9, Frame::view_change(0, evicted), 0, &mut s, &mut out),
                    3 => node.crash(9, &mut s),
                    _ => node.revive(9, &mut s, &mut out),
                }
                out.clear();
                let Some(due_in) = node.next_event_in() else {
                    let mut later = node.clone();
                    later.advance(1_000);
                    prop_assert_eq!(&later, &node);
                    prop_assert!(!node.urgent());
                    continue;
                };
                let mut ticked = node.clone();
                for k in 0..=due_in {
                    let mut jumped = node.clone();
                    jumped.advance(k);
                    prop_assert_eq!(&jumped, &ticked);
                    prop_assert_eq!(ticked.urgent(), k == due_in);
                    if k < due_in {
                        ticked.tick();
                    }
                }
            }
        }
    }

    #[test]
    fn beats_from_outside_the_view_are_answered_with_the_view() {
        let mut p2 = MemberNode::new(spec(), 2, 4);
        let mut s = sink();
        let mut out = Vec::new();
        let v = View::genesis(3).evict(0, 1);
        p2.on_frame(30, Frame::view_change(1, v), 0, &mut s, &mut out);
        out.clear();
        // The deposed coordinator 0 still beats: demote it.
        p2.on_frame(31, Frame::beat(0, Heartbeat::plain()), 0, &mut s, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        assert!(matches!(out[0].1, Frame::ViewChange { src: 2, .. }));
    }
}
