//! The deadline-driven event loop running one `hb-core` machine live.
//!
//! A [`NodeRuntime`] wraps either a coordinator ([`CoordSpec`]) or a
//! participant ([`RespSpec`]) — the *unmodified* sans-IO state machines —
//! and turns their clocks and deadlines into a real event loop over a
//! [`Transport`]. How the machine reacts to each event is
//! [`hb_core::react`], shared with the simulator and the model checker;
//! the node's effects are the transport, its [`Counters`] and its sink.
//! The node decides when each reaction runs:
//!
//! * **Time** advances in unit ticks. [`NodeRuntime::poll`] catches the
//!   machine up to an externally supplied tick, firing every due event at
//!   the tick where it became due — so event timestamps are exact even
//!   when a thread wakes late. Each tick is drained exactly once, after
//!   the clocks reach it: a message handed over at tick *t* is handled at
//!   *t*, as in the simulator. Polling the current tick again only drains
//!   (that is how same-tick reply chains and wake-ups are served).
//! * **Ordering** within a tick honours the fix level: under the §6.1
//!   receive-priority fix ([`FixLevel::receive_priority`]) every
//!   deliverable message is drained before a simultaneous timeout may
//!   fire; under the original semantics the due timeout fires first —
//!   deterministically exposing the race the fix repairs.
//! * **Sleeping**: [`NodeRuntime::next_deadline`] reports the next tick at
//!   which the machine can possibly act ([`CoordSpec::next_timeout_in`] /
//!   [`RespSpec::next_event_in`]), and [`NodeRuntime::run`] blocks on the
//!   transport until that deadline or an arrival — no busy polling. A
//!   frame that arrived while the node slept is stamped at the first tick
//!   after the one it went to sleep in (or at that tick, if the clock has
//!   not moved), never back-dated to a tick the node has already left.
//!   [`VirtualCluster`](crate::cluster::VirtualCluster) sleeps the same
//!   way under virtual time: it knows every queue, so it leaves a node be
//!   until something is due, then jumps its clock over the rest (`skip_to`).
//!
//! Fault injection and lifecycle are driven over the wire by control
//! frames ([`crate::wire::Command`]): `Crash` voluntarily inactivates the
//! node (it keeps consuming messages silently, as the paper's crashed
//! processes do), `Leave` schedules a dynamic-protocol leave, `Revive`
//! restarts a crashed participant with a fresh epoch (§7 rejoin),
//! `Shutdown` stops the run loop.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::react::{self, Effects};
use hb_core::responder::{RespSpec, RespState};
use hb_core::trace::{Event, EventLog};
use hb_core::{FixLevel, Heartbeat, Pid, Status};

use crate::events::{Counters, EventSink};
use crate::time::{Time, WallClock};
use crate::transport::{Recv, Transport};
use crate::wire::{Command, Frame};

/// Which machine a runtime hosts.
#[derive(Clone)]
enum Role {
    Coordinator {
        spec: CoordSpec,
        state: CoordState,
    },
    Participant {
        spec: RespSpec,
        state: RespState,
        /// Leave at the first beat answered at or after this tick.
        leave_after: Option<Time>,
    },
}

/// Everything a finished node hands back for reporting.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's pid.
    pub pid: Pid,
    /// Final liveness status.
    pub status: Status,
    /// Whether the node left gracefully (dynamic participants).
    pub left: bool,
    /// The node's local tick when it stopped.
    pub now: Time,
    /// Counters.
    pub counters: Counters,
    /// The in-memory event log (empty unless a memory sink was attached;
    /// a cluster node's is its share of the cluster's log).
    pub log: EventLog,
}

/// A live runtime for one heartbeat process.
pub struct NodeRuntime<T: Transport> {
    pid: Pid,
    role: Role,
    pub(crate) transport: T,
    fix: FixLevel,
    local_now: Time,
    shutdown: bool,
    /// Counters (always on).
    pub counters: Counters,
    sink: EventSink,
}

/// A node's effects for one reaction, at its tick. A failed send ends
/// the reaction's sending, and the node returns the error.
struct Io<'a, T> {
    now: Time,
    transport: &'a mut T,
    counters: &'a mut Counters,
    sink: &'a mut EventSink,
    sent: io::Result<()>,
}

impl<T: Transport> Effects for Io<'_, T> {
    fn send(&mut self, from: Pid, to: Pid, hb: Heartbeat, budget: u32) {
        if self.sent.is_err() {
            return;
        }
        let frame = Frame::beat(from, hb);
        self.sent = self.transport.send(self.now, to, &frame, budget);
        if self.sent.is_ok() {
            self.counters.beats_sent += 1;
            let at = self.now;
            self.record(&Event::Send { at, from, to, hb });
        }
    }

    fn emit(&mut self, e: &Event) {
        let c = &mut *self.counters;
        match e {
            Event::Leave { .. } => c.leaves += 1,
            Event::Revive { .. } => c.revives += 1,
            _ => {}
        }
        self.record(e);
    }
}

impl<T: Transport> Io<'_, T> {
    /// Hand `e` to the transport's tap site if it has one (a cluster
    /// node's: the cluster's), else to the node's own sink.
    #[inline]
    fn record(&mut self, e: &Event) {
        match self.transport.tap() {
            Some(site) => site.emit(e),
            None => self.sink.emit(e),
        }
    }
}

impl<T: Transport> NodeRuntime<T> {
    /// A runtime hosting the coordinator `p[0]`.
    pub fn coordinator(spec: CoordSpec, transport: T) -> Self {
        NodeRuntime {
            pid: 0,
            fix: spec.fix(),
            role: Role::Coordinator {
                state: spec.init_state(),
                spec,
            },
            transport,
            local_now: 0,
            shutdown: false,
            counters: Counters::default(),
            sink: EventSink::disabled(),
        }
    }

    /// A runtime hosting participant `pid` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is 0.
    pub fn participant(pid: Pid, spec: RespSpec, transport: T) -> Self {
        assert!(pid >= 1, "participants are numbered from 1");
        NodeRuntime {
            pid,
            fix: spec.fix(),
            role: Role::Participant {
                state: spec.init_state(),
                spec,
                leave_after: None,
            },
            transport,
            local_now: 0,
            shutdown: false,
            counters: Counters::default(),
            sink: EventSink::disabled(),
        }
    }

    /// Attach an event sink.
    pub fn with_sink(mut self, sink: EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attach a live [`EventTap`](crate::events::EventTap) — e.g. a
    /// streaming requirement monitor — to this node's sink. Composes
    /// with [`with_sink`](Self::with_sink) and works on a disabled sink.
    /// Several node threads may share one. A node whose transport has a
    /// tap site ([`Transport::tap`]) emits there instead, so it never
    /// reaches this sink.
    pub fn attach_tap(&mut self, tap: crate::events::SharedTap) {
        self.sink.attach_owned_tap(Box::new(tap));
    }

    /// A copy on `transport` for a forked cluster; `None` if the sink
    /// cannot fork ([`EventSink::fork`]).
    pub(crate) fn fork_onto(&self, transport: T) -> Option<Self> {
        Some(NodeRuntime {
            role: self.role.clone(),
            transport,
            sink: self.sink.fork()?,
            ..*self
        })
    }

    /// Start the node's clocks at tick `t` instead of 0 (late joiners).
    pub fn started_at(mut self, t: Time) -> Self {
        self.local_now = t;
        self
    }

    /// This node's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The machine's current liveness status.
    pub fn status(&self) -> Status {
        match &self.role {
            Role::Coordinator { state, .. } => state.status,
            Role::Participant { state, .. } => state.status,
        }
    }

    /// Whether a dynamic participant has left for good.
    pub fn left(&self) -> bool {
        match &self.role {
            Role::Coordinator { .. } => false,
            Role::Participant { state, .. } => state.left,
        }
    }

    /// The node's local tick (how far it has caught up).
    pub fn now(&self) -> Time {
        self.local_now
    }

    /// A participant's current epoch (its incarnation number); `0` for
    /// the coordinator.
    pub fn epoch(&self) -> u8 {
        match &self.role {
            Role::Coordinator { .. } => 0,
            Role::Participant { state, .. } => state.epoch,
        }
    }

    /// Whether a participant has (observed that it has) joined the
    /// round; the coordinator counts as always joined.
    pub fn joined(&self) -> bool {
        match &self.role {
            Role::Coordinator { .. } => true,
            Role::Participant { state, .. } => state.joined,
        }
    }

    /// The epoch the coordinator has registered for participant `pid`
    /// (`None` on participants or out-of-range pids).
    pub fn registered_epoch(&self, pid: Pid) -> Option<u8> {
        match &self.role {
            Role::Coordinator { spec, state } if (1..=spec.n()).contains(&pid) => {
                Some(state.min_epoch[pid - 1])
            }
            _ => None,
        }
    }

    /// `(admitted, filtered)` stale-beat counts observed by a
    /// coordinator; `(0, 0)` on participants.
    pub fn stale_beats(&self) -> (u32, u32) {
        match &self.role {
            Role::Coordinator { state, .. } => (state.stale_admitted, state.stale_filtered),
            Role::Participant { .. } => (0, 0),
        }
    }

    /// Whether the run loop is done: shut down, protocol-inactivated, or
    /// left. A *crashed* node is not halted — like the paper's crashed
    /// processes it keeps consuming messages silently until shut down.
    pub fn halted(&self) -> bool {
        self.shutdown || self.status() == Status::NvInactive || self.left()
    }

    /// The next tick at which this machine can act on its own, if any.
    pub fn next_deadline(&self) -> Option<Time> {
        let remaining = match &self.role {
            Role::Coordinator { spec, state } => spec.next_timeout_in(state),
            Role::Participant { spec, state, .. } => spec.next_event_in(state),
        }?;
        Some(self.local_now + Time::from(remaining))
    }

    /// Catch the machine up to tick `now`: advance its clocks one tick at
    /// a time and, at each tick reached, fire everything due (messages
    /// and timeouts, ordered per the fix level). Already at `now`, drain
    /// it again — every tick is drained at its own time and no other.
    pub fn poll(&mut self, now: Time) -> io::Result<()> {
        if self.local_now >= now {
            return self.drain_instant();
        }
        while self.local_now < now {
            match &mut self.role {
                Role::Coordinator { spec, state } => spec.tick(state),
                Role::Participant { spec, state, .. } => spec.tick(state),
            }
            self.local_now += 1;
            self.drain_instant()?;
        }
        Ok(())
    }

    /// Move the clocks straight to tick `t` (no-op at or past it),
    /// draining nothing: all [`poll`](Self::poll) comes to when, as the
    /// caller vouches, [`next_deadline`](Self::next_deadline) is later
    /// than `t` and no frame for this node falls due in `(now, t]`.
    pub(crate) fn skip_to(&mut self, t: Time) {
        // Further than a `u32` only a frozen machine can be asked to go,
        // and it ignores the amount.
        let idle = u32::try_from(t.saturating_sub(self.local_now)).unwrap_or(u32::MAX);
        match &mut self.role {
            Role::Coordinator { spec, state } => spec.advance(state, idle),
            Role::Participant { spec, state, .. } => spec.advance(state, idle),
        }
        self.local_now = self.local_now.max(t);
    }

    /// Process every event due at the current tick until quiescent.
    fn drain_instant(&mut self) -> io::Result<()> {
        loop {
            let mut progressed = false;
            if self.fix.receive_priority() {
                // §6.1: while anything is deliverable, timeouts wait. Only
                // a timeout that fired calls for another round: the
                // transport came back empty just now.
                while let Some(rcv) = self.transport.try_recv(self.local_now)? {
                    self.on_frame(rcv)?;
                }
                progressed = self.fire_due()?;
            } else {
                // Original semantics, worst case: a due timeout beats a
                // simultaneously deliverable message.
                progressed |= self.fire_due()?;
                if let Some(rcv) = self.transport.try_recv(self.local_now)? {
                    self.on_frame(rcv)?;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// The hosted machine, and the effects of its reactions now.
    fn split(&mut self) -> (&mut Role, Io<'_, T>) {
        let io = Io {
            now: self.local_now,
            transport: &mut self.transport,
            counters: &mut self.counters,
            sink: &mut self.sink,
            sent: Ok(()),
        };
        (&mut self.role, io)
    }

    /// Fire one round of due urgent events. Returns whether anything
    /// fired.
    fn fire_due(&mut self) -> io::Result<bool> {
        let (pid, now) = (self.pid, self.local_now);
        let (role, mut io) = self.split();
        let fired = match role {
            Role::Coordinator { spec, state } => {
                let round = state.t;
                let fired = react::coord_timeout(spec, state, now, &mut io).is_some();
                io.counters.halvings += u64::from(state.t < round);
                fired
            }
            Role::Participant { spec, state, .. } => {
                let inactivated = react::watchdog(spec, state, now, pid, &mut io);
                let joining = !inactivated && react::join_send(spec, state, pid, &mut io);
                io.counters.join_sends += u64::from(joining);
                inactivated || joining
            }
        };
        io.sent.map(|()| fired)
    }

    /// Handle one received frame.
    fn on_frame(&mut self, rcv: Recv) -> io::Result<()> {
        let (pid, now) = (self.pid, self.local_now);
        match rcv.frame {
            Frame::Beat { src, hb } => {
                self.counters.beats_received += 1;
                let (role, mut io) = self.split();
                let (at, from, to) = (now, src, pid);
                io.record(&Event::Deliver { at, from, to, hb });
                match role {
                    // Beats from unknown pids (a stray socket) are dropped
                    // rather than panicking the machine.
                    Role::Coordinator { spec, state } if (1..=spec.n()).contains(&src) => {
                        let acked = react::coord_receive(spec, state, src, hb, &mut io);
                        // A leave acknowledged is counted here and recorded
                        // once: the `leave` event is the leaver's own.
                        io.counters.leaves += u64::from(acked);
                    }
                    Role::Participant {
                        spec,
                        state,
                        leave_after,
                    } if src == 0 => {
                        let decision = react::leave_decision(*leave_after, now);
                        let beat = (hb, rcv.reply_budget);
                        react::resp_receive(spec, state, now, pid, beat, decision, &mut io);
                    }
                    _ => {}
                }
                io.sent
            }
            Frame::Control {
                cmd: Command::Shutdown,
                ..
            } => {
                self.shutdown = true;
                Ok(())
            }
            Frame::Control { cmd, .. } => {
                let (role, mut io) = self.split();
                match (cmd, role) {
                    (Command::Crash, Role::Coordinator { state, .. }) => {
                        react::crash(&mut state.status, now, pid, &mut io);
                    }
                    (Command::Crash, Role::Participant { state, .. }) => {
                        react::crash(&mut state.status, now, pid, &mut io);
                    }
                    (Command::Leave, Role::Participant { leave_after, .. }) => {
                        leave_after.get_or_insert(now);
                    }
                    (
                        Command::Revive,
                        Role::Participant {
                            spec,
                            state,
                            leave_after,
                        },
                    ) => {
                        react::revive(spec, state, leave_after, now, pid, &mut io);
                    }
                    // The coordinator neither leaves nor revives.
                    _ => {}
                }
                Ok(())
            }
            Frame::ViewChange { .. } | Frame::StateRequest { .. } | Frame::StateReply { .. } => {
                // Membership frames are the hb-member runtime's business;
                // the plain failure-detector runtime ignores them rather
                // than erroring, so mixed clusters can coexist.
                Ok(())
            }
        }
    }

    /// Run the node against the wall clock until it halts or `stop` is
    /// raised: poll up to the clock's tick, then block on the transport
    /// until the next protocol deadline or an arrival.
    pub fn run(&mut self, clock: &WallClock, stop: &AtomicBool) -> io::Result<()> {
        /// Cap on one blocking wait, so `stop` is honoured promptly even
        /// with no traffic and no deadline.
        const MAX_WAIT: Duration = Duration::from_millis(50);
        while !stop.load(Ordering::Relaxed) && !self.halted() {
            let now = clock.now().max(self.local_now);
            self.poll(now)?;
            if self.halted() {
                break;
            }
            let wait = match self.next_deadline() {
                Some(d) => clock.until(d).min(MAX_WAIT),
                None => MAX_WAIT,
            };
            self.transport.wait(wait.max(Duration::from_micros(500)))?;
        }
        Ok(())
    }

    /// Tear down into a report.
    pub fn finish(mut self) -> NodeReport {
        NodeReport {
            pid: self.pid,
            status: self.status(),
            left: self.left(),
            now: self.local_now,
            counters: self.counters,
            log: self.sink.take_log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::{Faults, LoopbackNet};
    use hb_core::{Params, Variant};

    fn coord_resp(
        variant: Variant,
        tmin: u32,
        tmax: u32,
        fix: FixLevel,
    ) -> (
        NodeRuntime<crate::loopback::LoopbackEndpoint>,
        NodeRuntime<crate::loopback::LoopbackEndpoint>,
        LoopbackNet,
    ) {
        let params = Params::new(tmin, tmax).unwrap();
        let net = LoopbackNet::new(3, Faults::none(), 1);
        let c = NodeRuntime::coordinator(CoordSpec::new(variant, params, 1, fix), net.endpoint(0));
        let p = NodeRuntime::participant(1, RespSpec::new(variant, params, fix), net.endpoint(1));
        (c, p, net)
    }

    /// Step both nodes to `horizon` one tick at a time, draining
    /// zero-delay reply chains within each tick.
    fn step_pair(
        c: &mut NodeRuntime<crate::loopback::LoopbackEndpoint>,
        p: &mut NodeRuntime<crate::loopback::LoopbackEndpoint>,
        net: &LoopbackNet,
        horizon: Time,
    ) {
        for t in 0..=horizon {
            loop {
                c.poll(t).unwrap();
                p.poll(t).unwrap();
                if !net.any_deliverable(t) {
                    break;
                }
            }
        }
    }

    /// A socket-like transport: whatever is queued is handed over
    /// whichever tick is asked about, and every `try_recv` is logged.
    #[derive(Default)]
    struct Counting {
        inbox: std::collections::VecDeque<Frame>,
        asked: Vec<Time>,
    }

    impl Transport for Counting {
        fn send(&mut self, _: Time, _: Pid, _: &Frame, _: u32) -> io::Result<()> {
            Ok(())
        }

        fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
            self.asked.push(now);
            Ok(self.inbox.pop_front().map(|frame| Recv {
                frame,
                reply_budget: 0,
            }))
        }

        fn wait(&mut self, _: Duration) -> io::Result<()> {
            Ok(())
        }
    }

    fn counting_participant(tmin: u32, tmax: u32) -> NodeRuntime<Counting> {
        let spec = RespSpec::new(
            Variant::Binary,
            Params::new(tmin, tmax).unwrap(),
            FixLevel::Full,
        );
        NodeRuntime::participant(1, spec, Counting::default()).with_sink(EventSink::memory())
    }

    #[test]
    fn each_tick_is_drained_once_and_a_repeated_poll_drains_again() {
        // Watchdog at 2·tmax = 120: nothing of the node's own is due.
        let mut p = counting_participant(2, 60);
        for t in 0..100 {
            p.poll(t).unwrap();
        }
        let once: Vec<Time> = (0..100).collect();
        assert_eq!(p.transport.asked, once, "one try_recv per idle tick");
        // Polling the tick the node is already at drains it again: a frame
        // that turned up meanwhile is handled there, not a tick later.
        p.transport
            .inbox
            .push_back(Frame::beat(0, Heartbeat::plain()));
        p.poll(99).unwrap();
        assert_eq!(p.counters.beats_received, 1);
        assert_eq!(p.counters.beats_sent, 1, "answered at once");
        assert_eq!(p.now(), 99);
        assert!(p.finish().log.events().iter().all(|e| e.at() == 99));
    }

    /// A poll that reads k frames asks the transport k + 1 times under
    /// either ordering: the ask that comes back empty ends the drain, as
    /// nobody else sends on the poll's thread. On a socket each ask is a
    /// syscall.
    #[test]
    fn a_poll_that_reads_k_frames_asks_k_plus_one_times() {
        for fix in [FixLevel::Full, FixLevel::Original] {
            for k in [0, 1, 3] {
                let params = Params::new(2, 60).unwrap();
                let spec = RespSpec::new(Variant::Binary, params, fix);
                let mut p = NodeRuntime::participant(1, spec, Counting::default());
                for _ in 0..k {
                    let beat = Frame::beat(0, Heartbeat::plain());
                    p.transport.inbox.push_back(beat);
                }
                p.poll(0).unwrap();
                assert_eq!(p.counters.beats_received, k as u64, "{fix:?}");
                assert_eq!(p.transport.asked.len(), k + 1, "{fix:?}, k = {k}");
            }
        }
    }

    #[test]
    fn catch_up_fires_each_event_at_the_tick_it_became_due() {
        let mut p = counting_participant(2, 8);
        p.poll(10).unwrap();
        // Arrived while the node slept: stamped at the first tick after
        // the stale one, and the watchdog counts from there.
        p.transport
            .inbox
            .push_back(Frame::beat(0, Heartbeat::plain()));
        p.poll(11 + 16 + 5).unwrap();
        assert_eq!(p.status(), Status::NvInactive);
        let stamps: Vec<(Time, bool)> = p
            .finish()
            .log
            .events()
            .iter()
            .map(|e| (e.at(), matches!(e, Event::NvInactivate { .. })))
            .collect();
        // deliver + reply at 11, watchdog 2·tmax later — not at tick 32.
        assert_eq!(stamps, [(11, false), (11, false), (27, true)]);
    }

    #[test]
    fn steady_state_exchanges_beats_and_stays_alive() {
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        step_pair(&mut c, &mut p, &net, 800);
        assert_eq!(c.status(), Status::Active);
        assert_eq!(p.status(), Status::Active);
        // one beat + one reply per tmax round, roughly
        let sent = c.counters.beats_sent + p.counters.beats_sent;
        let expected = 2 * 800 / 8;
        assert!(
            (sent as i64 - expected as i64).abs() < 30,
            "sent {sent}, expected ≈{expected}"
        );
        assert_eq!(c.counters.halvings, 0, "no silence, no acceleration");
    }

    #[test]
    fn crashed_participant_is_detected_within_corrected_bound() {
        let params = Params::new(2, 8).unwrap();
        let bound = Time::from(params.p0_bound_corrected(Variant::Binary));
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        let crash_at = 100;
        for t in 0..=100_u64 {
            if t == crash_at {
                injector
                    .send(t, 1, &Frame::control(2, Command::Crash), 0)
                    .unwrap();
            }
            loop {
                c.poll(t).unwrap();
                p.poll(t).unwrap();
                if !net.any_deliverable(t) {
                    break;
                }
            }
        }
        assert_eq!(p.status(), Status::Crashed);
        // keep stepping the coordinator until it inactivates
        let mut t = 100;
        while c.status().is_active() && t < 100 + 10 * bound {
            t += 1;
            c.poll(t).unwrap();
        }
        assert_eq!(c.status(), Status::NvInactive);
        assert!(c.counters.halvings >= 1, "acceleration must have kicked in");
        let detect = t - crash_at;
        assert!(detect <= bound, "detected after {detect} > bound {bound}");
    }

    #[test]
    fn receive_priority_decides_the_simultaneous_race() {
        // Force a beat to be deliverable at the exact tick the watchdog
        // fires: under the original ordering the participant dies; under
        // the §6.1 fix it survives.
        for (fix, survives) in [
            (FixLevel::Original, false),
            (FixLevel::ReceivePriority, true),
        ] {
            let params = Params::new(1, 2).unwrap(); // original bound = 5
            let net = LoopbackNet::new(2, Faults::none(), 1);
            let mut p = NodeRuntime::participant(
                1,
                RespSpec::new(Variant::Binary, params, fix),
                net.endpoint(1),
            );
            let mut hand = net.endpoint(0);
            // Run the participant to one tick before the bound, then place
            // a beat due exactly at the bound tick.
            p.poll(4).unwrap();
            hand.send(5, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .unwrap();
            p.poll(5).unwrap();
            assert_eq!(
                p.status().is_active(),
                survives,
                "fix {fix:?}: wrong race outcome"
            );
        }
    }

    #[test]
    fn control_shutdown_halts_and_crash_keeps_consuming() {
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        injector
            .send(0, 1, &Frame::control(2, Command::Crash), 0)
            .unwrap();
        step_pair(&mut c, &mut p, &net, 10);
        assert_eq!(p.status(), Status::Crashed);
        assert!(!p.halted(), "crashed nodes keep consuming silently");
        assert!(p.counters.beats_received > 0);
        assert_eq!(p.counters.beats_sent, 0, "crashed nodes never reply");
        injector
            .send(10, 1, &Frame::control(2, Command::Shutdown), 0)
            .unwrap();
        p.poll(11).unwrap();
        assert!(p.halted());
    }

    #[test]
    fn revive_restarts_a_crashed_participant_with_a_fresh_epoch() {
        let (mut c, mut p, net) = coord_resp(Variant::Expanding, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        step_pair(&mut c, &mut p, &net, 30);
        assert_eq!(p.epoch(), 0);
        injector
            .send(30, 1, &Frame::control(2, Command::Crash), 0)
            .unwrap();
        p.poll(31).unwrap();
        assert_eq!(p.status(), Status::Crashed);
        // A revive on a live node is a no-op; on the crashed node it bumps
        // the epoch and re-enters the join phase.
        injector
            .send(31, 1, &Frame::control(2, Command::Revive), 0)
            .unwrap();
        p.poll(32).unwrap();
        assert_eq!(p.status(), Status::Active);
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.counters.revives, 1);
        injector
            .send(32, 1, &Frame::control(2, Command::Revive), 0)
            .unwrap();
        p.poll(33).unwrap();
        assert_eq!(p.epoch(), 1, "revive of a live node is a no-op");
        // The pair re-converges: the coordinator registers the new epoch.
        step_pair(&mut c, &mut p, &net, 100);
        assert_eq!(c.registered_epoch(1), Some(1));
        assert_eq!(c.status(), Status::Active);
        assert_eq!(p.status(), Status::Active);
    }

    #[test]
    fn deadlines_track_the_machines() {
        let (c, p, _net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        assert_eq!(c.next_deadline(), Some(8), "first round is tmax");
        // corrected bound for binary (2,8): 2*tmax = 16
        assert_eq!(p.next_deadline(), Some(16));
    }

    #[test]
    fn dynamic_leave_round_trip() {
        let (mut c, mut p, net) = coord_resp(Variant::Dynamic, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        // join first
        step_pair(&mut c, &mut p, &net, 30);
        injector
            .send(30, 1, &Frame::control(2, Command::Leave), 0)
            .unwrap();
        step_pair(&mut c, &mut p, &net, 100);
        assert!(p.left());
        assert!(p.halted());
        assert_eq!(c.counters.leaves, 1, "coordinator acknowledged the leave");
        assert_eq!(c.status(), Status::Active, "a leave disturbs nobody");
    }
}
