//! A deterministically steppable cluster: coordinator + N participants
//! over loopback, under virtual time.
//!
//! [`VirtualCluster`] wires [`NodeRuntime`]s together over a
//! [`LoopbackCore`] and advances them tick by tick, with scheduled crash /
//! leave injection delivered over the control channel — the live
//! counterpart of [`hb_sim::World`], producing the same [`RunSummary`]
//! schema so runs from the two substrates can be compared directly. One
//! thread steps it all, so the core has no lock: a node borrows it for
//! the length of one poll, and its sink is the cluster's one tap site,
//! which every node emits into through the lent transport, once per
//! event, and the network its drops into. The per-node logs of a
//! [`LiveReport`] are that site's log, split by emitting node.
//!
//! Nothing due, nothing done, at both scales. Within a tick
//! ([`VirtualCluster::step`]) a node is polled only if the loopback's due
//! index names a frame for it or its own deadline has come on its own
//! clock; the others' clocks move and nothing else. Across ticks,
//! [`VirtualCluster::run_until`] steps only the ticks on which something
//! is due and jumps every node's clock over the rest, never past its
//! horizon: a tick with nothing due changes no state but the clocks (hook,
//! loss model and taps act on sends; the ledger reads node state). A
//! drifted node's deadline is a tick of its own clock, and
//! [`SkewedClock::first_reaching`] says which true tick that is.

use std::io::{self, ErrorKind};

use hb_core::coordinator::CoordSpec;
use hb_core::responder::RespSpec;
use hb_core::trace::Event;
use hb_core::{FixLevel, Params, Pid, Status, Variant};
use hb_sim::channel::FaultHook;
use hb_sim::schema::{RunLedger, RunSummary};

use crate::events::{EventSink, OwnedTap, SharedTap};
use crate::loopback::{Faults, LoopbackCore};
use crate::node::{NodeReport, NodeRuntime};
use crate::time::{SkewedClock, Time};
use crate::transport::{Recv, Transport};
use crate::wire::{Command, Frame};

/// Static configuration of a virtual cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level.
    pub fix: FixLevel,
    /// Number of participants.
    pub n: usize,
    /// Loopback fault plan.
    pub faults: Faults,
    /// Seed for the network's loss/delay randomness.
    pub seed: u64,
    /// Record per-node event logs.
    pub record_events: bool,
}

/// What one live cluster run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// The run summary in the shared sim/live schema.
    pub summary: RunSummary,
    /// Per-node reports (index 0 = coordinator; participants that never
    /// started are absent). With [`ClusterConfig::record_events`], each
    /// log holds the events its node emitted into the tap site.
    pub nodes: Vec<NodeReport>,
}

/// A node's transport: the cluster's core (`Some` for the length of one
/// poll) at the true tick `now`, whatever tick the node's own clock reads.
pub(crate) struct Lent {
    core: Option<Box<LoopbackCore>>,
    pid: Pid,
    now: Time,
}

impl Transport for Lent {
    #[inline]
    fn send(&mut self, _local: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        let core = self.core.as_deref_mut().ok_or(ErrorKind::NotConnected)?;
        core.send(self.now, dst, frame, budget);
        Ok(())
    }

    #[inline]
    fn try_recv(&mut self, _local: Time) -> io::Result<Option<Recv>> {
        let core = self.core.as_deref_mut().ok_or(ErrorKind::NotConnected)?;
        Ok(core.recv(self.now, self.pid))
    }

    fn wait(&mut self, _: std::time::Duration) -> io::Result<()> {
        Ok(())
    }

    #[inline]
    fn tap(&mut self) -> Option<&mut EventSink> {
        Some(&mut self.core.as_deref_mut()?.tap)
    }
}

/// A stepping live cluster under virtual time.
pub struct VirtualCluster {
    cfg: ClusterConfig,
    /// The network: `None` only while lent to a node.
    core: Option<Box<LoopbackCore>>,
    /// `nodes[0]` is the coordinator; `nodes[i]` participant `i` (absent
    /// until its start time).
    nodes: Vec<Option<NodeRuntime<Lent>>>,
    start_at: Vec<Time>,
    injections: Vec<(Time, Pid, Command)>,
    now: Time,
    /// Per pid, the drifted clock it is polled at (`None`: true time).
    local: Vec<Option<SkewedClock>>,
    statuses: Vec<Option<(Status, bool)>>,
    ledger: RunLedger,
}

/// The local tick `pid` is polled at when the true tick is `now`.
fn local_tick(local: &[Option<SkewedClock>], pid: Pid, now: Time) -> Time {
    local[pid].map_or(now, |clock| clock.map(now))
}

/// The transport a node of the cluster starts with: no core yet.
fn lent(pid: Pid) -> Lent {
    Lent {
        core: None,
        pid,
        now: 0,
    }
}

impl VirtualCluster {
    /// Build a cluster; nothing runs until [`step`](Self::step).
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut core = LoopbackCore::new(cfg.n + 1, cfg.faults.loss, cfg.seed);
        if cfg.record_events {
            core.tap = EventSink::memory();
        }
        let coord_spec = CoordSpec::new(cfg.variant, cfg.params, cfg.n, cfg.fix);
        let mut nodes = vec![Some(NodeRuntime::coordinator(coord_spec, lent(0)))];
        nodes.extend((0..cfg.n).map(|_| None));
        VirtualCluster {
            core: Some(Box::new(core)),
            nodes,
            start_at: vec![0; cfg.n],
            injections: Vec::new(),
            now: 0,
            local: vec![None; cfg.n + 1],
            statuses: vec![None; cfg.n + 1],
            ledger: RunLedger::default(),
            cfg,
        }
    }

    /// Install an external fault engine that decides the fate of every
    /// heartbeat (drop / duplicate / extra delay) as it enters the
    /// network, ahead of the loopback's own [`Faults`]; call before
    /// running. The live counterpart of `hb_sim::World::set_fault_hook`.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.core().hook = Some(hook);
    }

    #[expect(clippy::expect_used, reason = "step takes it back after a poll")]
    fn core(&mut self) -> &mut LoopbackCore {
        self.core.as_deref_mut().expect("the core is home")
    }

    /// Poll `pid` at local tick `offset + t·num/den` when the true tick
    /// is `t`: a fast clock (`num > den`) fires its deadlines early, a
    /// slow one late. The network, the schedule and the observer stay on
    /// true time. Call before running.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `num` or `den` is zero.
    pub fn skew_clock(&mut self, pid: Pid, offset: Time, num: u64, den: u64) {
        assert!(pid <= self.cfg.n, "pid {pid} out of range");
        self.local[pid] = Some(SkewedClock::new(offset, num, den));
    }

    /// Attach a live [`EventTap`](crate::events::EventTap) — e.g. a
    /// streaming requirement monitor — to the cluster's tap site. Every
    /// node, participants that start later included, feeds it its events
    /// and the network the beats it drops, in emission order: a drop comes
    /// before the send that suffered it. The cluster owns it, and one
    /// thread steps the cluster, so dispatch takes no lock. Recover it
    /// with [`take_owned_taps`](Self::take_owned_taps).
    pub fn attach_owned_tap(&mut self, tap: OwnedTap) {
        self.tap_site().attach_owned_tap(tap);
    }

    /// Attach a tap shared with the caller, who reads it mid-run or
    /// after; as [`attach_owned_tap`](Self::attach_owned_tap), under its
    /// lock. A cluster carrying one does not fork.
    pub fn attach_tap(&mut self, tap: SharedTap) {
        self.attach_owned_tap(Box::new(tap));
    }

    /// Detach and return every tap, in attachment order.
    pub fn take_owned_taps(&mut self) -> Vec<OwnedTap> {
        self.tap_site().take_owned_taps()
    }

    fn tap_site(&mut self) -> &mut EventSink {
        &mut self.core().tap
    }

    /// A whole copy that, run on, ends where this one run on ends, as
    /// `hb_sim::World::fork`: `None` if the hook or a tap cannot fork, a
    /// shared tap included.
    pub fn fork(&self) -> Option<VirtualCluster> {
        let core = self.core.as_deref()?.fork()?;
        let nodes = self.nodes.iter().enumerate().map(|(pid, node)| {
            let transport = lent(pid);
            node.as_ref()
                .map_or(Some(None), |node| node.fork_onto(transport).map(Some))
        });
        Some(VirtualCluster {
            core: Some(Box::new(core)),
            nodes: nodes.collect::<Option<_>>()?,
            start_at: self.start_at.clone(),
            injections: self.injections.clone(),
            local: self.local.clone(),
            statuses: self.statuses.clone(),
            ledger: self.ledger.clone(),
            ..*self
        })
    }

    /// Crash `pid` at tick `t` (delivered as a control frame).
    pub fn schedule_crash(&mut self, pid: Pid, t: Time) {
        assert!(pid <= self.cfg.n, "pid {pid} out of range");
        self.injections.push((t, pid, Command::Crash));
    }

    /// Make participant `pid` leave at the first beat at or after `t`.
    pub fn schedule_leave(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.cfg.n).contains(&pid), "pid {pid} out of range");
        self.injections.push((t, pid, Command::Leave));
    }

    /// Revive participant `pid` at tick `t` (§7 rejoin): a crashed node
    /// restarts with a fresh epoch; a live node ignores the command.
    pub fn schedule_revive(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.cfg.n).contains(&pid), "pid {pid} out of range");
        self.injections.push((t, pid, Command::Revive));
    }

    fn revives_pending(&self) -> bool {
        self.injections
            .iter()
            .any(|&(t, _, cmd)| cmd == Command::Revive && t >= self.now)
    }

    /// Delay participant `pid`'s start until tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if the run has begun or `pid` is out of range.
    pub fn schedule_start(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.cfg.n).contains(&pid), "pid {pid} out of range");
        assert_eq!(self.now, 0, "starts must be scheduled before running");
        self.start_at[pid - 1] = t;
    }

    /// Current tick.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether the coordinator and every started, not-left participant
    /// are inactive — the cluster-wide detection condition.
    pub fn all_inactive(&self) -> bool {
        let coord_inactive = self.nodes[0]
            .as_ref()
            .is_some_and(|c| c.status().is_inactive());
        coord_inactive
            && self.nodes[1..]
                .iter()
                .flatten()
                .all(|p| p.status().is_inactive() || p.left())
    }

    /// Advance the cluster by one tick: start late joiners, deliver due
    /// injections, drain every node (and every zero-delay reply chain)
    /// at its local reading of the current tick, then move time forward.
    ///
    /// A node is polled only if a frame or its own deadline is due; any
    /// other node's clock just moves, which is all a poll would have come
    /// to.
    pub fn step(&mut self) {
        let now = self.now;
        self.begin_tick(now);
        loop {
            for pid in 0..self.nodes.len() {
                // Asked at the node's turn, not at the top of the lap: a
                // lower pid's zero-delay frame is served in the same lap.
                let due = self.core().next_due(pid);
                let local = local_tick(&self.local, pid, now);
                let Some(node) = &mut self.nodes[pid] else {
                    continue;
                };
                if due <= now || node.next_deadline().is_some_and(|d| d <= local) {
                    self.poll(pid, now);
                } else {
                    node.skip_to(local);
                }
            }
            if !self.lap_again(now) {
                break;
            }
        }
        self.observe(now);
        self.now += 1;
    }

    /// Start the participants due to start at `now` and send the
    /// injections due then.
    fn begin_tick(&mut self, now: Time) {
        for pid in 1..=self.cfg.n {
            if self.nodes[pid].is_none() && self.start_at[pid - 1] == now {
                // Frames sent before a node exists vanish, as in the sim.
                self.core().purge(pid);
                let spec = RespSpec::new(self.cfg.variant, self.cfg.params, self.cfg.fix);
                let local = local_tick(&self.local, pid, now);
                let node = NodeRuntime::participant(pid, spec, lent(pid)).started_at(local);
                self.nodes[pid] = Some(node);
            }
        }
        let injector = self.cfg.n + 1;
        let mut pending = std::mem::take(&mut self.injections);
        pending.retain(|&(t, pid, cmd)| {
            if t != now {
                return true;
            }
            self.core()
                .send(now, pid, &Frame::control(injector, cmd), 0);
            false
        });
        self.injections = pending;
    }

    /// Lend `pid` the core and poll it at its local reading of `now`.
    fn poll(&mut self, pid: Pid, now: Time) {
        let local = local_tick(&self.local, pid, now);
        let Some(node) = &mut self.nodes[pid] else {
            return;
        };
        node.transport.now = now;
        std::mem::swap(&mut node.transport.core, &mut self.core);
        let polled = node.poll(local);
        std::mem::swap(&mut node.transport.core, &mut self.core);
        #[expect(clippy::expect_used, reason = "a core send or receive cannot fail")]
        polled.expect("the core was lent for the poll");
    }

    /// Whether tick `now` needs another lap: a reply chain is still due.
    /// Frames for a participant that has not started vanish here, as in
    /// the sim, instead of holding the tick open for good.
    fn lap_again(&mut self, now: Time) -> bool {
        if !self.core().any_deliverable(now) {
            return false;
        }
        for pid in 1..=self.cfg.n {
            if self.nodes[pid].is_none() {
                while self.core().recv(now, pid).is_some() {}
            }
        }
        true
    }

    /// Feed the ledger this tick's status transitions (crash /
    /// nv-inactivation / leave / revive), then let it resolve pending
    /// re-convergences and the cluster-wide detection time.
    fn observe(&mut self, now: Time) {
        for (pid, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let cur = (node.status(), node.left());
            let prev = self.statuses[pid];
            if prev.map(|(s, _)| s) != Some(cur.0) {
                match cur.0 {
                    Status::Crashed => self.ledger.crash(pid, now),
                    Status::NvInactive => self.ledger.nv_inactivation(pid, now),
                    Status::Active => {
                        // Crashed -> Active is only reachable via revive.
                        if prev.map(|(s, _)| s) == Some(Status::Crashed) {
                            self.ledger.revive(pid, node.epoch(), now);
                        }
                    }
                }
            }
            if prev.map(|(_, l)| l) != Some(cur.1) && cur.1 {
                self.ledger.leave(pid, now);
            }
            self.statuses[pid] = Some(cur);
        }
        let nodes = &self.nodes;
        self.ledger.resolve_reconv(
            now,
            |pid| nodes[0].as_ref()?.registered_epoch(pid),
            |pid, epoch| {
                nodes[pid].as_ref().is_some_and(|n| {
                    n.status() == Status::Active && n.joined() && n.epoch() == epoch
                })
            },
        );
        self.ledger.note_all_inactive(now, self.all_inactive());
    }

    /// The earliest tick, `now` or later, on which [`step`](Self::step)
    /// finds anything to do: a frame due (for a node or, to be voided, for
    /// a pid not started yet), a node's own deadline (the first true tick
    /// its clock reaches it), a start, an injection. `Time::MAX` if
    /// nothing ever will.
    fn next_event_at(&mut self) -> Time {
        let (now, n, core) = (self.now, self.cfg.n, self.core());
        let due = (0..=n).map(|pid| core.next_due(pid));
        let next = due.min().unwrap_or(Time::MAX);
        if next <= now {
            return now;
        }
        let local = &self.local;
        let deadlines = self.nodes.iter().enumerate().filter_map(|(pid, node)| {
            let d = node.as_ref()?.next_deadline()?;
            Some(local[pid].map_or(d, |clock| clock.first_reaching(d)))
        });
        let unstarted = self.nodes[1..].iter().zip(&self.start_at);
        let starts = unstarted
            .filter(|(node, _)| node.is_none())
            .map(|(_, &at)| at);
        let scheduled = starts.chain(self.injections.iter().map(|&(at, ..)| at));
        let scheduled = scheduled.filter(|&at| at >= now);
        deadlines.chain(scheduled).fold(next, Time::min)
    }

    /// Jump over the ticks with nothing due: to
    /// [`next_event_at`](Self::next_event_at), never past `t`. Node clocks
    /// move to their reading of the tick before it, so the step there
    /// ticks once and drains as on any other tick.
    fn skip_idle(&mut self, t: Time) {
        let next = self.next_event_at().min(t);
        if next > self.now {
            for (pid, node) in self.nodes.iter_mut().enumerate() {
                if let Some(node) = node {
                    node.skip_to(local_tick(&self.local, pid, next - 1));
                }
            }
            self.now = next;
        }
    }

    /// Run until tick `t` or until everything is inactive (a pending
    /// revive keeps the run alive — a crashed node is coming back): the
    /// result of [`step`](Self::step) on every tick, idle ones jumped over.
    pub fn run_until(&mut self, t: Time) {
        while self.now < t && (!self.all_inactive() || self.revives_pending()) {
            self.skip_idle(t);
            if self.now < t {
                self.step();
            }
        }
    }

    /// Finish the run and produce the report.
    pub fn into_report(mut self) -> LiveReport {
        let final_status = self
            .nodes
            .iter()
            .map(|n| n.as_ref().map_or(Status::Active, |n| n.status()))
            .collect();
        let stale = self.nodes[0].as_ref().map_or((0, 0), |c| c.stale_beats());
        let stats = self.core().stats();
        let log = self.tap_site().take_log();
        let summary = self
            .ledger
            .into_summary("live", self.now, stats, stale, final_status);
        let nodes = self.nodes.into_iter().flatten().map(|node| {
            let mut report = node.finish();
            // A `lose` is the network's own, no node's.
            let own = log.of_process(report.pid).into_iter();
            own.filter(|e| !matches!(e, Event::Lose { .. }))
                .for_each(|e| report.log.push(e));
            report
        });
        LiveReport {
            summary,
            nodes: nodes.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(variant: Variant, tmin: u32, tmax: u32, n: usize) -> ClusterConfig {
        ClusterConfig {
            variant,
            params: Params::new(tmin, tmax).unwrap(),
            fix: FixLevel::Full,
            n,
            faults: Faults::none(),
            seed: 1,
            record_events: false,
        }
    }

    #[test]
    fn lossless_steady_state_never_inactivates() {
        let mut cl = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.false_inactivations, 0);
        assert!(r.summary.nv_inactivations.is_empty());
        // steady-state overhead ≈ 2/tmax
        let rate = r.summary.messages_sent as f64 / r.summary.duration as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn participant_crash_detected_within_bound_static_n3() {
        let mut cl = VirtualCluster::new(cfg(Variant::Static, 2, 8, 3));
        cl.schedule_crash(2, 100);
        cl.run_until(10_000);
        assert!(cl.all_inactive(), "a crash must bring the network down");
        let r = cl.into_report();
        let delay = r.summary.detection_delay.expect("detection");
        let bound = Time::from(
            cfg(Variant::Static, 2, 8, 3)
                .params
                .p0_bound_corrected(Variant::Static)
                + cfg(Variant::Static, 2, 8, 3)
                    .params
                    .responder_bound_corrected(Variant::Static)
                + 2,
        );
        assert!(delay <= bound, "delay {delay} > bound {bound}");
    }

    #[test]
    fn expanding_late_start_joins_cleanly() {
        let mut cl = VirtualCluster::new(cfg(Variant::Expanding, 2, 8, 1));
        cl.schedule_start(1, 40);
        cl.run_until(400);
        let r = cl.into_report();
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.summary.final_status, vec![Status::Active, Status::Active]);
        assert!(r.nodes[1].counters.join_sends >= 1);
    }

    #[test]
    fn dynamic_leave_disturbs_nobody() {
        let mut cl = VirtualCluster::new(cfg(Variant::Dynamic, 2, 8, 2));
        cl.schedule_leave(1, 100);
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.leaves.len(), 1);
        assert_eq!(r.summary.leaves[0].0, 1);
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.summary.final_status[0], Status::Active);
    }

    #[test]
    fn crash_then_revive_reconverges_under_the_full_fix() {
        let mut cl = VirtualCluster::new(cfg(Variant::Expanding, 2, 8, 1));
        cl.schedule_crash(1, 100);
        cl.schedule_revive(1, 104);
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.revives, vec![(1, 104)]);
        let detect = r.summary.reconv_detect.expect("must re-register");
        // Re-registration takes at most one join-send period plus delivery.
        assert!(detect <= 16, "detection took {detect}");
        // Expanding has a join phase: the handshake completes (stable)
        // only when the next beat echoes the fresh epoch back.
        let stable = r.summary.reconv_stable.expect("must re-join");
        assert!(stable >= detect, "stable {stable} before detect {detect}");
        assert!(stable <= detect + 16, "stabilisation took {stable}");
        assert_eq!(r.summary.final_status, vec![Status::Active, Status::Active]);
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.nodes[1].counters.revives, 1);
    }

    /// What `run_until` must stay equal to: its liveness condition around
    /// a step, every tick executed, and every started node polled on
    /// every lap at its own clock's reading, due or not.
    fn run_stepwise(cl: &mut VirtualCluster, t: Time) {
        while cl.now < t && (!cl.all_inactive() || cl.revives_pending()) {
            let now = cl.now;
            cl.begin_tick(now);
            loop {
                for pid in 0..cl.nodes.len() {
                    cl.poll(pid, now);
                }
                if !cl.lap_again(now) {
                    break;
                }
            }
            cl.observe(now);
            cl.now += 1;
        }
    }

    /// An adversary with every shape a hook can give a frame: an outage
    /// window, a delay spike far past the round-trip budget, and every
    /// third frame doubled.
    #[derive(Clone, Debug, Default)]
    struct Shaper(u32);
    impl FaultHook for Shaper {
        fn fate(&mut self, now: Time, _src: Pid, _dst: Pid) -> hb_sim::channel::SendFate {
            self.0 += 1;
            if (200..212).contains(&now) {
                return hb_sim::channel::SendFate::Drop;
            }
            hb_sim::channel::SendFate::Deliver {
                copies: 1 + u32::from(self.0.is_multiple_of(3)),
                extra_delay: if (60..90).contains(&now) { 11 } else { 0 },
            }
        }

        fn fork(&self) -> Option<Box<dyn FaultHook>> {
            Some(Box::new(self.clone()))
        }
    }

    /// The merged stream of the cluster's tap site, owned or shared.
    #[derive(Clone, Default)]
    struct Recorder(Vec<hb_core::trace::Event>);
    impl crate::events::EventTap for Recorder {
        fn on_event(&mut self, e: &hb_core::trace::Event) {
            self.0.push(*e);
        }

        fn fork(&self) -> Option<OwnedTap> {
            Some(Box::new(self.clone()))
        }
    }

    /// A fork taken mid-run — frames in flight, Bernoulli loss, a fast
    /// participant and an owned tap — continued through a crash, a revive
    /// and the hook's delay spike to the horizon ends where the original
    /// continued ends: summary, every node's counters and log, and the
    /// tap's stream.
    #[test]
    fn a_fork_continued_equals_the_original_continued() {
        for variant in [
            Variant::Static,
            Variant::Expanding,
            Variant::Dynamic,
            Variant::Binary,
        ] {
            for fix in [
                FixLevel::Original,
                FixLevel::ReceivePriority,
                FixLevel::Full,
            ] {
                let cell = format!("{variant} {fix}");
                let n = if variant == Variant::Binary { 1 } else { 3 };
                let mut cl = VirtualCluster::new(ClusterConfig {
                    fix,
                    faults: Faults::bernoulli(0.05),
                    seed: 5,
                    record_events: true,
                    ..cfg(variant, 2, 8, n)
                });
                cl.set_fault_hook(Box::new(Shaper::default()));
                cl.skew_clock(n, 3, 5, 4);
                cl.attach_owned_tap(Box::new(Recorder::default()));
                // After the fork, before the hook's delay spike.
                cl.schedule_crash(1, 50);
                cl.schedule_revive(1, 54);
                cl.run_until(40);
                // A frame due on a later tick than the cluster's.
                let in_flight = |cl: &mut VirtualCluster| {
                    let later = cl.now + 1..Time::MAX;
                    (0..=n).any(|pid| later.contains(&cl.core().next_due(pid)))
                };
                while !in_flight(&mut cl) && cl.now() < 50 {
                    cl.step();
                }
                assert!(in_flight(&mut cl), "{cell}: nothing in flight");
                let at = cl.now();
                let fork = cl.fork().expect("a Shaper cluster forks");
                let [ran, forked] = [cl, fork].map(|mut cl| {
                    cl.run_until(600);
                    let tap = cl.take_owned_taps().pop().expect("the tap comes back");
                    let tap = tap.into_any().downcast::<Recorder>().expect("a Recorder");
                    (cl.into_report(), tap.0)
                });
                let ((ran, ran_tap), (forked, forked_tap)) = (ran, forked);
                assert_eq!(ran.summary.to_json(), forked.summary.to_json(), "{cell}");
                for (r, f) in ran.nodes.iter().zip(&forked.nodes) {
                    assert_eq!(
                        (r.pid, r.now, r.counters),
                        (f.pid, f.now, f.counters),
                        "{cell}"
                    );
                    assert_eq!(r.log.events(), f.log.events(), "{cell}");
                }
                assert_eq!(ran_tap, forked_tap, "{cell}");
                let lifecycle = (&ran.summary.crashes[..], &ran.summary.revives[..]);
                assert_eq!(lifecycle, (&[(1, 50)][..], &[(1, 54)][..]), "{cell}");
                let after = ran_tap.iter().filter(|e| e.at() > at).count();
                assert!(after > 30, "{cell}: the run must go on past the fork");
            }
        }
    }

    /// The tap site hears every event any node logs — a participant that
    /// starts after the tap is attached included, and, with a tap
    /// attached mid-run, every node from then on — plus the network's
    /// drops, which no node logs.
    #[test]
    fn the_tap_site_hears_every_node_late_joiners_included() {
        use hb_core::trace::Event;
        for attach_at in [0, 60] {
            let mut cl = VirtualCluster::new(ClusterConfig {
                faults: Faults::bernoulli(0.1),
                record_events: true,
                ..cfg(Variant::Expanding, 2, 8, 3)
            });
            cl.schedule_start(3, 40);
            cl.run_until(attach_at);
            cl.attach_owned_tap(Box::new(Recorder::default()));
            cl.run_until(400);
            let tap = cl.take_owned_taps().pop().expect("the tap comes back");
            let heard = tap.into_any().downcast::<Recorder>().expect("a Recorder").0;
            let (lost, mut heard): (Vec<_>, Vec<_>) = heard
                .into_iter()
                .partition(|e| matches!(e, Event::Lose { .. }));
            assert!(!lost.is_empty(), "attach at {attach_at}: no drop heard");
            let report = cl.into_report();
            let logs = report.nodes.iter().flat_map(|node| node.log.events());
            let mut logged: Vec<Event> = logs.filter(|e| e.at() >= attach_at).copied().collect();
            let late = |e: &Event| matches!(e, Event::Send { from: 3, .. });
            assert!(
                logged.iter().any(late),
                "attach at {attach_at}: pid 3 sent nothing"
            );
            let key = |e: &Event| (e.at(), format!("{e:?}"));
            heard.sort_by_key(key);
            logged.sort_by_key(key);
            assert_eq!(heard, logged, "attach at {attach_at}");
        }
    }

    #[test]
    fn a_cluster_with_a_shared_tap_or_an_opaque_hook_does_not_fork() {
        #[derive(Debug)]
        struct Opaque;
        impl FaultHook for Opaque {
            fn fate(&mut self, _now: Time, _src: Pid, _dst: Pid) -> hb_sim::channel::SendFate {
                hb_sim::channel::SendFate::clean()
            }
        }
        let mut cl = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        cl.run_until(50);
        assert!(cl.fork().is_some(), "no hook, no tap: nothing to refuse");
        cl.attach_owned_tap(Box::new(Recorder::default()));
        assert!(cl.fork().is_some(), "an owned tap forks");
        let mut shared = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        let tap = std::sync::Arc::new(std::sync::Mutex::new(Recorder::default()));
        shared.attach_tap(tap);
        assert!(shared.fork().is_none(), "both runs would feed one tap");
        let mut opaque = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        opaque.set_fault_hook(Box::new(Opaque));
        assert!(opaque.fork().is_none());
    }

    #[test]
    fn run_until_equals_stepping_every_tick() {
        const NETS: [&str; 5] = ["lossless", "bernoulli", "burst", "hook", "skew"];
        const PLANS: [&str; 7] = [
            "none",
            "crash",
            "crash+revive",
            "late start",
            "leave",
            "stray revive",
            "mid-round horizon",
        ];
        let build = |variant: Variant, fix, seed: u64, net, plan| {
            let n = if variant == Variant::Binary { 1 } else { 3 };
            let mut cl = VirtualCluster::new(ClusterConfig {
                fix,
                faults: match net {
                    "bernoulli" => Faults::bernoulli(0.2),
                    "burst" => Faults::burst(0.1, 0.3, 0.01, 0.9),
                    _ => Faults::none(),
                },
                seed,
                record_events: true,
                ..cfg(variant, 2, 8, n)
            });
            match net {
                "hook" => cl.set_fault_hook(Box::new(Shaper::default())),
                // One fast participant, or a slow coordinator.
                "skew" if seed.is_multiple_of(2) => cl.skew_clock(n, 3, 5, 4),
                "skew" => cl.skew_clock(0, 0, 7, 8),
                _ => {}
            }
            // The victim alternates between a participant and p[0].
            let victim = if seed.is_multiple_of(2) { n } else { 0 };
            match plan {
                "crash" => cl.schedule_crash(victim, 100 + seed),
                "crash+revive" => {
                    cl.schedule_crash(1, 100);
                    // Before, around and long after the group has noticed.
                    cl.schedule_revive(1, 104 + 40 * seed);
                }
                "late start" => cl.schedule_start(n, 43 + seed),
                "leave" => cl.schedule_leave(1, 90),
                "stray revive" => cl.schedule_revive(1, 77),
                "mid-round horizon" => cl.schedule_crash(victim, 150),
                _ => {}
            }
            cl
        };
        let mut events = 0;
        for variant in [
            Variant::Static,
            Variant::Expanding,
            Variant::Dynamic,
            Variant::Binary,
        ] {
            for fix in [
                FixLevel::Original,
                FixLevel::ReceivePriority,
                FixLevel::Full,
            ] {
                for seed in 0..3 {
                    for net in NETS {
                        for plan in PLANS {
                            let cell = format!("{variant} {fix} seed {seed} {net} {plan}");
                            let mut stepped = build(variant, fix, seed, net, plan);
                            let mut ran = build(variant, fix, seed, net, plan);
                            // Two legs, as the benchmark's prime + run.
                            let legs = if plan == "mid-round horizon" {
                                [37, 301]
                            } else {
                                [120, 600]
                            };
                            for t in legs {
                                run_stepwise(&mut stepped, t);
                                ran.run_until(t);
                                assert_eq!(stepped.now(), ran.now(), "{cell}: now at leg {t}");
                            }
                            let (stepped, ran) = (stepped.into_report(), ran.into_report());
                            assert_eq!(stepped.summary.to_json(), ran.summary.to_json(), "{cell}");
                            assert_eq!(stepped.nodes.len(), ran.nodes.len(), "{cell}");
                            for (s, r) in stepped.nodes.iter().zip(&ran.nodes) {
                                let cell = format!("{cell}, p[{}]", s.pid);
                                assert_eq!(
                                    (s.pid, s.status, s.left, s.now),
                                    (r.pid, r.status, r.left, r.now),
                                    "{cell}"
                                );
                                assert_eq!(s.counters, r.counters, "{cell}");
                                assert_eq!(s.log.events(), r.log.events(), "{cell}");
                                events += r.log.len();
                            }
                        }
                    }
                }
            }
        }
        assert!(events > 250_000, "the grid must actually run: {events}");
    }

    /// A drifted clock does not pin the cluster to stepping: with nothing
    /// in flight, the next event is the coordinator's first timeout, its
    /// local tick `tmax` = 8 on a clock at 7/8, which the true tick
    /// ⌈8·8/7⌉ = 10 first reaches.
    #[test]
    fn an_idle_skewed_cluster_looks_past_now() {
        let mut cl = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        cl.skew_clock(1, 3, 5, 4);
        cl.skew_clock(0, 0, 7, 8);
        cl.step();
        assert_eq!(cl.next_event_at(), 10);
    }

    /// `run_until`'s own loop, counting the ticks it steps and the ticks
    /// it jumps over.
    fn run_counting(cl: &mut VirtualCluster, t: Time) -> (Time, Time) {
        let (mut stepped, mut jumped) = (0, 0);
        while cl.now < t && (!cl.all_inactive() || cl.revives_pending()) {
            let from = cl.now;
            cl.skip_idle(t);
            jumped += cl.now - from;
            if cl.now < t {
                cl.step();
                stepped += 1;
            }
        }
        (stepped, jumped)
    }

    /// Where the time goes: the share of ticks that carry an event, on
    /// the benchmark's steady cell (static, `(2, 8)`, full fix, lossless,
    /// 80 000 ticks) at three sizes and on its chaos cell (static n = 4,
    /// 2 % loss, a crash at 200 of 400 ticks, 30 seeds). Exact counts: the
    /// runs are seeded. EXPERIMENTS §D.2 quotes them.
    #[test]
    fn most_ticks_of_a_healthy_group_are_jumped_over() {
        let steady = |n, variant| {
            let mut cl = VirtualCluster::new(ClusterConfig {
                seed: 2001,
                ..cfg(variant, 2, 8, n)
            });
            run_counting(&mut cl, 80_000)
        };
        assert_eq!(steady(8, Variant::Static), (29_875, 50_125)); // 37.3 % stepped
        assert_eq!(steady(4, Variant::Static), (28_845, 51_155)); // 36.1 %
        assert_eq!(steady(1, Variant::Binary), (20_580, 59_420)); // 25.7 %
        let (mut stepped, mut jumped) = (0, 0);
        for seed in 0..30 {
            let mut cl = VirtualCluster::new(ClusterConfig {
                faults: Faults::bernoulli(0.02),
                seed,
                ..cfg(Variant::Static, 2, 8, 4)
            });
            cl.schedule_crash(2, 200);
            let (s, j) = run_counting(&mut cl, 400);
            stepped += s;
            jumped += j;
        }
        assert_eq!((stepped, jumped), (1_874, 3_210)); // 36.9 %
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = |seed| {
            let mut c = cfg(Variant::Binary, 2, 8, 1);
            c.faults = Faults::bernoulli(0.2);
            c.seed = seed;
            let mut cl = VirtualCluster::new(c);
            cl.schedule_crash(1, 200);
            cl.run_until(5_000);
            cl.into_report().summary
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn event_logs_capture_the_story() {
        let mut c = cfg(Variant::Binary, 2, 8, 1);
        c.record_events = true;
        let mut cl = VirtualCluster::new(c);
        cl.schedule_crash(1, 50);
        cl.run_until(1_000);
        let r = cl.into_report();
        let coord_log = &r.nodes[0].log;
        assert!(!coord_log.is_empty());
        let text = coord_log.to_string();
        assert!(text.contains("timeout at p[0]"), "{text}");
        assert!(text.contains("NON-VOLUNTARILY"), "{text}");
    }
}
