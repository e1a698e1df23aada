//! The substrate-independent membership harness.
//!
//! Both the simulated and the live runs of a membership group execute
//! this one engine; only the [`Mesh`] underneath differs. The engine
//! owns everything that could diverge between substrates — the order in
//! which nodes fire, the order in which frames are routed, the
//! [`Event`] emission for transport observability, the fault schedule,
//! and the re-convergence bookkeeping — so the sim and the live harness
//! produce byte-identical event streams by construction (pinned by
//! `tests/membership_live.rs`).
//!
//! On a tick it steps, the engine (1) applies due schedule faults, (2)
//! runs delivery and machine firings to a fixpoint, (3) resolves pending
//! re-convergence samples, and (4) ticks every node. Ticks with nothing
//! due it jumps over ([`Engine::run`]): they change no state but the
//! clocks — the hook and the mesh's loss act on sends, re-convergence
//! reads views and roles — so both substrates keep producing the streams
//! they produced tick by tick.

use hb_core::events::{EventSink, SharedTap};
use hb_core::trace::{Event, EventLog};
use hb_core::{Pid, View};
use hb_net::loopback::NetStats;
use hb_net::wire::Frame;
use hb_sim::channel::{FaultHook, LossModel, SendFate};

use crate::node::{MemberNode, MemberSpec, Outbound, RoleKind};

/// What carries frames between member nodes: the engine's only
/// substrate-dependent seam.
///
/// Implementations must consume fault randomness identically (one loss
/// draw plus one uniform in-budget delay draw per in-band frame, in send
/// order) — that is what keeps sim and live event streams byte-equal.
/// Both shipped meshes are `hb_net::loopback::LoopbackCore`, bare or
/// behind the loopback net's lock, so they do by construction.
pub trait Mesh {
    /// Queue `frame` (whose source is `frame.src()`) for `dst`. `now` is
    /// the tick it enters the network: ahead of the engine's own when a
    /// fault hook delayed it.
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32);

    /// Take the earliest frame deliverable to `dst` at `now`, with the
    /// round-trip budget it has left.
    fn recv_due(&mut self, now: u64, dst: Pid) -> Option<(Frame, u32)>;

    /// Whether anything is deliverable anywhere at `now`: a frame due at
    /// or before it is still queued. The engine jumps its clocks to tick
    /// `now + 1` only on `false`; a wrong `false` delivers a frame late.
    fn any_due(&self, now: u64) -> bool;

    /// Beat counters so far.
    fn stats(&self) -> NetStats;
}

/// A scheduled process fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberFault {
    /// Tick at which the fault strikes.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
    /// The afflicted process.
    pub pid: Pid,
}

/// The process-fault alphabet of a membership run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The process crashes silently.
    Crash,
    /// A crashed process restarts with a fresh §7 epoch and rejoins via
    /// state transfer.
    Revive,
}

/// Everything a membership run needs.
#[derive(Clone, Debug)]
pub struct MemberConfig {
    /// Protocol cell.
    pub spec: MemberSpec,
    /// Genesis group size (pids `0..group`, pid 0 coordinating).
    pub group: usize,
    /// Seed for the mesh's loss/delay randomness.
    pub seed: u64,
    /// Run length in ticks.
    pub duration: u64,
    /// The mesh's loss model (ignored by the mesh when a fault hook owns
    /// the drops — the chaos pipeline case).
    pub loss: LossModel,
    /// Process faults, applied in order at their ticks.
    pub faults: Vec<MemberFault>,
}

impl MemberConfig {
    /// A fault-free lossless run.
    pub fn clean(spec: MemberSpec, group: usize, seed: u64, duration: u64) -> Self {
        MemberConfig {
            spec,
            group,
            seed,
            duration,
            loss: LossModel::Bernoulli(0.0),
            faults: Vec::new(),
        }
    }
}

/// Two-sided re-convergence measurement for one fault: how long the
/// group took to *detect* the change and how long until the membership
/// was *stable* again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconvSample {
    /// The fault measured.
    pub kind: FaultKind,
    /// The afflicted process.
    pub pid: Pid,
    /// When it struck.
    pub at: u64,
    /// Crash: first tick a surviving node installed a view excluding the
    /// victim. Revive: first tick any node's view registered the new
    /// incarnation. `None` if never within the run.
    pub detect: Option<u64>,
    /// Crash: first tick *every* up node's view excluded the victim.
    /// Revive: first tick the revived node itself was back in its own
    /// installed view. `None` if never within the run.
    pub stable: Option<u64>,
}

/// A pending sample plus the evidence needed to resolve it.
struct PendingSample {
    sample: ReconvSample,
    /// Crash: each node's view number when the fault struck (detection
    /// is a *new* view that excludes the victim).
    view_nos: Vec<u32>,
    /// Revive: the fresh incarnation's epoch.
    epoch: u8,
}

/// The outcome of a membership run.
#[derive(Debug)]
pub struct MemberReport {
    /// The full event stream (sorted by construction: emitted in tick
    /// order).
    pub events: EventLog,
    /// Each process's final view.
    pub views: Vec<View>,
    /// Each process's final role.
    pub roles: Vec<RoleKind>,
    /// Beat counters from the mesh.
    pub stats: NetStats,
    /// One two-sided sample per scheduled fault, in schedule order.
    pub reconv: Vec<ReconvSample>,
}

impl MemberReport {
    /// Whether every up node agrees on one view (same number, same
    /// coordinator, same members).
    pub fn agreed(&self) -> bool {
        let mut up = self
            .roles
            .iter()
            .zip(&self.views)
            .filter(|(r, _)| **r != RoleKind::Down)
            .map(|(_, v)| v);
        match up.next() {
            Some(first) => up.all(|v| v == first),
            None => true,
        }
    }
}

/// The engine: nodes + mesh + schedule, stepped tick by tick.
pub struct Engine<M: Mesh> {
    cfg: MemberConfig,
    nodes: Vec<MemberNode>,
    mesh: M,
    sink: EventSink,
    hook: Option<Box<dyn FaultHook>>,
    pending: Vec<PendingSample>,
    next_fault: usize,
    now: u64,
    /// Filled by a node call, emptied by [`route`](Self::route), kept for
    /// its allocation.
    out: Vec<Outbound>,
}

impl<M: Mesh> Engine<M> {
    /// An engine over `mesh`. `hook` (the chaos pipeline) decides
    /// message fates on top of the mesh; `taps` receive every event live
    /// (hb-monitor's seam).
    pub fn new(
        cfg: MemberConfig,
        mesh: M,
        hook: Option<Box<dyn FaultHook>>,
        taps: Vec<SharedTap>,
    ) -> Self {
        let nodes = (0..cfg.group)
            .map(|pid| MemberNode::new(cfg.spec, pid, cfg.group))
            .collect();
        let mut sink = EventSink::memory();
        for tap in taps {
            sink.attach_owned_tap(Box::new(tap));
        }
        Engine {
            cfg,
            nodes,
            mesh,
            sink,
            hook,
            pending: Vec::new(),
            next_fault: 0,
            now: 0,
            out: Vec::new(),
        }
    }

    /// Run to the configured duration and report.
    pub fn run(mut self) -> MemberReport {
        self.run_to_end();
        self.into_report()
    }

    fn run_to_end(&mut self) {
        for node in &mut self.nodes {
            node.start(&mut self.sink);
        }
        while self.now < self.cfg.duration {
            self.skip_idle();
            if self.now < self.cfg.duration {
                self.step();
            }
        }
    }

    /// Jump every clock to the next tick on which [`step`](Self::step)
    /// finds anything to do — the next scheduled fault, a node's next
    /// urgent event, the end of the run — unless the mesh holds a frame due
    /// before that: [`Mesh::any_due`] can say that one is, not when.
    fn skip_idle(&mut self) {
        let mut next = self.cfg.duration;
        if let Some(fault) = self.cfg.faults.get(self.next_fault) {
            next = next.min(fault.at);
        }
        for node in &self.nodes {
            if let Some(due_in) = node.next_event_in() {
                next = next.min(self.now + u64::from(due_in));
            }
        }
        if next <= self.now || self.mesh.any_due(next - 1) {
            return;
        }
        // The clocks count in `u32`: a jump cut short lands on an idle
        // tick, which `step` passes over as it always did.
        let idle = u32::try_from(next - self.now).unwrap_or(u32::MAX);
        for node in &mut self.nodes {
            node.advance(idle);
        }
        self.now += u64::from(idle);
    }

    fn into_report(mut self) -> MemberReport {
        MemberReport {
            events: self.sink.take_log(),
            views: self.nodes.iter().map(MemberNode::view).collect(),
            roles: self.nodes.iter().map(MemberNode::role_kind).collect(),
            stats: self.mesh.stats(),
            reconv: self.pending.into_iter().map(|p| p.sample).collect(),
        }
    }

    fn step(&mut self) {
        self.apply_faults();
        self.fixpoint();
        self.resolve_reconv();
        for node in &mut self.nodes {
            node.tick();
        }
        self.now += 1;
    }

    /// Apply every scheduled fault due now, in schedule order.
    fn apply_faults(&mut self) {
        while self.next_fault < self.cfg.faults.len()
            && self.cfg.faults[self.next_fault].at <= self.now
        {
            let f = self.cfg.faults[self.next_fault];
            self.next_fault += 1;
            // The evidence its sample resolves against: each node's view
            // number as a crash strikes, a revival's fresh epoch.
            let (view_nos, epoch) = match f.kind {
                FaultKind::Crash => {
                    self.nodes[f.pid].crash(self.now, &mut self.sink);
                    let view_nos = self.nodes.iter().map(|n| n.view().view_no).collect();
                    (view_nos, 0)
                }
                FaultKind::Revive => {
                    self.nodes[f.pid].revive(self.now, &mut self.sink, &mut self.out);
                    self.route();
                    (Vec::new(), self.nodes[f.pid].epoch())
                }
            };
            self.pending.push(PendingSample {
                sample: ReconvSample {
                    kind: f.kind,
                    pid: f.pid,
                    at: self.now,
                    detect: None,
                    stable: None,
                },
                view_nos,
                epoch,
            });
        }
    }

    /// Deliver and fire until nothing more can happen at this tick.
    /// Frames to crashed processes are still delivered (and ignored by
    /// the node) — the paper's crash model loses the process, not the
    /// channel.
    fn fixpoint(&mut self) {
        loop {
            let mut progress = false;
            for pid in 0..self.cfg.group {
                while let Some((frame, budget)) = self.mesh.recv_due(self.now, pid) {
                    progress = true;
                    if let Frame::Beat { src, hb } = frame {
                        self.sink.emit(&Event::Deliver {
                            at: self.now,
                            from: src,
                            to: pid,
                            hb,
                        });
                    }
                    self.nodes[pid].on_frame(
                        self.now,
                        frame,
                        budget,
                        &mut self.sink,
                        &mut self.out,
                    );
                    self.route();
                }
            }
            for pid in 0..self.cfg.group {
                while self.nodes[pid].urgent() {
                    progress = true;
                    self.nodes[pid].fire(self.now, &mut self.sink, &mut self.out);
                    self.route();
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Pass the outbound frames in `out` through the fault hook and into
    /// the mesh, emitting the transport events for beats. A copy the hook
    /// delays is a send the mesh hears about `extra_delay` ticks late: it
    /// draws its own delay on top, so the frame is due no earlier than
    /// that.
    fn route(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        for (dst, frame, budget) in out.drain(..) {
            let src = frame.src();
            if let Frame::Beat { hb, .. } = frame {
                self.sink.emit(&Event::Send {
                    at: self.now,
                    from: src,
                    to: dst,
                    hb,
                });
            }
            let fate = match &mut self.hook {
                Some(h) => h.fate(self.now, src, dst),
                None => SendFate::clean(),
            };
            match fate {
                SendFate::Drop => {
                    if matches!(frame, Frame::Beat { .. }) {
                        self.sink.emit(&Event::Lose {
                            at: self.now,
                            from: src,
                            to: dst,
                        });
                    }
                }
                SendFate::Deliver {
                    copies,
                    extra_delay,
                } => {
                    let at = self.now + u64::from(extra_delay);
                    for _ in 0..copies {
                        self.mesh.send(at, dst, &frame, budget);
                    }
                }
            }
        }
        self.out = out;
    }

    /// Check every unresolved sample against the nodes' current views.
    fn resolve_reconv(&mut self) {
        let now = self.now;
        let nodes = &self.nodes;
        for p in &mut self.pending {
            let victim = p.sample.pid;
            match p.sample.kind {
                FaultKind::Crash => {
                    if p.sample.detect.is_none() {
                        let detected = nodes.iter().enumerate().any(|(i, n)| {
                            i != victim
                                && n.is_up()
                                && n.view().view_no > p.view_nos[i]
                                && !n.view().contains(victim)
                        });
                        if detected {
                            p.sample.detect = Some(now);
                        }
                    }
                    if p.sample.detect.is_some() && p.sample.stable.is_none() {
                        let stable = nodes
                            .iter()
                            .enumerate()
                            .filter(|&(i, n)| i != victim && n.is_up())
                            .all(|(_, n)| !n.view().contains(victim));
                        if stable {
                            p.sample.stable = Some(now);
                        }
                    }
                }
                FaultKind::Revive => {
                    if p.sample.detect.is_none() {
                        let detected = nodes.iter().enumerate().any(|(i, n)| {
                            i != victim && n.is_up() && n.view().bar_of(victim) == Some(p.epoch)
                        });
                        if detected {
                            p.sample.detect = Some(now);
                        }
                    }
                    if p.sample.stable.is_none() {
                        let me = &nodes[victim];
                        if me.is_up()
                            && me.role_kind() != RoleKind::Joiner
                            && me.view().bar_of(victim) == Some(p.epoch)
                        {
                            p.sample.stable = Some(now);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveMesh;
    use crate::node::MemberSpec;
    use crate::sim::SimMesh;
    use hb_core::Params;
    use hb_net::loopback::Faults;

    /// The adversary of `tests/membership_live.rs`: every message
    /// reordered by 1..=4 ticks, 6 more inside a spike window, and now and
    /// then a copy.
    #[derive(Debug)]
    struct Delayer(u64);
    impl FaultHook for Delayer {
        fn fate(&mut self, now: u64, _src: Pid, _dst: Pid) -> SendFate {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (self.0 >> 33) as u32;
            SendFate::Deliver {
                copies: 1 + u32::from(draw.is_multiple_of(7)),
                extra_delay: 1 + draw % 4 + if (300..340).contains(&now) { 6 } else { 0 },
            }
        }
    }

    /// Every frame `extra` ticks late, one copy.
    #[derive(Debug)]
    struct Spike(u32);
    impl FaultHook for Spike {
        fn fate(&mut self, _: u64, _: Pid, _: Pid) -> SendFate {
            SendFate::Deliver {
                copies: 1,
                extra_delay: self.0,
            }
        }
    }

    /// A mesh that notes the budget every received frame has left.
    struct Budgets(SimMesh, Vec<u32>);
    impl Mesh for Budgets {
        fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) {
            self.0.send(now, dst, frame, budget);
        }
        fn recv_due(&mut self, now: u64, dst: Pid) -> Option<(Frame, u32)> {
            let got = self.0.recv_due(now, dst)?;
            self.1.push(got.1);
            Some(got)
        }
        fn any_due(&self, now: u64) -> bool {
            self.0.any_due(now)
        }
        fn stats(&self) -> NetStats {
            Mesh::stats(&self.0)
        }
    }

    /// A hook-delayed copy enters the mesh `extra` ticks late and the mesh
    /// draws its delay from the whole budget, so the copy arrives with
    /// `budget − d` left, not the `budget − d − extra` it has on `World`
    /// and `VirtualCluster`: with every frame 3 ticks late and a budget of
    /// `tmin` = 2, frames still arrive with 1 or 2 ticks to spare, where
    /// those substrates leave every one of them 0.
    #[test]
    fn a_hook_delayed_frame_keeps_the_budget_the_spike_used() {
        let spec = MemberSpec::dynamic_full(Params::new(2, 8).unwrap());
        let cfg = MemberConfig::clean(spec, 4, 5, 400);
        let mesh = Budgets(SimMesh::new(4, LossModel::Bernoulli(0.0), 5), Vec::new());
        let mut e = Engine::new(cfg, mesh, Some(Box::new(Spike(3))), Vec::new());
        e.run_to_end();
        let mut left = e.mesh.1;
        assert!(left.len() > 100, "the group must talk: {}", left.len());
        left.sort_unstable();
        left.dedup();
        assert_eq!(left, [0, 1, 2]);
    }

    /// What `run` must stay equal to: `step()` on every tick of the run.
    fn run_stepwise<M: Mesh>(mut e: Engine<M>) -> (MemberReport, u64) {
        for node in &mut e.nodes {
            node.start(&mut e.sink);
        }
        while e.now < e.cfg.duration {
            e.step();
        }
        let now = e.now;
        (e.into_report(), now)
    }

    fn run<M: Mesh>(mut e: Engine<M>) -> (MemberReport, u64) {
        e.run_to_end();
        let now = e.now;
        (e.into_report(), now)
    }

    fn assert_same(cell: &str, stepped: (MemberReport, u64), ran: (MemberReport, u64)) -> usize {
        assert_eq!(stepped.1, ran.1, "{cell}: final now");
        let (stepped, ran) = (stepped.0, ran.0);
        assert_eq!(stepped.events.events(), ran.events.events(), "{cell}");
        assert_eq!(stepped.views, ran.views, "{cell}");
        assert_eq!(stepped.roles, ran.roles, "{cell}");
        assert_eq!(stepped.stats, ran.stats, "{cell}");
        assert_eq!(stepped.reconv, ran.reconv, "{cell}");
        ran.events.len()
    }

    /// Where the time goes on the benchmark's `member_failover` cell
    /// (group of 8 at `(2, 8)`, 2 % loss, the coordinator crashed and
    /// revived and a participant crashed over 100 000 ticks): the run's
    /// own loop, counting the ticks it steps and the ticks it jumps over.
    /// Exact counts: the run is seeded. EXPERIMENTS §D.2 quotes them.
    #[test]
    fn most_ticks_of_a_failover_run_are_jumped_over() {
        let fault = |at, kind, pid| MemberFault { at, kind, pid };
        let group = 8;
        let loss = LossModel::Bernoulli(0.02);
        let cfg = MemberConfig {
            loss,
            faults: vec![
                fault(22_000, FaultKind::Crash, 0),
                fault(47_000, FaultKind::Revive, 0),
                fault(77_000, FaultKind::Crash, 5),
            ],
            ..MemberConfig::clean(
                MemberSpec::dynamic_full(Params::new(2, 8).unwrap()),
                group,
                2001,
                100_000,
            )
        };
        let mesh = SimMesh::new(group, loss, cfg.seed);
        let mut e = Engine::new(cfg, mesh, None, Vec::new());
        let (mut stepped, mut jumped) = (0, 0);
        while e.now < e.cfg.duration {
            let from = e.now;
            e.skip_idle();
            jumped += e.now - from;
            if e.now < e.cfg.duration {
                e.step();
                stepped += 1;
            }
        }
        assert_eq!((stepped, jumped), (42_570, 57_430)); // 42.6 % stepped
    }

    #[test]
    fn run_equals_stepping_every_tick_on_both_meshes() {
        let fault = |at, kind, pid| MemberFault { at, kind, pid };
        // The `--failover` plan; the benchmark's group of 8 with a
        // participant crash on top; the hook-delayed plan of
        // `tests/membership_live.rs` at the timing it needs.
        let failover = vec![
            fault(300, FaultKind::Crash, 0),
            fault(600, FaultKind::Revive, 0),
        ];
        let mut group8 = failover.clone();
        group8.insert(1, fault(450, FaultKind::Crash, 5));
        let delayed = vec![
            fault(200, FaultKind::Crash, 2),
            fault(700, FaultKind::Revive, 2),
        ];
        let cells = [
            ("failover", (2, 8), 4, 900, failover, false),
            ("group of 8", (2, 8), 8, 900, group8, false),
            ("hook-delayed", (10, 40), 4, 1_500, delayed, true),
        ];
        let losses = [
            LossModel::Bernoulli(0.0),
            LossModel::Bernoulli(0.05),
            LossModel::GilbertElliott {
                to_bad: 0.05,
                to_good: 0.3,
                good_loss: 0.01,
                bad_loss: 0.9,
            },
        ];
        let mut events = 0;
        for (name, (tmin, tmax), group, duration, faults, hooked) in cells {
            for loss in losses {
                for seed in 1..=3 {
                    let cfg = MemberConfig {
                        loss,
                        faults: faults.clone(),
                        ..MemberConfig::clean(
                            MemberSpec::dynamic_full(Params::new(tmin, tmax).unwrap()),
                            group,
                            seed,
                            duration,
                        )
                    };
                    let hook = || hooked.then(|| Box::new(Delayer(seed)) as Box<dyn FaultHook>);
                    let sim = || {
                        let mesh = SimMesh::new(group, loss, seed);
                        Engine::new(cfg.clone(), mesh, hook(), Vec::new())
                    };
                    let live = || {
                        let mesh = LiveMesh::new(group, Faults { loss }, seed);
                        Engine::new(cfg.clone(), mesh, hook(), Vec::new())
                    };
                    let cell = format!("{name}, {loss:?}, seed {seed}");
                    events += assert_same(&format!("{cell}, sim"), run_stepwise(sim()), run(sim()));
                    events +=
                        assert_same(&format!("{cell}, live"), run_stepwise(live()), run(live()));
                }
            }
        }
        assert!(events > 50_000, "the grid must actually run: {events}");
    }
}
