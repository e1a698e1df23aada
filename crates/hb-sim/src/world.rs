//! The tick-driven simulation world for the accelerated protocols.
//!
//! Time is counted in unit ticks, mirroring the digital-clock semantics
//! of the verification models: within a tick ([`World::step`]), all due
//! events (message deliveries, the coordinator timeout, participant
//! watchdogs and join sends) are executed — in *random* order for the
//! original protocols, and deliveries-first under the §6.1
//! receive-priority fix — and then every clock advances by one.
//!
//! A healthy group is silent for most of every round, so
//! [`World::run_until`] steps only the ticks on which something is due,
//! never past its horizon, and a step asks only the processes whose wake
//! tick has come. A process's clocks catch up over the ticks it slept
//! through when it is next touched. That is sound because a tick with
//! nothing due changes no state but the clocks: the shuffle of an empty
//! batch draws no randomness, the loss model, outage window and fault hook
//! act on sends only, and the ledger reads no clock. `step()` itself never
//! jumps; a caller stepping by hand gets every tick.
//!
//! The world decides *when* each process reacts; *how* it reacts is
//! [`hb_core::react`], shared with the live node and the model checker.
//! The world's effects are the channel (behind the fault hook, if any),
//! the ledger and the event sink.

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::events::{EventSink, OwnedTap};
use hb_core::fault::{FaultHook, LossModel, Time};
use hb_core::react::{self, Effects};
use hb_core::responder::{RespSpec, RespState};
use hb_core::schema::{RunLedger, RunSummary};
use hb_core::trace::Event;
use hb_core::{FixLevel, Heartbeat, Params, Pid, Status, Variant};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::channel::{Channel, InFlight};

/// Static configuration of a simulation world.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level (affects participant bounds and event ordering).
    pub fix: FixLevel,
    /// Number of participants.
    pub n: usize,
    /// Per-message loss probability.
    pub loss_prob: f64,
    /// Record a full [`EventLog`](hb_core::trace::EventLog) (costs memory on long runs).
    pub log_events: bool,
}

/// A running simulation.
#[derive(Debug)]
pub struct World {
    cfg: WorldConfig,
    coord_spec: CoordSpec,
    resp_spec: RespSpec,
    coord: CoordState,
    /// `None` until the participant has started (join variants may start
    /// late).
    resps: Vec<Option<RespState>>,
    start_at: Vec<Time>,
    leave_after: Vec<Option<Time>>,
    scheduled_crashes: Vec<(Pid, Time)>,
    scheduled_revives: Vec<(Pid, Time)>,
    /// The earliest crash, revive or start at or after `now`; 0 at first,
    /// when tick 0 starts the participants and wakes every process.
    next_injection: Time,
    /// Per pid (0 is the coordinator), the tick its next own deadline
    /// falls due on, `Time::MAX` if none; see [`rewake`](Self::rewake).
    wake: Vec<Time>,
    /// Per pid, the tick its clocks were last caught up to.
    synced: Vec<Time>,
    env: Env,
    /// Scratch storage for [`gather_due`](Self::gather_due), reused
    /// across ticks so the hot loop never allocates.
    due_scratch: Vec<Due>,
    /// Scratch for draining the channel into, reused the same way.
    flight_scratch: Vec<InFlight>,
}

/// What the processes' reactions reach, at the current tick.
#[derive(Debug)]
struct Env {
    now: Time,
    channel: Channel,
    fault_hook: Option<Box<dyn FaultHook>>,
    rng: StdRng,
    ledger: RunLedger,
    sink: EventSink,
}

impl Effects for Env {
    fn send(&mut self, from: Pid, to: Pid, hb: Heartbeat, budget: u32) {
        let at = self.now;
        let ok = if let Some(hook) = &mut self.fault_hook {
            let fate = hook.fate(at, from, to);
            self.channel
                .send_shaped(&mut self.rng, at, (from, to), hb, budget, fate)
        } else {
            self.channel.send(&mut self.rng, at, from, to, hb, budget)
        };
        self.sink.emit(&Event::Send { at, from, to, hb });
        if !ok {
            self.sink.emit(&Event::Lose { at, from, to });
        }
    }

    /// The ledger reads the events it counts; a revive also needs the
    /// new epoch, which [`World::step`] reads off the revived state.
    fn emit(&mut self, e: &Event) {
        match *e {
            Event::Crash { at, pid } => self.ledger.crash(pid, at),
            Event::NvInactivate { at, pid } => self.ledger.nv_inactivation(pid, at),
            Event::Leave { at, pid } => self.ledger.leave(pid, at),
            _ => {}
        }
        self.sink.emit(e);
    }
}

/// A due event within the current tick.
#[derive(Clone, Copy, Debug)]
enum Due {
    Deliver(InFlight),
    CoordTimeout,
    Watchdog(Pid),
    JoinSend(Pid),
}

impl World {
    /// Create a world; `seed` makes the run reproducible.
    pub fn new(cfg: WorldConfig, seed: u64) -> Self {
        let coord_spec = CoordSpec::new(cfg.variant, cfg.params, cfg.n, cfg.fix);
        let resp_spec = RespSpec::new(cfg.variant, cfg.params, cfg.fix);
        World {
            coord: coord_spec.init_state(),
            resps: vec![None; cfg.n],
            start_at: vec![0; cfg.n],
            leave_after: vec![None; cfg.n],
            scheduled_crashes: Vec::new(),
            scheduled_revives: Vec::new(),
            next_injection: 0,
            wake: vec![Time::MAX; cfg.n + 1],
            synced: vec![0; cfg.n + 1],
            env: Env {
                now: 0,
                channel: Channel::new(cfg.loss_prob),
                fault_hook: None,
                rng: StdRng::seed_from_u64(seed),
                ledger: RunLedger::default(),
                sink: if cfg.log_events {
                    EventSink::memory()
                } else {
                    EventSink::disabled()
                },
            },
            due_scratch: Vec::new(),
            flight_scratch: Vec::new(),
            cfg,
            coord_spec,
            resp_spec,
        }
    }

    /// Schedule a crash of `pid` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `pid > n`.
    pub fn schedule_crash(&mut self, pid: Pid, t: Time) {
        assert!(pid <= self.cfg.n, "pid {pid} out of range");
        self.scheduled_crashes.push((pid, t));
        self.next_injection = self.next_injection.min(t.max(self.env.now));
    }

    /// Delay participant `pid`'s start until time `t` (join variants).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is 0 or out of range, or the run has begun.
    pub fn schedule_start(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.cfg.n).contains(&pid));
        assert_eq!(self.env.now, 0, "starts must be scheduled before running");
        self.start_at[pid - 1] = t;
    }

    /// Replace the channel's loss model (e.g. a Gilbert–Elliott burst
    /// chain). Resets nothing else; call before running.
    pub fn set_loss_model(&mut self, model: LossModel) {
        self.env.channel = Channel::with_model(model);
    }

    /// Drop every message sent in `[from, to)` — a total channel outage.
    pub fn set_outage(&mut self, from: Time, to: Time) {
        self.env.channel.set_outage(from, to);
    }

    /// Install an external fault engine that decides the fate of every
    /// message (drop / duplicate / extra delay). The hook **replaces**
    /// the channel's own loss model as the drop authority; call before
    /// running.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.env.fault_hook = Some(hook);
    }

    /// Make participant `pid` leave at the first beat it answers at or
    /// after time `t` (dynamic variant).
    pub fn schedule_leave(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.cfg.n).contains(&pid));
        self.leave_after[pid - 1] = Some(t);
    }

    /// Revive participant `pid` at time `t`: if it is crashed when `t`
    /// arrives, it restarts with a fresh state, a bumped epoch, and
    /// (for join variants) re-enters the join phase. A revive landing on
    /// a non-crashed participant is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is 0 or out of range — the coordinator cannot be
    /// revived (the §7 protocol restarts participants only).
    pub fn schedule_revive(&mut self, pid: Pid, t: Time) {
        assert!(
            (1..=self.cfg.n).contains(&pid),
            "pid {pid} out of revivable range"
        );
        self.scheduled_revives.push((pid, t));
        self.next_injection = self.next_injection.min(t.max(self.env.now));
    }

    /// Whether a scheduled revive has not yet fired.
    fn revives_pending(&self) -> bool {
        self.scheduled_revives
            .iter()
            .any(|&(_, t)| t >= self.env.now)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.env.now
    }

    /// The coordinator's current status.
    pub fn coord_status(&self) -> Status {
        self.coord.status
    }

    /// The status of participant `pid` (`None` if not yet started).
    pub fn resp_status(&self, pid: Pid) -> Option<Status> {
        self.resps[pid - 1].as_ref().map(|r| r.status)
    }

    /// Whether every relevant process is inactive: the coordinator plus
    /// every started participant that has not left.
    pub fn all_inactive(&self) -> bool {
        self.coord.status.is_inactive()
            && self
                .resps
                .iter()
                .flatten()
                .all(|r| r.status.is_inactive() || r.left)
    }

    /// Attach a live [`EventTap`](hb_core::events::EventTap) — e.g. a
    /// streaming requirement monitor — that sees every event the world
    /// emits, logged or not. The world's sink owns it, and one thread
    /// steps the world, so dispatch takes no lock. Recover it (e.g. to
    /// read monitor verdicts) with [`take_owned_taps`](Self::take_owned_taps)
    /// before [`into_report`](Self::into_report).
    pub fn attach_owned_tap(&mut self, tap: OwnedTap) {
        self.env.sink.attach_owned_tap(tap);
    }

    /// Detach and return every tap, in attachment order.
    pub fn take_owned_taps(&mut self) -> Vec<OwnedTap> {
        self.env.sink.take_owned_taps()
    }

    /// A copy of this world that, run on, ends where this one run on ends:
    /// its state, clocks, RNG, channel, ledger, scheduled faults and log,
    /// and forks of its hook and owned taps. `None` if the hook or the
    /// sink cannot be copied ([`FaultHook::fork`], [`EventSink::fork`]).
    pub fn fork(&self) -> Option<World> {
        let env = &self.env;
        let fault_hook = match &env.fault_hook {
            Some(hook) => Some(hook.fork()?),
            None => None,
        };
        let env = Env {
            channel: env.channel.clone(),
            fault_hook,
            rng: env.rng.clone(),
            ledger: env.ledger.clone(),
            sink: env.sink.fork()?,
            ..*env
        };
        Some(World {
            coord: self.coord.clone(),
            resps: self.resps.clone(),
            start_at: self.start_at.clone(),
            leave_after: self.leave_after.clone(),
            scheduled_crashes: self.scheduled_crashes.clone(),
            scheduled_revives: self.scheduled_revives.clone(),
            wake: self.wake.clone(),
            synced: self.synced.clone(),
            env,
            due_scratch: Vec::new(),
            flight_scratch: Vec::new(),
            ..*self
        })
    }

    /// Collect everything due this tick into `due_scratch` (cleared
    /// first). The element order fed to the shuffle — deliveries in
    /// channel-extraction order, then the coordinator timeout, then
    /// watchdogs/join-sends in pid order — is exactly the order the old
    /// allocating collector produced, so seeded runs are byte-identical.
    fn gather_due(&mut self) {
        self.due_scratch.clear();
        self.flight_scratch.clear();
        let env = &mut self.env;
        env.channel.due_into(env.now, &mut self.flight_scratch);
        self.due_scratch
            .extend(self.flight_scratch.drain(..).map(Due::Deliver));
        if self.cfg.fix.receive_priority() && !self.due_scratch.is_empty() {
            // §6.1 receive priority: as long as any delivery is due, only
            // deliveries execute — timeouts wait for the next gather round
            // (which also picks up zero-delay replies produced here).
            self.due_scratch.shuffle(&mut env.rng);
            return;
        }
        // A process before its wake tick has nothing due: ask the rest.
        for pid in 0..=self.cfg.n {
            if self.wake[pid] > self.env.now {
                continue;
            }
            self.catch_up(pid);
            if pid == 0 {
                if self.coord_spec.timeout_due(&self.coord) {
                    self.due_scratch.push(Due::CoordTimeout);
                }
            } else if let Some(r) = &self.resps[pid - 1] {
                if self.resp_spec.watchdog_due(r) {
                    self.due_scratch.push(Due::Watchdog(pid));
                }
                if self.resp_spec.join_send_due(r) {
                    self.due_scratch.push(Due::JoinSend(pid));
                }
            }
        }
        self.due_scratch.shuffle(&mut self.env.rng);
    }

    /// Move `pid`'s clocks over the ticks since it was last touched. A
    /// running process lags by at most its time left, which fits a `u32`.
    fn catch_up(&mut self, pid: Pid) {
        let k = u32::try_from(self.env.now - self.synced[pid]).unwrap_or(u32::MAX);
        self.synced[pid] = self.env.now;
        if pid == 0 {
            self.coord_spec.advance(&mut self.coord, k);
        } else if let Some(r) = &mut self.resps[pid - 1] {
            self.resp_spec.advance(r, k);
        }
    }

    /// Recompute `pid`'s wake tick after a call on its machine; time alone
    /// does not move it.
    fn rewake(&mut self, pid: Pid) {
        let resp = |r: &RespState| self.resp_spec.next_event_in(r);
        let due_in = match pid {
            0 => self.coord_spec.next_timeout_in(&self.coord),
            _ => self.resps[pid - 1].as_ref().and_then(resp),
        };
        self.wake[pid] = due_in.map_or(Time::MAX, |d| self.synced[pid] + Time::from(d));
    }

    /// Execute one gathered event. Each reaction runs only if its event
    /// is still due, so one an earlier event of the same batch invalidated
    /// (a delivery that reset the watchdog it raced against) does nothing —
    /// exactly the tie-resolution semantics of the verification models.
    /// The process reacts on a caught-up clock and is rewoken after.
    fn execute(&mut self, d: Due) {
        let pid = match d {
            Due::Deliver(m) => m.dst,
            Due::CoordTimeout => 0,
            Due::Watchdog(pid) | Due::JoinSend(pid) => pid,
        };
        self.catch_up(pid);
        let env = &mut self.env;
        let now = env.now;
        match d {
            Due::Deliver(m) => {
                let (at, from, to, hb) = (now, m.src, m.dst, m.hb);
                env.sink.emit(&Event::Deliver { at, from, to, hb });
                env.channel.delivered += 1;
                if m.dst == 0 {
                    react::coord_receive(&self.coord_spec, &mut self.coord, m.src, m.hb, env);
                } else if let Some(r) = &mut self.resps[m.dst - 1] {
                    // (messages to not-yet-started participants vanish)
                    let decision = react::leave_decision(self.leave_after[m.dst - 1], now);
                    let beat = (m.hb, m.budget_left);
                    react::resp_receive(&self.resp_spec, r, now, m.dst, beat, decision, env);
                }
            }
            Due::CoordTimeout => {
                react::coord_timeout(&self.coord_spec, &mut self.coord, now, env);
            }
            Due::Watchdog(pid) => {
                if let Some(r) = &mut self.resps[pid - 1] {
                    react::watchdog(&self.resp_spec, r, now, pid, env);
                }
            }
            Due::JoinSend(pid) => {
                if let Some(r) = &mut self.resps[pid - 1] {
                    react::join_send(&self.resp_spec, r, pid, env);
                }
            }
        }
        self.rewake(pid);
    }

    /// Land the crashes, revives and starts due at `now`, at the start of
    /// the tick, every clock caught up first (such ticks are rare).
    fn inject(&mut self, now: Time) {
        (0..=self.cfg.n).for_each(|pid| self.catch_up(pid));
        let mut crashes = std::mem::take(&mut self.scheduled_crashes);
        crashes.retain(|&(pid, t)| {
            if t != now {
                return true;
            }
            let status = if pid == 0 {
                Some(&mut self.coord.status)
            } else {
                self.resps[pid - 1].as_mut().map(|r| &mut r.status)
            };
            if let Some(status) = status {
                react::crash(status, now, pid, &mut self.env);
            }
            false
        });
        self.scheduled_crashes = crashes;
        let mut revives = std::mem::take(&mut self.scheduled_revives);
        revives.retain(|&(pid, t)| {
            if t != now {
                return true;
            }
            if let Some(r) = &mut self.resps[pid - 1] {
                let leave_after = &mut self.leave_after[pid - 1];
                if react::revive(&self.resp_spec, r, leave_after, now, pid, &mut self.env) {
                    self.env.ledger.revive(pid, r.epoch, now);
                }
            }
            false
        });
        self.scheduled_revives = revives;
        for i in 0..self.cfg.n {
            if self.resps[i].is_none() && self.start_at[i] == now {
                self.resps[i] = Some(self.resp_spec.init_state());
            }
        }
        (0..=self.cfg.n).for_each(|pid| self.rewake(pid));
        self.next_injection = self.first_injection(now + 1);
    }

    /// The earliest crash, revive or start at or after `from`.
    fn first_injection(&self, from: Time) -> Time {
        let starts = self.resps.iter().zip(&self.start_at);
        let starts = starts.filter_map(|(r, &t)| r.is_none().then_some(t));
        let faults = self.scheduled_crashes.iter().chain(&self.scheduled_revives);
        let at = starts.chain(faults.map(|&(_, t)| t)).filter(|&t| t >= from);
        at.min().unwrap_or(Time::MAX)
    }

    /// Advance the world by one tick.
    pub fn step(&mut self) {
        let now = self.env.now;
        if now == self.next_injection {
            self.inject(now);
        }
        // Drain all events due within this tick (replies may become due in
        // the same tick).
        loop {
            self.gather_due();
            if self.due_scratch.is_empty() {
                break;
            }
            // Take the batch out so `execute` may borrow the world; the
            // swap hands the allocation straight back for the next round.
            let batch = std::mem::take(&mut self.due_scratch);
            for &d in &batch {
                self.execute(d);
            }
            self.due_scratch = batch;
        }

        let (coord, resps) = (&self.coord, &self.resps);
        self.env.ledger.resolve_reconv(
            now,
            |pid| Some(coord.min_epoch[pid - 1]),
            |pid, epoch| {
                resps[pid - 1]
                    .as_ref()
                    .is_some_and(|r| r.status.is_active() && r.joined && r.epoch == epoch)
            },
        );
        let all_inactive = self.all_inactive();
        self.env.ledger.note_all_inactive(now, all_inactive);
        // Time passes; each clock catches up when its process is touched.
        self.env.now += 1;
    }

    /// The earliest tick, `now` or later, on which [`step`](Self::step)
    /// finds anything to do: a delivery, a machine's own deadline, a start,
    /// a scheduled crash or revive. `Time::MAX` if nothing ever will.
    fn next_event_at(&self) -> Time {
        let next = self.env.channel.next_due().min(self.next_injection);
        self.wake.iter().fold(next, |next, &w| next.min(w))
    }

    /// Jump over the ticks with nothing due (see the module docs): to
    /// [`next_event_at`](Self::next_event_at), never past `t`. Only `now`
    /// moves; each clock catches up when its process is next touched.
    fn skip_idle(&mut self, t: Time) {
        self.env.now = self.env.now.max(self.next_event_at().min(t));
    }

    /// Run until time `t` or until every process is inactive (a pending
    /// revive keeps the run alive — the crashed node is coming back): the
    /// result of [`step`](Self::step) on every tick, idle ones jumped over.
    pub fn run_until(&mut self, t: Time) {
        while self.env.now < t && (!self.all_inactive() || self.revives_pending()) {
            self.skip_idle(t);
            if self.env.now < t {
                self.step();
            }
        }
    }

    /// Finish the run and produce its record (`source: "sim"`), carrying
    /// the event log if one was recorded.
    pub fn into_report(self) -> RunSummary {
        let Env {
            now,
            channel,
            ledger,
            mut sink,
            ..
        } = self.env;
        let log = sink.take_log();
        let mut final_status = vec![self.coord.status];
        final_status.extend(
            self.resps
                .iter()
                .map(|r| r.as_ref().map(|r| r.status).unwrap_or(Status::Active)),
        );
        let stale = (self.coord.stale_admitted, self.coord.stale_filtered);
        let summary = ledger.into_summary("sim", now, channel.stats(), stale, final_status);
        RunSummary { log, ..summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(variant: Variant, tmin: u32, tmax: u32) -> WorldConfig {
        WorldConfig {
            variant,
            params: Params::new(tmin, tmax).unwrap(),
            fix: FixLevel::Original,
            n: 1,
            loss_prob: 0.0,
            log_events: false,
        }
    }

    #[test]
    fn lossless_steady_state_never_inactivates() {
        for seed in 0..5 {
            let mut w = World::new(cfg(Variant::Binary, 2, 8), seed);
            w.run_until(2_000);
            let r = w.into_report();
            assert_eq!(r.false_inactivations, 0, "seed {seed}");
            assert!(r.nv_inactivations.is_empty());
        }
    }

    #[test]
    fn steady_state_message_rate_is_two_per_tmax() {
        let mut w = World::new(cfg(Variant::Binary, 2, 10), 1);
        w.run_until(10_000);
        let r = w.into_report();
        // one beat + one reply per tmax round
        let expected = 2.0 / 10.0;
        assert!(
            (r.message_rate() - expected).abs() < 0.02,
            "rate {}",
            r.message_rate()
        );
    }

    #[test]
    fn revived_participant_re_registers_within_the_corrected_bound() {
        for seed in 0..10 {
            let mut w = World::new(
                WorldConfig {
                    fix: FixLevel::Full,
                    ..cfg(Variant::Binary, 2, 8)
                },
                seed,
            );
            w.schedule_crash(1, 100);
            w.schedule_revive(1, 104);
            w.run_until(400);
            assert_eq!(w.resp_status(1), Some(Status::Active), "seed {seed}");
            let r = w.into_report();
            assert_eq!(r.crashes, vec![(1, 100)], "seed {seed}");
            assert_eq!(r.revives, vec![(1, 104)], "seed {seed}");
            let bound = u64::from(
                Params::new(2, 8)
                    .unwrap()
                    .p0_bound_corrected(Variant::Binary),
            );
            let rc = r.reconv_detect.expect("must re-register");
            assert!(rc <= bound, "seed {seed}: detection {rc} > {bound}");
            // Binary has no join phase, so the revived participant is
            // joined the moment it is back: stability rides detection.
            let rs = r.reconv_stable.expect("must stabilise");
            assert!(rs >= rc, "seed {seed}: stable {rs} before detect {rc}");
            assert!(rs <= bound, "seed {seed}: stability {rs} > {bound}");
            // Nothing stale in a loss-free, in-order run.
            assert_eq!(r.stale_beats_admitted, 0, "seed {seed}");
            assert_eq!(r.stale_beats_filtered, 0, "seed {seed}");
        }
    }

    #[test]
    fn revive_of_a_live_participant_is_a_no_op() {
        let mut w = World::new(cfg(Variant::Binary, 2, 8), 7);
        w.schedule_revive(1, 100);
        w.run_until(1_000);
        let r = w.into_report();
        assert!(r.revives.is_empty(), "no crash, so nothing to revive");
        assert!(r.reconv_detect.is_none());
        assert!(r.reconv_stable.is_none());
        assert_eq!(r.false_inactivations, 0);
    }

    #[test]
    fn participant_crash_is_detected_within_bound() {
        for seed in 0..10 {
            let mut w = World::new(cfg(Variant::Binary, 2, 8), seed);
            w.schedule_crash(1, 100);
            w.run_until(100_000);
            let r = w.into_report();
            let delay = r.detection_delay.expect("must detect");
            // p0 detects within its corrected bound; p1 (crashed) counts as
            // inactive immediately; add tmax slack for the round phase.
            let bound = u64::from(
                Params::new(2, 8)
                    .unwrap()
                    .p0_bound_corrected(Variant::Binary),
            );
            assert!(delay <= bound, "seed {seed}: delay {delay} > {bound}");
        }
    }

    #[test]
    fn coordinator_crash_inactivates_participant() {
        for seed in 0..10 {
            let mut w = World::new(cfg(Variant::Binary, 2, 8), seed);
            w.schedule_crash(0, 50);
            w.run_until(100_000);
            let r = w.into_report();
            assert!(r.all_inactive(), "seed {seed}");
            let t = r.nv_time_of(1).expect("p1 inactivates");
            // within the original 3*tmax - tmin of the last beat received,
            // so within 50 + (3*8-2) + slack overall
            assert!(t <= 50 + 22 + 10, "seed {seed}: t={t}");
        }
    }

    #[test]
    fn heavy_loss_causes_false_inactivation() {
        let mut any = 0;
        for seed in 0..10 {
            let mut w = World::new(
                WorldConfig {
                    loss_prob: 0.9,
                    ..cfg(Variant::Binary, 2, 8)
                },
                seed,
            );
            w.run_until(5_000);
            let r = w.into_report();
            any += r.false_inactivations;
        }
        assert!(any > 0, "90% loss must eventually bottom out the halving");
    }

    #[test]
    fn expanding_participant_joins_late_and_exchanges_beats() {
        let mut w = World::new(cfg(Variant::Expanding, 2, 8), 3);
        w.schedule_start(1, 40);
        w.run_until(400);
        let r = w.into_report();
        assert!(r.nv_inactivations.is_empty());
        assert!(r.messages_sent > 40);
        assert_eq!(r.final_status[1], Status::Active);
    }

    #[test]
    fn dynamic_leave_is_graceful() {
        let mut w = World::new(cfg(Variant::Dynamic, 2, 8), 4);
        w.schedule_leave(1, 100);
        w.run_until(2_000);
        let r = w.into_report();
        assert_eq!(r.leaves.len(), 1);
        assert_eq!(r.leaves[0].0, 1);
        assert!(r.leaves[0].1 >= 100);
        // Leaving disturbs nobody: no inactivations anywhere.
        assert!(r.nv_inactivations.is_empty());
        assert_eq!(r.final_status[0], Status::Active);
    }

    #[test]
    fn event_log_records_when_enabled() {
        let mut w = World::new(
            WorldConfig {
                log_events: true,
                ..cfg(Variant::Binary, 2, 8)
            },
            5,
        );
        w.run_until(50);
        let r = w.into_report();
        assert!(!r.log.is_empty());
        assert!(r.log.to_string().contains("timeout at p[0]"));
    }

    #[test]
    fn seeds_are_reproducible() {
        let run = |seed| {
            let mut w = World::new(
                WorldConfig {
                    loss_prob: 0.2,
                    ..cfg(Variant::Binary, 2, 8)
                },
                seed,
            );
            w.run_until(1_000);
            let r = w.into_report();
            (r.messages_sent, r.messages_lost, r.nv_inactivations.len())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn fault_hook_owns_the_drop_decision() {
        // A one-way adversary: replies (1 -> 0) vanish, beats (0 -> 1)
        // pass. The coordinator starves and inactivates; the participant
        // follows once the beats stop. No crash was injected, so these
        // count as false inactivations.
        #[derive(Debug)]
        struct EatReplies;
        impl hb_core::fault::FaultHook for EatReplies {
            fn fate(&mut self, _now: Time, src: Pid, _dst: Pid) -> hb_core::fault::SendFate {
                if src == 0 {
                    hb_core::fault::SendFate::clean()
                } else {
                    hb_core::fault::SendFate::Drop
                }
            }
        }
        let mut w = World::new(cfg(Variant::Binary, 2, 8), 7);
        w.set_fault_hook(Box::new(EatReplies));
        w.run_until(10_000);
        let r = w.into_report();
        assert!(r.all_inactive(), "one-way starvation must bring it down");
        assert!(r.false_inactivations >= 2);
        assert!(r.messages_lost > 0);
    }

    impl World {
        /// Assert that every cache is what the machines and lists say:
        /// each wake tick (from the machine caught up to `now`), the
        /// injection cursor and the channel's earliest-due word.
        fn assert_caches(&self) {
            let now = self.env.now;
            for pid in 0..=self.cfg.n {
                let k = u32::try_from(now - self.synced[pid]).unwrap_or(u32::MAX);
                let due_in = if pid == 0 {
                    let mut c = self.coord.clone();
                    self.coord_spec.advance(&mut c, k);
                    self.coord_spec.next_timeout_in(&c)
                } else {
                    self.resps[pid - 1].and_then(|mut r| {
                        self.resp_spec.advance(&mut r, k);
                        self.resp_spec.next_event_in(&r)
                    })
                };
                let wake = due_in.map_or(Time::MAX, |d| now + Time::from(d));
                assert_eq!(self.wake[pid], wake, "p[{pid}]'s wake tick at {now}");
            }
            let cursor = self.first_injection(now);
            assert_eq!(self.next_injection, cursor, "the injection cursor at {now}");
            self.env.channel.assert_next_due();
        }
    }

    /// What `run_until` must stay equal to: its liveness condition around
    /// `step()`, every tick executed, the caches checked after each.
    fn run_stepwise(w: &mut World, t: Time) {
        while w.now() < t && (!w.all_inactive() || w.revives_pending()) {
            w.step();
            w.assert_caches();
        }
    }

    /// An adversary with every shape a hook can give a message: an outage
    /// window, a delay spike far past the round-trip budget, and every
    /// third message doubled.
    #[derive(Clone, Debug, Default)]
    struct Shaper(u32);
    impl FaultHook for Shaper {
        fn fate(&mut self, now: Time, _src: Pid, _dst: Pid) -> hb_core::fault::SendFate {
            self.0 += 1;
            if (200..212).contains(&now) {
                return hb_core::fault::SendFate::Drop;
            }
            hb_core::fault::SendFate::Deliver {
                copies: 1 + u32::from(self.0.is_multiple_of(3)),
                extra_delay: if (60..90).contains(&now) { 11 } else { 0 },
            }
        }

        fn fork(&self) -> Option<Box<dyn FaultHook>> {
            Some(Box::new(self.clone()))
        }
    }

    /// A fork taken mid-run, with frames in flight under a hook that
    /// drops, doubles and delays, and the log on, continued to the
    /// horizon, reports what the original continued reports, byte for
    /// byte, on every variant and fix level.
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
                let mut w = World::new(
                    WorldConfig {
                        fix,
                        n,
                        log_events: true,
                        ..cfg(variant, 2, 8)
                    },
                    5,
                );
                w.set_fault_hook(Box::new(Shaper::default()));
                w.schedule_crash(1, 150);
                w.schedule_revive(1, 160);
                // To a frame in flight, before the hook's delay spike.
                w.run_until(40);
                while w.env.channel.next_due() == Time::MAX && w.now() < 60 {
                    w.step();
                }
                assert!(
                    w.env.channel.next_due() < Time::MAX,
                    "{cell}: nothing in flight"
                );
                let at = w.now();
                let fork = w.fork().expect("a Shaper world forks");
                let [ran, forked] = [w, fork].map(|mut w| {
                    w.run_until(600);
                    w.into_report()
                });
                assert_eq!(ran.to_json(), forked.to_json(), "{cell}");
                assert_eq!(ran.log.events(), forked.log.events(), "{cell}");
                let after = ran.log.events().iter().filter(|e| e.at() > at).count();
                assert!(after > 30, "{cell}: the run must go on past the fork");
            }
        }
    }

    #[test]
    fn a_world_whose_hook_cannot_fork_does_not_fork() {
        #[derive(Debug)]
        struct Opaque;
        impl FaultHook for Opaque {
            fn fate(&mut self, _now: Time, _src: Pid, _dst: Pid) -> hb_core::fault::SendFate {
                hb_core::fault::SendFate::clean()
            }
        }
        let mut w = World::new(cfg(Variant::Binary, 2, 8), 1);
        assert!(w.fork().is_some(), "no hook, nothing to copy");
        w.set_fault_hook(Box::new(Opaque));
        assert!(w.fork().is_none());
    }

    /// Every cell of the stepping-equivalence grid (4 variants × 3 fix
    /// levels × 3 seeds × 5 networks × 7 fault plans), logged: `f` gets
    /// the cell's name, a builder for its world and the two horizons it
    /// runs to, as the benchmark's prime and run.
    fn for_each_grid_cell(mut f: impl FnMut(&str, &dyn Fn() -> World, [Time; 2])) {
        const NETS: [&str; 5] = ["lossless", "bernoulli", "burst", "outage", "hook"];
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
            let mut w = World::new(
                WorldConfig {
                    fix,
                    n,
                    loss_prob: if net == "bernoulli" { 0.2 } else { 0.0 },
                    log_events: true,
                    ..cfg(variant, 2, 8)
                },
                seed,
            );
            match net {
                "burst" => w.set_loss_model(LossModel::GilbertElliott {
                    to_bad: 0.1,
                    to_good: 0.3,
                    good_loss: 0.01,
                    bad_loss: 0.9,
                }),
                // Survivable, marginal and fatal, by seed.
                "outage" => w.set_outage(60, 66 + 12 * seed),
                "hook" => w.set_fault_hook(Box::new(Shaper::default())),
                _ => {}
            }
            // The victim alternates between a participant and p[0].
            let victim = if seed.is_multiple_of(2) { n } else { 0 };
            match plan {
                "crash" => w.schedule_crash(victim, 100 + seed),
                "crash+revive" => {
                    w.schedule_crash(1, 100);
                    // Before, around and long after the group has noticed.
                    w.schedule_revive(1, 104 + 40 * seed);
                }
                "late start" => w.schedule_start(n, 43 + seed),
                "leave" => w.schedule_leave(1, 90),
                "stray revive" => w.schedule_revive(1, 77),
                "mid-round horizon" => w.schedule_crash(victim, 150),
                _ => {}
            }
            w
        };
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
                            let legs = if plan == "mid-round horizon" {
                                [37, 301]
                            } else {
                                [120, 600]
                            };
                            f(&cell, &|| build(variant, fix, seed, net, plan), legs);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_until_equals_stepping_every_tick() {
        let mut events = 0;
        for_each_grid_cell(|cell, build, legs| {
            let (mut stepped, mut ran) = (build(), build());
            for t in legs {
                run_stepwise(&mut stepped, t);
                run_counting(&mut ran, t);
                assert_eq!(stepped.now(), ran.now(), "{cell}: now at leg {t}");
            }
            let (stepped, ran) = (stepped.into_report(), ran.into_report());
            assert_eq!(stepped.to_json(), ran.to_json(), "{cell}");
            assert_eq!(stepped.log.events(), ran.log.events(), "{cell}");
            events += ran.log.len();
        });
        assert!(events > 250_000, "the grid must actually run: {events}");
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// A tap folding every event's JSON record into one FNV-1a-64 digest,
    /// for runs whose log would not fit in memory.
    #[derive(Debug)]
    struct Digest(u64);
    impl hb_core::events::EventTap for Digest {
        fn on_event(&mut self, e: &Event) {
            self.0 = fnv1a(self.0, hb_core::events::event_json(e).as_bytes());
        }
    }

    /// Every byte a world reports, pinned: one FNV-1a-64 digest over the
    /// summary JSON and the event log of every cell of the stepping grid,
    /// run by `run_until`, and of the benchmark's steady cell (static,
    /// `(2, 8)`, full fix, lossless) at n = 1, 8 and 64 over 80 000
    /// ticks. The grid compares `run_until` with hand-stepping, and both
    /// run the same `step`; this pins what either produced before the
    /// simulator learned to touch only the processes that are due.
    #[test]
    fn world_runs_are_pinned() {
        let mut digest = 0xcbf2_9ce4_8422_2325;
        let mut events = 0;
        for_each_grid_cell(|_, build, legs| {
            let mut w = build();
            for t in legs {
                w.run_until(t);
            }
            let r = w.into_report();
            digest = fnv1a(digest, r.to_json().as_bytes());
            for e in r.log.events() {
                digest = fnv1a(digest, hb_core::events::event_json(e).as_bytes());
            }
            events += r.log.len();
        });
        for n in [1, 8, 64] {
            let mut w = World::new(
                WorldConfig {
                    fix: FixLevel::Full,
                    n,
                    ..cfg(Variant::Static, 2, 8)
                },
                2001,
            );
            w.attach_owned_tap(Box::new(Digest(digest)));
            w.run_until(80_000);
            let tap = w.take_owned_taps().pop().expect("the digest comes back");
            let tap = tap.into_any().downcast::<Digest>().expect("a Digest");
            assert_eq!(w.now(), 80_000, "n = {n}: the steady group stays up");
            digest = fnv1a(tap.0, w.into_report().to_json().as_bytes());
        }
        assert!(events > 250_000, "the grid must actually run: {events}");
        assert_eq!(digest, 0x97de_11bf_b7b0_f225, "{digest:#018x}");
    }

    /// A crash and a revive scheduled once the run has begun fire on
    /// their tick — the current one, or a later one reached by a jump or
    /// by hand-stepping, whether or not another injection is pending
    /// before it — and one scheduled in the past never fires.
    #[test]
    fn injections_scheduled_mid_run_fire_on_their_tick() {
        for fix in [FixLevel::Original, FixLevel::Full] {
            let world = World::new(
                WorldConfig {
                    fix,
                    n: 3,
                    log_events: true,
                    ..cfg(Variant::Static, 2, 8)
                },
                9,
            );
            let (mut stepped, mut ran) = (world.fork().unwrap(), world);
            for (t, leg) in [(50, 0), (52, 1), (120, 2), (400, 3)] {
                run_stepwise(&mut stepped, t);
                ran.run_until(t);
                for w in [&mut stepped, &mut ran] {
                    match leg {
                        // On the current tick, which the run jumped to.
                        0 => {
                            w.schedule_crash(1, 50);
                            w.schedule_crash(2, 20);
                            w.schedule_revive(2, 30);
                        }
                        // Later, with nothing else pending.
                        1 => w.schedule_revive(1, 53),
                        // Later, mid-way through a quiet stretch.
                        2 => {
                            w.schedule_crash(3, 141);
                            w.schedule_revive(3, 146);
                            w.schedule_revive(3, 20);
                        }
                        _ => {}
                    }
                }
            }
            let (stepped, ran) = (stepped.into_report(), ran.into_report());
            assert_eq!(stepped.to_json(), ran.to_json(), "{fix}");
            assert_eq!(stepped.log.events(), ran.log.events(), "{fix}");
            assert_eq!(ran.crashes, vec![(1, 50), (3, 141)], "{fix}");
            assert_eq!(ran.revives, vec![(1, 53), (3, 146)], "{fix}");
        }
    }

    /// `run_until`'s own loop, counting the ticks it steps and the ticks
    /// it jumps over, and checking every cache after every step.
    fn run_counting(w: &mut World, t: Time) -> (Time, Time) {
        let (mut stepped, mut jumped) = (0, 0);
        while w.now() < t && (!w.all_inactive() || w.revives_pending()) {
            let from = w.now();
            w.skip_idle(t);
            jumped += w.now() - from;
            if w.now() < t {
                w.step();
                stepped += 1;
                w.assert_caches();
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
            let mut w = World::new(
                WorldConfig {
                    fix: FixLevel::Full,
                    n,
                    ..cfg(variant, 2, 8)
                },
                2001,
            );
            run_counting(&mut w, 80_000)
        };
        assert_eq!(steady(8, Variant::Static), (29_894, 50_106)); // 37.4 % stepped
        assert_eq!(steady(4, Variant::Static), (28_824, 51_176)); // 36.0 %
        assert_eq!(steady(1, Variant::Binary), (20_580, 59_420)); // 25.7 %
        let (mut stepped, mut jumped) = (0, 0);
        for seed in 0..30 {
            let mut w = World::new(
                WorldConfig {
                    fix: FixLevel::Full,
                    n: 4,
                    loss_prob: 0.02,
                    ..cfg(Variant::Static, 2, 8)
                },
                seed,
            );
            w.schedule_crash(2, 200);
            let (s, j) = run_counting(&mut w, 400);
            stepped += s;
            jumped += j;
        }
        assert_eq!((stepped, jumped), (1_770, 3_078)); // 36.5 %
    }

    #[test]
    fn static_world_with_three_participants() {
        let mut w = World::new(
            WorldConfig {
                n: 3,
                ..cfg(Variant::Static, 2, 8)
            },
            6,
        );
        w.schedule_crash(2, 100);
        w.run_until(100_000);
        let r = w.into_report();
        // any crash brings the whole network down (GM98's goal)
        assert!(r.all_inactive());
        assert!(r.detection_delay.is_some());
    }
}
