//! An in-process loopback transport with injectable loss and delay.
//!
//! A [`LoopbackCore`] passes frames through the same fault pipeline as the
//! simulator's channel — a [`LossModel`] (Bernoulli or Gilbert–Elliott
//! burst) decides drops, and delays are drawn uniformly from `0..=budget`
//! ticks, consuming the round-trip budget exactly like
//! [`hb_sim::channel::Channel`] — so a live loopback run is directly
//! comparable to a simulated run. Single-threaded harnesses drive the core
//! itself; a [`LoopbackNet`] puts it behind a lock for nodes on threads.
//!
//! Control frames bypass the fault pipeline (instant, lossless delivery)
//! and the message counters: they are the test harness's hand, not
//! protocol traffic.
//!
//! An external adversary plugs in where it does on the other two queues
//! ([`hb_sim::World`], `hb_member::Engine`): one [`FaultHook`] consulted
//! as a message enters the queue, ahead of the network's own loss model.

use std::io;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Release};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use hb_core::events::EventSink;
use hb_core::trace::Event;
use hb_core::Pid;
use hb_sim::channel::{draw_delivery, FaultHook, LossModel, SendFate};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::Time;
use crate::transport::{Recv, Transport};
use crate::wire::Frame;

/// Fault injection for a loopback network.
#[derive(Clone, Copy, Debug)]
pub struct Faults {
    /// How heartbeat frames get dropped.
    pub loss: LossModel,
}

impl Faults {
    /// A perfect network.
    pub fn none() -> Self {
        Faults {
            loss: LossModel::Bernoulli(0.0),
        }
    }

    /// Independent per-message loss.
    pub fn bernoulli(p: f64) -> Self {
        Faults {
            loss: LossModel::Bernoulli(p),
        }
    }

    /// A Gilbert–Elliott burst-loss chain (see [`LossModel`]).
    pub fn burst(to_bad: f64, to_good: f64, good_loss: f64, bad_loss: f64) -> Self {
        Faults {
            loss: LossModel::GilbertElliott {
                to_bad,
                to_good,
                good_loss,
                bad_loss,
            },
        }
    }
}

pub use hb_sim::schema::NetStats;

#[derive(Clone, Copy, Debug)]
struct Stored {
    deliver_at: Time,
    frame: Frame,
    budget_left: u32,
}

/// The loopback queue itself, without any locking: per-destination
/// queues, the loss model with its burst state, the seeded loss/delay
/// randomness and the beat counters. [`LoopbackNet`] is this core behind
/// a mutex and a condvar; single-threaded harnesses (the tick-stepped
/// cluster, the simulated membership mesh) drive it directly — one
/// implementation, so all of them consume fault randomness identically:
/// per in-band frame one loss draw then one uniform in-budget delay draw,
/// in send order.
pub struct LoopbackCore {
    queues: Vec<Vec<Stored>>,
    /// Per destination, the earliest `deliver_at` in its queue ([`NEVER`]
    /// when empty): a tick on which nothing is due costs one compare per
    /// question asked, not a scan. Atomics only so that [`LoopbackNet`]
    /// can read its clone of the `Arc` without the lock; every store
    /// happens through `&mut self`.
    due: Arc<[AtomicU64]>,
    loss: LossModel,
    ge_bad: bool,
    rng: StdRng,
    stats: NetStats,
    /// The external adversary, asked once per in-band send before the
    /// loss model above sees the frame (or each copy the hook made of it).
    pub(crate) hook: Option<Box<dyn FaultHook>>,
    /// The tap site of a cluster stepped on one thread (disabled outside
    /// one). It hears a `lose` record for every beat dropped here — the
    /// drop is known to the network alone, and a streaming monitor's
    /// fault-free premise depends on it — and, through
    /// [`Transport::tap`], every event of the node the core is lent to.
    pub(crate) tap: EventSink,
}

// The `#[inline]`s in this file matter across crates only: the membership
// engine is instantiated in `hb-member`, where a non-inline `send`/`recv`
// is a call handing a ~150-byte `Recv` back through memory (measured
// without them: -9 % `member_failover` work/s; `live_loopback`, whose
// callers are in this crate, and `chaos_campaign` do not move).
impl LoopbackCore {
    /// Queues for pids `0..endpoints` with seeded loss/delay randomness.
    pub fn new(endpoints: usize, loss: LossModel, seed: u64) -> Self {
        LoopbackCore {
            queues: (0..endpoints).map(|_| Vec::new()).collect(),
            due: (0..endpoints).map(|_| AtomicU64::new(NEVER)).collect(),
            loss,
            ge_bad: false,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            hook: None,
            tap: EventSink::disabled(),
        }
    }

    /// Queue `frame` for `dst`; returns whether it was queued (not lost).
    /// Control frames are out-of-band: instant, lossless, uncounted, and
    /// never shown to the fault hook. Membership traffic rides the same
    /// in-band channel as beats (delayed, droppable) but stays out of the
    /// beat stats — overhead comparisons against the paper's message
    /// counts must not be skewed by the member layer.
    ///
    /// Under a fault hook one logical send is dropped, or each copy goes
    /// on through the loss model with the hook's extra delay on top of
    /// its own in-budget draw.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    #[inline]
    pub fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> bool {
        assert!(dst < self.queues.len(), "no endpoint {dst}");
        if matches!(frame, Frame::Control { .. }) {
            self.push(now, dst, frame, 0);
            return true;
        }
        if matches!(frame, Frame::Beat { .. }) {
            self.stats.sent += 1;
        }
        let fate = match &mut self.hook {
            Some(hook) => hook.fate(now, frame.src(), dst),
            None => SendFate::clean(),
        };
        let SendFate::Deliver {
            copies,
            extra_delay,
        } = fate
        else {
            self.lose(now, dst, frame);
            return false;
        };
        let mut queued = false;
        for _ in 0..copies {
            queued |= self.enqueue(now, dst, frame, budget, extra_delay);
        }
        queued
    }

    /// One frame through the network's own faults: a loss draw, then the
    /// delay draw every queue shares. Returns whether it was queued.
    #[inline(always)]
    fn enqueue(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32, extra: u32) -> bool {
        if self.loss.drops(&mut self.ge_bad, &mut self.rng) {
            self.lose(now, dst, frame);
            return false;
        }
        let (deliver_at, budget_left) = draw_delivery(&mut self.rng, now, budget, extra);
        self.push(deliver_at, dst, frame, budget_left);
        true
    }

    #[inline(always)]
    fn push(&mut self, deliver_at: Time, dst: Pid, frame: &Frame, budget_left: u32) {
        self.queues[dst].push(Stored {
            deliver_at,
            frame: *frame,
            budget_left,
        });
        if deliver_at < self.due[dst].load(Acquire) {
            self.due[dst].store(deliver_at, Release);
        }
    }

    /// The one drop site, for the hook's verdicts and the loss model's.
    #[cold]
    fn lose(&mut self, now: Time, dst: Pid, frame: &Frame) {
        if let Frame::Beat { src, .. } = *frame {
            self.stats.lost += 1;
            self.tap.emit(&Event::Lose {
                at: now,
                from: src,
                to: dst,
            });
        }
    }

    /// Take the earliest frame deliverable to `pid` at `now` (FIFO among
    /// equal times, for a deterministic processing order).
    #[inline]
    pub fn recv(&mut self, now: Time, pid: Pid) -> Option<Recv> {
        let earliest = due_at(&self.due[pid], now)?;
        // The first frame at the queue's minimum time is the
        // `min_by_key((deliver_at, index))` of the due ones.
        let queue = &mut self.queues[pid];
        #[expect(
            clippy::expect_used,
            reason = "due[pid] is the minimum deliver_at of queues[pid], kept so by send, recv and purge"
        )]
        let i = queue
            .iter()
            .position(|m| m.deliver_at == earliest)
            .expect("the due index names a queued frame");
        let m = queue.remove(i);
        let next = queue.iter().map(|m| m.deliver_at).min();
        self.due[pid].store(next.unwrap_or(NEVER), Release);
        if matches!(m.frame, Frame::Beat { .. }) {
            self.stats.delivered += 1;
        }
        Some(Recv {
            frame: m.frame,
            reply_budget: m.budget_left,
        })
    }

    /// Whether any frame is deliverable at `now`.
    #[inline]
    pub fn any_deliverable(&self, now: Time) -> bool {
        any_due(&self.due, now)
    }

    /// The earliest delivery time queued for `pid` ([`NEVER`]: none).
    #[inline]
    pub(crate) fn next_due(&self, pid: Pid) -> Time {
        self.due[pid].load(Acquire)
    }

    /// Message counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A deep copy for a forked cluster (its own due index, not the `Arc`);
    /// `None` if the hook or the tap site cannot fork.
    pub(crate) fn fork(&self) -> Option<LoopbackCore> {
        let hook = self
            .hook
            .as_ref()
            .map_or(Some(None), |h| h.fork().map(Some))?;
        Some(LoopbackCore {
            queues: self.queues.clone(),
            due: self.due.iter().map(|at| at.load(Acquire).into()).collect(),
            rng: self.rng.clone(),
            hook,
            tap: self.tap.fork()?,
            ..*self
        })
    }

    /// Discard everything queued for `pid` (its beats counted as
    /// delivered into the void; like `send` and `recv`, the counters see
    /// beats only).
    pub fn purge(&mut self, pid: Pid) {
        let beats = self.queues[pid]
            .iter()
            .filter(|m| matches!(m.frame, Frame::Beat { .. }))
            .count();
        self.stats.delivered += beats as u64;
        self.queues[pid].clear();
        self.due[pid].store(NEVER, Release);
    }
}

/// The due index's "queue empty". No frame is ever due at this tick: a
/// clock would have to count to `u64::MAX`, and `send`'s `now + delay`
/// overflows first.
const NEVER: Time = Time::MAX;

/// One destination's earliest delivery time, if that is due at `now`. The
/// `Acquire` pairs with the `Release` stores in [`LoopbackCore`], all made
/// through `&mut`; the frames themselves are only ever read that way, so a
/// stale value costs a reader nothing but a poll that ran a moment early.
#[inline]
fn due_at(slot: &AtomicU64, now: Time) -> Option<Time> {
    let at = slot.load(Acquire);
    (at <= now && at != NEVER).then_some(at)
}

#[inline]
fn any_due(due: &[AtomicU64], now: Time) -> bool {
    due.iter().any(|slot| due_at(slot, now).is_some())
}

/// What the net's mutex guards: the core, and how many endpoints are
/// blocked in [`Transport::wait`].
struct Shared {
    core: LoopbackCore,
    waiters: usize,
}

struct Inner {
    state: Mutex<Shared>,
    arrived: Condvar,
    /// The core's due index, readable without `state`: a poll that finds
    /// nothing due never takes the lock.
    due: Arc<[AtomicU64]>,
}

impl Inner {
    #[expect(
        clippy::expect_used,
        reason = "poisoned only if a thread panicked mid-operation; the queues may then be torn, so fail loudly"
    )]
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.state
            .lock()
            .expect("a loopback user panicked while holding the lock")
    }
}

/// A loopback network connecting a fixed set of endpoints.
#[derive(Clone)]
pub struct LoopbackNet {
    inner: Arc<Inner>,
}

impl LoopbackNet {
    /// A network with `endpoints` addressable pids (`0..endpoints`),
    /// seeded fault randomness, and the given fault plan.
    pub fn new(endpoints: usize, faults: Faults, seed: u64) -> Self {
        let core = LoopbackCore::new(endpoints, faults.loss, seed);
        LoopbackNet {
            inner: Arc::new(Inner {
                due: Arc::clone(&core.due),
                state: Mutex::new(Shared { core, waiters: 0 }),
                arrived: Condvar::new(),
            }),
        }
    }

    /// The endpoint for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn endpoint(&self, pid: Pid) -> LoopbackEndpoint {
        assert!(pid < self.inner.due.len(), "pid {pid} out of range");
        LoopbackEndpoint {
            inner: Arc::clone(&self.inner),
            pid,
        }
    }

    /// Whether any frame is deliverable at `now`.
    #[inline]
    pub fn any_deliverable(&self, now: Time) -> bool {
        any_due(&self.inner.due, now)
    }

    /// Message counters so far.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().core.stats()
    }

    /// Discard everything queued for `pid` — used when a node starts late,
    /// mirroring the simulator's "messages to not-yet-started participants
    /// vanish" (they count as delivered-into-the-void).
    pub fn purge(&self, pid: Pid) {
        self.inner.lock().core.purge(pid);
    }
}

/// One node's handle onto a [`LoopbackNet`].
pub struct LoopbackEndpoint {
    inner: Arc<Inner>,
    pid: Pid,
}

impl Transport for LoopbackEndpoint {
    #[inline]
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        if dst >= self.inner.due.len() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no endpoint {dst}"),
            ));
        }
        let mut st = self.inner.lock();
        let wake = st.core.send(now, dst, frame, budget) && st.waiters > 0;
        drop(st);
        // Only with someone blocked in `wait`: std's condvar makes the
        // futex-wake syscall whether or not anyone sleeps on it, and the
        // tick-stepped harnesses never do.
        if wake {
            self.inner.arrived.notify_all();
        }
        Ok(())
    }

    #[inline]
    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        // The miss: nothing queued for us is due ([`NEVER`] is later than
        // any `now`), and the lock stays untaken.
        if self.inner.due[self.pid].load(Acquire) > now {
            return Ok(None);
        }
        Ok(self.inner.lock().core.recv(now, self.pid))
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let mut st = self.inner.lock();
        if !st.core.queues[self.pid].is_empty() {
            return Ok(());
        }
        // No lost wakeup: `waiters` is raised under the lock that
        // `wait_timeout` then releases atomically with going to sleep. A
        // send to us that held the lock first left a non-empty queue and we
        // returned above; one that takes it after us reads `waiters > 0`
        // and notifies.
        st.waiters += 1;
        let (mut st, _timed_out) = self
            .inner
            .arrived
            .wait_timeout(st, timeout)
            .map_err(|_| io::Error::other("loopback lock poisoned"))?;
        st.waiters -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Command;
    use hb_core::Heartbeat;

    #[test]
    fn delivery_respects_delay_budget() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        for _ in 0..50 {
            a.send(10, 1, &Frame::beat(0, Heartbeat::plain()), 3)
                .unwrap();
        }
        assert_eq!(b.try_recv(9).unwrap(), None, "nothing before send time");
        let mut got = 0;
        let mut budget_seen = false;
        for t in 10..=13 {
            while let Some(r) = b.try_recv(t).unwrap() {
                got += 1;
                // budget_left + delay == 3 always
                budget_seen |= r.reply_budget < 3;
                assert!(r.reply_budget <= 3);
            }
        }
        assert_eq!(got, 50);
        assert!(budget_seen, "some delay must have been drawn");
        assert_eq!(
            net.stats(),
            NetStats {
                sent: 50,
                delivered: 50,
                lost: 0
            }
        );
    }

    #[test]
    fn bernoulli_loss_drops_at_the_configured_rate() {
        let net = LoopbackNet::new(2, Faults::bernoulli(0.3), 7);
        let mut a = net.endpoint(0);
        for _ in 0..5_000 {
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 2)
                .unwrap();
        }
        let s = net.stats();
        let rate = s.lost as f64 / s.sent as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn control_frames_are_instant_lossless_and_uncounted() {
        let net = LoopbackNet::new(2, Faults::bernoulli(1.0), 3);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        a.send(5, 1, &Frame::control(0, Command::Crash), 4).unwrap();
        let r = b.try_recv(5).unwrap().expect("instant delivery");
        assert_eq!(r.frame, Frame::control(0, Command::Crash));
        assert_eq!(net.stats(), NetStats::default());
        // ...while beats on the same network are all eaten.
        a.send(5, 1, &Frame::beat(0, Heartbeat::plain()), 4)
            .unwrap();
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn purge_vanishes_pending_frames_and_counts_the_beats() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
            .unwrap();
        a.send(0, 1, &Frame::control(0, Command::Crash), 0).unwrap();
        a.send(0, 1, &Frame::state_request(0, 0, 1), 0).unwrap();
        assert!(net.any_deliverable(0));
        net.purge(1);
        assert!(!net.any_deliverable(0));
        // Like `send` and `recv`, the counters see beats only.
        assert_eq!(
            net.stats(),
            NetStats {
                sent: 1,
                delivered: 1,
                lost: 0
            }
        );
    }

    #[test]
    fn unknown_destination_errors() {
        let net = LoopbackNet::new(1, Faults::none(), 1);
        let mut a = net.endpoint(0);
        assert!(a
            .send(0, 5, &Frame::beat(0, Heartbeat::plain()), 0)
            .is_err());
    }

    #[test]
    fn wait_returns_on_arrival() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .unwrap();
        });
        let t0 = std::time::Instant::now();
        b.wait(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "woken by arrival");
        t.join().unwrap();
    }

    /// A hook with one answer for everything.
    #[derive(Debug)]
    struct Always(SendFate);

    impl FaultHook for Always {
        fn fate(&mut self, _now: Time, _src: Pid, _dst: Pid) -> SendFate {
            self.0
        }
    }

    fn hooked(faults: Faults, fate: SendFate) -> LoopbackCore {
        let mut core = LoopbackCore::new(2, faults.loss, 11);
        core.hook = Some(Box::new(Always(fate)));
        core
    }

    fn beat() -> Frame {
        Frame::beat(0, Heartbeat::plain())
    }

    #[test]
    fn a_hook_that_shapes_nothing_leaves_the_randomness_alone() {
        // 1 000 seeded sends under loss, drained as they fall due.
        let run = |mut core: LoopbackCore| {
            let mut got = Vec::new();
            for i in 0..1_000 {
                let now = i / 3;
                core.send(now, 1, &beat(), 4);
                while let Some(r) = core.recv(now, 1) {
                    got.push((now, r));
                }
            }
            (got, core.stats())
        };
        let faults = Faults::bernoulli(0.2);
        let plain = run(LoopbackCore::new(2, faults.loss, 11));
        assert!(
            plain.1.lost > 100 && plain.1.delivered > 700,
            "{:?}",
            plain.1
        );
        assert_eq!(run(hooked(faults, SendFate::clean())), plain);
    }

    #[test]
    fn a_dropped_beat_is_one_sent_one_lost_and_control_frames_skip_the_hook() {
        let mut core = hooked(Faults::none(), SendFate::Drop);
        assert!(!core.send(5, 1, &beat(), 4));
        assert!(core.send(5, 1, &Frame::control(0, Command::Crash), 4));
        let r = core.recv(5, 1).expect("the hook never saw it");
        assert_eq!(r.frame, Frame::control(0, Command::Crash));
        assert_eq!(core.recv(9, 1), None);
        assert_eq!(
            core.stats(),
            NetStats {
                sent: 1,
                delivered: 0,
                lost: 1
            }
        );
    }

    #[test]
    fn a_duplicated_beat_is_one_sent_two_delivered() {
        let fate = SendFate::Deliver {
            copies: 2,
            extra_delay: 0,
        };
        let mut core = hooked(Faults::none(), fate);
        core.send(0, 1, &beat(), 0);
        assert!(core.recv(0, 1).is_some());
        assert!(core.recv(0, 1).is_some());
        assert_eq!(core.recv(0, 1), None);
        assert_eq!(
            core.stats(),
            NetStats {
                sent: 1,
                delivered: 2,
                lost: 0
            }
        );
    }

    #[test]
    fn a_delayed_beat_is_queued_when_sent_for_a_later_tick() {
        let fate = SendFate::Deliver {
            copies: 1,
            extra_delay: 3,
        };
        let mut core = hooked(Faults::none(), fate);
        core.send(10, 1, &beat(), 5);
        for early in 10..13 {
            assert!(!core.any_deliverable(early));
            assert_eq!(core.recv(early, 1), None);
        }
        // The extra delay, then at most the whole budget on top of it.
        let r = (13..=18)
            .find_map(|t| core.recv(t, 1))
            .expect("delivered by send + extra + budget");
        assert!(r.reply_budget <= 5 - 3, "{r:?}");
    }

    /// One delay rule on both substrates: over a `(budget, extra)` grid a
    /// hooked core and the simulator's channel reach the same set of
    /// `(ticks in flight, reply budget left)` outcomes.
    #[test]
    fn a_hooked_core_delays_a_frame_exactly_as_the_simulators_channel_does() {
        use hb_sim::channel::Channel;
        use std::collections::BTreeSet;
        const NOW: Time = 10;
        for budget in 0..=3u32 {
            for extra in 0..=4u32 {
                let fate = SendFate::Deliver {
                    copies: 1,
                    extra_delay: extra,
                };
                let mut rng = StdRng::seed_from_u64(3);
                let mut channel = Channel::new(0.0);
                let mut core = LoopbackCore::new(2, LossModel::Bernoulli(0.0), 3);
                core.hook = Some(Box::new(Always(fate)));
                for _ in 0..200 {
                    channel.send_shaped(&mut rng, NOW, (0, 1), Heartbeat::plain(), budget, fate);
                    core.send(NOW, 1, &beat(), budget);
                }
                let (mut sim, mut live) = (BTreeSet::new(), BTreeSet::new());
                for t in NOW..=NOW + Time::from(budget + extra) {
                    for m in channel.due(t) {
                        sim.insert((m.deliver_at - NOW, m.budget_left));
                    }
                    while let Some(r) = core.recv(t, 1) {
                        live.insert((t - NOW, r.reply_budget));
                    }
                }
                assert_eq!(channel.pending(), 0);
                assert_eq!(sim.len(), budget as usize + 1, "every delay drawn");
                assert_eq!(live, sim, "budget {budget}, extra {extra}");
            }
        }
    }
}
