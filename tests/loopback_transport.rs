//! The loopback transport on its own, below the cluster harness:
//!
//! * its due-time index answers exactly what a scan of the queues would
//!   (same `Recv` sequence, same `any_deliverable`, same counters, same
//!   random draws), checked against a scanning reference kept here;
//! * a hooked core delays a frame exactly as the simulator's channel does;
//! * threads that block in `Transport::wait` never miss an arrival, even
//!   though `send` only signals the condvar when someone is waiting;
//! * node threads that share one tap each feed it their own events, once.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::events::{EventTap, SharedTap};
use accelerated_heartbeat::core::fault::{FaultHook, LossModel, SendFate};
use accelerated_heartbeat::core::responder::RespSpec;
use accelerated_heartbeat::core::schema::NetStats;
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::view::View;
use accelerated_heartbeat::core::{FixLevel, Heartbeat, Params, Pid, Status, Variant};
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::net::{
    Command, EventSink, Faults, Frame, LoopbackCore, LoopbackNet, NodeRuntime, Recv, Time,
    Transport, WallClock,
};
use accelerated_heartbeat::sim::channel::Channel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENDPOINTS: usize = 3;

/// The loopback queue as it was before the due-time index: every question
/// is answered by scanning the stored frames. Loss and delay are drawn in
/// the same places in the same order as [`LoopbackCore`].
struct ScanCore {
    queues: Vec<Vec<(Time, Frame, u32)>>,
    loss: LossModel,
    ge_bad: bool,
    rng: StdRng,
    stats: NetStats,
}

impl ScanCore {
    fn new(endpoints: usize, loss: LossModel, seed: u64) -> Self {
        ScanCore {
            queues: vec![Vec::new(); endpoints],
            loss,
            ge_bad: false,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
        }
    }

    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> bool {
        let (delay, budget_left) = if matches!(frame, Frame::Control { .. }) {
            (0, 0)
        } else {
            let counted = matches!(frame, Frame::Beat { .. });
            self.stats.sent += u64::from(counted);
            if self.loss.drops(&mut self.ge_bad, &mut self.rng) {
                self.stats.lost += u64::from(counted);
                return false;
            }
            let delay = self.rng.gen_range(0..=budget);
            (delay, budget - delay)
        };
        self.queues[dst].push((now + Time::from(delay), *frame, budget_left));
        true
    }

    fn recv(&mut self, now: Time, pid: Pid) -> Option<Recv> {
        let i = self.queues[pid]
            .iter()
            .enumerate()
            .filter(|(_, m)| m.0 <= now)
            .min_by_key(|(i, m)| (m.0, *i))
            .map(|(i, _)| i)?;
        let (_, frame, reply_budget) = self.queues[pid].remove(i);
        self.stats.delivered += u64::from(matches!(frame, Frame::Beat { .. }));
        Some(Recv {
            frame,
            reply_budget,
        })
    }

    fn any_deliverable(&self, now: Time) -> bool {
        self.queues.iter().any(|q| q.iter().any(|m| m.0 <= now))
    }

    fn purge(&mut self, pid: Pid) {
        let beats = self.queues[pid]
            .iter()
            .filter(|m| matches!(m.1, Frame::Beat { .. }))
            .count();
        self.stats.delivered += beats as u64;
        self.queues[pid].clear();
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `kind` picks beat / control / one of the three member frames.
    Send {
        dst: Pid,
        kind: u8,
        budget: u32,
    },
    Recv {
        pid: Pid,
    },
    AnyDeliverable,
    Purge {
        pid: Pid,
    },
}

/// One operation and the tick it is asked at. Ticks are deliberately not
/// monotone: skewed local clocks ask the same queue about different
/// `now`s within one cluster tick.
fn any_op() -> impl Strategy<Value = (Time, Op)> {
    (0u64..12, 0u8..8, 0..ENDPOINTS, (0u8..5, 0u32..=4)).prop_map(
        |(now, which, pid, (kind, budget))| {
            let op = match which {
                0..=2 => Op::Send {
                    dst: pid,
                    kind,
                    budget,
                },
                3..=5 => Op::Recv { pid },
                6 => Op::AnyDeliverable,
                _ => Op::Purge { pid },
            };
            (now, op)
        },
    )
}

fn any_loss() -> impl Strategy<Value = LossModel> {
    prop::sample::select(vec![
        LossModel::Bernoulli(0.0),
        LossModel::Bernoulli(0.3),
        LossModel::GilbertElliott {
            to_bad: 0.2,
            to_good: 0.4,
            good_loss: 0.05,
            bad_loss: 0.8,
        },
    ])
}

/// The `serial`-th frame of a run, distinguishable from every other one
/// so that a swapped delivery order cannot go unnoticed.
fn frame(kind: u8, serial: u32) -> Frame {
    let src = serial as Pid % ENDPOINTS;
    let tag = serial as u8;
    match kind {
        0 => Frame::beat(src, Heartbeat::plain().with_epoch(tag)),
        1 => Frame::control(serial as Pid, Command::Crash),
        2 => Frame::state_request(src, tag, serial),
        3 => Frame::view_change(src, View::new(serial, src, &[(src, tag)])),
        _ => Frame::state_reply(src, View::new(serial, src, &[(src, tag)])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bare core and the locked net (whose misses never reach the
    /// core) both behave as the scanning reference under the same seed.
    #[test]
    fn due_index_is_equivalent_to_scanning_the_queues(
        loss in any_loss(),
        seed in any::<u64>(),
        ops in prop::collection::vec(any_op(), 0..120),
    ) {
        let mut scan = ScanCore::new(ENDPOINTS, loss, seed);
        let mut core = LoopbackCore::new(ENDPOINTS, loss, seed);
        let net = LoopbackNet::new(ENDPOINTS, Faults { loss }, seed);
        let mut ends: Vec<_> = (0..ENDPOINTS).map(|pid| net.endpoint(pid)).collect();
        for (serial, &(now, op)) in ops.iter().enumerate() {
            match op {
                Op::Send { dst, kind, budget } => {
                    let f = frame(kind, serial as u32);
                    let queued = scan.send(now, dst, &f, budget);
                    prop_assert_eq!(core.send(now, dst, &f, budget), queued);
                    ends[0].send(now, dst, &f, budget).unwrap();
                }
                Op::Recv { pid } => {
                    let expected = scan.recv(now, pid);
                    prop_assert_eq!(core.recv(now, pid), expected);
                    prop_assert_eq!(ends[pid].try_recv(now).unwrap(), expected);
                }
                Op::AnyDeliverable => {
                    let expected = scan.any_deliverable(now);
                    prop_assert_eq!(core.any_deliverable(now), expected);
                    prop_assert_eq!(net.any_deliverable(now), expected);
                }
                Op::Purge { pid } => {
                    scan.purge(pid);
                    core.purge(pid);
                    net.purge(pid);
                }
            }
            prop_assert_eq!(core.stats(), scan.stats);
            prop_assert_eq!(net.stats(), scan.stats);
        }
        // Whatever is left comes out in the same order too.
        for (pid, end) in ends.iter_mut().enumerate() {
            loop {
                let expected = scan.recv(Time::MAX, pid);
                prop_assert_eq!(core.recv(Time::MAX, pid), expected);
                prop_assert_eq!(end.try_recv(Time::MAX).unwrap(), expected);
                if expected.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(core.stats(), scan.stats);
        prop_assert_eq!(net.stats(), scan.stats);
    }
}

/// A hook with one answer for everything.
#[derive(Debug)]
struct Always(SendFate);

impl FaultHook for Always {
    fn fate(&mut self, _now: Time, _src: Pid, _dst: Pid) -> SendFate {
        self.0
    }
}

/// One delay rule on both substrates: over a `(budget, extra)` grid a
/// hooked core and the simulator's channel reach the same set of
/// `(ticks in flight, reply budget left)` outcomes.
#[test]
fn a_hooked_core_delays_a_frame_exactly_as_the_simulators_channel_does() {
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
                core.send(NOW, 1, &Frame::beat(0, Heartbeat::plain()), budget);
            }
            let (mut sim, mut live) = (BTreeSet::new(), BTreeSet::new());
            let mut due = Vec::new();
            for t in NOW..=NOW + Time::from(budget + extra) {
                channel.due_into(t, &mut due);
                for m in due.drain(..) {
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

/// Block in `wait` until a frame for this endpoint is due, then take it.
/// A `wait` that runs out its 5 s instead of being woken overshoots
/// `deadline` and fails the test there and then.
fn recv_blocking(end: &mut impl Transport, deadline: Instant) -> Recv {
    loop {
        if let Some(r) = end.try_recv(0).unwrap() {
            return r;
        }
        end.wait(Duration::from_secs(5)).unwrap();
        assert!(Instant::now() < deadline, "a wakeup was lost");
    }
}

/// Two threads bounce one frame back and forth, each sleeping in `wait`
/// until the other's send. Every one of the 10 000 hand-offs is a chance
/// for the sender to see "no waiters" just before the receiver sleeps; a
/// single wakeup lost that way costs the full 5 s timeout, more than the
/// whole exchange is allowed.
#[test]
fn ping_pong_never_loses_a_wakeup() {
    const HANDOFFS: u64 = 10_000;
    let net = LoopbackNet::new(2, Faults::none(), 1);
    let mut a = net.endpoint(0);
    let mut b = net.endpoint(1);
    let deadline = Instant::now() + Duration::from_secs(4);
    let echo = thread::spawn(move || {
        for _ in 0..HANDOFFS / 2 {
            let r = recv_blocking(&mut b, deadline);
            b.send(0, 0, &r.frame, 0).unwrap();
        }
    });
    for i in 0..HANDOFFS / 2 {
        let ping = Frame::beat(0, Heartbeat::plain().with_epoch(i as u8));
        a.send(0, 1, &ping, 0).unwrap();
        assert_eq!(recv_blocking(&mut a, deadline).frame, ping);
    }
    echo.join().unwrap();
    assert_eq!(net.stats().delivered, HANDOFFS);
}

/// A coordinator and two participants, each a thread in
/// `NodeRuntime::run` on a shared 1 ms wall clock over one loopback net;
/// a crash arrives by control frame and the coordinator must notice
/// within the corrected bound. The nodes sleep in `wait` between
/// deadlines, so detection depends on arrivals waking them.
/// Every event it hears, from whichever thread.
#[derive(Default)]
struct Recorder(Vec<Event>);
impl EventTap for Recorder {
    fn on_event(&mut self, e: &Event) {
        self.0.push(*e);
    }
}

/// Three node threads, each with one recorder and one R1–R3 monitor
/// shared among all of them: the recorder hears exactly the union of the
/// nodes' logs, and the monitor stays clean through a detected crash.
#[test]
fn threaded_run_loop_detects_injected_crash() {
    /// Ticks of skew allowed between two threads' readings of the clock.
    const SLACK: u64 = 10;
    let params = Params::new(2, 8).unwrap();
    let bound = u64::from(params.p0_bound_corrected(Variant::Static));
    let clock = WallClock::new(Duration::from_millis(1));
    let stop = Arc::new(AtomicBool::new(false));
    let net = LoopbackNet::new(4, Faults::none(), 1);
    let mut injector = net.endpoint(3);
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    let monitor = MonitorSet::shared(Variant::Static, params, FixLevel::Full, 2);

    let spawn = |mut node: NodeRuntime<_>| {
        let stop = Arc::clone(&stop);
        let (recorder, monitor): (SharedTap, SharedTap) = (recorder.clone(), monitor.clone());
        node.attach_tap(recorder);
        node.attach_tap(monitor);
        thread::spawn(move || {
            node.run(&clock, &stop).unwrap();
            node.finish()
        })
    };
    let coord = spawn(
        NodeRuntime::coordinator(
            CoordSpec::new(Variant::Static, params, 2, FixLevel::Full),
            net.endpoint(0),
        )
        .with_sink(EventSink::memory()),
    );
    let parts: Vec<_> = (1..=2)
        .map(|pid| {
            let spec = RespSpec::new(Variant::Static, params, FixLevel::Full);
            spawn(
                NodeRuntime::participant(pid, spec, net.endpoint(pid))
                    .with_sink(EventSink::memory()),
            )
        })
        .collect();

    thread::sleep(clock.until(40));
    injector
        .send(clock.now(), 1, &Frame::control(3, Command::Crash), 0)
        .unwrap();

    // Every node halts by itself once the crash is detected; the
    // watchdog only keeps a broken run from hanging the suite.
    let watchdog = Instant::now() + Duration::from_secs(10);
    while !coord.is_finished() && Instant::now() < watchdog {
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let coord = coord.join().unwrap();
    let parts: Vec<_> = parts.into_iter().map(|t| t.join().unwrap()).collect();

    if parts[0].status != Status::Crashed {
        // The host stalled a thread for a whole silent chain before the
        // injection landed; nothing to measure.
        eprintln!("skipping: host stall pre-empted the injected crash");
        return;
    }
    assert_eq!(coord.status, Status::NvInactive, "must detect");
    let crash_at = parts[0]
        .log
        .events()
        .iter()
        .find_map(|e| match e {
            Event::Crash { at, .. } => Some(*at),
            _ => None,
        })
        .expect("participant logs its crash");
    let detected_at = coord
        .log
        .events()
        .iter()
        .find_map(|e| match e {
            Event::NvInactivate { at, .. } => Some(*at),
            _ => None,
        })
        .expect("coordinator logs its inactivation");
    let delay = detected_at.saturating_sub(crash_at);
    assert!(
        delay <= bound + SLACK,
        "detected after {delay} ticks > bound {bound} + {SLACK}"
    );
    assert!(coord.counters.halvings >= 1, "acceleration kicked in");

    let key = |e: &Event| (e.at(), format!("{e:?}"));
    let mut heard = std::mem::take(&mut recorder.lock().unwrap().0);
    let nodes = std::iter::once(&coord).chain(&parts);
    let mut logged: Vec<Event> = nodes.flat_map(|n| n.log.events()).copied().collect();
    heard.sort_by_key(key);
    logged.sort_by_key(key);
    assert_eq!(
        heard, logged,
        "the shared tap hears each node's events once"
    );
    let mut monitor = monitor.lock().unwrap();
    monitor.finish(coord.now);
    assert!(monitor.verdicts().clean(), "{:?}", monitor.verdicts());
}
