//! End-to-end tests over real UDP sockets on localhost, a crash injected
//! over the control channel, detection within the corrected §6.2
//! coordinator bound:
//!
//! * on the wall clock — a coordinator and a participant as threads in
//!   `NodeRuntime::run`. Event timestamps are protocol ticks derived from
//!   the shared wall clock, so the bound is asserted exactly; only the
//!   overall watchdog deadline is wall time;
//! * under injected ticks — the benchmark's `live_udp` shape, every node
//!   polled from one thread, no clock and no sleep.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::responder::RespSpec;
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Params, Pid, Status, Variant};
use accelerated_heartbeat::net::wire::{Command, Frame};
use accelerated_heartbeat::net::{
    EventSink, NodeRuntime, Recv, Time, TimeSource, Transport, UdpTransport, WallClock,
};

#[test]
fn udp_cluster_detects_injected_crash_within_corrected_bound() {
    let params = Params::new(2, 8).unwrap();
    let bound = u64::from(params.p0_bound_corrected(Variant::Binary));
    // A roomy tick: the protocol only collapses spuriously if the host
    // stalls every thread for > watchdog-bound ticks of real time.
    let tick = Duration::from_millis(20);
    let clock = WallClock::new(tick);
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    let mut coord_t = UdpTransport::bind("127.0.0.1:0").unwrap();
    let mut part_t = UdpTransport::bind("127.0.0.1:0").unwrap();
    let mut injector = UdpTransport::bind("127.0.0.1:0").unwrap();
    coord_t.add_peer(1, part_t.local_addr().unwrap());
    part_t.add_peer(0, coord_t.local_addr().unwrap());
    injector.add_peer(1, part_t.local_addr().unwrap());

    let mut coord = NodeRuntime::coordinator(
        CoordSpec::new(Variant::Binary, params, 1, FixLevel::Full),
        coord_t,
    )
    .with_sink(EventSink::memory());
    let coord_thread = {
        let (clock, stop, done) = (clock, Arc::clone(&stop), Arc::clone(&done));
        thread::spawn(move || {
            coord.run(&clock, &stop).unwrap();
            done.store(true, Ordering::Relaxed);
            coord.finish()
        })
    };
    let mut part = NodeRuntime::participant(
        1,
        RespSpec::new(Variant::Binary, params, FixLevel::Full),
        part_t,
    )
    .with_sink(EventSink::memory());
    let part_thread = {
        let (clock, stop) = (clock, Arc::clone(&stop));
        thread::spawn(move || {
            part.run(&clock, &stop).unwrap();
            part.finish()
        })
    };

    thread::sleep(clock.until(30));
    injector
        .send(clock.now(), 1, &Frame::control(2, Command::Crash), 0)
        .unwrap();

    // Wall-time watchdog: well past bound ticks, far below the test
    // harness timeout.
    let deadline = Instant::now() + Duration::from_secs(15);
    while !done.load(Ordering::Relaxed) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let coord_report = coord_thread.join().unwrap();
    let part_report = part_thread.join().unwrap();

    if part_report.status != Status::Crashed {
        // The host stalled the threads long enough for a false
        // inactivation before the injection landed; nothing to measure.
        eprintln!("skipping: host stall pre-empted the injected crash");
        return;
    }
    assert_eq!(coord_report.status, Status::NvInactive, "must detect");
    let crash_at = part_report
        .log
        .events()
        .iter()
        .find_map(|e| match e {
            Event::Crash { at, .. } => Some(*at),
            _ => None,
        })
        .expect("participant logs its crash");
    let detected_at = coord_report
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
        delay <= bound,
        "detected after {delay} ticks > bound {bound}"
    );
    assert!(
        coord_report.counters.halvings >= 1,
        "acceleration kicked in"
    );
}

/// A `UdpTransport` that publishes its decode- and soft-error counts,
/// which are out of reach once a `NodeRuntime` owns the transport.
struct Counted {
    inner: UdpTransport,
    errors: Arc<AtomicU64>,
}

impl Counted {
    fn publish(&self) {
        let errors = self.inner.decode_errors() + self.inner.soft_errors();
        self.errors.store(errors, Ordering::Relaxed);
    }
}

impl Transport for Counted {
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        let sent = self.inner.send(now, dst, frame, budget);
        self.publish();
        sent
    }

    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        let got = self.inner.try_recv(now);
        self.publish();
        got
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let woke = self.inner.wait(timeout);
        self.publish();
        woke
    }
}

#[test]
fn udp_cell_under_injected_ticks_detects_a_crash_within_corrected_bound() {
    // `live_udp`'s cell: static n = 4, (2, 8), full fix.
    let (n, variant, fix) = (4, Variant::Static, FixLevel::Full);
    let params = Params::new(2, 8).unwrap();
    let bound = u64::from(params.p0_bound_corrected(variant));
    let (crash_pid, crash_at) = (3, 203);

    let mut sockets: Vec<UdpTransport> = (0..=n)
        .map(|_| UdpTransport::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = sockets.iter().map(|t| t.local_addr().unwrap()).collect();
    let mut injector = UdpTransport::bind("127.0.0.1:0").unwrap();
    for pid in 1..=n {
        sockets[0].add_peer(pid, addrs[pid]);
        sockets[pid].add_peer(0, addrs[0]);
    }
    injector.add_peer(crash_pid, addrs[crash_pid]);
    let errors: Vec<Arc<AtomicU64>> = (0..=n).map(|_| Arc::default()).collect();
    let mut transports = sockets
        .into_iter()
        .zip(&errors)
        .map(|(inner, errors)| Counted {
            inner,
            errors: Arc::clone(errors),
        });
    let mut coord = NodeRuntime::coordinator(
        CoordSpec::new(variant, params, n, fix),
        transports.next().unwrap(),
    );
    let mut parts: Vec<_> = transports
        .enumerate()
        .map(|(i, t)| NodeRuntime::participant(i + 1, RespSpec::new(variant, params, fix), t))
        .collect();

    let mut detected = None;
    for now in 0..crash_at + 4 * bound {
        if now == crash_at {
            assert!(
                coord.status().is_active(),
                "no inactivation before the crash"
            );
            assert!(parts.iter().all(|p| p.status().is_active()));
            injector
                .send(now, crash_pid, &Frame::control(n + 1, Command::Crash), 0)
                .unwrap();
        }
        // Coordinator, participants, coordinator again for the replies.
        coord.poll(now).unwrap();
        for p in &mut parts {
            p.poll(now).unwrap();
        }
        coord.poll(now).unwrap();
        if coord.status() == Status::NvInactive {
            detected = Some(now);
            break;
        }
    }

    assert_eq!(parts[crash_pid - 1].status(), Status::Crashed);
    let delay = detected.expect("the coordinator detects the crash") - crash_at;
    assert!(
        delay <= bound,
        "detected after {delay} ticks > bound {bound}"
    );
    assert!(coord.counters.halvings >= 1, "acceleration kicked in");
    let errors: u64 = errors.iter().map(|e| e.load(Ordering::Relaxed)).sum();
    assert_eq!(
        errors, 0,
        "no decode or soft errors on a healthy localhost cell"
    );
}
