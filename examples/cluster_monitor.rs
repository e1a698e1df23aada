//! A realistic dynamic-membership scenario: a monitoring coordinator with
//! workers that join over time, one worker that leaves gracefully, and one
//! that crashes.
//!
//! This is the workload class the ICDCS '98 paper motivates: liveness
//! tracking for a set of cooperating processes where membership changes at
//! runtime, with minimal background traffic.
//!
//! By default the cluster runs **live**: one OS thread and one UDP socket
//! per process on localhost, wall-clock ticks, faults injected over the
//! control channel (`hb-net`). The original discrete-event simulation of
//! the same scenario is kept behind `--sim`.
//!
//! `--measure [R]` is a different, smaller cell measured rather than
//! narrated: a static group of 4 on a 1 ms wall-clock tick (or
//! `--tick-ms`) over UDP, one participant crashed by control frame, R
//! repetitions (default 20).
//!
//! ```text
//! cargo run --example cluster_monitor             # live UDP cluster
//! cargo run --example cluster_monitor -- --sim    # discrete-event sim
//! cargo run --example cluster_monitor -- --tick-ms 2
//! cargo run --release --example cluster_monitor -- --measure 20
//! cargo run --release --example cluster_monitor -- --measure 10 --tick-ms 20
//! ```

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::events::SharedTap;
use accelerated_heartbeat::core::json;
use accelerated_heartbeat::core::responder::RespSpec;
use accelerated_heartbeat::core::trace::{Event, EventLog};
use accelerated_heartbeat::core::{FixLevel, Params, Pid, Variant};
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::net::wire::{Command, Frame};
use accelerated_heartbeat::net::{
    EventSink, NodeReport, NodeRuntime, Recv, Time, Transport, UdpTransport, WallClock,
};
use accelerated_heartbeat::sim::schema::{MonitorVerdicts, RunSummary};

const WORKERS: usize = 3;
const START_TICKS: [u64; WORKERS] = [0, 120, 300];
const LEAVE: (usize, u64) = (1, 600); // worker 1 leaves gracefully
const CRASH: (usize, u64) = (3, 900); // worker 3 crashes

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--sim") {
        return run_sim();
    }
    let tick_ms = match args.iter().position(|a| a == "--tick-ms") {
        Some(i) => Some(
            args.get(i + 1)
                .ok_or("--tick-ms needs a value")?
                .parse::<u64>()?,
        ),
        None => None,
    };
    if let Some(i) = args.iter().position(|a| a == "--measure") {
        let reps = match args.get(i + 1) {
            Some(r) if !r.starts_with("--") => r.parse::<usize>()?,
            _ => 20,
        };
        let tick = Duration::from_millis(tick_ms.unwrap_or(1).max(1));
        return run_measure(reps.max(1), tick);
    }
    let tick_ms = tick_ms.unwrap_or(5);
    run_live(Duration::from_millis(tick_ms.max(1)))
}

/// The live cluster: coordinator + workers as threads over localhost UDP.
fn run_live(tick: Duration) -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(2, 16)?;
    println!(
        "== live heartbeat cluster over UDP, {params}, {WORKERS} workers, \
         1 tick = {tick:?} ==\n"
    );

    let clock = WallClock::new(tick);
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    // One shared streaming requirement monitor taps every node's event
    // sink: it judges the run against R1–R3 while it happens.
    let monitor = MonitorSet::shared(Variant::Dynamic, params, FixLevel::Full, WORKERS);
    let tap: SharedTap = monitor.clone();

    // Sockets first, so the fault injector knows every address up front.
    // Workers are told where the coordinator lives; the coordinator learns
    // worker addresses from their join beats.
    let coord_transport = UdpTransport::bind("127.0.0.1:0")?;
    let coord_addr = coord_transport.local_addr()?;
    let mut injector = UdpTransport::bind("127.0.0.1:0")?;
    let mut worker_transports = Vec::new();
    for pid in 1..=WORKERS {
        let mut t = UdpTransport::bind("127.0.0.1:0")?;
        t.add_peer(0, coord_addr);
        injector.add_peer(pid, t.local_addr()?);
        worker_transports.push(t);
    }

    let spec = CoordSpec::new(Variant::Dynamic, params, WORKERS, FixLevel::Full);
    let mut coord = NodeRuntime::coordinator(spec, coord_transport).with_sink(EventSink::memory());
    coord.attach_tap(tap.clone());
    let coord_thread = {
        let (clock, stop, done) = (clock, Arc::clone(&stop), Arc::clone(&done));
        thread::spawn(move || -> std::io::Result<NodeReport> {
            coord.run(&clock, &stop)?;
            done.store(true, Ordering::Relaxed);
            Ok(coord.finish())
        })
    };

    let worker_threads: Vec<_> = worker_transports
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let (clock, stop, tap) = (clock, Arc::clone(&stop), tap.clone());
            thread::spawn(move || -> std::io::Result<NodeReport> {
                // Late joiners sleep until their start tick, exactly like
                // the simulated scenario's `starts`.
                thread::sleep(clock.until(START_TICKS[i]));
                let spec = RespSpec::new(Variant::Dynamic, params, FixLevel::Full);
                let mut worker = NodeRuntime::participant(i + 1, spec, transport)
                    .started_at(clock.now())
                    .with_sink(EventSink::memory());
                worker.attach_tap(tap);
                worker.run(&clock, &stop)?;
                Ok(worker.finish())
            })
        })
        .collect();

    // Fault injection from the outside, over the control channel.
    let src = WORKERS + 1;
    thread::sleep(clock.until(LEAVE.1));
    injector.send(
        clock.now(),
        LEAVE.0,
        &Frame::control(src, Command::Leave),
        0,
    )?;
    println!(
        "[inject] t≈{:>4}  worker {} asked to leave",
        clock.now(),
        LEAVE.0
    );
    thread::sleep(clock.until(CRASH.1));
    injector.send(
        clock.now(),
        CRASH.0,
        &Frame::control(src, Command::Crash),
        0,
    )?;
    println!("[inject] t≈{:>4}  worker {} crashed", clock.now(), CRASH.0);

    // The coordinator detects the silence and inactivates itself; give it
    // the corrected §6.2 bound plus generous real-time slack.
    let bound = u64::from(
        params.p0_bound_corrected(Variant::Dynamic)
            + params.tmin()
            + params.responder_bound_corrected(Variant::Dynamic),
    );
    let deadline = CRASH.1 + 4 * bound;
    while !done.load(Ordering::Relaxed) && clock.now() < deadline {
        thread::sleep(tick);
    }

    // Let the surviving workers notice the coordinator's silence (their
    // corrected watchdogs) before tearing the cluster down.
    let tail = params.responder_bound_corrected(Variant::Dynamic) + params.tmin() + 10;
    thread::sleep(tick * tail);

    // Wind the cluster down: crashed processes consume forever on their
    // own, so tell everyone to stop.
    for pid in 1..=WORKERS {
        let _ = injector.send(clock.now(), pid, &Frame::control(src, Command::Shutdown), 0);
    }
    stop.store(true, Ordering::Relaxed);

    let mut reports = vec![coord_thread.join().expect("coordinator panicked")?];
    for t in worker_threads {
        reports.push(t.join().expect("worker panicked")?);
    }
    let verdicts = {
        let mut mon = monitor.lock().expect("monitor poisoned");
        mon.finish(reports.iter().map(|r| r.now).max().unwrap_or(0));
        mon.verdicts()
    };
    report_live(&reports, bound, verdicts);
    Ok(())
}

/// Digest and summary over the per-node reports, in the shared schema.
fn report_live(reports: &[NodeReport], bound: u64, verdicts: MonitorVerdicts) {
    // Each node is the authority on its own lifecycle events.
    let mut lifecycle: Vec<Event> = Vec::new();
    for r in reports {
        lifecycle.extend(r.log.events().iter().filter(|e| {
            matches!(
                e,
                Event::Crash { pid, .. } | Event::NvInactivate { pid, .. } | Event::Leave { pid, .. }
                    if *pid == r.pid
            )
        }));
    }
    lifecycle.sort_by_key(Event::at);

    println!("\ntimeline digest:");
    for event in &lifecycle {
        println!("  {event}");
    }

    let crashes: Vec<_> = lifecycle
        .iter()
        .filter_map(|e| match e {
            Event::Crash { at, pid } => Some((*pid, *at)),
            _ => None,
        })
        .collect();
    let nv: Vec<_> = lifecycle
        .iter()
        .filter_map(|e| match e {
            Event::NvInactivate { at, pid } => Some((*pid, *at)),
            _ => None,
        })
        .collect();
    let leaves: Vec<_> = lifecycle
        .iter()
        .filter_map(|e| match e {
            Event::Leave { at, pid } => Some((*pid, *at)),
            _ => None,
        })
        .collect();
    let sent: u64 = reports.iter().map(|r| r.counters.beats_sent).sum();
    let delivered: u64 = reports.iter().map(|r| r.counters.beats_received).sum();
    let first_crash = crashes.iter().map(|&(_, t)| t).min();
    let detection = match (first_crash, nv.iter().map(|&(_, t)| t).max()) {
        (Some(c), Some(d)) if d >= c => Some(d - c),
        _ => None,
    };

    let summary = RunSummary {
        source: "live",
        duration: reports.iter().map(|r| r.now).max().unwrap_or(0),
        messages_sent: sent,
        messages_delivered: delivered,
        messages_lost: sent.saturating_sub(delivered),
        crashes,
        nv_inactivations: nv,
        leaves,
        revives: Vec::new(),
        reconv_detect: None,
        reconv_stable: None,
        stale_beats_admitted: 0,
        stale_beats_filtered: 0,
        detection_delay: detection,
        false_inactivations: 0,
        monitor: Some(verdicts),
        final_status: reports.iter().map(|r| r.status).collect(),
        log: EventLog::new(),
    };

    println!("\nrun summary (shared sim/live schema):");
    println!("  {}", summary.to_json());

    if verdicts.clean() {
        println!("\nall R1–R3 requirement monitors stayed clean.");
    } else {
        // A wall-clock stall longer than the watchdog bound is a real
        // crash as far as the protocol (and the monitor) can tell.
        println!("\na requirement monitor fired: {}", verdicts.to_json());
        println!("with the full fix that means the host stalled a node thread past");
        println!("the watchdog bound — re-run, or raise --tick-ms.");
    }

    if summary.crashes.is_empty() {
        // The cluster fell over before the injected crash: the host stalled
        // these threads for longer than the watchdog bound. A live
        // deployment cannot tell such a freeze from a real crash — that is
        // precisely the failure model the protocol detects.
        println!("\nthe cluster inactivated before the injected crash: the host paused");
        println!("the processes for longer than the watchdog bound. Re-run, or give");
        println!("the protocol more real time per tick with --tick-ms.");
        return;
    }

    match summary.detection_delay {
        Some(d) => {
            println!("\ncrash-to-shutdown: {d} ticks (corrected §6.2 network bound: {bound})")
        }
        None => println!("\nnetwork still partially up at the horizon"),
    }

    // The punchline of the dynamic protocol: a graceful leave disturbs
    // nobody, a crash brings the network down.
    assert_eq!(summary.leaves.len(), 1, "worker 1 left gracefully");
    println!("worker 1 left without causing any inactivation; worker 3's crash");
    println!("was detected and propagated to the whole network.");
}

/// The original discrete-event simulation of the same scenario.
fn run_sim() -> Result<(), Box<dyn std::error::Error>> {
    use accelerated_heartbeat::sim::{run_scenario, Scenario};

    let params = Params::new(2, 16)?;
    println!("== dynamic heartbeat cluster monitor (simulated), {params}, 3 workers ==\n");

    let scenario = Scenario {
        n: WORKERS,
        duration: 1_500,
        loss_prob: 0.01,
        // workers join at different times...
        starts: vec![(1, 0), (2, 120), (3, 300)],
        // ...worker 1 leaves gracefully around t=600...
        leaves: vec![LEAVE],
        // ...and worker 3 crashes at t=900.
        crashes: vec![CRASH],
        ..Scenario::steady_state(Variant::Dynamic, params, 0)
    }
    // run the repaired protocol: the original would risk the §5.5 races
    .with_fix(FixLevel::Full)
    .with_log();

    let mut report = run_scenario(&scenario, 2024);

    // Print a digest rather than the full log (hundreds of events).
    println!("timeline digest:");
    for event in report.log.events() {
        match event {
            Event::Crash { .. } | Event::NvInactivate { .. } | Event::Leave { .. } => {
                println!("  {event}")
            }
            _ => {}
        }
    }

    println!("\nrun summary:");
    println!("  duration            : {}", report.duration);
    println!("  messages sent       : {}", report.messages_sent);
    println!(
        "  background overhead : {:.4} msgs/unit",
        report.message_rate()
    );
    println!("  losses              : {}", report.messages_lost);
    println!("  graceful leaves     : {:?}", report.leaves);
    println!("  crash detections    : {:?}", report.nv_inactivations);
    match report.detection_delay {
        Some(d) => println!("  crash-to-shutdown   : {d} units"),
        None => println!("  network still partially up at the horizon"),
    }

    // The recorded log replays through the streaming requirement monitor:
    // same verdicts as a live tap would have produced during the run.
    let verdicts = accelerated_heartbeat::monitor::replay(
        Variant::Dynamic,
        params,
        FixLevel::Full,
        WORKERS,
        report.log.events(),
        report.duration,
    );
    report.monitor = Some(verdicts);
    println!("\nrun summary (shared sim/live schema):");
    println!("  {}", report.to_json());
    assert!(
        verdicts.clean(),
        "the fully-fixed simulated run must be monitor-clean: {}",
        verdicts.to_json()
    );
    println!("\nall R1–R3 requirement monitors stayed clean on replay.");

    // The punchline of the dynamic protocol: a graceful leave disturbs
    // nobody, a crash brings the network down.
    assert_eq!(report.leaves.len(), 1, "worker 1 left gracefully");
    println!("\nworker 1 left without causing any inactivation; worker 3's crash");
    println!("was detected and propagated to the whole network.");
    Ok(())
}

/// `--measure`'s cell: `live_udp`'s protocol (static, (2, 8), full fix,
/// n = 4), but on the wall clock through `NodeRuntime::run`, the loop a
/// deployment executes.
const MEASURE_N: usize = 4;
/// The crash tick, far enough in for the group to be in steady state.
const MEASURE_CRASH_AT: Time = 200;

/// What one node's transport saw, read by the driver after the run.
#[derive(Default)]
struct Probe {
    try_recvs: AtomicU64,
    waits: AtomicU64,
    /// Wake-up lateness at each coordinator beat tick.
    lateness: Mutex<Vec<Duration>>,
}

/// A [`UdpTransport`] that counts its calls and, at the first coordinator
/// beat sent at each tick `at`, records how long after tick `at` began
/// (in real time) that send happens: `(now − at) × tick` whole ticks late,
/// plus how far into tick `now` the clock is.
struct Probed {
    inner: UdpTransport,
    probe: Arc<Probe>,
    clock: WallClock,
    last_beat: Option<Time>,
}

impl Transport for Probed {
    fn send(&mut self, at: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        if matches!(frame, Frame::Beat { src: 0, .. }) && self.last_beat != Some(at) {
            self.last_beat = Some(at);
            let (now, tick) = (self.clock.now(), self.clock.tick());
            let whole = tick * u32::try_from(now.saturating_sub(at)).unwrap_or(u32::MAX);
            let into = tick.saturating_sub(self.clock.until(now + 1));
            self.probe
                .lateness
                .lock()
                .expect("probe lock")
                .push(whole + into);
        }
        self.inner.send(at, dst, frame, budget)
    }

    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        self.probe.try_recvs.fetch_add(1, Ordering::Relaxed);
        self.inner.try_recv(now)
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.probe.waits.fetch_add(1, Ordering::Relaxed);
        self.inner.wait(timeout)
    }
}

/// One repetition's figures.
struct Sample {
    /// `(ticks, injection → the coordinator's run returning)`, or `None`
    /// if the group inactivated itself before the crash tick.
    detect: Option<(u64, Duration)>,
    /// The coordinator's inactivation tick when that happened first.
    collapsed_at: Option<Time>,
    lateness: Vec<Duration>,
    /// `(try_recv, wait)` calls per tick, coordinator first.
    calls_per_tick: Vec<(f64, f64)>,
}

/// Run the cell once on ticks of `tick`, crashing `crash_pid`.
fn measure_once(params: Params, tick: Duration, crash_pid: Pid) -> io::Result<Sample> {
    let (variant, fix) = (Variant::Static, FixLevel::Full);
    let clock = WallClock::new(tick);
    let stop = Arc::new(AtomicBool::new(false));
    let mut sockets = (0..=MEASURE_N)
        .map(|_| UdpTransport::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = sockets
        .iter()
        .map(UdpTransport::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    for pid in 1..=MEASURE_N {
        sockets[0].add_peer(pid, addrs[pid]);
        sockets[pid].add_peer(0, addrs[0]);
    }
    let mut injector = UdpTransport::bind("127.0.0.1:0")?;
    injector.add_peer(crash_pid, addrs[crash_pid]);

    let probes: Vec<Arc<Probe>> = (0..=MEASURE_N).map(|_| Arc::default()).collect();
    let threads: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(pid, inner)| {
            let transport = Probed {
                inner,
                probe: Arc::clone(&probes[pid]),
                clock,
                last_beat: None,
            };
            let stop = Arc::clone(&stop);
            thread::spawn(move || -> io::Result<(NodeReport, Instant)> {
                let node = if pid == 0 {
                    let spec = CoordSpec::new(variant, params, MEASURE_N, fix);
                    NodeRuntime::coordinator(spec, transport)
                } else {
                    NodeRuntime::participant(pid, RespSpec::new(variant, params, fix), transport)
                };
                let mut node = node.with_sink(EventSink::memory());
                node.run(&clock, &stop)?;
                Ok((node.finish(), Instant::now()))
            })
        })
        .collect();

    // The coordinator's run returns when it inactivates: on the injected
    // crash, or earlier if the group collapses on its own.
    let coordinator_done = |threads: &[thread::JoinHandle<_>]| threads[0].is_finished();
    while clock.now() < MEASURE_CRASH_AT && !coordinator_done(&threads) {
        thread::sleep(tick.min(Duration::from_millis(1)));
    }
    let injected = (!coordinator_done(&threads)).then(Instant::now);
    if injected.is_some() {
        let crash = Frame::control(MEASURE_N + 1, Command::Crash);
        injector.send(clock.now(), crash_pid, &crash, 0)?;
        let deadline = Instant::now() + tick * 100;
        while !coordinator_done(&threads) && Instant::now() < deadline {
            thread::sleep(tick.min(Duration::from_millis(1)));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut ended = Vec::new();
    for t in threads {
        ended.push(t.join().expect("node thread panicked")?);
    }

    let first = |pid: Pid, event: fn(&Event) -> bool| {
        let events = ended[pid].0.log.events();
        events.iter().find(|e| event(e)).map(Event::at)
    };
    let crashed = first(crash_pid, |e| matches!(e, Event::Crash { .. }));
    let detected = first(0, |e| matches!(e, Event::NvInactivate { .. }));
    let detect = match (injected, crashed, detected) {
        (Some(injected), Some(crashed), Some(detected)) if detected >= crashed => Some((
            detected - crashed,
            ended[0].1.saturating_duration_since(injected),
        )),
        _ => None,
    };
    let calls_per_tick = ended
        .iter()
        .zip(&probes)
        .map(|((report, _), probe)| {
            let ticks = report.now.max(1) as f64;
            (
                probe.try_recvs.load(Ordering::Relaxed) as f64 / ticks,
                probe.waits.load(Ordering::Relaxed) as f64 / ticks,
            )
        })
        .collect();
    let lateness = std::mem::take(&mut *probes[0].lateness.lock().expect("probe lock"));
    Ok(Sample {
        detect,
        collapsed_at: detected.filter(|_| injected.is_none()),
        lateness,
        calls_per_tick,
    })
}

/// The value at quantile `q` of sorted `v` (nearest rank); 0 if empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    let rank = (v.len() as f64 * q).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// Sorted copy of `xs`.
fn sorted(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The mean of `xs`; 0 if empty.
fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, k) = xs.fold((0.0, 0u32), |(s, k), x| (s + x, k + 1));
    sum / f64::from(k.max(1))
}

/// `--measure`: detection latency, wake-up lateness and calls per tick of
/// the wall-clock cell over `reps` repetitions, as text and one JSON line.
fn run_measure(reps: usize, tick: Duration) -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(2, 8)?;
    let bound = params.p0_bound_corrected(Variant::Static);
    let tick_ms = tick.as_millis();
    println!(
        "== wall-clock cell: static n = {MEASURE_N}, {params}, full fix, UDP on 127.0.0.1, \
         1 tick = {tick_ms} ms, crash at tick {MEASURE_CRASH_AT}, {reps} repetitions =="
    );
    let mut samples = Vec::new();
    for rep in 0..reps {
        let sample = measure_once(params, tick, 1 + rep % MEASURE_N)?;
        if let Some(t) = sample.collapsed_at {
            println!("rep {rep}: the group inactivated itself at tick {t}, before the crash");
        }
        samples.push(sample);
    }

    let detected: Vec<(u64, Duration)> = samples.iter().filter_map(|s| s.detect).collect();
    let ticks = sorted(detected.iter().map(|&(t, _)| t as f64));
    let wall_ms = sorted(detected.iter().map(|&(_, d)| d.as_secs_f64() * 1e3));
    let late_us = sorted(
        samples
            .iter()
            .flat_map(|s| &s.lateness)
            .map(|d| d.as_secs_f64() * 1e6),
    );
    let collapsed = sorted(
        samples
            .iter()
            .filter_map(|s| s.collapsed_at)
            .map(|t| t as f64),
    );
    let coord = |f: fn(&(f64, f64)) -> f64| mean(samples.iter().map(|s| f(&s.calls_per_tick[0])));
    let parts = |f: fn(&(f64, f64)) -> f64| {
        mean(
            samples
                .iter()
                .flat_map(|s| s.calls_per_tick[1..].iter().map(f)),
        )
    };
    let (coord_recv, coord_wait) = (coord(|c| c.0), coord(|c| c.1));
    let (part_recv, part_wait) = (parts(|c| c.0), parts(|c| c.1));
    let ticks_mean = mean(ticks.iter().copied());

    println!(
        "detection, {} of {reps} repetitions reached the crash: {ticks_mean:.1} ticks mean, \
         {} max (bound {bound}); injection -> coordinator run returns: p50 {:.1} ms, max {:.1} ms",
        detected.len(),
        quantile(&ticks, 1.0),
        quantile(&wall_ms, 0.5),
        quantile(&wall_ms, 1.0),
    );
    if !collapsed.is_empty() {
        println!(
            "self-inactivated before the crash: {} repetitions, coordinator at tick p50 {} (min {})",
            collapsed.len(),
            quantile(&collapsed, 0.5),
            quantile(&collapsed, 0.0),
        );
    }
    println!(
        "wake-up lateness at coordinator beat sends, {} samples: p50 {:.0} us, p99 {:.0} us, \
         max {:.0} us",
        late_us.len(),
        quantile(&late_us, 0.5),
        quantile(&late_us, 0.99),
        quantile(&late_us, 1.0),
    );
    println!(
        "calls per tick per node: coordinator try_recv {coord_recv:.2} wait {coord_wait:.2}; \
         participants try_recv {part_recv:.2} wait {part_wait:.2}"
    );
    let mut record = String::new();
    json::object(&mut record, |o| {
        o.field("record", "wall_clock_cell")
            .field("n", MEASURE_N)
            .field("tick_ms", tick_ms)
            .field("reps", reps)
            .field("detected", detected.len())
            .field("collapsed", collapsed.len())
            .fixed("detect_ticks_mean", ticks_mean, 2)
            .field("detect_ticks_max", quantile(&ticks, 1.0))
            .field("bound", bound)
            .fixed("detect_wall_ms_p50", quantile(&wall_ms, 0.5), 3)
            .fixed("detect_wall_ms_max", quantile(&wall_ms, 1.0), 3)
            .field("lateness_samples", late_us.len())
            .fixed("lateness_us_p50", quantile(&late_us, 0.5), 1)
            .fixed("lateness_us_p99", quantile(&late_us, 0.99), 1)
            .fixed("lateness_us_max", quantile(&late_us, 1.0), 1)
            .fixed("coord_try_recv_per_tick", coord_recv, 3)
            .fixed("coord_wait_per_tick", coord_wait, 3)
            .fixed("part_try_recv_per_tick", part_recv, 3)
            .fixed("part_wait_per_tick", part_wait, 3);
    });
    println!("{record}");
    Ok(())
}
