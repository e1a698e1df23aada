//! Streaming requirement monitor as a standalone tool: tail a recorded
//! event log — or a live localhost-UDP cluster — and print R1–R3
//! verdicts as they are decided.
//!
//! Replay mode reads one [`event_json`] record per line (a file, or `-`
//! for stdin), feeds each event to a [`MonitorSet`], announces every
//! first violation the moment the stream decides it, and dumps the
//! final verdicts as JSON:
//!
//! ```text
//! cargo run --example hb_monitor -- --emit run.jsonl --fix original
//! cargo run --example hb_monitor -- --log run.jsonl \
//!     --variant binary --tmin 2 --tmax 8 --fix original --n 1
//! cargo run --example hb_monitor -- --log - < run.jsonl   # stdin
//! ```
//!
//! `--emit FILE` produces a demo log: a simulated participant crash under
//! the chosen fix level. Replaying an `original`-fix log through the
//! monitor reproduces the paper's bound error offline — R1 fires at the
//! claimed `2·tmax` deadline, from nothing but the recorded events.
//!
//! Live mode spins up a static-membership UDP cluster on localhost,
//! attaches one shared monitor to every node's event sink, crashes a
//! worker mid-run, and polls the verdicts in near-real time while the
//! protocol reacts:
//!
//! ```text
//! cargo run --example hb_monitor -- --live
//! cargo run --example hb_monitor -- --live --tick-ms 20
//! cargo run --example hb_monitor -- --live --member
//! ```
//!
//! The monitor judges the *corrected* §6.2 bound when the cluster runs
//! the full fix, so a healthy live run ends clean: the coordinator's own
//! watchdog always gives up before the monitor's deadline. A host that
//! stalls the node threads past the bound is indistinguishable from a
//! crash — in that case the monitor fires R1, faithfully.
//!
//! Both live flavours attach a watch tap that prints membership
//! `view-change` / `state-transfer` events the moment they stream by.
//! The plain UDP cluster never emits them; `--live --member` runs the
//! `hb-member` group layer on the live loopback runtime instead —
//! crashing and reviving the coordinator — so the watch shows the
//! failover views install, the demotion, and the state transfer, with
//! the same R1–R3 monitor attached (a failover view retires R1).
//!
//! [`event_json`]: accelerated_heartbeat::core::events::event_json

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::events::{
    parse_event_json, EventTap, FirstViolation, MonitorVerdicts, SharedTap,
};
use accelerated_heartbeat::core::responder::RespSpec;
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::net::wire::{Command, Frame};
use accelerated_heartbeat::net::{
    EventSink, NodeReport, NodeRuntime, Transport, UdpTransport, WallClock,
};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Print any verdict that fired since the previous poll; returns the
/// verdicts seen, to carry into the next poll.
fn announce_new(seen: MonitorVerdicts, now: MonitorVerdicts) -> MonitorVerdicts {
    let fresh = |old: Option<FirstViolation>, new: Option<FirstViolation>, req: &str| {
        if let (None, Some(v)) = (old, new) {
            println!(
                "[violation] {req}: pid {} at t={} (bound {})",
                v.pid, v.at, v.bound
            );
        }
    };
    fresh(seen.r1, now.r1, "R1");
    fresh(seen.r2, now.r2, "R2");
    fresh(seen.r3, now.r3, "R3");
    now
}

/// A watch tap printing membership view-change and state-transfer
/// events the moment they stream by (attached in both live flavours).
struct ViewWatch;

impl EventTap for ViewWatch {
    fn on_event(&mut self, e: &Event) {
        match *e {
            Event::ViewChange {
                at,
                pid,
                view_no,
                coordinator,
            } => println!(
                "[view]      t≈{at:>4}  pid {pid} installed view {view_no} \
                 (coordinator {coordinator})"
            ),
            Event::StateTransfer {
                at,
                from,
                to,
                view_no,
            } => {
                println!("[xfer]      t≈{at:>4}  coordinator {from} shipped view {view_no} to {to}")
            }
            _ => {}
        }
    }
}

/// Emit mode: simulate a participant crash under the chosen protocol
/// configuration and write the event log as JSON lines.
fn run_emit(args: &[String], path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use accelerated_heartbeat::core::events::event_json;
    use accelerated_heartbeat::sim::{run_scenario, Scenario};

    let variant =
        Variant::from_name(&arg_value(args, "--variant").unwrap_or_else(|| "binary".into()))?;
    let fix = FixLevel::from_name(&arg_value(args, "--fix").unwrap_or_else(|| "original".into()))?;
    let tmin: u32 = arg_value(args, "--tmin")
        .unwrap_or_else(|| "2".into())
        .parse()?;
    let tmax: u32 = arg_value(args, "--tmax")
        .unwrap_or_else(|| "8".into())
        .parse()?;
    let n: usize = arg_value(args, "--n")
        .unwrap_or_else(|| "1".into())
        .parse()?;
    let params = Params::new(tmin, tmax)?;

    let duration = 600;
    let scenario = Scenario {
        crashes: vec![(1, 300)],
        ..Scenario::steady_state(variant, params, duration)
    }
    .with_n(n)
    .with_fix(fix)
    .with_log();
    let report = run_scenario(&scenario, 1);

    let mut out = std::fs::File::create(path)?;
    for e in report.log.events() {
        writeln!(out, "{}", event_json(e))?;
    }
    eprintln!(
        "wrote {} events ({variant}/{fix} {params} n={n}, crash at t=300, horizon {duration}) \
         -> {path}",
        report.log.len()
    );
    eprintln!(
        "replay with: --log {path} --variant {variant} --fix {fix} --tmin {tmin} --tmax {tmax} \
         --n {n} --horizon {duration}"
    );
    Ok(())
}

/// Replay mode: parse a JSON-lines event log and monitor it offline.
fn run_replay(args: &[String], log: &str) -> Result<(), Box<dyn std::error::Error>> {
    let variant =
        Variant::from_name(&arg_value(args, "--variant").unwrap_or_else(|| "binary".into()))?;
    let fix = FixLevel::from_name(&arg_value(args, "--fix").unwrap_or_else(|| "full-fix".into()))?;
    let tmin: u32 = arg_value(args, "--tmin")
        .unwrap_or_else(|| "2".into())
        .parse()?;
    let tmax: u32 = arg_value(args, "--tmax")
        .unwrap_or_else(|| "8".into())
        .parse()?;
    let n: usize = arg_value(args, "--n")
        .unwrap_or_else(|| "1".into())
        .parse()?;
    let params = Params::new(tmin, tmax)?;

    let reader: Box<dyn BufRead> = if log == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        Box::new(BufReader::new(std::fs::File::open(log)?))
    };

    let mut monitor = MonitorSet::new(variant, params, fix, n);
    eprintln!(
        "monitoring {variant}/{fix} {params} n={n}: R1 bound {} ticks",
        monitor.bound()
    );

    let mut seen = MonitorVerdicts::default();
    let (mut events, mut skipped, mut last_t) = (0u64, 0u64, 0u64);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_event_json(&line) {
            Some(e) => {
                events += 1;
                last_t = last_t.max(e.at());
                monitor.observe(&e);
                seen = announce_new(seen, monitor.verdicts());
            }
            None => skipped += 1,
        }
    }
    let horizon = match arg_value(args, "--horizon") {
        Some(h) => h.parse()?,
        None => last_t,
    };
    monitor.finish(horizon);
    announce_new(seen, monitor.verdicts());

    eprintln!("{events} events replayed, {skipped} malformed line(s) skipped, horizon {horizon}");
    println!("{}", monitor.verdicts().to_json());
    Ok(())
}

/// Membership live mode: the `hb-member` group layer on the live
/// loopback runtime, coordinator crashed and revived, with the monitor
/// and the view watch tapping the stream as the engine runs.
fn run_live_member() -> Result<(), Box<dyn std::error::Error>> {
    use accelerated_heartbeat::member::{
        run_live, FaultKind, MemberConfig, MemberFault, MemberSpec, RoleKind,
    };

    const GROUP: usize = 4;
    const DURATION: u64 = 900;
    const CRASH_AT: u64 = 300;
    const REVIVE_AT: u64 = 600;

    let params = Params::new(2, 8)?;
    let (variant, fix) = (Variant::Dynamic, FixLevel::Full);
    println!(
        "== live membership group, {variant}/{fix}, {params}, {GROUP} processes, \
         coordinator crash at t={CRASH_AT}, revive at t={REVIVE_AT} ==\n"
    );

    let monitor = MonitorSet::shared(variant, params, fix, GROUP - 1);
    let watch: SharedTap = Arc::new(std::sync::Mutex::new(ViewWatch));
    let mut cfg = MemberConfig::clean(MemberSpec::new(variant, params, fix), GROUP, 1, DURATION);
    cfg.faults.push(MemberFault {
        at: CRASH_AT,
        kind: FaultKind::Crash,
        pid: 0,
    });
    cfg.faults.push(MemberFault {
        at: REVIVE_AT,
        kind: FaultKind::Revive,
        pid: 0,
    });
    let report = run_live(cfg, None, vec![monitor.clone() as SharedTap, watch]);

    println!(
        "\n[observe]   final roles {:?}, agreed on one view: {}",
        report.roles,
        report.agreed()
    );
    for s in &report.reconv {
        println!(
            "[reconv]    {:?} pid {} at t={}: detected {:?}, stable {:?}",
            s.kind, s.pid, s.at, s.detect, s.stable
        );
    }
    let mut mon = monitor.lock().expect("monitor poisoned");
    mon.finish(DURATION);
    let verdicts = mon.verdicts();
    println!("\nfinal verdicts (horizon {DURATION}):");
    println!("{}", verdicts.to_json());
    if verdicts.clean()
        && report.agreed()
        && report.roles[0] == RoleKind::Participant
        && report.views[0].coordinator != 0
    {
        println!(
            "\nfailover healthy: the successor's view excluded the dead coordinator, \
             the revived"
        );
        println!("ex-coordinator came back demoted (no split), and every monitor stayed clean.");
        Ok(())
    } else {
        Err("membership failover run unhealthy".into())
    }
}

/// Live mode: a static 2-worker UDP cluster with one injected crash,
/// monitored in near-real time.
fn run_live(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    const WORKERS: usize = 2;
    const CRASH: (usize, u64) = (2, 200);

    let tick_ms: u64 = arg_value(args, "--tick-ms")
        .unwrap_or_else(|| "10".into())
        .parse()?;
    let tick = Duration::from_millis(tick_ms.max(1));
    let params = Params::new(2, 16)?;
    let (variant, fix) = (Variant::Static, FixLevel::Full);

    let monitor = MonitorSet::shared(variant, params, fix, WORKERS);
    let tap: SharedTap = monitor.clone();
    let watch: SharedTap = Arc::new(std::sync::Mutex::new(ViewWatch));
    println!(
        "== live monitored cluster over UDP, {variant}/{fix}, {params}, {WORKERS} workers, \
         1 tick = {tick:?} ==\n"
    );

    let clock = WallClock::new(tick);
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    // Static membership: every address is known up front, including the
    // workers' to the coordinator (there is no join beat to learn from).
    let mut coord_transport = UdpTransport::bind("127.0.0.1:0")?;
    let coord_addr = coord_transport.local_addr()?;
    let mut injector = UdpTransport::bind("127.0.0.1:0")?;
    let mut worker_transports = Vec::new();
    for pid in 1..=WORKERS {
        let mut t = UdpTransport::bind("127.0.0.1:0")?;
        t.add_peer(0, coord_addr);
        coord_transport.add_peer(pid, t.local_addr()?);
        injector.add_peer(pid, t.local_addr()?);
        worker_transports.push(t);
    }

    let spec = CoordSpec::new(variant, params, WORKERS, fix);
    let mut coord = NodeRuntime::coordinator(spec, coord_transport).with_sink(EventSink::memory());
    coord.attach_tap(tap.clone());
    coord.attach_tap(watch.clone());
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
            let (clock, stop) = (clock, Arc::clone(&stop));
            let spec = RespSpec::new(variant, params, fix);
            let mut worker =
                NodeRuntime::participant(i + 1, spec, transport).with_sink(EventSink::memory());
            worker.attach_tap(tap.clone());
            worker.attach_tap(watch.clone());
            thread::spawn(move || -> std::io::Result<NodeReport> {
                worker.run(&clock, &stop)?;
                Ok(worker.finish())
            })
        })
        .collect();

    // Crash one worker from the outside, then watch the monitor while the
    // coordinator's watchdog discovers the silence.
    let src = WORKERS + 1;
    thread::sleep(clock.until(CRASH.1));
    injector.send(
        clock.now(),
        CRASH.0,
        &Frame::control(src, Command::Crash),
        0,
    )?;
    println!(
        "[inject]    t≈{:>4}  worker {} crashed",
        clock.now(),
        CRASH.0
    );

    let bound = u64::from(params.p0_bound_corrected(variant));
    let deadline = CRASH.1 + 6 * bound;
    let mut seen = MonitorVerdicts::default();
    while !done.load(Ordering::Relaxed) && clock.now() < deadline {
        thread::sleep(tick);
        let now = monitor.lock().expect("monitor poisoned").verdicts();
        seen = announce_new(seen, now);
    }
    println!(
        "[observe]   t≈{:>4}  coordinator {}",
        clock.now(),
        if done.load(Ordering::Relaxed) {
            "inactivated: network is down"
        } else {
            "still up at the watch horizon"
        }
    );

    for pid in 1..=WORKERS {
        let _ = injector.send(clock.now(), pid, &Frame::control(src, Command::Shutdown), 0);
    }
    stop.store(true, Ordering::Relaxed);
    let mut reports = vec![coord_thread.join().expect("coordinator panicked")?];
    for t in worker_threads {
        reports.push(t.join().expect("worker panicked")?);
    }
    let horizon = reports.iter().map(|r| r.now).max().unwrap_or(0);

    if args.iter().any(|a| a == "--debug") {
        for r in &reports {
            eprintln!("-- p[{}] log --", r.pid);
            for e in r.log.events().iter().take(40) {
                eprintln!("   {e}");
            }
        }
    }
    let mut mon = monitor.lock().expect("monitor poisoned");
    mon.finish(horizon);
    announce_new(seen, mon.verdicts());
    let verdicts = mon.verdicts();
    println!("\nfinal verdicts (horizon {horizon}):");
    println!("{}", verdicts.to_json());
    if verdicts.clean() {
        println!("\nall requirement monitors stayed clean: the crash was detected and");
        println!("propagated inside the corrected §6.2 bound ({bound} ticks).");
    } else {
        println!("\na monitor fired. With the full fix that means the host stalled the");
        println!("node threads past the watchdog bound — a freeze a live deployment");
        println!("cannot tell from a crash. Re-run, or raise --tick-ms.");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = arg_value(&args, "--emit") {
        return run_emit(&args, &path);
    }
    if let Some(log) = arg_value(&args, "--log") {
        return run_replay(&args, &log);
    }
    if args.iter().any(|a| a == "--live") {
        if args.iter().any(|a| a == "--member") {
            return run_live_member();
        }
        return run_live(&args);
    }
    eprintln!(
        "usage: hb_monitor --log FILE|-  [--variant V --tmin N --tmax N --fix F --n N --horizon T]"
    );
    eprintln!("       hb_monitor --emit FILE  [--variant V --tmin N --tmax N --fix F --n N]");
    eprintln!("       hb_monitor --live [--tick-ms N] [--debug] [--member]");
    Err("no mode selected".into())
}
