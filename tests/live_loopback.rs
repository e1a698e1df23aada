//! Live-runtime integration tests: the `hb-net` loopback cluster must
//! detect an injected crash within the corrected §6.2 bound, agree with
//! the `hb-sim` simulator for the same `(tmin, tmax, loss)`, and be fully
//! deterministic under virtual time.
//!
//! Under message loss the accelerated protocols can *falsely* inactivate
//! before the injected crash ever lands (the availability trade-off the
//! paper quantifies); such runs are counted, not asserted against the
//! bound, and both substrates must keep them a minority.

use accelerated_heartbeat::chaos::{run_plan, Backend, FaultPlan, FaultSpec, ProtoSpec};
use accelerated_heartbeat::core::events::event_json;
use accelerated_heartbeat::core::fault::{FaultHook, LossModel, SendFate};
use accelerated_heartbeat::core::{FixLevel, Params, Pid, Variant};
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::net::{ClusterConfig, Faults, VirtualCluster};
use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::{run_scenario, NaiveConfig, NaiveWorld, Scenario, World};

const CRASH_AT: u64 = 100;
const SEEDS: u64 = 20;

fn live_config(variant: Variant, params: Params, loss: f64, seed: u64) -> ClusterConfig {
    ClusterConfig {
        variant,
        params,
        fix: FixLevel::Full,
        n: 1,
        faults: if loss == 0.0 {
            Faults::none()
        } else {
            Faults::bernoulli(loss)
        },
        seed,
        record_events: false,
    }
}

/// The network-wide detection bound this repo asserts throughout: the
/// corrected coordinator bound, plus one maximum message delay, plus the
/// corrected responder watchdog.
fn cluster_bound(variant: Variant, params: Params) -> u64 {
    u64::from(
        params.p0_bound_corrected(variant)
            + params.tmin()
            + params.responder_bound_corrected(variant),
    )
}

/// Run one live cluster with a crash injected at [`CRASH_AT`]. `Some`
/// with the detection delay if the crash landed on a live participant;
/// `None` if loss had already (falsely) brought the node down.
fn live_detection(variant: Variant, params: Params, loss: f64, seed: u64) -> Option<u64> {
    let mut cl = VirtualCluster::new(live_config(variant, params, loss, seed));
    cl.schedule_crash(1, CRASH_AT);
    cl.run_until(CRASH_AT + 40 * u64::from(params.tmax()));
    assert!(cl.all_inactive(), "the cluster must come down either way");
    let report = cl.into_report();
    assert_eq!(report.summary.source, "live");
    if report.summary.crashes.is_empty() {
        return None;
    }
    assert_eq!(report.summary.crashes, vec![(1, CRASH_AT)]);
    Some(
        report
            .summary
            .detection_delay
            .expect("a real crash must be detected"),
    )
}

#[test]
fn live_crash_detection_meets_corrected_bound_lossless() {
    let params = Params::new(2, 8).unwrap();
    let bound = cluster_bound(Variant::Binary, params);
    for seed in 0..SEEDS {
        let delay = live_detection(Variant::Binary, params, 0.0, seed)
            .expect("lossless runs cannot falsely inactivate");
        assert!(delay <= bound, "seed {seed}: delay {delay} > bound {bound}");
    }
}

#[test]
fn live_crash_detection_meets_corrected_bound_under_loss() {
    let params = Params::new(2, 8).unwrap();
    let bound = cluster_bound(Variant::Binary, params);
    let mut clean = 0;
    for seed in 0..SEEDS {
        if let Some(delay) = live_detection(Variant::Binary, params, 0.05, seed) {
            clean += 1;
            assert!(delay <= bound, "seed {seed}: delay {delay} > bound {bound}");
        }
    }
    assert!(
        clean >= SEEDS / 2,
        "only {clean}/{SEEDS} clean runs at 5% loss"
    );
}

/// The simulator, fed the same `(tmin, tmax)`, loss model, fix level and
/// crash schedule, must honour the very same bound — live and sim runs
/// validate each other against the paper's corrected analysis.
#[test]
fn sim_agrees_with_live_on_the_corrected_bound() {
    let params = Params::new(2, 8).unwrap();
    let bound = cluster_bound(Variant::Binary, params);
    for loss in [0.0, 0.05] {
        let mut live_clean = 0;
        let mut sim_clean = 0;
        for seed in 0..SEEDS {
            if let Some(live) = live_detection(Variant::Binary, params, loss, seed) {
                live_clean += 1;
                assert!(live <= bound, "live {live} > bound {bound} (seed {seed})");
            }
            let sc = Scenario::crash_at(Variant::Binary, params, 1, CRASH_AT)
                .with_fix(FixLevel::Full)
                .with_loss_model(LossModel::Bernoulli(loss));
            if let Some(sim) = run_scenario(&sc, seed).detection_delay {
                sim_clean += 1;
                assert!(sim <= bound, "sim {sim} > bound {bound} (seed {seed})");
            }
        }
        // Both substrates detect in the (same) vast majority of runs.
        let floor = if loss == 0.0 { SEEDS } else { SEEDS / 2 };
        assert!(
            live_clean >= floor,
            "live: {live_clean}/{SEEDS} at loss {loss}"
        );
        assert!(
            sim_clean >= floor,
            "sim: {sim_clean}/{SEEDS} at loss {loss}"
        );
    }
}

/// Same seed, same schedule — bit-identical summary, including message
/// counters and per-event timestamps. Virtual time has no race to lose.
#[test]
fn live_runs_are_deterministic_under_virtual_time() {
    let run = |seed: u64| {
        let params = Params::new(2, 8).unwrap();
        let mut cfg = live_config(Variant::Static, params, 0.1, seed);
        cfg.n = 2;
        let mut cl = VirtualCluster::new(cfg);
        cl.schedule_crash(2, 150);
        cl.run_until(3_000);
        cl.into_report().summary
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    assert_ne!(a, run(8), "different seeds must diverge");
}

/// A static 3-participant cluster: one crash takes the whole network to
/// inactive (the GM98 "whole network detects") within the bound, and the
/// summary schema carries every phase of the story.
#[test]
fn three_participant_cluster_detects_and_reports() {
    let params = Params::new(2, 8).unwrap();
    let bound = cluster_bound(Variant::Static, params);
    let mut checked = 0;
    for seed in 0..SEEDS {
        let mut cfg = live_config(Variant::Static, params, 0.02, seed);
        cfg.n = 3;
        let mut cl = VirtualCluster::new(cfg);
        cl.schedule_crash(3, 200);
        cl.run_until(200 + 40 * u64::from(params.tmax()));
        assert!(cl.all_inactive());
        let summary = cl.into_report().summary;
        if summary.crashes.is_empty() {
            continue; // loss got there first — tallied by the other tests
        }
        checked += 1;
        let delay = summary.detection_delay.expect("detection");
        assert!(delay <= bound, "seed {seed}: delay {delay} > bound {bound}");
        assert_eq!(summary.false_inactivations, 0);
        assert!(summary.messages_sent > 0);
        let json = summary.to_json();
        assert!(json.contains("\"source\":\"live\""), "{json}");
    }
    assert!(checked >= SEEDS / 2, "only {checked}/{SEEDS} clean runs");
}

#[test]
fn late_start_crash_and_revive_drive_every_harness_path() {
    // Crash + revive + late start under light loss: every harness path
    // (purge, injection, settle loop, status diff, ledger) is on the cell.
    // A static participant up before the first beat reaches it takes part
    // from the start, and an expanding one joins whenever it starts. A
    // static one that starts later never hears the beats sent meanwhile
    // (they vanish, as in the sim; the tick must not wait for them), so
    // the cluster is down before the crash lands and nobody revives.
    for (variant, n, start, revived) in [
        (Variant::Static, 4, 3, true),
        (Variant::Expanding, 3, 30, true),
        (Variant::Static, 2, 30, false),
    ] {
        for fix in [FixLevel::Original, FixLevel::Full] {
            for seed in 1..=3 {
                let cfg = ClusterConfig {
                    variant,
                    fix,
                    n,
                    record_events: true,
                    ..live_config(variant, Params::new(2, 8).unwrap(), 0.02, seed)
                };
                let mut cl = VirtualCluster::new(cfg);
                cl.schedule_start(2, start);
                cl.schedule_crash(1, 100);
                cl.schedule_revive(1, 104);
                cl.run_until(600);
                let r = cl.into_report();
                let json = r.summary.to_json();
                assert_eq!(json.contains("\"revives\":[[1,104]]"), revived, "{json}");
                assert_eq!(r.nodes.len(), n + 1, "every node started and logged");
                if !revived {
                    let world = WorldConfig {
                        variant,
                        params: cfg.params,
                        fix,
                        n,
                        loss_prob: 0.02,
                        log_events: false,
                    };
                    let mut sim = World::new(world, seed);
                    sim.schedule_start(2, start);
                    sim.schedule_crash(1, 100);
                    sim.run_until(600);
                    assert_eq!(
                        sim.into_report().final_status,
                        r.summary.final_status,
                        "sim vs live"
                    );
                }
            }
        }
    }
}

/// With no message fault in the plan the chaos cluster — pipeline
/// consulted on every beat — *is* the plain cluster: a hook that shapes nothing leaves the network's
/// loss and delay draws, and so the run, exactly as they were.
#[test]
fn chaos_seam_without_message_faults_is_the_plain_cluster() {
    const CRASH: u64 = 400;
    const REVIVE: u64 = 420;
    let params = Params::new(2, 8).unwrap();
    let cell = |variant, fix, seed| {
        let proto = ProtoSpec {
            variant,
            params,
            fix,
            n: 1,
            duration: 900,
            membership: false,
        };
        let plan = FaultPlan::new("crash-revive", seed, proto)
            .with(FaultSpec::Crash { pid: 1, at: CRASH })
            .with(FaultSpec::Revive { pid: 1, at: REVIVE });
        let mut cl = VirtualCluster::new(ClusterConfig {
            fix,
            ..live_config(variant, params, 0.0, seed)
        });
        cl.schedule_crash(1, CRASH);
        cl.schedule_revive(1, REVIVE);
        cl.run_until(proto.duration);
        (plan, cl.into_report().summary.to_json())
    };
    for variant in [
        Variant::Binary,
        Variant::Static,
        Variant::Expanding,
        Variant::Dynamic,
    ] {
        for fix in [
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::Full,
        ] {
            for seed in 1..=5 {
                let (plan, plain) = cell(variant, fix, seed);
                assert_eq!(
                    run_plan(&plan, Backend::Live).to_json(),
                    plain,
                    "{variant:?}/{fix:?}/seed {seed}"
                );
            }
        }
    }
    // The equality is not the plan going unread: a coordinator on a 1 %
    // fast clock, polled at its own reading of true time, parts ways.
    let (plan, plain) = cell(Variant::Binary, FixLevel::Full, 1);
    let drifted = plan.with(FaultSpec::Drift {
        pid: 0,
        offset: 0,
        num: 101,
        den: 100,
    });
    assert_ne!(run_plan(&drifted, Backend::Live).to_json(), plain);
}

/// An adversary with every shape a hook can give a frame: an outage
/// window, a delay spike past the round-trip budget, every third frame
/// doubled.
#[derive(Debug, Default)]
struct Shaper(u32);

impl FaultHook for Shaper {
    fn fate(&mut self, now: u64, _src: Pid, _dst: Pid) -> SendFate {
        self.0 += 1;
        if (200..212).contains(&now) {
            return SendFate::Drop;
        }
        SendFate::Deliver {
            copies: 1 + u32::from(self.0.is_multiple_of(3)),
            extra_delay: if (60..90).contains(&now) { 11 } else { 0 },
        }
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every byte a cluster run reports, pinned: per cell one FNV-1a-64
/// digest over the summary JSON, every `NodeReport`'s counters and event
/// log and a streaming monitor's verdicts, folded into one constant over
/// 4 variants × 3 fix levels × 5 networks × 4 fault plans at one seed.
/// The network stays on true time whatever clock a node is polled at,
/// so the skewed cells (a fast participant and a slow coordinator, and
/// with three participants also a slow one and one whose clock is only
/// offset) pin that too.
#[test]
fn cluster_runs_are_pinned() {
    const NETS: [&str; 5] = ["lossless", "bernoulli", "burst", "hook", "skew"];
    const PLANS: [&str; 4] = ["crash", "crash+revive", "late start", "leave"];
    let params = Params::new(2, 8).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
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
            for net in NETS {
                for plan in PLANS {
                    let n = if variant == Variant::Binary { 1 } else { 3 };
                    let mut cl = VirtualCluster::new(ClusterConfig {
                        variant,
                        params,
                        fix,
                        n,
                        faults: match net {
                            "bernoulli" => Faults::bernoulli(0.2),
                            "burst" => Faults::burst(0.1, 0.3, 0.01, 0.9),
                            _ => Faults::none(),
                        },
                        seed: 7,
                        record_events: true,
                    });
                    match net {
                        "hook" => cl.set_fault_hook(Box::new(Shaper::default())),
                        "skew" => {
                            cl.skew_clock(n, 3, 5, 4);
                            cl.skew_clock(0, 0, 7, 8);
                            if n > 2 {
                                cl.skew_clock(1, 0, 6, 7);
                                cl.skew_clock(2, 4, 1, 1);
                            }
                        }
                        _ => {}
                    }
                    match plan {
                        "crash" => cl.schedule_crash(n, 130),
                        "crash+revive" => {
                            cl.schedule_crash(1, 100);
                            cl.schedule_revive(1, 144);
                        }
                        "late start" => cl.schedule_start(n, 43),
                        _ => cl.schedule_leave(1, 90),
                    }
                    let monitor = MonitorSet::shared(variant, params, fix, n);
                    cl.attach_tap(monitor.clone());
                    cl.run_until(600);
                    let report = cl.into_report();
                    let mut cell = fnv1a(digest, report.summary.to_json().as_bytes());
                    for node in &report.nodes {
                        let head = format!("{} {:?} {:?}", node.pid, node.status, node.counters);
                        cell = fnv1a(cell, head.as_bytes());
                        for e in node.log.events() {
                            cell = fnv1a(cell, event_json(e).as_bytes());
                        }
                        events += node.log.len();
                    }
                    let mut monitor = monitor.lock().unwrap();
                    monitor.finish(report.summary.duration);
                    digest = fnv1a(cell, format!("{:?}", monitor.verdicts()).as_bytes());
                }
            }
        }
    }
    assert!(events > 50_000, "the grid must actually run: {events}");
    assert_eq!(digest, 0xe243_5571_1177_5951, "{digest:#018x}");
}

/// The simulator's run record pinned byte for byte: per run the length
/// and FNV-1a-64 of the summary JSON, the event log's length and the bits
/// of the message rate and the loss ratio, folded into one digest over
/// every variant × {original, full} on four networks (lossless,
/// Bernoulli, Gilbert–Elliott with an outage, the [`Shaper`] hook) with a
/// crash and a revive, plus the naive baseline lossless and lossy.
#[test]
fn sim_run_records_are_pinned() {
    const NETS: [&str; 4] = ["lossless", "bernoulli", "burst+outage", "hook"];
    let params = Params::new(2, 8).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut fold = |json: String, log: usize, rate: f64, loss: f64| {
        let head = format!(
            "{} {log} {:x} {:x}",
            json.len(),
            rate.to_bits(),
            loss.to_bits()
        );
        digest = fnv1a(fnv1a(digest, head.as_bytes()), json.as_bytes());
        log
    };
    let mut events = 0;
    for variant in Variant::ALL {
        for fix in [FixLevel::Original, FixLevel::Full] {
            for net in NETS {
                let n = if variant.is_two_process() { 1 } else { 3 };
                let loss_prob = if net == "bernoulli" { 0.2 } else { 0.0 };
                let cfg = WorldConfig {
                    variant,
                    params,
                    fix,
                    n,
                    loss_prob,
                    log_events: true,
                };
                let mut world = World::new(cfg, 11);
                match net {
                    "burst+outage" => {
                        world.set_loss_model(LossModel::GilbertElliott {
                            to_bad: 0.05,
                            to_good: 0.4,
                            good_loss: 0.01,
                            bad_loss: 0.9,
                        });
                        world.set_outage(250, 262);
                    }
                    "hook" => world.set_fault_hook(Box::new(Shaper::default())),
                    _ => {}
                }
                world.schedule_crash(n, 130);
                world.schedule_revive(n, 174);
                world.run_until(600);
                let r = world.into_report();
                let json = r.to_json();
                events += fold(json, r.log.len(), r.message_rate(), r.loss_ratio());
            }
        }
    }
    for loss_prob in [0.0, 0.2] {
        let cfg = NaiveConfig {
            period: 4,
            tolerance: 2,
            delay_bound: 2,
            n: 3,
            loss_prob,
        };
        let mut world = NaiveWorld::new(cfg, 11);
        world.schedule_crash(2, 130);
        world.run_until(600);
        let r = world.into_report();
        let json = r.to_json();
        fold(json, r.log.len(), r.message_rate(), r.loss_ratio());
    }
    assert!(events > 5_000, "the grid must actually run: {events}");
    assert_eq!(digest, 0xc3c5_45cf_6ff7_44e8, "{digest:#018x}");
}

/// Both sides of the protocol state's inline capacity (eight
/// participants) pinned on both substrates: one FNV-1a-64 digest over
/// every event and the summary of `World` and `VirtualCluster` runs at
/// n = 8, 9 and 64, static and dynamic, with a crash, a crash and revive,
/// a late start and (dynamic) a leave under light loss.
#[test]
fn runs_across_the_inline_capacity_are_pinned() {
    let params = Params::new(2, 8).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut events = 0;
    for variant in [Variant::Static, Variant::Dynamic] {
        for n in [8, 9, 64] {
            let mut world = World::new(
                WorldConfig {
                    variant,
                    params,
                    fix: FixLevel::Full,
                    n,
                    loss_prob: 0.02,
                    log_events: true,
                },
                7,
            );
            let mut cl = VirtualCluster::new(ClusterConfig {
                variant,
                params,
                fix: FixLevel::Full,
                n,
                faults: Faults::bernoulli(0.02),
                seed: 7,
                record_events: true,
            });
            world.schedule_crash(n, 130);
            cl.schedule_crash(n, 130);
            world.schedule_crash(2, 100);
            cl.schedule_crash(2, 100);
            world.schedule_revive(2, 144);
            cl.schedule_revive(2, 144);
            world.schedule_start(n - 1, 43);
            cl.schedule_start(n - 1, 43);
            if variant.supports_leave() {
                world.schedule_leave(1, 90);
                cl.schedule_leave(1, 90);
            }
            world.run_until(600);
            cl.run_until(600);
            let sim = world.into_report();
            let head = format!(
                "{:?} {:?} {:?} {:?} {:?}",
                sim.crashes, sim.nv_inactivations, sim.leaves, sim.revives, sim.final_status
            );
            let mut cell = fnv1a(digest, head.as_bytes());
            for e in sim.log.events() {
                cell = fnv1a(cell, event_json(e).as_bytes());
            }
            events += sim.log.len();
            let live = cl.into_report();
            cell = fnv1a(cell, live.summary.to_json().as_bytes());
            for node in &live.nodes {
                let head = format!("{} {:?} {:?}", node.pid, node.status, node.counters);
                cell = fnv1a(cell, head.as_bytes());
                for e in node.log.events() {
                    cell = fnv1a(cell, event_json(e).as_bytes());
                }
                events += node.log.len();
            }
            digest = cell;
        }
    }
    assert!(events > 10_000, "the grid must actually run: {events}");
    assert_eq!(digest, 0xfbd5_f354_a6c6_15f8, "{digest:#018x}");
}
