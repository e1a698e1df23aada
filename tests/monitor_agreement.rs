//! Agreement tests for the streaming requirement monitor: the incremental
//! `hb-monitor` checkers, the tick-stepped `hb-verify` reference replay,
//! and the live tap attached during a run must all reach the same
//! verdicts — and the two substrates must emit the same event schema.

use std::sync::{Arc, Mutex};

use accelerated_heartbeat::chaos::{
    run_plan_monitored, run_plan_tapped, Backend, FaultPlan, FaultSpec, Link, ProtoSpec, Window,
};
use accelerated_heartbeat::core::events::{
    event_json, EventTap, FirstViolation, MonitorVerdicts, SharedTap,
};
use accelerated_heartbeat::core::fault::LossModel;
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::monitor;
use accelerated_heartbeat::net::{ClusterConfig, Faults, VirtualCluster};
use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::{run_scenario, Scenario, World};
use accelerated_heartbeat::verify::reference_verdicts;
use proptest::prelude::*;

/// A tap that records the raw event stream for offline replay.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl EventTap for Recorder {
    fn on_event(&mut self, e: &Event) {
        self.0.push(*e);
    }
}

// -- Satellite: one event schema, both substrates --------------------

/// Render a log as canonical lines, sorted by `(tick, rendered record)`
/// so per-node logs merge deterministically regardless of polling order.
fn canonical(events: &[Event]) -> Vec<String> {
    let mut lines: Vec<(u64, String)> = events.iter().map(|e| (e.at(), event_json(e))).collect();
    lines.sort();
    lines.into_iter().map(|(_, l)| l).collect()
}

/// The same lossless seeded crash run on the simulator and on the live
/// loopback cluster must produce the same event sequence — the schema
/// is shared, and with no randomness in flight the two substrates march
/// in lockstep.
#[test]
fn sim_and_live_emit_the_same_lossless_event_stream() {
    let params = Params::new(2, 8).unwrap();
    for seed in [1, 7] {
        let sc = Scenario {
            crashes: vec![(1, 100)],
            ..Scenario::steady_state(Variant::Binary, params, 400)
        }
        .with_fix(FixLevel::Full)
        .with_log();
        let sim = run_scenario(&sc, seed);

        let mut cl = VirtualCluster::new(ClusterConfig {
            variant: Variant::Binary,
            params,
            fix: FixLevel::Full,
            n: 1,
            faults: Faults::none(),
            seed,
            record_events: true,
        });
        cl.schedule_crash(1, 100);
        cl.run_until(400);
        let live = cl.into_report();
        let mut live_events: Vec<Event> = Vec::new();
        for node in &live.nodes {
            live_events.extend(node.log.events().iter().copied());
        }

        let sim_lines = canonical(sim.log.events());
        let live_lines = canonical(&live_events);
        for (i, (s, l)) in sim_lines.iter().zip(&live_lines).enumerate() {
            assert_eq!(s, l, "seed {seed}: streams diverge at record {i}");
        }
        assert_eq!(
            sim_lines.len(),
            live_lines.len(),
            "seed {seed}: stream lengths differ"
        );
    }
}

// -- Golden verdicts: the paper's bound error, pinned ----------------

/// The seed-pinned naive crash run: under the claimed `2·tmax` bound the
/// monitor must catch the R1 breach on both substrates — same
/// requirement, same pid, same bound, same tick.
#[test]
fn golden_naive_crash_verdicts_pin_the_r1_breach() {
    let plan = |fix| {
        FaultPlan::new(
            "golden-crash",
            1,
            ProtoSpec {
                variant: Variant::Binary,
                params: Params::new(2, 8).unwrap(),
                fix,
                n: 1,
                duration: 600,
                membership: false,
            },
        )
        .with(FaultSpec::Crash { pid: 1, at: 300 })
    };

    for backend in [Backend::Sim, Backend::Live] {
        let naive = run_plan_monitored(&plan(FixLevel::Original), backend);
        assert_eq!(
            naive.monitor.as_ref().and_then(|v| v.r1),
            Some(FirstViolation {
                pid: 1,
                at: 315,
                bound: 16
            }),
            "{backend:?} verdict moved: {:?}",
            naive.monitor
        );
    }

    // Same crash under the corrected bounds: categorically clean, on
    // both substrates.
    for backend in [Backend::Sim, Backend::Live] {
        let fixed = run_plan_monitored(&plan(FixLevel::Full), backend);
        let v = fixed.monitor.unwrap();
        assert!(v.clean(), "{backend:?} full-fix verdicts: {}", v.to_json());
    }

    // No crash at all: an owned MonitorSet tap changes no delivered count
    // and stays clean at steady state.
    for (variant, n) in [(Variant::Binary, 1), (Variant::Static, 8)] {
        let params = Params::new(2, 8).unwrap();
        let run = |tapped: bool| {
            let cfg = WorldConfig {
                variant,
                params,
                fix: FixLevel::Full,
                n,
                loss_prob: 0.0,
                log_events: false,
            };
            let mut world = World::new(cfg, 1);
            if tapped {
                let mon = monitor::MonitorSet::new(variant, params, FixLevel::Full, n);
                world.attach_owned_tap(Box::new(mon));
            }
            world.run_until(4_000);
            let taps = world.take_owned_taps();
            let report = world.into_report();
            let verdicts = taps.into_iter().next().map(|tap| {
                let mut mon = monitor::MonitorSet::from_tap(tap).expect("the monitor");
                mon.finish(report.duration);
                mon.verdicts()
            });
            (report.messages_delivered, verdicts)
        };
        let (bare, none) = run(false);
        let (delivered, verdicts) = run(true);
        assert!(bare > 0 && none.is_none());
        assert_eq!(delivered, bare, "{variant} n={n}: the tap changed the run");
        let v = verdicts.expect("the tap comes back");
        assert!(v.clean(), "{variant} n={n} steady state: {}", v.to_json());
    }
}

/// A graceful leave is one `leave` record on either substrate: the
/// leaver's own, at the tick the run summary reports. (The coordinator
/// learns of it from the `flag = false` beat, which is a `deliver`.)
#[test]
fn a_leave_is_recorded_once_by_the_leaver_on_both_substrates() {
    for (fix, seed) in [
        (FixLevel::Original, 1),
        (FixLevel::Original, 7),
        (FixLevel::Full, 1),
        (FixLevel::Full, 7),
    ] {
        let proto = ProtoSpec {
            variant: Variant::Dynamic,
            params: Params::new(2, 8).unwrap(),
            fix,
            n: 1,
            duration: 400,
            membership: false,
        };
        let plan = FaultPlan::new("leave", seed, proto).with(FaultSpec::Leave { pid: 1, at: 100 });
        for backend in [Backend::Sim, Backend::Live] {
            let rec = Arc::new(Mutex::new(Recorder::default()));
            let summary = run_plan_tapped(&plan, backend, rec.clone());
            let leaves: Vec<_> = rec
                .lock()
                .expect("recorder poisoned")
                .0
                .iter()
                .filter_map(|e| match *e {
                    Event::Leave { at, pid } => Some((pid, at)),
                    _ => None,
                })
                .collect();
            assert_eq!(leaves.len(), 1, "{backend:?}/{fix:?}/seed {seed}");
            assert_eq!(leaves, summary.leaves, "{backend:?}/{fix:?}/seed {seed}");
        }
    }
}

// -- Streaming vs reference vs live tap ------------------------------

/// Run `plan` on the simulator three ways and return
/// `(tap_verdicts, replay_verdicts, reference_verdicts)`.
fn three_way(plan: &FaultPlan) -> (MonitorVerdicts, MonitorVerdicts, MonitorVerdicts) {
    let p = &plan.proto;

    // 1. the tap attached during the run
    let tapped = run_plan_monitored(plan, Backend::Sim)
        .monitor
        .expect("monitored run must carry verdicts");

    // 2. record the raw stream, replay it through the streaming checker
    let rec = Arc::new(Mutex::new(Recorder::default()));
    let tap: SharedTap = rec.clone();
    let summary = run_plan_tapped(plan, Backend::Sim, tap);
    let mut events = std::mem::take(&mut rec.lock().expect("recorder poisoned").0);
    let replayed = monitor::replay(p.variant, p.params, p.fix, p.n, &events, summary.duration);

    // 3. the tick-stepped hb-verify reference on the same stream
    events.sort_by_key(Event::at);
    let reference = reference_verdicts(p.variant, p.params, p.fix, p.n, &events, summary.duration);
    (tapped, replayed, reference)
}

fn assert_three_way_agree(plan: &FaultPlan) {
    let (tapped, replayed, reference) = three_way(plan);
    assert_eq!(
        tapped, replayed,
        "{}: live tap vs log replay diverge",
        plan.name
    );
    assert_eq!(
        replayed, reference,
        "{}: streaming checker vs hb-verify reference diverge",
        plan.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small fault plans: the verdicts of the streaming checker —
    /// attached live or replayed from the recorded log — must match the
    /// deliberately different-shaped tick-stepped reference replay in
    /// `hb-verify::monitor`, for every fix level and requirement.
    #[test]
    fn streaming_and_reference_verdicts_agree_on_random_plans(
        seed in 0u64..10_000,
        variant_ix in 0usize..3,
        fix_ix in 0usize..4,
        n in 1usize..=2,
        loss_pm in 0u32..200,
        crash_at in 0u64..260,
        crash_pid in 1usize..=2,
        revive_delta in 0u64..60,
    ) {
        let variant = [Variant::Binary, Variant::Static, Variant::Expanding][variant_ix];
        // the binary protocols are two-process by definition
        let n = if variant == Variant::Binary { 1 } else { n };
        let fix = [
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::CorrectedBounds,
            FixLevel::Full,
        ][fix_ix];
        let mut plan = FaultPlan::new(
            format!("prop/{seed}"),
            seed,
            ProtoSpec {
                variant,
                params: Params::new(2, 8).unwrap(),
                fix,
                n,
                duration: 400,
                membership: false,
            },
        );
        // loss below 1% / crash before t=60 / revive_delta 0 double as
        // the "no such fault" arms (the shim has no Option strategies).
        if loss_pm >= 10 {
            plan = plan.with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: LossModel::Bernoulli(f64::from(loss_pm) / 1000.0),
            });
        }
        if crash_at >= 60 {
            let pid = crash_pid.min(n);
            plan = plan.with(FaultSpec::Crash { pid, at: crash_at });
            if revive_delta > 0 {
                plan = plan.with(FaultSpec::Revive { pid, at: crash_at + revive_delta });
            }
        }
        plan.validate().expect("generated plan must validate");
        assert_three_way_agree(&plan);
    }
}

/// The rejoin demo's adversarial reorder + crash + revive plan — stale
/// beats, epoch bars, held-back frames — is exactly the kind of trace
/// where the mirror and the reference could drift; pin the agreement on
/// it directly, at both fix levels.
#[test]
fn rejoin_demo_traces_agree_three_ways() {
    for fix in [FixLevel::CorrectedBounds, FixLevel::Full] {
        let plan = accelerated_heartbeat::chaos::rejoin_demo_plan(fix, 1);
        assert_three_way_agree(&plan);
    }
}

/// The drop is known to the network alone, so the network tells the tap:
/// a monitored *plain* cluster on a lossy loopback streams one `lose`
/// record per beat lost, and the R2/R3 fault-free premise goes off with
/// the first of them instead of blaming the protocol for the channel.
#[test]
fn a_lossy_plain_cluster_tells_the_tap_about_every_beat_it_drops() {
    let params = Params::new(2, 8).unwrap();
    let rec = Arc::new(Mutex::new(Recorder::default()));
    let mut cl = VirtualCluster::new(ClusterConfig {
        variant: Variant::Binary,
        params,
        fix: FixLevel::Full,
        n: 1,
        faults: Faults::bernoulli(0.2),
        seed: 2,
        record_events: false,
    });
    cl.attach_tap(rec.clone());
    cl.run_until(4_000);
    let summary = cl.into_report().summary;
    let events = std::mem::take(&mut rec.lock().expect("recorder poisoned").0);
    let lose = events
        .iter()
        .filter(|e| matches!(e, Event::Lose { .. }))
        .count() as u64;
    assert!(summary.messages_lost > 10, "{}", summary.to_json());
    assert_eq!(lose, summary.messages_lost);
    assert!(summary.false_inactivations > 0, "{}", summary.to_json());
    let v = monitor::replay(
        Variant::Binary,
        params,
        FixLevel::Full,
        1,
        &events,
        summary.duration,
    );
    assert_eq!((v.r2, v.r3), (None, None), "{}", v.to_json());
}
