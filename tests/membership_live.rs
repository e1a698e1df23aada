//! End-to-end membership scenarios across both substrates.
//!
//! Pins the `hb-member` engine's promise (see `crates/hb-member/src/engine.rs`):
//! the simulated and the live runtime execute the same harness, so a
//! golden coordinator-crash plan yields *byte-identical* view-change
//! event streams on both — and the membership semantics (concurrent
//! rejoins mid-view-change, state transfer to a late joiner) hold on the
//! live substrate, not just in the simulator.

use std::collections::BTreeMap;

use accelerated_heartbeat::chaos::{
    failover_plan, run_plan_member, Backend, FaultPlan, FaultSpec, Link, ProtoSpec, Window,
};
use accelerated_heartbeat::core::events::event_json;
use accelerated_heartbeat::core::fault::{FaultHook, SendFate};
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Params, Pid, Variant};
use accelerated_heartbeat::member::{
    run_live, run_sim, FaultKind, MemberConfig, MemberFault, MemberReport, MemberSpec, RoleKind,
};

fn spec() -> MemberSpec {
    MemberSpec::dynamic_full(Params::new(2, 8).unwrap())
}

fn fault(at: u64, kind: FaultKind, pid: usize) -> MemberFault {
    MemberFault { at, kind, pid }
}

/// Just the membership frames of a run, one line per event.
fn view_stream(report: &MemberReport) -> String {
    report
        .events
        .events()
        .iter()
        .filter(|e| matches!(e, Event::ViewChange { .. } | Event::StateTransfer { .. }))
        .map(|e| format!("{e}\n"))
        .collect()
}

/// Two crash victims revive while the group is still mid-failover: both
/// joiners request state concurrently, the new coordinator admits both,
/// and the group converges on one view containing everybody.
#[test]
fn concurrent_joins_during_a_view_change_converge() {
    let mut cfg = MemberConfig::clean(spec(), 5, 21, 900);
    cfg.faults = vec![
        fault(40, FaultKind::Crash, 3),
        fault(60, FaultKind::Crash, 4),
        fault(300, FaultKind::Crash, 0),
        // Revive both victims right as the failover view change runs.
        fault(320, FaultKind::Revive, 3),
        fault(324, FaultKind::Revive, 4),
    ];
    let report = run_live(cfg, None, Vec::new());

    // Pid 1 took over; the concurrent joiners are plain participants.
    assert_eq!(report.roles[1], RoleKind::Coordinator);
    assert_eq!(report.roles[3], RoleKind::Participant);
    assert_eq!(report.roles[4], RoleKind::Participant);
    assert!(report.agreed(), "one view, no split: {:?}", report.views);
    assert!(!report.views[1].contains(0), "the crashed coordinator left");
    assert!(report.views[1].contains(3) && report.views[1].contains(4));

    // Both concurrent admissions shipped state from the *new* coordinator.
    for joiner in [3, 4] {
        assert!(
            report
                .events
                .events()
                .iter()
                .any(|e| matches!(e, Event::StateTransfer { from: 1, to, .. } if *to == joiner)),
            "no state transfer to pid {joiner}"
        );
    }
    // Every fault has a resolved two-sided sample.
    for s in &report.reconv {
        assert!(s.detect.is_some() && s.stable.is_some(), "unresolved {s:?}");
    }
}

/// A victim that stays down for most of the run still gets the full
/// current view (with its fresh epoch as the bar) when it finally asks.
#[test]
fn state_transfer_reaches_a_late_joiner() {
    let mut cfg = MemberConfig::clean(spec(), 4, 22, 1000);
    cfg.faults = vec![
        fault(50, FaultKind::Crash, 2),
        fault(700, FaultKind::Revive, 2),
    ];
    let report = run_live(cfg, None, Vec::new());

    assert_eq!(report.roles[2], RoleKind::Participant);
    assert!(report.agreed());
    assert!(report.views[2].contains(2), "joiner is in its own view");
    assert_eq!(
        report.views[2].bar_of(2),
        Some(1),
        "the bar is the second incarnation"
    );
    // The transfer came from the incumbent coordinator and carried the
    // view the group actually agrees on.
    let shipped = report
        .events
        .events()
        .iter()
        .find_map(|e| match e {
            Event::StateTransfer {
                from: 0,
                to: 2,
                view_no,
                ..
            } => Some(*view_no),
            _ => None,
        })
        .expect("a state transfer to the late joiner");
    assert_eq!(shipped, report.views[2].view_no);
}

/// The golden coordinator-crash plan (the `--failover` campaign's lossy
/// cell) produces byte-identical view-change streams on both substrates.
#[test]
fn sim_and_live_view_change_streams_are_byte_identical() {
    let plan = failover_plan(0.05, 1);
    let sim = run_plan_member(&plan, Backend::Sim);
    let live = run_plan_member(&plan, Backend::Live);

    let stream = view_stream(&sim.report);
    assert_eq!(stream, view_stream(&live.report), "substrates diverged");

    // The stream tells the §I failover story in order: genesis, the
    // crash-triggered view change to coordinator 1, then the revived
    // ex-coordinator's state transfer and readmission.
    let lines: Vec<&str> = stream.lines().collect();
    assert!(lines.len() >= 4, "too few membership frames: {stream}");
    let installs: Vec<_> = sim
        .report
        .events
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ViewChange {
                view_no,
                coordinator,
                ..
            } => Some((*view_no, *coordinator)),
            _ => None,
        })
        .collect();
    assert!(
        installs.starts_with(&[(0, 0)]),
        "genesis first: {installs:?}"
    );
    assert!(
        installs.contains(&(1, 1)) || installs.iter().any(|&(v, c)| v >= 1 && c == 1),
        "failover view coordinated by pid 1: {installs:?}"
    );
    assert!(
        sim.report
            .events
            .events()
            .iter()
            .any(|e| matches!(e, Event::StateTransfer { from: 1, to: 0, .. })),
        "the demoted ex-coordinator got state from its successor"
    );
    // And the summaries agree modulo the substrate label.
    let mut s = sim.summary.clone();
    s.source = live.summary.source;
    assert_eq!(s, live.summary);
}

/// Every message of a membership run delayed by the adversary — each one
/// reordered by 1..=4 ticks, and 6 more inside a spike window — on both
/// substrates: the streams stay byte-identical, no beat arrives before
/// the delay the plan dictates for its send tick has passed, and the
/// group (one participant crashed and revived along the way) ends on one
/// view.
#[test]
fn hook_delayed_membership_traffic_is_late_and_identical_on_both_substrates() {
    let spike = Window::between(300, 340);
    let proto = ProtoSpec {
        variant: Variant::Dynamic,
        params: Params::new(10, 40).unwrap(),
        fix: FixLevel::Full,
        n: 3,
        duration: 1_500,
        membership: true,
    };
    let plan = FaultPlan::new("member/reorder+spike", 5, proto)
        .with(FaultSpec::Reorder {
            window: Window::always(),
            link: Link::any(),
            p: 1.0,
            max_extra: 4,
        })
        .with(FaultSpec::DelaySpike {
            window: spike,
            extra: 6,
        })
        .with(FaultSpec::Crash { pid: 2, at: 200 })
        .with(FaultSpec::Revive { pid: 2, at: 700 });
    plan.validate().unwrap();
    let sim = run_plan_member(&plan, Backend::Sim);
    let live = run_plan_member(&plan, Backend::Live);
    assert_eq!(
        sim.report.events.to_string(),
        live.report.events.to_string(),
        "substrates diverged"
    );

    // Per link and payload, the k-th delivery cannot precede the k-th
    // earliest tick a send's dictated delay has run out.
    let mut ready: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    let mut delivered: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for e in sim.report.events.events() {
        match *e {
            Event::Send { at, from, to, hb } => {
                let extra = 1 + if spike.contains(at) { 6 } else { 0 };
                ready.entry((from, to, hb)).or_default().push(at + extra);
            }
            Event::Deliver { at, from, to, hb } => {
                delivered.entry((from, to, hb)).or_default().push(at);
            }
            _ => {}
        }
    }
    assert!(delivered.values().map(Vec::len).sum::<usize>() > 100);
    for (key, at) in &mut delivered {
        let ready = ready.get_mut(key).expect("a delivery of something sent");
        ready.sort_unstable();
        at.sort_unstable();
        assert!(at.len() <= ready.len(), "{key:?}: more delivered than sent");
        for (d, r) in at.iter().zip(ready.iter()) {
            assert!(d >= r, "{key:?}: delivered at {d}, not ready before {r}");
        }
    }

    assert!(sim.report.agreed(), "views: {:?}", sim.report.views);
    assert!(sim.report.views[0].contains(2), "the revived pid is back");
    assert!(sim.summary.nv_inactivations.is_empty());
}

/// FNV-1a, 64 bit.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One step of a 64-bit LCG: the pin's own seeded stream.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// The benchmark's loss hook in miniature: each frame dropped with
/// probability 2 %, drawn from its own seeded stream, until `until`.
#[derive(Debug)]
struct SeededLoss {
    state: u64,
    until: u64,
}

impl FaultHook for SeededLoss {
    fn fate(&mut self, now: u64, _src: Pid, _dst: Pid) -> SendFate {
        if now < self.until && lcg(&mut self.state).is_multiple_of(50) {
            SendFate::Drop
        } else {
            SendFate::clean()
        }
    }
}

/// Every byte a membership run reports, as one FNV-1a-64 record: the
/// event JSON lines, then the views, roles, `NetStats` and
/// `ReconvSample`s.
fn record(report: &MemberReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in report.events.events() {
        h = fnv1a(h, event_json(e).as_bytes());
        h = fnv1a(h, b"\n");
    }
    let tail = format!(
        "{:?} {:?} {:?} {:?}",
        report.views, report.roles, report.stats, report.reconv
    );
    fnv1a(h, tail.as_bytes())
}

/// The benchmark's `member_failover` schedule at 2 000 ticks, pinned on
/// both substrates: the coordinator crashes and revives, then a
/// participant crashes, each fault at a seeded tick in its own twentieth
/// of the run, for seeds 1..=16, groups of 3 and 8, with and without 2 %
/// seeded loss over the first seven tenths. Per run the sim and live
/// records must be equal; all of them fold into one constant.
#[test]
fn failover_schedules_are_pinned_on_both_substrates() {
    const DURATION: u64 = 2_000;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut events = 0;
    for group in [3, 8] {
        for lossy in [false, true] {
            for seed in 1..=16 {
                let mut draw = seed;
                let mut at = |slot| DURATION * slot / 20 + lcg(&mut draw) % (DURATION / 20);
                let faults = vec![
                    fault(at(4), FaultKind::Crash, 0),
                    fault(at(9), FaultKind::Revive, 0),
                    fault(at(15), FaultKind::Crash, 2 + seed as usize % (group - 2)),
                ];
                let cfg = MemberConfig {
                    faults,
                    ..MemberConfig::clean(spec(), group, seed, DURATION)
                };
                let hook = || {
                    lossy.then(|| {
                        Box::new(SeededLoss {
                            state: seed ^ 0x5eed,
                            until: DURATION * 7 / 10,
                        }) as Box<dyn FaultHook>
                    })
                };
                let sim = run_sim(cfg.clone(), hook(), Vec::new());
                let live = run_live(cfg, hook(), Vec::new());
                let cell = format!("group {group}, lossy {lossy}, seed {seed}");
                assert_eq!(record(&sim), record(&live), "{cell}: substrates diverged");
                assert_eq!(sim.reconv.len(), 3, "{cell}");
                events += sim.events.len();
                digest = fnv1a(digest, &record(&sim).to_le_bytes());
            }
        }
    }
    assert!(events > 250_000, "the grid must actually run: {events}");
    assert_eq!(digest, 0x9ad3_bc7e_28f5_706b, "{digest:#018x}");
}
