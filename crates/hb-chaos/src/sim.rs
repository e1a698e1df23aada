//! Running a fault plan on the discrete-event simulator.
//!
//! The plan's message-level faults become the world's
//! [`FaultHook`](hb_sim::FaultHook); its schedule-level faults (crash /
//! start / leave / revive) map onto the world's own injection API. Drift faults
//! are meaningless here — the simulator has a single global clock — and
//! are skipped (the live backend applies them; see [`crate::live`]).

use hb_core::events::{OwnedTap, SharedTap};
use hb_sim::schema::RunSummary;
use hb_sim::world::{World, WorldConfig};

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};

/// Run `plan` on the simulator and produce the shared summary schema
/// (`source: "sim"`). Deterministic: the same plan (including its seed)
/// yields a byte-identical `to_json()`.
pub fn run_plan_sim(plan: &FaultPlan) -> RunSummary {
    run(plan, |_| {}).0
}

/// Like [`run_plan_sim`], but with a live event tap (e.g. a streaming
/// requirement monitor) attached to the world's sink. The tap sees every
/// event whether or not logging is enabled; the summary itself is
/// unchanged — callers read their verdicts out of the tap.
pub fn run_plan_sim_tapped(plan: &FaultPlan, tap: SharedTap) -> RunSummary {
    run(plan, |world| world.attach_tap(tap)).0
}

/// Like [`run_plan_sim_tapped`], but the world's sink *owns* the tap —
/// the simulator is single-threaded, so events dispatch without any
/// mutex. The tap is handed back alongside the summary for the caller
/// to read its verdicts out of (e.g. via `MonitorSet::from_tap`).
pub fn run_plan_sim_owned_tap(plan: &FaultPlan, tap: OwnedTap) -> (RunSummary, OwnedTap) {
    let (summary, mut taps) = run(plan, |world| world.attach_owned_tap(tap));
    #[expect(clippy::expect_used, reason = "run hands back what it attached")]
    let tap = taps.pop().expect("the attached owned tap comes back");
    (summary, tap)
}

/// The one runner: build the world for `plan`, let `attach` install a
/// tap, run to the plan's horizon, hand back the summary and whatever
/// owned taps the sink holds.
fn run(plan: &FaultPlan, attach: impl FnOnce(&mut World)) -> (RunSummary, Vec<OwnedTap>) {
    let cfg = WorldConfig {
        variant: plan.proto.variant,
        params: plan.proto.params,
        fix: plan.proto.fix,
        n: plan.proto.n,
        loss_prob: 0.0, // the pipeline is the sole drop authority
        log_events: false,
    };
    let mut world = World::new(cfg, plan.seed);
    attach(&mut world);
    world.set_fault_hook(Box::new(FaultPipeline::new(plan)));
    for fault in &plan.faults {
        match *fault {
            FaultSpec::Crash { pid, at } => world.schedule_crash(pid, at),
            FaultSpec::Start { pid, at } => world.schedule_start(pid, at),
            FaultSpec::Leave { pid, at } => world.schedule_leave(pid, at),
            FaultSpec::Revive { pid, at } => world.schedule_revive(pid, at),
            _ => {}
        }
    }
    world.run_until(plan.proto.duration);
    let taps = world.take_owned_taps();
    (RunSummary::from_report(&world.into_report()), taps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use hb_core::{FixLevel, Params, Status, Variant};
    use hb_sim::LossModel;

    fn proto(fix: FixLevel) -> ProtoSpec {
        ProtoSpec {
            variant: Variant::Binary,
            params: Params::new(2, 8).unwrap(),
            fix,
            n: 1,
            duration: 2_000,
            membership: false,
        }
    }

    #[test]
    fn faultless_plan_stays_alive() {
        let plan = FaultPlan::new("quiet", 1, proto(FixLevel::Full));
        let s = run_plan_sim(&plan);
        assert_eq!(s.source, "sim");
        assert_eq!(s.false_inactivations, 0);
        assert_eq!(s.duration, 2_000);
        assert!(s.messages_lost == 0 && s.messages_delivered > 0);
    }

    #[test]
    fn crash_is_detected_through_burst_loss() {
        // Seed-pinned: bursty loss can starve the watchdogs before the
        // scheduled crash (2 correlated beat losses cover the whole
        // 2·tmax bound); this seed keeps everyone alive until tick 500.
        let plan = FaultPlan::new("crash", 1, proto(FixLevel::Full))
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: crate::pipeline::burst_model(0.05, 2.0),
            })
            .with(FaultSpec::Crash { pid: 1, at: 500 });
        let s = run_plan_sim(&plan);
        assert_eq!(s.crashes, vec![(1, 500)]);
        let d = s.detection_delay.expect("crash must be detected");
        // Loss only silences the channel further, so detection stays
        // within the corrected bound.
        let bound = u64::from(
            Params::new(2, 8)
                .unwrap()
                .p0_bound_corrected(Variant::Binary),
        );
        assert!(d <= bound, "delay {d} > bound {bound}");
    }

    #[test]
    fn long_partition_forces_false_suspicion() {
        // Cut the coordinator off for longer than the halving chain: both
        // sides starve and inactivate with no crash injected.
        let plan =
            FaultPlan::new("partition", 2, proto(FixLevel::Full)).with(FaultSpec::Partition {
                window: Window::between(200, 400),
                groups: vec![vec![0], vec![1]],
            });
        let s = run_plan_sim(&plan);
        assert!(s.false_inactivations >= 1, "{s:?}");
        assert!(s.final_status.iter().all(|st| *st == Status::NvInactive));
    }

    #[test]
    fn short_partition_is_survived_by_the_fixed_protocol() {
        let plan = FaultPlan::new("blip", 3, proto(FixLevel::Full)).with(FaultSpec::Partition {
            window: Window::between(200, 208),
            groups: vec![vec![0], vec![1]],
        });
        let s = run_plan_sim(&plan);
        assert_eq!(s.false_inactivations, 0, "{s:?}");
        assert!(s.messages_lost > 0, "the partition must have bitten");
    }

    #[test]
    fn duplication_inflates_delivery_counts() {
        let plan = FaultPlan::new("dup", 4, proto(FixLevel::Full)).with(FaultSpec::Duplicate {
            window: Window::always(),
            link: Link::any(),
            p: 1.0,
        });
        let s = run_plan_sim(&plan);
        assert!(
            s.messages_delivered > s.messages_sent,
            "every message doubled: {} delivered vs {} sent",
            s.messages_delivered,
            s.messages_sent
        );
        assert_eq!(s.false_inactivations, 0, "duplicates are harmless");
    }

    #[test]
    fn replay_is_byte_identical() {
        let plan = FaultPlan::new("replay", 11, proto(FixLevel::ReceivePriority))
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: LossModel::Bernoulli(0.2),
            })
            .with(FaultSpec::Reorder {
                window: Window::always(),
                link: Link::any(),
                p: 0.3,
                max_extra: 2,
            })
            .with(FaultSpec::Crash { pid: 1, at: 700 });
        let a = run_plan_sim(&plan).to_json();
        let b = run_plan_sim(&plan).to_json();
        assert_eq!(a, b);
        let mut other = plan.clone();
        other.seed = 12;
        assert_ne!(run_plan_sim(&other).to_json(), a);
    }
}
