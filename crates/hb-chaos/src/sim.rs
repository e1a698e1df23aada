//! Running a fault plan on the discrete-event simulator.
//!
//! The plan's message-level faults become the world's
//! [`FaultHook`](hb_core::fault::FaultHook); its schedule-level faults
//! (crash / start / leave / revive) map onto the world's own injection
//! API. Drift faults are meaningless here — the simulator has a single
//! global clock — and are skipped (the live backend applies them; see
//! [`crate::live`]). The world is a `Substrate` of the one runner, which
//! forks it at a campaign seed's crash tick.

use hb_core::events::OwnedTap;
use hb_core::fault::Time;
use hb_core::schema::RunSummary;
use hb_sim::world::{World, WorldConfig};

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};
use crate::runner::Substrate;

impl Substrate for World {
    fn unscheduled(plan: &FaultPlan) -> World {
        let p = &plan.proto;
        let cfg = WorldConfig {
            variant: p.variant,
            params: p.params,
            fix: p.fix,
            n: p.n,
            loss_prob: 0.0, // the pipeline is the sole drop authority
            log_events: false,
        };
        let mut world = World::new(cfg, plan.seed);
        world.set_fault_hook(Box::new(FaultPipeline::new(plan)));
        world
    }

    fn attach(&mut self, tap: OwnedTap) {
        self.attach_owned_tap(tap);
    }

    fn schedule(&mut self, fault: &FaultSpec) {
        match *fault {
            FaultSpec::Crash { pid, at } => self.schedule_crash(pid, at),
            FaultSpec::Start { pid, at } => self.schedule_start(pid, at),
            FaultSpec::Leave { pid, at } => self.schedule_leave(pid, at),
            FaultSpec::Revive { pid, at } => self.schedule_revive(pid, at),
            _ => {}
        }
    }

    fn run_until(&mut self, t: Time) {
        World::run_until(self, t);
    }

    fn fork(&self) -> Option<World> {
        World::fork(self)
    }

    fn finish(mut self) -> (RunSummary, Vec<OwnedTap>) {
        let taps = self.take_owned_taps();
        (self.into_report(), taps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use crate::{run_plan, Backend};
    use hb_core::fault::LossModel;
    use hb_core::{FixLevel, Params, Status, Variant};

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
        let s = run_plan(&plan, Backend::Sim);
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
        let s = run_plan(&plan, Backend::Sim);
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
        let s = run_plan(&plan, Backend::Sim);
        assert!(s.false_inactivations >= 1, "{s:?}");
        assert!(s.final_status.iter().all(|st| *st == Status::NvInactive));
    }

    #[test]
    fn short_partition_is_survived_by_the_fixed_protocol() {
        let plan = FaultPlan::new("blip", 3, proto(FixLevel::Full)).with(FaultSpec::Partition {
            window: Window::between(200, 208),
            groups: vec![vec![0], vec![1]],
        });
        let s = run_plan(&plan, Backend::Sim);
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
        let s = run_plan(&plan, Backend::Sim);
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
        let a = run_plan(&plan, Backend::Sim).to_json();
        let b = run_plan(&plan, Backend::Sim).to_json();
        assert_eq!(a, b);
        let mut other = plan.clone();
        other.seed = 12;
        assert_ne!(run_plan(&other, Backend::Sim).to_json(), a);
    }
}
