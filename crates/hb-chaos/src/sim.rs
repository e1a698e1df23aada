//! Running a fault plan on the discrete-event simulator.
//!
//! The plan's message-level faults become the world's
//! [`FaultHook`](hb_sim::FaultHook); its schedule-level faults (crash /
//! start / leave / revive) map onto the world's own injection API. Drift faults
//! are meaningless here — the simulator has a single global clock — and
//! are skipped (the live backend applies them; see [`crate::live`]).
//!
//! Plans that differ only in their crash and revive entries (a campaign
//! seed's three runs) are one run up to the first tick those differ on:
//! `run_plans` simulates that prefix once and forks the world there.

use hb_core::events::{OwnedTap, SharedTap};
use hb_monitor::MonitorSet;
use hb_sim::channel::Time;
use hb_sim::schema::RunSummary;
use hb_sim::world::{World, WorldConfig};

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};

/// Run `plan` on the simulator and produce the shared summary schema
/// (`source: "sim"`). Deterministic: the same plan (including its seed)
/// yields a byte-identical `to_json()`.
pub fn run_plan_sim(plan: &FaultPlan) -> RunSummary {
    run_one(plan, |_| {}).0
}

/// Like [`run_plan_sim`], but with a live event tap (e.g. a streaming
/// requirement monitor) attached to the world's sink. The tap sees every
/// event whether or not logging is enabled; the summary itself is
/// unchanged — callers read their verdicts out of the tap.
pub fn run_plan_sim_tapped(plan: &FaultPlan, tap: SharedTap) -> RunSummary {
    run_one(plan, |world| world.attach_tap(tap)).0
}

/// Run each of `plans` as [`crate::run_plan`] (or, `monitored`,
/// [`crate::run_plan_monitored`]) does, sharing one world up to their
/// [`fork_tick`].
pub(crate) fn run_plans(plans: &[FaultPlan], monitored: bool) -> Vec<RunSummary> {
    let attach = |world: &mut World| {
        if monitored {
            let p = &plans[0].proto;
            world.attach_owned_tap(Box::new(MonitorSet::new(p.variant, p.params, p.fix, p.n)));
        }
    };
    let summarise = |(mut summary, taps): Run| {
        if let Some(mut mon) = taps.into_iter().next().and_then(MonitorSet::from_tap) {
            mon.finish(summary.duration);
            summary.monitor = Some(mon.verdicts());
        }
        summary
    };
    let runs = run(plans, fork_tick(plans), attach);
    runs.into_iter().map(summarise).collect()
}

/// The first tick at which the crash and revive entries of `plans` differ
/// (`Time::MAX` if none): up to it they are one run. Panics if the plans
/// differ in anything else (seed, protocol, another fault).
fn fork_tick(plans: &[FaultPlan]) -> Time {
    fn entries(plan: &FaultPlan, at: Option<Time>) -> impl Iterator<Item = &FaultSpec> {
        plan.faults.iter().filter(move |f| lifecycle_at(f) == at)
    }
    let apart = |w: &[FaultPlan], at| !entries(&w[0], at).eq(entries(&w[1], at));
    let differ = |at| plans.windows(2).any(|w| apart(w, at));
    let same = |w: &[FaultPlan]| (w[0].seed, w[0].proto) == (w[1].seed, w[1].proto);
    let shared = plans.windows(2).all(same) && !differ(None);
    assert!(shared, "plans differ before a crash");
    let faults = plans.iter().flat_map(|p| &p.faults);
    let ticks = faults.filter_map(lifecycle_at).filter(|&t| differ(Some(t)));
    ticks.min().unwrap_or(Time::MAX)
}

/// The tick of a crash or revive entry.
fn lifecycle_at(fault: &FaultSpec) -> Option<Time> {
    match *fault {
        FaultSpec::Crash { at, .. } | FaultSpec::Revive { at, .. } => Some(at),
        _ => None,
    }
}

/// A run's summary and the owned taps its sink held.
type Run = (RunSummary, Vec<OwnedTap>);

/// [`run`] for one plan, which never forks.
fn run_one(plan: &FaultPlan, attach: impl FnOnce(&mut World)) -> Run {
    run(std::slice::from_ref(plan), Time::MAX, attach).remove(0)
}

/// The one runner. The base world (`attach`'s tap, the pipeline, the
/// schedule before `fork_at`) runs to `fork_at`; every plan but the last
/// continues on a fork of it with its own later entries, the last on the
/// base itself.
fn run(plans: &[FaultPlan], fork_at: Time, attach: impl FnOnce(&mut World)) -> Vec<Run> {
    let Some((last, rest)) = plans.split_last() else {
        return Vec::new();
    };
    let cfg = WorldConfig {
        variant: last.proto.variant,
        params: last.proto.params,
        fix: last.proto.fix,
        n: last.proto.n,
        loss_prob: 0.0, // the pipeline is the sole drop authority
        log_events: false,
    };
    let mut base = World::new(cfg, last.seed);
    attach(&mut base);
    base.set_fault_hook(Box::new(FaultPipeline::new(last)));
    schedule(&mut base, last, true, fork_at);
    base.run_until(fork_at.min(last.proto.duration));
    let finish = |mut world: World, plan: &FaultPlan| {
        schedule(&mut world, plan, false, fork_at);
        world.run_until(plan.proto.duration);
        let taps = world.take_owned_taps();
        (world.into_report(), taps)
    };
    #[expect(clippy::expect_used, reason = "the pipeline and the owned taps fork")]
    let fork = |plan| finish(base.fork().expect("a chaos world forks"), plan);
    let mut runs: Vec<Run> = rest.iter().map(fork).collect();
    runs.push(finish(base, last));
    runs
}

/// Give `world` the schedule-level faults of `plan` on its side of the
/// fork: the `base` world every start and leave and the crashes and
/// revives before `fork_at`, a branch the crashes and revives after.
fn schedule(world: &mut World, plan: &FaultPlan, base: bool, fork_at: Time) {
    for fault in &plan.faults {
        let ours = lifecycle_at(fault).map_or(base, |at| (at < fork_at) == base);
        match *fault {
            FaultSpec::Crash { pid, at } if ours => world.schedule_crash(pid, at),
            FaultSpec::Start { pid, at } if ours => world.schedule_start(pid, at),
            FaultSpec::Leave { pid, at } if ours => world.schedule_leave(pid, at),
            FaultSpec::Revive { pid, at } if ours => world.schedule_revive(pid, at),
            _ => {}
        }
    }
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

    /// A seed's crash, crash+revive and quiet plans run on one shared
    /// prefix, forked at the crash, summarise exactly as each runs whole
    /// (`run_plan` / `run_plan_monitored`, which never fork): over the
    /// variants, fix levels and fault axes `tests/chaos_plan.rs` pins the
    /// campaign reports on, 64 seeds. As in a monitored campaign, the
    /// drifted cells (the same runs on the simulator) run unmonitored.
    #[test]
    fn runs_forked_at_the_crash_equal_whole_runs() {
        use crate::campaign::{cell_plan, CampaignSpec, RunKind};
        use crate::{run_plan, run_plan_monitored, Backend};
        let kinds = [RunKind::Crash, RunKind::CrashRevive, RunKind::Quiet];
        let (original, full) = (FixLevel::Original, FixLevel::Full);
        let check = |variant, n, fixes| {
            let spec = CampaignSpec {
                name: "fork".into(),
                backend: Backend::Sim,
                variant,
                params: Params::new(2, 8).unwrap(),
                n,
                duration: 400,
                fixes,
                loss: vec![0.0, 0.05],
                burst: vec![1.0, 4.0],
                drift: vec![(1, 1), (101, 100)],
                partition: vec![0, 20],
                seeds: Vec::new(),
                threads: 1,
                monitor: false,
            };
            let mut detected = 0;
            for cell in spec.cells() {
                for seed in 1..=64 {
                    let plans = kinds.map(|kind| cell_plan(&spec, &cell, seed, kind));
                    assert_eq!(fork_tick(&plans), 200);
                    let monitored = cell.drift == (1, 1);
                    let whole: Vec<RunSummary> = plans
                        .iter()
                        .map(|plan| match monitored {
                            true => run_plan_monitored(plan, Backend::Sim),
                            false => run_plan(plan, Backend::Sim),
                        })
                        .collect();
                    assert_eq!(run_plans(&plans, monitored), whole, "{}", plans[0].name);
                    detected += usize::from(whole[0].detection_delay.is_some());
                }
            }
            detected
        };
        let detected: usize = std::thread::scope(|scope| {
            let variants = [
                (Variant::Static, 4, vec![full]),
                (Variant::Expanding, 3, vec![original, full]),
                (Variant::Dynamic, 3, vec![original, full]),
                (Variant::Binary, 1, vec![original, full]),
            ];
            let runs =
                variants.map(|(variant, n, fixes)| scope.spawn(move || check(variant, n, fixes)));
            runs.into_iter().map(|run| run.join().unwrap()).sum()
        });
        assert!(detected > 500, "the crashes must land: {detected}");
    }

    /// Entries every plan has are scheduled once, on the base world; the
    /// fork lands on the first tick the plans' entries differ on.
    #[test]
    fn plans_fork_at_their_first_unshared_entry() {
        use crate::{run_plan, run_plan_monitored, Backend};
        let base = FaultPlan::new("fork", 5, proto(FixLevel::Full))
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: LossModel::Bernoulli(0.05),
            })
            // A revive of a live participant: shared, and a no-op.
            .with(FaultSpec::Revive { pid: 1, at: 50 });
        let crash = base.clone().with(FaultSpec::Crash { pid: 1, at: 300 });
        let revive = crash.clone().with(FaultSpec::Revive { pid: 1, at: 304 });
        let plans = [crash, revive, base];
        assert_eq!(fork_tick(&plans), 300);
        assert_eq!(fork_tick(&plans[..1]), Time::MAX);
        assert_eq!(fork_tick(&plans[1..]), 300);
        for monitored in [false, true] {
            let whole: Vec<RunSummary> = plans
                .iter()
                .map(|plan| match monitored {
                    true => run_plan_monitored(plan, Backend::Sim),
                    false => run_plan(plan, Backend::Sim),
                })
                .collect();
            assert_eq!(run_plans(&plans, monitored), whole);
            assert!(whole[1].reconv_detect.is_some(), "{:?}", whole[1]);
        }
    }

    #[test]
    #[should_panic(expected = "plans differ before a crash")]
    fn plans_with_different_seeds_do_not_share_a_prefix() {
        let plan = FaultPlan::new("seed", 1, proto(FixLevel::Full));
        let mut other = plan.clone();
        other.seed = 2;
        fork_tick(&[plan, other]);
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
