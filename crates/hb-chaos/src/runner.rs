//! The one runner, for both substrates ([`Substrate`]). Plans that differ
//! only in their crash and revive entries (a campaign seed's three runs)
//! are one run up to the first tick those differ on: [`run_plans`] runs
//! that prefix once and forks there. A monitor rides as an owned tap.

use hb_core::events::{OwnedTap, SharedTap};
use hb_monitor::MonitorSet;
use hb_sim::channel::Time;
use hb_sim::schema::RunSummary;
use hb_sim::World;

use crate::live::ChaosCluster;
use crate::plan::{FaultPlan, FaultSpec};
use crate::Backend;

/// What the runner needs of `hb_sim::World` and [`ChaosCluster`].
pub(crate) trait Substrate: Sized {
    /// A run of `plan` with its fault pipeline and nothing scheduled.
    fn unscheduled(plan: &FaultPlan) -> Self;
    fn attach(&mut self, tap: OwnedTap);
    /// Apply a crash, start, leave, revive or drift (others: no-op).
    fn schedule(&mut self, fault: &FaultSpec);
    fn run_until(&mut self, t: Time);
    fn fork(&self) -> Option<Self>;
    fn finish(self) -> (RunSummary, Vec<OwnedTap>);
}

/// Run one plan on `backend`, `monitored` or not.
pub(crate) fn run_one(plan: &FaultPlan, backend: Backend, monitored: bool) -> RunSummary {
    let mut runs = run_plans(std::slice::from_ref(plan), backend, monitored);
    runs.remove(0)
}

/// Run one plan on `backend` with `tap` on its tap site.
pub(crate) fn run_tapped(plan: &FaultPlan, backend: Backend, tap: SharedTap) -> RunSummary {
    run_on(backend, std::slice::from_ref(plan), Some(Box::new(tap))).remove(0)
}

/// Run each of `plans` as [`crate::run_plan`] (or, `monitored`,
/// [`crate::run_plan_monitored`]) does, sharing one run up to their
/// [`fork_tick`].
pub(crate) fn run_plans(plans: &[FaultPlan], backend: Backend, monitored: bool) -> Vec<RunSummary> {
    let monitor = plans.last().filter(|_| monitored).map(|plan| -> OwnedTap {
        let p = &plan.proto;
        Box::new(MonitorSet::new(p.variant, p.params, p.fix, p.n))
    });
    run_on(backend, plans, monitor)
}

/// [`forked`] on `backend`'s substrate.
fn run_on(backend: Backend, plans: &[FaultPlan], tap: Option<OwnedTap>) -> Vec<RunSummary> {
    match backend {
        Backend::Sim => forked::<World>(plans, tap),
        Backend::Live => forked::<ChaosCluster>(plans, tap),
    }
}

/// The base run (`tap`, the pipeline, the schedule before the fork tick)
/// runs to the fork tick; every plan but the last continues on a fork of
/// it with its own later entries, the last on the base itself. A
/// [`MonitorSet`] tap's verdicts land in each summary.
///
/// # Panics
///
/// Panics if a plan fails [`FaultPlan::validate`], on either substrate.
fn forked<S: Substrate>(plans: &[FaultPlan], tap: Option<OwnedTap>) -> Vec<RunSummary> {
    let Some((last, rest)) = plans.split_last() else {
        return Vec::new();
    };
    for plan in plans {
        #[expect(clippy::expect_used, reason = "a plan batch's contract is valid plans")]
        plan.validate().expect("invalid fault plan");
    }
    let fork_at = fork_tick(plans);
    let mut base = S::unscheduled(last);
    if let Some(tap) = tap {
        base.attach(tap);
    }
    schedule(&mut base, last, true, fork_at);
    base.run_until(fork_at.min(last.proto.duration));
    let finish = |mut run: S, plan: &FaultPlan| {
        schedule(&mut run, plan, false, fork_at);
        run.run_until(plan.proto.duration);
        let (mut summary, taps) = run.finish();
        if let Some(mut mon) = taps.into_iter().next().and_then(MonitorSet::from_tap) {
            mon.finish(summary.duration);
            summary.monitor = Some(mon.verdicts());
        }
        summary
    };
    #[expect(clippy::expect_used, reason = "the pipeline and the owned taps fork")]
    let fork = |plan| finish(base.fork().expect("a chaos run forks"), plan);
    let mut runs: Vec<RunSummary> = rest.iter().map(fork).collect();
    runs.push(finish(base, last));
    runs
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

/// Give `run` the schedule-level faults of `plan` on its side of the
/// fork: the `base` run every other entry and the crashes and revives
/// before `fork_at`, a branch the crashes and revives after.
fn schedule(run: &mut impl Substrate, plan: &FaultPlan, base: bool, fork_at: Time) {
    for fault in &plan.faults {
        if lifecycle_at(fault).map_or(base, |at| (at < fork_at) == base) {
            run.schedule(fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use crate::{run_plan, run_plan_monitored};
    use hb_core::{FixLevel, Params, Variant};
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

    /// Each plan run whole: what [`run_plans`] must equal.
    fn whole(plans: &[FaultPlan], backend: Backend, monitored: bool) -> Vec<RunSummary> {
        let run = |plan| match monitored {
            true => run_plan_monitored(plan, backend),
            false => run_plan(plan, backend),
        };
        plans.iter().map(run).collect()
    }

    /// A seed's crash, crash+revive and quiet plans run on one shared
    /// prefix, forked at the crash, summarise exactly as each runs whole
    /// (`run_plan` / `run_plan_monitored`, which never fork), on both
    /// substrates: over the variants, fix levels and fault axes
    /// `tests/chaos_plan.rs` pins the campaign reports on, 64 seeds,
    /// unmonitored and monitored; as in a campaign, drifted cells only
    /// unmonitored.
    #[test]
    fn runs_forked_at_the_crash_equal_whole_runs() {
        use crate::campaign::{cell_plan, CampaignSpec, RunKind};
        let kinds = [RunKind::Crash, RunKind::CrashRevive, RunKind::Quiet];
        let (original, full) = (FixLevel::Original, FixLevel::Full);
        let check = |backend, variant, n, fixes| {
            let spec = CampaignSpec {
                name: "fork".into(),
                backend,
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
                    let undrifted = cell.drift == (1, 1);
                    for monitored in [false, true].into_iter().filter(|&m| !m || undrifted) {
                        let whole = whole(&plans, backend, monitored);
                        let forked = run_plans(&plans, backend, monitored);
                        assert_eq!(forked, whole, "{backend:?} {}", plans[0].name);
                        detected += usize::from(!monitored && whole[0].detection_delay.is_some());
                    }
                }
            }
            detected
        };
        let detected: Vec<usize> = std::thread::scope(|scope| {
            let variants = [
                (Variant::Static, 4, vec![full]),
                (Variant::Expanding, 3, vec![original, full]),
                (Variant::Dynamic, 3, vec![original, full]),
                (Variant::Binary, 1, vec![original, full]),
            ];
            let runs = [Backend::Sim, Backend::Live].map(|backend| {
                let variants = variants.clone();
                scope.spawn(move || {
                    let detected =
                        variants.map(|(variant, n, fixes)| check(backend, variant, n, fixes));
                    detected.iter().sum()
                })
            });
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for (backend, detected) in ["sim", "live"].iter().zip(detected) {
            assert!(
                detected > 500,
                "{backend}: the crashes must land: {detected}"
            );
        }
    }

    /// Entries every plan has are scheduled once, on the base run; the
    /// fork lands on the first tick the plans' entries differ on, and the
    /// crash+revive branch converges again.
    #[test]
    fn plans_fork_at_their_first_unshared_entry() {
        let proto = ProtoSpec {
            variant: Variant::Expanding,
            n: 2,
            ..proto(FixLevel::Full)
        };
        let base = FaultPlan::new("fork", 5, proto)
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: LossModel::Bernoulli(0.05),
            })
            // Shared: a crash and revive of the other participant.
            .with(FaultSpec::Crash { pid: 2, at: 50 })
            .with(FaultSpec::Revive { pid: 2, at: 54 });
        let crash = base.clone().with(FaultSpec::Crash { pid: 1, at: 300 });
        let revive = crash.clone().with(FaultSpec::Revive { pid: 1, at: 304 });
        let plans = [crash, revive, base];
        assert_eq!(fork_tick(&plans), 300);
        assert_eq!(fork_tick(&plans[..1]), Time::MAX);
        assert_eq!(fork_tick(&plans[1..]), 300);
        for backend in [Backend::Sim, Backend::Live] {
            for monitored in [false, true] {
                let whole = whole(&plans, backend, monitored);
                assert_eq!(run_plans(&plans, backend, monitored), whole);
                assert_eq!(whole[1].crashes, [(2, 50), (1, 300)], "{:?}", whole[1]);
                assert_eq!(whole[1].revives, [(2, 54), (1, 304)], "{:?}", whole[1]);
                assert!(
                    whole[1].reconv_detect.is_some(),
                    "{backend:?} {:?}",
                    whole[1]
                );
            }
        }
    }

    /// The simulator refuses a plan `FaultPlan::validate` refuses, as the
    /// live backend does: here a shared revive of a live participant.
    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn a_shared_revive_of_a_live_participant_is_refused_on_the_simulator() {
        let base = FaultPlan::new("fork", 5, proto(FixLevel::Full))
            .with(FaultSpec::Revive { pid: 1, at: 50 });
        let crash = base.clone().with(FaultSpec::Crash { pid: 1, at: 300 });
        let revive = crash.clone().with(FaultSpec::Revive { pid: 1, at: 304 });
        let plans = [crash, revive, base];
        assert!(plans.iter().all(|plan| plan.validate().is_err()));
        run_plans(&plans, Backend::Sim, false);
    }

    /// Both backends refuse every plan they are handed that fails
    /// `FaultPlan::validate`, not only the one the base run is built from.
    #[test]
    fn every_backend_checks_every_plan() {
        let quiet = FaultPlan::new("quiet", 5, proto(FixLevel::Full));
        let revive = quiet.clone().with(FaultSpec::Revive { pid: 1, at: 304 });
        assert!(quiet.validate().is_ok() && revive.validate().is_err());
        let plans = [revive, quiet];
        for backend in [Backend::Sim, Backend::Live] {
            let run = || run_plans(&plans, backend, false);
            let refused = std::panic::catch_unwind(run).expect_err("an invalid plan runs");
            let message = refused.downcast::<String>().expect("a formatted panic");
            assert!(message.starts_with("invalid fault plan"), "{message}");
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
}
