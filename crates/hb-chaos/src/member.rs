//! Running fault plans on the `hb-member` group-membership layer.
//!
//! A [`FaultPlan`] whose [`ProtoSpec::membership`] flag is set executes
//! here instead of on the plain detector runtimes: the plan's protocol
//! cell becomes a [`MemberConfig`], its `crash`/`revive` faults become
//! the engine's process-fault schedule (the coordinator, pid 0, is a
//! legal victim — failover replaces inactivation), and the compiled
//! [`FaultPipeline`] is installed as the membership engine's
//! [`FaultHook`] so the *same* message adversary — loss, partitions,
//! duplication, reordering, delay spikes — hits the membership traffic.
//!
//! The membership engine is substrate-symmetric by construction, so the
//! sim and live backends produce byte-identical event streams and
//! summaries (modulo the `source` field); [`run_failover_campaign`]
//! exploits that for the checked-in `artifacts/failover_{sim,live}.json`
//! pair, the CI gate for coordinator failover: crash the coordinator
//! mid-run, watch the successor install a view excluding it, revive it,
//! and require demotion-not-split plus the two-sided re-convergence
//! metric ([`RunSummary::reconv_detect`] / [`reconv_stable`]) with clean
//! R1–R3 monitors.
//!
//! [`reconv_stable`]: RunSummary::reconv_stable

use hb_core::fault::{FaultHook, LossModel, Time};
use hb_core::schema::{NetStats, RunLedger, RunSummary};
use hb_core::trace::Event;
use hb_core::{FixLevel, Params, Pid, Status, Variant};
use hb_member::{
    run_live, run_sim, FaultKind, MemberConfig, MemberFault, MemberReport, MemberSpec,
    ReconvSample, RoleKind,
};

use crate::json::{self, ToJson};
use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec, Link, ProtoSpec, Window};
use crate::Backend;

/// Map a membership plan onto the engine's run configuration.
///
/// The group is the plan's `n` participants plus the coordinator; the
/// mesh itself runs lossless (`Bernoulli(0.0)`) because the compiled
/// fault pipeline is the sole drop authority, exactly as on the plain
/// chaos backends. `crash`/`revive` faults become the process-fault
/// schedule; every message-level fault stays in the pipeline.
pub fn member_config(plan: &FaultPlan) -> MemberConfig {
    let mut faults: Vec<MemberFault> = plan
        .faults
        .iter()
        .filter_map(|f| match f {
            FaultSpec::Crash { pid, at } => Some(MemberFault {
                at: *at,
                kind: FaultKind::Crash,
                pid: *pid,
            }),
            FaultSpec::Revive { pid, at } => Some(MemberFault {
                at: *at,
                kind: FaultKind::Revive,
                pid: *pid,
            }),
            _ => None,
        })
        .collect();
    faults.sort_by_key(|f| f.at);
    MemberConfig {
        spec: MemberSpec::new(plan.proto.variant, plan.proto.params, plan.proto.fix),
        group: plan.proto.n + 1,
        seed: plan.seed,
        duration: plan.proto.duration,
        loss: LossModel::Bernoulli(0.0),
        faults,
    }
}

/// The outcome of one membership run: the shared summary schema plus the
/// full membership report (views, roles, event stream, raw samples) for
/// gates that look deeper than the summary.
#[derive(Debug)]
pub struct MemberRun {
    /// The run in the shared [`RunSummary`] schema.
    pub summary: RunSummary,
    /// The underlying membership report.
    pub report: MemberReport,
}

/// Distill a membership report into the shared summary schema.
///
/// Crashes, revives and (never expected) non-voluntary inactivations are
/// read back off the event stream; `reconv_detect` / `reconv_stable` are
/// the worst resolved two-sided sample deltas across *all* scheduled
/// faults — for a crash, detection is the first superseding view
/// excluding the victim and stability is group-wide exclusion; for a
/// revive, detection is the fresh epoch registered and stability the
/// victim back inside its own installed view. Message counters mirror
/// the plain backends: pipeline drops count as sent and lost.
fn summarize(backend: Backend, plan: &FaultPlan, report: &MemberReport) -> RunSummary {
    let mut ledger = RunLedger::default();
    let mut lose = 0u64;
    for e in report.events.events() {
        match *e {
            Event::Crash { at, pid } => ledger.crash(pid, at),
            // The epoch opens a re-convergence sample the ledger never
            // resolves: `reconv_*` come from the report's own samples.
            Event::Revive { at, pid } => ledger.revive(pid, 0, at),
            Event::NvInactivate { at, pid } => ledger.nv_inactivation(pid, at),
            Event::Leave { at, pid } => ledger.leave(pid, at),
            Event::Lose { .. } => lose += 1,
            _ => {}
        }
    }
    let traffic = NetStats {
        sent: report.stats.sent + lose,
        delivered: report.stats.delivered,
        lost: report.stats.lost + lose,
    };
    let status = |&r| match r {
        RoleKind::Down => Status::Crashed,
        _ => Status::Active,
    };
    let final_status = report.roles.iter().map(status).collect();
    let (source, duration) = (backend.name(), plan.proto.duration);
    let mut summary = ledger.into_summary(source, duration, traffic, (0, 0), final_status);
    let worst = |side: fn(&ReconvSample) -> Option<Time>| {
        let deltas = report.reconv.iter().filter_map(|s| Some(side(s)? - s.at));
        deltas.max()
    };
    summary.reconv_detect = worst(|s| s.detect);
    summary.reconv_stable = worst(|s| s.stable);
    summary
}

/// Run a membership plan on the chosen backend.
///
/// # Panics
///
/// Panics if `plan` fails [`FaultPlan::validate`], on either backend.
pub fn run_plan_member(plan: &FaultPlan, backend: Backend) -> MemberRun {
    #[expect(clippy::expect_used, reason = "a run's contract is a valid plan")]
    plan.validate().expect("invalid fault plan");
    let cfg = member_config(plan);
    let hook: Box<dyn FaultHook> = Box::new(FaultPipeline::new(plan));
    let report = match backend {
        Backend::Sim => run_sim(cfg, Some(hook), Vec::new()),
        Backend::Live => run_live(cfg, Some(hook), Vec::new()),
    };
    MemberRun {
        summary: summarize(backend, plan, &report),
        report,
    }
}

/// Run a membership plan and record the R1–R3 verdicts of its event
/// stream in the summary: the engine's log replayed through
/// [`hb_monitor::replay`] to the run's end, which is what a streaming
/// [`hb_monitor::MonitorSet`] tapping the engine would report.
///
/// The membership events ride the same `hb_core` trace the plain
/// runtimes emit, so the monitors work unchanged: a coordinator crash
/// retires R1 (no coordinator, no acceleration obligation) and failover
/// never non-voluntarily inactivates anybody, so a healthy failover run
/// must come back clean.
pub fn run_plan_member_monitored(plan: &FaultPlan, backend: Backend) -> MemberRun {
    let mut run = run_plan_member(plan, backend);
    let (p, horizon) = (&plan.proto, run.summary.duration);
    let events = run.report.events.events();
    let verdicts = hb_monitor::replay(p.variant, p.params, p.fix, p.n, events, horizon);
    run.summary.monitor = Some(verdicts);
    run
}

/// Tick at which the failover campaign crashes the coordinator.
pub const FAILOVER_CRASH_AT: Time = 300;

/// Tick at which the crashed ex-coordinator revives (and must come back
/// demoted, not splitting the group).
pub const FAILOVER_REVIVE_AT: Time = 600;

/// Participants per failover cell (group of four with the coordinator).
pub const FAILOVER_N: usize = 3;

/// Seeds swept per loss rate.
pub const FAILOVER_SEEDS: [u64; 3] = [1, 2, 3];

/// Pipeline loss rates swept by the campaign.
pub const FAILOVER_LOSSES: [f64; 2] = [0.0, 0.05];

/// The golden coordinator-crash plan of one campaign cell: dynamic
/// variant at the full fix (state-transfer bars need §7 epochs), the
/// coordinator crashed mid-run and revived after the successor's view
/// has settled, under an optional Bernoulli loss pipeline.
pub fn failover_plan(loss: f64, seed: u64) -> FaultPlan {
    #[expect(clippy::unwrap_used, reason = "tmin = 2 <= tmax = 8 is valid")]
    let proto = ProtoSpec {
        variant: Variant::Dynamic,
        params: Params::new(2, 8).unwrap(),
        fix: FixLevel::Full,
        n: FAILOVER_N,
        duration: 900,
        membership: true,
    };
    let mut plan = FaultPlan::new(format!("failover/p{loss}/s{seed}"), seed, proto);
    if loss > 0.0 {
        plan = plan.with(FaultSpec::Loss {
            window: Window::always(),
            link: Link::any(),
            model: LossModel::Bernoulli(loss),
        });
    }
    plan.with(FaultSpec::Crash {
        pid: 0,
        at: FAILOVER_CRASH_AT,
    })
    .with(FaultSpec::Revive {
        pid: 0,
        at: FAILOVER_REVIVE_AT,
    })
}

/// One failover campaign cell: the monitored run plus the failover
/// verdicts the gate cares about.
#[derive(Clone, Debug)]
pub struct FailoverCell {
    /// Bernoulli loss rate of the cell's pipeline.
    pub loss: f64,
    /// The cell's seed.
    pub seed: u64,
    /// The coordinator of the survivors' final view.
    pub coordinator: Pid,
    /// Whether the revived ex-coordinator ended as a *participant* of a
    /// view it does not coordinate (demotion, not a split).
    pub demoted: bool,
    /// Whether every up node agreed on one final view.
    pub agreed: bool,
    /// Whether every scheduled fault resolved both sample sides
    /// (detection *and* stability) within the run.
    pub converged: bool,
    /// Whether re-running the cell reproduced the summary byte-for-byte.
    pub replay_identical: bool,
    /// The monitored run summary.
    pub summary: RunSummary,
}

impl FailoverCell {
    /// The gate: demoted, agreed, two-sided convergence, deterministic
    /// replay, a real (non-zero) successor, and clean R1–R3 monitors.
    pub fn healthy(&self) -> bool {
        self.demoted
            && self.agreed
            && self.converged
            && self.replay_identical
            && self.coordinator != 0
            && self.summary.monitor.is_some_and(|m| m.clean())
    }

    /// The cell as a single-line JSON object (embedding its plan).
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for FailoverCell {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.fixed("loss", self.loss, 3)
                .field("seed", self.seed)
                .field("coordinator", self.coordinator)
                .field("demoted", self.demoted)
                .field("agreed", self.agreed)
                .field("converged", self.converged)
                .field("replay_identical", self.replay_identical)
                .field("healthy", self.healthy())
                .field("plan", failover_plan(self.loss, self.seed))
                .field("summary", &self.summary);
        });
    }
}

/// The failover campaign on one backend: the checked-in
/// `artifacts/failover_{sim,live}.json` record.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// The backend that executed every cell.
    pub backend: Backend,
    /// One cell per `loss × seed` point.
    pub cells: Vec<FailoverCell>,
}

impl FailoverReport {
    /// Whether every cell passed its gate.
    pub fn passes(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(FailoverCell::healthy)
    }

    /// The campaign as a single-line JSON artifact.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for FailoverReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("record", "failover_campaign")
                .field("backend", self.backend.name())
                .field("crash_at", FAILOVER_CRASH_AT)
                .field("revive_at", FAILOVER_REVIVE_AT)
                .field("passes", self.passes())
                .field("cells", &self.cells);
        });
    }
}

/// Run the coordinator-failover campaign grid (`loss × seed`) on one
/// backend, replaying every cell to check seeded determinism.
pub fn run_failover_campaign(backend: Backend) -> FailoverReport {
    let mut cells = Vec::new();
    for &loss in &FAILOVER_LOSSES {
        for &seed in &FAILOVER_SEEDS {
            let plan = failover_plan(loss, seed);
            let run = run_plan_member_monitored(&plan, backend);
            let again = run_plan_member_monitored(&plan, backend);
            let report = &run.report;
            cells.push(FailoverCell {
                loss,
                seed,
                coordinator: report.views[1].coordinator,
                demoted: report.roles[0] == RoleKind::Participant
                    && report.views[0].coordinator != 0,
                agreed: report.agreed(),
                converged: report
                    .reconv
                    .iter()
                    .all(|s| s.detect.is_some() && s.stable.is_some()),
                replay_identical: run.summary.to_json() == again.summary.to_json(),
                summary: run.summary,
            });
        }
    }
    FailoverReport { backend, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends refuse a membership plan that fails
    /// `FaultPlan::validate`, as they refuse a plain one: here a revive of
    /// a participant that never crashed.
    #[test]
    fn every_backend_checks_a_membership_plan() {
        let plan = failover_plan(0.0, 1).with(FaultSpec::Revive { pid: 1, at: 100 });
        assert!(plan.validate().is_err());
        for backend in [Backend::Sim, Backend::Live] {
            let run = || crate::run_plan(&plan, backend);
            let refused = std::panic::catch_unwind(run).expect_err("an invalid plan runs");
            let message = refused.downcast::<String>().expect("a formatted panic");
            assert!(message.starts_with("invalid fault plan"), "{message}");
        }
    }

    #[test]
    fn membership_plans_map_to_member_configs() {
        let plan = failover_plan(0.05, 7);
        plan.validate().expect("failover plan must validate");
        let cfg = member_config(&plan);
        assert_eq!(cfg.group, FAILOVER_N + 1);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.duration, 900);
        assert_eq!(cfg.loss, LossModel::Bernoulli(0.0), "pipeline owns drops");
        assert_eq!(
            cfg.faults,
            vec![
                MemberFault {
                    at: FAILOVER_CRASH_AT,
                    kind: FaultKind::Crash,
                    pid: 0
                },
                MemberFault {
                    at: FAILOVER_REVIVE_AT,
                    kind: FaultKind::Revive,
                    pid: 0
                },
            ]
        );
    }

    #[test]
    fn a_membership_plan_runs_identically_on_both_backends() {
        let plan = failover_plan(0.05, 1);
        let sim = run_plan_member(&plan, Backend::Sim);
        let live = run_plan_member(&plan, Backend::Live);
        assert_eq!(sim.summary.source, "sim");
        assert_eq!(live.summary.source, "live");
        assert_eq!(
            sim.summary.to_json().replace("\"source\":\"sim\"", ""),
            live.summary.to_json().replace("\"source\":\"live\"", ""),
        );
        assert_eq!(sim.summary.crashes, vec![(0, FAILOVER_CRASH_AT)]);
        assert_eq!(sim.summary.revives, vec![(0, FAILOVER_REVIVE_AT)]);
        assert!(sim.summary.nv_inactivations.is_empty(), "failover, not NV");
        assert!(sim.summary.reconv_detect.is_some());
        assert!(sim.summary.reconv_stable.is_some());
        assert!(sim.summary.messages_lost > 0, "the pipeline must bite");
        assert_eq!(
            sim.summary.messages_sent - sim.summary.messages_lost,
            sim.summary.messages_delivered
        );
    }

    /// The verdicts a monitored membership run replays from the engine's
    /// log are what a streaming monitor tapping the engine reports, on
    /// both backends, fired or clean: the failover plan with and without
    /// a participant crash, lossless or at 20 % loss, at the claimed and
    /// the corrected bound.
    #[test]
    fn replayed_membership_verdicts_equal_a_streaming_monitor() {
        let mut fired = 0;
        for backend in [Backend::Sim, Backend::Live] {
            for (fix, loss, seed, crash) in [
                (FixLevel::Full, 0.0, 1, None),
                (FixLevel::Full, 0.2, 2, Some(2)),
                (FixLevel::Original, 0.0, 3, Some(2)),
                (FixLevel::Original, 0.2, 4, None),
            ] {
                let mut plan = failover_plan(loss, seed);
                plan.proto.fix = fix;
                if let Some(pid) = crash {
                    plan = plan.with(FaultSpec::Crash { pid, at: 200 });
                }
                let replayed = run_plan_member_monitored(&plan, backend).summary.monitor;
                let p = &plan.proto;
                let monitor = hb_monitor::MonitorSet::shared(p.variant, p.params, p.fix, p.n);
                let hook: Box<dyn FaultHook> = Box::new(FaultPipeline::new(&plan));
                let (cfg, hook, taps) =
                    (member_config(&plan), Some(hook), vec![monitor.clone() as _]);
                match backend {
                    Backend::Sim => run_sim(cfg, hook, taps),
                    Backend::Live => run_live(cfg, hook, taps),
                };
                let mut streamed = monitor.lock().unwrap();
                streamed.finish(p.duration);
                assert_eq!(
                    replayed,
                    Some(streamed.verdicts()),
                    "{backend:?} {}",
                    plan.name
                );
                fired += usize::from(!streamed.verdicts().clean());
            }
        }
        assert!(fired > 0, "no monitor fired: the comparison shows nothing");
    }

    #[test]
    fn the_failover_campaign_passes_on_sim() {
        let report = run_failover_campaign(Backend::Sim);
        assert_eq!(
            report.cells.len(),
            FAILOVER_LOSSES.len() * FAILOVER_SEEDS.len()
        );
        for cell in &report.cells {
            assert!(
                cell.healthy(),
                "unhealthy cell loss={} seed={}: {cell:?}",
                cell.loss,
                cell.seed
            );
        }
        assert!(report.passes());
        let json = report.to_json();
        assert!(json.contains("\"record\":\"failover_campaign\""), "{json}");
        assert!(json.contains("\"passes\":true"), "{json}");
        assert!(json.contains("\"membership\":true"), "{json}");
    }
}
