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

use hb_core::events::SharedTap;
use hb_core::trace::{Event, EventLog};
use hb_core::{FixLevel, Params, Pid, Status, Variant};
use hb_member::{
    run_live, run_sim, FaultKind, MemberConfig, MemberFault, MemberReport, MemberSpec, RoleKind,
};
use hb_sim::channel::{FaultHook, LossModel, Time};
use hb_sim::schema::RunSummary;

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
    let mut crashes = Vec::new();
    let mut revives = Vec::new();
    let mut nv_inactivations = Vec::new();
    let mut leaves = Vec::new();
    let mut lose = 0u64;
    for e in report.events.events() {
        match e {
            Event::Crash { at, pid } => crashes.push((*pid, *at)),
            Event::Revive { at, pid } => revives.push((*pid, *at)),
            Event::NvInactivate { at, pid } => nv_inactivations.push((*pid, *at)),
            Event::Leave { at, pid } => leaves.push((*pid, *at)),
            Event::Lose { .. } => lose += 1,
            _ => {}
        }
    }
    let mut reconv_detect = None;
    let mut reconv_stable = None;
    for s in &report.reconv {
        if let Some(d) = s.detect.map(|t| t - s.at) {
            reconv_detect = Some(reconv_detect.map_or(d, |m: Time| m.max(d)));
        }
        if let Some(d) = s.stable.map(|t| t - s.at) {
            reconv_stable = Some(reconv_stable.map_or(d, |m: Time| m.max(d)));
        }
    }
    RunSummary {
        source: backend.name(),
        duration: plan.proto.duration,
        messages_sent: report.stats.sent + lose,
        messages_delivered: report.stats.delivered,
        messages_lost: report.stats.lost + lose,
        crashes,
        nv_inactivations,
        leaves,
        revives,
        reconv_detect,
        reconv_stable,
        stale_beats_admitted: 0,
        stale_beats_filtered: 0,
        detection_delay: None,
        false_inactivations: 0,
        monitor: None,
        log: EventLog::new(),
        final_status: report
            .roles
            .iter()
            .map(|r| {
                if *r == RoleKind::Down {
                    Status::Crashed
                } else {
                    Status::Active
                }
            })
            .collect(),
    }
}

fn run_member(plan: &FaultPlan, backend: Backend, taps: Vec<SharedTap>) -> MemberRun {
    let cfg = member_config(plan);
    let hook: Box<dyn FaultHook> = Box::new(FaultPipeline::new(plan));
    let report = match backend {
        Backend::Sim => run_sim(cfg, Some(hook), taps),
        Backend::Live => run_live(cfg, Some(hook), taps),
    };
    MemberRun {
        summary: summarize(backend, plan, &report),
        report,
    }
}

/// Run a membership plan on the chosen backend.
pub fn run_plan_member(plan: &FaultPlan, backend: Backend) -> MemberRun {
    run_member(plan, backend, Vec::new())
}

/// Run a membership plan with a streaming R1–R3 [`hb_monitor::MonitorSet`] tapping
/// the engine's event stream, and record its verdicts in the summary.
///
/// The membership events ride the same `hb_core` trace the plain
/// runtimes emit, so the monitors work unchanged: a coordinator crash
/// retires R1 (no coordinator, no acceleration obligation) and failover
/// never non-voluntarily inactivates anybody, so a healthy failover run
/// must come back clean.
pub fn run_plan_member_monitored(plan: &FaultPlan, backend: Backend) -> MemberRun {
    let run = |tap| run_member(plan, backend, vec![tap]);
    crate::monitored(plan, run, |run| &mut run.summary)
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
