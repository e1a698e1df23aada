//! `hb-chaos` — deterministic fault injection and chaos campaigns for
//! the accelerated heartbeat protocols.
//!
//! The simulator (`hb-sim`) and the live runtime (`hb-net`) both drive
//! the same `hb-core` state machines; this crate gives them one shared
//! adversary:
//!
//! * [`plan`] — a declarative, seed-deterministic [`FaultPlan`]:
//!   partitions (symmetric and one-way), Bernoulli / Gilbert–Elliott
//!   loss, duplication, bounded reordering, delay spikes, per-node clock
//!   drift, and crash / late-start / leave schedules — serializable
//!   to/from a small JSON spec through [`json`], a re-export of
//!   `hb_core::json`;
//! * [`pipeline`] — [`FaultPipeline`], the plan's message-level
//!   [`FaultSpec`]s interpreted per message: one stateful engine owning
//!   all fault randomness, installed as the
//!   [`FaultHook`](hb_core::fault::FaultHook) of whichever queue carries
//!   the run's messages;
//! * [`sim`] / [`live`] — the two injection backends, neither with a
//!   harness of its own. [`sim`] installs the pipeline in
//!   `hb_sim::World`; [`live`] in [`ChaosCluster`], which is
//!   `hb_net::VirtualCluster` with the pipeline installed in its
//!   loopback network and every node polled at its drifted local tick.
//!   One runner drives both ([`run_plan`], [`run_plan_monitored`],
//!   [`run_plan_tapped`], and a campaign seed's three plans forked at the
//!   crash tick), the monitor an owned, lock-free tap. The same plan runs
//!   on both, producing the shared [`RunSummary`] schema (assembled by
//!   the one `RunLedger`), byte-identical under replay;
//! * [`campaign`] — a parallel campaign runner sweeping
//!   `fix × loss × burst × drift × partition` grids across worker
//!   threads into a deterministic JSON report;
//! * [`diff`] — the sim-vs-live campaign differ: cell-by-cell
//!   comparison with calibrated tolerances and qualitative divergence
//!   flags (the CI gate for the checked-in artifact pair).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod diff;
pub mod json;
pub mod live;
pub mod member;
pub mod pipeline;
pub mod plan;
pub mod rejoin;
mod runner;
pub mod sim;

use hb_core::events::SharedTap;
use hb_core::schema::RunSummary;

pub use campaign::{run_campaign, CampaignReport, CampaignSpec, Cell, CellStats, RunKind};
pub use diff::{diff_reports, DiffReport, Divergence, Severity};
pub use live::ChaosCluster;
pub use member::{
    failover_plan, member_config, run_failover_campaign, run_plan_member,
    run_plan_member_monitored, FailoverCell, FailoverReport, MemberRun,
};
pub use pipeline::{burst_model, FaultPipeline, PipelineStats};
pub use plan::{FaultPlan, FaultSpec, Link, PlanError, ProtoSpec, Window};
pub use rejoin::{rejoin_demo_plan, run_rejoin_demo, RejoinDemo};

/// Which substrate executes a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator (`hb_sim::World`).
    Sim,
    /// The live loopback runtime under virtual time
    /// ([`live::ChaosCluster`]).
    Live,
}

impl Backend {
    /// Stable lowercase name (report fields, CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Live => "live",
        }
    }

    /// Parse a backend name.
    pub fn from_name(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "live" => Some(Backend::Live),
            _ => None,
        }
    }
}

/// Run one fault plan on the chosen backend. Membership plans
/// ([`ProtoSpec::membership`]) execute on the `hb-member` group layer;
/// everything else runs the plain detector runtimes.
///
/// # Panics
///
/// Panics if `plan` fails [`FaultPlan::validate`].
pub fn run_plan(plan: &FaultPlan, backend: Backend) -> RunSummary {
    if plan.proto.membership {
        return member::run_plan_member(plan, backend).summary;
    }
    runner::run_plans(std::slice::from_ref(plan), backend, None).remove(0)
}

/// Run one fault plan on the chosen backend with a streaming
/// [`hb_monitor::MonitorSet`] attached, and record its verdicts in the
/// summary's `monitor` field.
///
/// The monitor taps the run's event stream live (the world sink on the
/// simulator, the cluster's one tap site on the live backend, plus the
/// network's `lose` events on both; a membership run's recorded log is
/// replayed instead), is closed at the run's actual
/// end tick, and its first-violation verdicts ride along in the shared
/// schema — so campaign cells, the rejoin demo and CI gates can all ask
/// the same question: "did any requirement monitor fire?".
///
/// # Panics
///
/// As [`run_plan`].
pub fn run_plan_monitored(plan: &FaultPlan, backend: Backend) -> RunSummary {
    if plan.proto.membership {
        return member::run_plan_member_monitored(plan, backend).summary;
    }
    // One thread steps either substrate, so the monitor rides as an
    // *owned* tap — no mutex on the per-event path.
    let monitor = runner::monitor(plan);
    runner::run_plans(std::slice::from_ref(plan), backend, Some(monitor)).remove(0)
}

/// Run one plain-detector fault plan (not a membership plan) on the
/// chosen backend with `tap` attached to the run's tap site for its whole
/// length. The tap sees what [`run_plan_monitored`]'s monitor sees; the
/// summary equals [`run_plan`]'s.
///
/// # Panics
///
/// Panics on a membership plan or one that fails [`FaultPlan::validate`].
pub fn run_plan_tapped(plan: &FaultPlan, backend: Backend, tap: SharedTap) -> RunSummary {
    assert!(!plan.proto.membership, "no tapped membership run");
    runner::run_plans(std::slice::from_ref(plan), backend, Some(Box::new(tap))).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Sim, Backend::Live] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("cloud"), None);
    }

    #[test]
    fn one_plan_runs_on_both_backends() {
        use hb_core::{FixLevel, Params, Variant};
        let plan = FaultPlan::new(
            "both",
            3,
            ProtoSpec {
                variant: Variant::Binary,
                params: Params::new(2, 8).unwrap(),
                fix: FixLevel::Full,
                n: 1,
                duration: 500,
                membership: false,
            },
        )
        .with(FaultSpec::Crash { pid: 1, at: 200 });
        let sim = run_plan(&plan, Backend::Sim);
        let live = run_plan(&plan, Backend::Live);
        assert_eq!(sim.source, "sim");
        assert_eq!(live.source, "live");
        assert!(sim.detection_delay.is_some() && live.detection_delay.is_some());
    }
}
