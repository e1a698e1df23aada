//! The §7 rejoin demonstration: one seed-pinned reorder + crash + revive
//! plan, run with epochs off (naive rejoin at
//! [`FixLevel::CorrectedBounds`]) and on ([`FixLevel::Full`]).
//!
//! The scenario manufactures exactly the hazard §7 introduces epochs
//! for: replies the first incarnation sent just before its crash are
//! held back by bounded reordering and arrive *after* the revived
//! incarnation has re-registered. A naive coordinator admits those
//! stale beats as fresh liveness evidence
//! ([`RunSummary::stale_beats_admitted`]); the epoch bar filters every
//! one of them while re-converging within the corrected §6.2 bound.
//! The checked-in `artifacts/rejoin_{sim,live}.json` files are emitted
//! from this module (`chaos_campaign --rejoin`), and CI replays the demo
//! on both backends expecting byte-identical output.

use hb_core::fault::Time;
use hb_core::schema::RunSummary;
use hb_core::{FixLevel, Params, Pid, Variant};

use crate::json::{self, ToJson};
use crate::plan::{FaultPlan, FaultSpec, Link, ProtoSpec, Window};
use crate::{run_plan_monitored, Backend};

/// The participant that crashes and revives in the demo.
pub const DEMO_PID: Pid = 1;

/// Crash tick of the demo plan.
pub const DEMO_CRASH_AT: Time = 200;

/// Revive tick of the demo plan: right after the crash, so the fresh
/// incarnation's first join beat (due `tmin` after the restart) lands
/// before the starved coordinator's halving chain expires.
pub const DEMO_REVIVE_AT: Time = 201;

/// The reorder + crash + revive plan at a given fix level. Everything
/// except the fix level (and the name recording it) is identical, so
/// the naive and epoch-tagged runs face the same adversary.
pub fn rejoin_demo_plan(fix: FixLevel, seed: u64) -> FaultPlan {
    #[expect(clippy::unwrap_used, reason = "tmin = 2 <= tmax = 8 is valid")]
    let proto = ProtoSpec {
        variant: Variant::Expanding,
        params: Params::new(2, 8).unwrap(),
        fix,
        n: 1,
        duration: 400,
        membership: false,
    };
    FaultPlan::new(format!("rejoin-demo/{}/s{seed}", fix.name()), seed, proto)
        // Hold back the doomed incarnation's final reply: the one beat it
        // sends in the last round before the crash may be delayed past
        // the revived incarnation's re-registration. The window must not
        // reach further back — delaying earlier replies starves the
        // coordinator into NV-inactivation before the revive.
        .with(FaultSpec::Reorder {
            window: Window::between(DEMO_CRASH_AT - 9, DEMO_CRASH_AT),
            link: Link::between(DEMO_PID, 0),
            p: 1.0,
            max_extra: 32,
        })
        .with(FaultSpec::Crash {
            pid: DEMO_PID,
            at: DEMO_CRASH_AT,
        })
        .with(FaultSpec::Revive {
            pid: DEMO_PID,
            at: DEMO_REVIVE_AT,
        })
}

/// The outcome of running the demo on one backend.
#[derive(Clone, Debug)]
pub struct RejoinDemo {
    /// The backend that executed both runs.
    pub backend: Backend,
    /// The shared seed.
    pub seed: u64,
    /// The run with epochs off ([`FixLevel::CorrectedBounds`]).
    pub naive: RunSummary,
    /// The run with the epoch bar on ([`FixLevel::Full`]).
    pub epoch: RunSummary,
    /// Whether re-running both plans reproduced both summaries
    /// byte-for-byte.
    pub replay_identical: bool,
}

/// Run the demo twice per fix level on `backend`, checking seeded
/// replay determinism along the way. Both runs carry a streaming R1–R3
/// monitor: the §7 hazard is a *liveness-evidence* corruption, not a
/// requirement breach (the stale beats only ever keep the coordinator
/// alive), so the demo's verdicts must be clean at both fix levels —
/// [`separates`](RejoinDemo::separates) checks that too.
pub fn run_rejoin_demo(backend: Backend, seed: u64) -> RejoinDemo {
    let run = |fix| {
        let plan = rejoin_demo_plan(fix, seed);
        (
            run_plan_monitored(&plan, backend),
            run_plan_monitored(&plan, backend),
        )
    };
    let (naive, naive_again) = run(FixLevel::CorrectedBounds);
    let (epoch, epoch_again) = run(FixLevel::Full);
    let replay_identical =
        naive.to_json() == naive_again.to_json() && epoch.to_json() == epoch_again.to_json();
    RejoinDemo {
        backend,
        seed,
        naive,
        epoch,
        replay_identical,
    }
}

impl RejoinDemo {
    /// Whether the demo shows the §7 separation: the naive run admitted
    /// at least one stale beat, the epoch run admitted none and
    /// re-converged, and both runs replayed deterministically.
    pub fn separates(&self) -> bool {
        self.replay_identical
            && self.naive.stale_beats_admitted >= 1
            && self.epoch.stale_beats_admitted == 0
            && self.epoch.stale_beats_filtered >= 1
            && self.epoch.reconv_detect.is_some()
            && self.epoch.reconv_stable.is_some()
            && self.naive.monitor.is_some_and(|m| m.clean())
            && self.epoch.monitor.is_some_and(|m| m.clean())
    }

    /// The demo as a single-line JSON artifact (the checked-in
    /// `artifacts/rejoin_*.json` format).
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for RejoinDemo {
    fn write_json(&self, out: &mut String) {
        let plan = |fix| rejoin_demo_plan(fix, self.seed);
        json::object(out, |o| {
            o.field("record", "rejoin_demo")
                .field("backend", self.backend.name())
                .field("seed", self.seed)
                .field("crash_at", DEMO_CRASH_AT)
                .field("revive_at", DEMO_REVIVE_AT)
                .field("replay_identical", self.replay_identical)
                .field("separates", self.separates())
                .field("naive_plan", plan(FixLevel::CorrectedBounds))
                .field("epoch_plan", plan(FixLevel::Full))
                .field("naive", &self.naive)
                .field("epoch", &self.epoch);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "seed-search helper, run manually"]
    fn seed_search() {
        for seed in 1..40u64 {
            let sim = run_rejoin_demo(Backend::Sim, seed);
            let live = run_rejoin_demo(Backend::Live, seed);
            println!(
                "seed {seed}: sim sep={} (adm {} flt {} rc {:?}) live sep={} (adm {} flt {} rc {:?})",
                sim.separates(),
                sim.naive.stale_beats_admitted,
                sim.epoch.stale_beats_filtered,
                sim.epoch.reconv_detect,
                live.separates(),
                live.naive.stale_beats_admitted,
                live.epoch.stale_beats_filtered,
                live.epoch.reconv_detect,
            );
        }
    }

    #[test]
    fn demo_plans_validate_and_round_trip() {
        for fix in [FixLevel::CorrectedBounds, FixLevel::Full] {
            let plan = rejoin_demo_plan(fix, 1);
            plan.validate().expect("demo plan must validate");
            assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        }
    }

    #[test]
    fn sim_demo_separates_naive_from_epoch_rejoin() {
        let demo = run_rejoin_demo(Backend::Sim, 1);
        assert!(
            demo.separates(),
            "naive {:?} / epoch {:?}",
            demo.naive,
            demo.epoch
        );
        // The revived node re-converges within the corrected bound.
        let bound = Time::from(
            Params::new(2, 8)
                .unwrap()
                .p0_bound_corrected(Variant::Expanding),
        );
        let d = demo.epoch.reconv_detect.unwrap();
        assert!(d <= bound, "reconvergence {d} > corrected bound {bound}");
        let s = demo.epoch.reconv_stable.unwrap();
        assert!(s >= d, "stability {s} before detection {d}");
    }

    #[test]
    fn live_demo_separates_naive_from_epoch_rejoin() {
        let demo = run_rejoin_demo(Backend::Live, 1);
        assert!(
            demo.separates(),
            "naive {:?} / epoch {:?}",
            demo.naive,
            demo.epoch
        );
    }

    #[test]
    fn demo_artifact_json_carries_both_runs() {
        let demo = run_rejoin_demo(Backend::Sim, 1);
        let json = demo.to_json();
        assert!(json.contains("\"record\":\"rejoin_demo\""), "{json}");
        assert!(
            json.contains("\"naive\":{\"record\":\"run_summary\""),
            "{json}"
        );
        assert!(
            json.contains("\"epoch\":{\"record\":\"run_summary\""),
            "{json}"
        );
        assert!(json.contains("\"replay_identical\":true"), "{json}");
    }
}
