//! Reusable simulation scenarios (workload generators).

use hb_core::fault::{LossModel, Time};
use hb_core::schema::RunSummary;
use hb_core::{Params, Pid, Variant};

use crate::world::{World, WorldConfig};
use hb_core::FixLevel;

/// A declarative description of one simulation run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level.
    pub fix: FixLevel,
    /// Number of participants.
    pub n: usize,
    /// Run length (the run may end earlier if everything inactivates).
    pub duration: Time,
    /// Per-message loss probability.
    pub loss_prob: f64,
    /// Crash injections `(pid, time)`.
    pub crashes: Vec<(Pid, Time)>,
    /// Delayed participant starts `(pid, time)` (join variants).
    pub starts: Vec<(Pid, Time)>,
    /// Leave instructions `(pid, earliest time)` (dynamic).
    pub leaves: Vec<(Pid, Time)>,
    /// Record a full event log.
    pub log_events: bool,
    /// Override the Bernoulli loss with an arbitrary loss model.
    pub loss_model: Option<LossModel>,
    /// A total channel outage window `[from, to)`.
    pub outage: Option<(Time, Time)>,
}

impl Scenario {
    /// A fault-free steady-state run (overhead measurements).
    pub fn steady_state(variant: Variant, params: Params, duration: Time) -> Self {
        Scenario {
            variant,
            params,
            fix: FixLevel::Original,
            n: 1,
            duration,
            loss_prob: 0.0,
            crashes: Vec::new(),
            starts: Vec::new(),
            leaves: Vec::new(),
            log_events: false,
            loss_model: None,
            outage: None,
        }
    }

    /// Crash `pid` at `t`, then run long enough to observe detection.
    pub fn crash_at(variant: Variant, params: Params, pid: Pid, t: Time) -> Self {
        Scenario {
            crashes: vec![(pid, t)],
            duration: t + 100 * u64::from(params.tmax()),
            ..Scenario::steady_state(variant, params, 0)
        }
    }

    /// A lossy steady-state run (reliability measurements).
    pub fn lossy(variant: Variant, params: Params, loss_prob: f64, duration: Time) -> Self {
        Scenario {
            loss_prob,
            ..Scenario::steady_state(variant, params, duration)
        }
    }

    /// Use a different fix level.
    pub fn with_fix(mut self, fix: FixLevel) -> Self {
        self.fix = fix;
        self
    }

    /// Use a different participant count.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Enable full event logging.
    pub fn with_log(mut self) -> Self {
        self.log_events = true;
        self
    }

    /// Use an arbitrary channel loss model (e.g. Gilbert–Elliott).
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.loss_model = Some(model);
        self
    }

    /// Inject a total channel outage in `[from, to)`.
    pub fn with_outage(mut self, from: Time, to: Time) -> Self {
        self.outage = Some((from, to));
        self
    }
}

/// Build the world for a scenario and run it to completion.
pub fn run_scenario(sc: &Scenario, seed: u64) -> RunSummary {
    let cfg = WorldConfig {
        variant: sc.variant,
        params: sc.params,
        fix: sc.fix,
        n: sc.n,
        loss_prob: sc.loss_prob,
        log_events: sc.log_events,
    };
    let mut world = World::new(cfg, seed);
    if let Some(model) = sc.loss_model {
        world.set_loss_model(model);
    }
    if let Some((from, to)) = sc.outage {
        world.set_outage(from, to);
    }
    // Join variants: participants not mentioned in `starts` start at 0.
    for &(pid, t) in &sc.starts {
        world.schedule_start(pid, t);
    }
    for &(pid, t) in &sc.crashes {
        world.schedule_crash(pid, t);
    }
    for &(pid, t) in &sc.leaves {
        world.schedule_leave(pid, t);
    }
    world.run_until(sc.duration);
    world.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(2, 8).unwrap()
    }

    #[test]
    fn steady_state_scenario_runs_clean() {
        let r = run_scenario(&Scenario::steady_state(Variant::Binary, params(), 500), 1);
        assert_eq!(r.false_inactivations, 0);
        assert_eq!(r.duration, 500);
    }

    #[test]
    fn crash_scenario_detects() {
        let r = run_scenario(&Scenario::crash_at(Variant::Binary, params(), 1, 64), 2);
        assert!(r.detection_delay.is_some());
        assert!(r.all_inactive());
    }

    #[test]
    fn lossy_scenario_records_losses() {
        let r = run_scenario(&Scenario::lossy(Variant::Binary, params(), 0.3, 2_000), 3);
        assert!(r.messages_lost > 0);
        assert!((r.loss_ratio() - 0.3).abs() < 0.15);
    }

    #[test]
    fn churn_scenario_with_joins_and_leaves() {
        let sc = Scenario {
            n: 2,
            starts: vec![(1, 10), (2, 50)],
            leaves: vec![(1, 300)],
            duration: 1_000,
            ..Scenario::steady_state(Variant::Dynamic, params(), 0)
        };
        let r = run_scenario(&sc, 4);
        assert_eq!(r.leaves.len(), 1);
        assert!(r.nv_inactivations.is_empty());
    }

    #[test]
    fn scenario_runs_are_deterministic_per_seed() {
        let sc = Scenario::lossy(Variant::Binary, params(), 0.2, 500);
        for seed in 0..5 {
            let (x, y) = (run_scenario(&sc, seed), run_scenario(&sc, seed));
            assert_eq!(x.messages_sent, y.messages_sent);
        }
    }

    #[test]
    fn burst_loss_model_applies() {
        let model = LossModel::GilbertElliott {
            to_bad: 0.05,
            to_good: 0.3,
            good_loss: 0.0,
            bad_loss: 1.0,
        };
        let sc = Scenario::steady_state(Variant::Binary, params(), 3_000).with_loss_model(model);
        let r = run_scenario(&sc, 8);
        assert!(r.messages_lost > 0, "GE channel must drop something");
    }

    #[test]
    fn short_outage_is_survived_long_outage_is_fatal() {
        let p = Params::new(1, 8).unwrap(); // tolerates 3 consecutive losses
                                            // An outage shorter than one round: at most one beat lost.
        let short = Scenario::steady_state(Variant::Binary, p, 2_000).with_outage(100, 104);
        let r = run_scenario(&short, 3);
        assert_eq!(r.false_inactivations, 0, "short outage must be absorbed");
        // An outage longer than the whole halving chain: fatal.
        let long = Scenario::steady_state(Variant::Binary, p, 5_000).with_outage(100, 400);
        let r = run_scenario(&long, 3);
        assert!(r.false_inactivations > 0, "long outage must inactivate");
        assert!(r.all_inactive());
    }

    #[test]
    fn with_builders_apply() {
        let sc = Scenario::steady_state(Variant::Static, params(), 100)
            .with_n(3)
            .with_fix(FixLevel::Full)
            .with_log();
        assert_eq!(sc.n, 3);
        assert_eq!(sc.fix, FixLevel::Full);
        assert!(sc.log_events);
        let r = run_scenario(&sc, 5);
        assert!(!r.log.is_empty());
    }
}
