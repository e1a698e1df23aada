//! Property-based cross-validation between the analytic bounds, the
//! discrete-event simulator and the model checker — three independent
//! implementations of the same semantics must agree.

use accelerated_heartbeat::core::{FixLevel, Params, Status, Variant};
use accelerated_heartbeat::sim::{run_scenario, Scenario};
use accelerated_heartbeat::verify::requirements::{build_model, error_predicate, Requirement};
use mck::sim::{check_invariant_by_walks, WalkOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_params() -> impl Strategy<Value = Params> {
    (1u32..=6, 0u32..=6)
        .prop_map(|(tmin, extra)| Params::new(tmin, tmin + extra).expect("tmin <= tmax"))
}

fn arb_variant() -> impl Strategy<Value = Variant> {
    prop::sample::select(Variant::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free simulation never inactivates anything (the sim analogue
    /// of R2 ∧ R3) — for the *fixed* protocols on any parameters.
    #[test]
    fn sim_fixed_lossless_never_inactivates(
        params in arb_params(),
        variant in arb_variant(),
        seed in 0u64..1000,
    ) {
        let sc = Scenario::steady_state(variant, params, 400)
            .with_fix(FixLevel::Full);
        let report = run_scenario(&sc, seed);
        prop_assert_eq!(report.false_inactivations, 0);
        prop_assert!(report.nv_inactivations.is_empty());
    }

    /// For the *original* protocols the same holds whenever
    /// `tmin < tmax` (the paper's R2/R3 verdicts: violations need
    /// `tmin = tmax`, except the expanding/dynamic join window
    /// `2·tmin >= tmax`).
    #[test]
    fn sim_original_lossless_safe_region(
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        prop_assume!(params.tmin() < params.tmax());
        let sc = Scenario::steady_state(Variant::Binary, params, 400);
        let report = run_scenario(&sc, seed);
        prop_assert!(report.nv_inactivations.is_empty());
    }

    /// Simulated detection delays respect the corrected analytic bounds.
    #[test]
    fn sim_detection_within_corrected_bounds(
        params in arb_params(),
        variant in arb_variant(),
        seed in 0u64..1000,
        phase in 0u32..16,
    ) {
        let crash_at = u64::from(3 * params.tmax() + phase);
        let sc = Scenario::crash_at(variant, params, 1, crash_at)
            .with_fix(FixLevel::Full);
        let report = run_scenario(&sc, seed);
        let delay = report.detection_delay.expect("fixed protocol must detect");
        let bound = u64::from(
            params.p0_bound_corrected(variant)
                + params.tmin()
                + params.responder_bound_corrected(variant),
        );
        prop_assert!(delay <= bound, "delay {} > bound {}", delay, bound);
    }

    /// Random walks through the fixed fault-free *model* never see a
    /// spurious inactivation (smoke-test agreement between walker and
    /// exhaustive checker).
    #[test]
    fn model_walks_fixed_protocols_stay_safe(
        params in arb_params(),
        variant in arb_variant(),
        seed in 0u64..1000,
    ) {
        let model = build_model(variant, params, FixLevel::Full, 1, Requirement::R2);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = check_invariant_by_walks(&model, &mut rng, 3, 300, |s| {
            !error_predicate(&model, Requirement::R2)(s)
                && s.coord.status != Status::NvInactive
        });
        let ok = matches!(out, WalkOutcome::NoViolationFound { .. });
        prop_assert!(ok, "walk hit a spurious inactivation");
    }

    /// The simulator's steady-state message rate converges to 2/tmax.
    #[test]
    fn sim_rate_tracks_two_over_tmax(seed in 0u64..100, tmax in 4u32..=32) {
        let params = Params::new(2, tmax).unwrap();
        let sc = Scenario::steady_state(Variant::Binary, params, 20_000);
        let rate = run_scenario(&sc, seed).message_rate();
        let expected = 2.0 / f64::from(tmax);
        prop_assert!(
            (rate - expected).abs() / expected < 0.10,
            "rate {} vs expected {}", rate, expected
        );
    }

    /// Reliability exponent: with loss probability p, the chance that a
    /// single round of k = silent_rounds_to_inactivation() consecutive
    /// beats is all-lost is p^k — for moderate horizons and small p the
    /// accelerated protocol survives where a 1-loss-tolerant one would
    /// not. (Statistical smoke check, not a sharp bound.)
    #[test]
    fn sim_survives_light_loss(seed in 0u64..50) {
        let params = Params::new(1, 16).unwrap(); // tolerates 4 losses
        let sc = Scenario::lossy(Variant::Binary, params, 0.02, 5_000);
        let report = run_scenario(&sc, seed);
        prop_assert_eq!(report.false_inactivations, 0);
    }
}

// -- Promoted proptest regressions ----------------------------------
//
// The two seeds checked in to `cross_validation.proptest-regressions`
// both shrink to `Params { tmin: 1, tmax: 1 }` — the legal degenerate
// point where the halving chain is a single round (`Params::new`
// accepts any `0 < tmin ≤ tmax`). They are promoted here to named,
// always-run deterministic tests so the corner stays covered even if
// the regression file is pruned or proptest's replay order changes.

/// Regression: `sim_fixed_lossless_never_inactivates` once failed at
/// `tmin = tmax = 1`, binary, seed 0 — the fixed protocol must stay
/// quiet even when every round is exactly one tick.
#[test]
fn regression_tmin_eq_tmax_fixed_lossless_never_inactivates() {
    let params = Params::new(1, 1).unwrap();
    let sc = Scenario::steady_state(Variant::Binary, params, 400).with_fix(FixLevel::Full);
    let report = run_scenario(&sc, 0);
    assert_eq!(report.false_inactivations, 0);
    assert!(
        report.nv_inactivations.is_empty(),
        "spurious inactivations: {:?}",
        report.nv_inactivations
    );
}

/// Regression: `sim_detection_within_corrected_bounds` once failed at
/// `tmin = tmax = 1`, binary, seed 0, phase 2 (crash at t = 5) — the
/// corrected bound must hold all the way down to one-tick rounds.
#[test]
fn regression_tmin_eq_tmax_detection_within_corrected_bound() {
    let params = Params::new(1, 1).unwrap();
    let crash_at = u64::from(3 * params.tmax() + 2);
    let sc = Scenario::crash_at(Variant::Binary, params, 1, crash_at).with_fix(FixLevel::Full);
    let report = run_scenario(&sc, 0);
    let delay = report.detection_delay.expect("fixed protocol must detect");
    let bound = u64::from(
        params.p0_bound_corrected(Variant::Binary)
            + params.tmin()
            + params.responder_bound_corrected(Variant::Binary),
    );
    assert!(delay <= bound, "delay {delay} > bound {bound}");
}

#[test]
fn sim_and_model_agree_on_the_tmin_eq_tmax_race() {
    // The model checker says R3 is violated at tmin = tmax (Fig 12); the
    // simulator, whose tie-breaking is randomized, must be able to hit the
    // same race across seeds.
    let params = Params::new(4, 4).unwrap();
    let mut hits = 0;
    for seed in 0..400 {
        let sc = Scenario::steady_state(Variant::Binary, params, 400);
        let report = run_scenario(&sc, seed);
        if report
            .nv_inactivations
            .iter()
            .any(|&(pid, _)| pid == 0 || pid == 1)
        {
            hits += 1;
        }
    }
    assert!(hits > 0, "the simulator never exhibited the tmin=tmax race");
    // ...and the fixed protocol never does:
    for seed in 0..400 {
        let sc = Scenario::steady_state(Variant::Binary, params, 400).with_fix(FixLevel::Full);
        let report = run_scenario(&sc, seed);
        assert!(
            report.nv_inactivations.is_empty(),
            "fixed race at seed {seed}"
        );
    }
}

/// A late start joins at an arbitrary phase of the coordinator's round.
/// AM09's phase-aligned `2·tmax + tmin` watchdog then fires on a
/// fault-free, lossless join whenever `2·tmin > tmax` (first hit: (2,2),
/// seed 1, start 51 → p\[1\] at 57, p\[0\] at 58); the corrected bound's
/// `tmax + 3·tmin` term must leave no start offset or seed that does.
#[test]
fn late_start_at_any_phase_never_inactivates_under_the_full_fix() {
    for (tmin, tmax) in [(2, 2), (3, 4), (6, 10), (9, 10), (10, 10)] {
        let params = Params::new(tmin, tmax).unwrap();
        for variant in [Variant::Expanding, Variant::Dynamic] {
            for start in 51..=50 + u64::from(tmax) {
                let mut sc = Scenario::steady_state(variant, params, 200).with_fix(FixLevel::Full);
                sc.starts = vec![(1, start)];
                for seed in 0..500 {
                    let report = run_scenario(&sc, seed);
                    assert!(
                        report.nv_inactivations.is_empty(),
                        "({tmin},{tmax}) {variant} start {start} seed {seed}: {:?}",
                        report.nv_inactivations
                    );
                }
            }
        }
    }
}
