//! Integration: the extension layers (liveness, symmetry reduction,
//! rejoin) working together across crates.

use accelerated_heartbeat::core::{FixLevel, Params, Status, Variant};
use accelerated_heartbeat::verify::liveness::{
    check_eventual_inactivation, network_crash, network_down,
};
use accelerated_heartbeat::verify::requirements::{
    build_lifecycle_model, build_model, error_predicate, rejoin_cell, Requirement, REJOIN_CAP,
    REJOIN_GRID,
};
use accelerated_heartbeat::verify::symmetry::canonical;
use accelerated_heartbeat::verify::{HbModel, HbState};
use mck::liveness::check_leads_to;
use mck::symmetry::Symmetric;
use mck::Checker;

#[test]
fn liveness_holds_while_bounded_r1_fails_same_configuration() {
    // The sharpest statement of what the 2009 paper refutes: at (1,4) the
    // original binary protocol violates the *timed* requirement R1, yet
    // the *untimed* GM98 eventuality still holds on the very same model.
    let params = Params::new(1, 4).unwrap();
    let r1 = accelerated_heartbeat::verify::verify(
        Variant::Binary,
        params,
        FixLevel::Original,
        Requirement::R1,
    );
    assert!(!r1.holds, "the timed bound is wrong");
    let live = check_eventual_inactivation(Variant::Binary, params, FixLevel::Original, 1, 1 << 22);
    assert!(live.holds(), "the untimed eventuality is sound");
}

#[test]
fn liveness_under_symmetry_reduction_static_n2() {
    // Compose the two reductions: the leads-to check run on the symmetry
    // quotient must agree with the full model (both predicates are
    // permutation-invariant).
    let params = Params::new(1, 3).unwrap();
    let model = HbModel::new(Variant::Static, params, 2, FixLevel::Original);
    let full = check_leads_to(&model, network_crash, network_down, 1 << 22);
    let sym = Symmetric::new(&model, canonical);
    let reduced = check_leads_to(&sym, network_crash, network_down, 1 << 22);
    assert!(full.holds());
    assert!(reduced.holds());
}

#[test]
fn symmetry_preserves_r2_verdict_at_the_race_point() {
    // tmin = tmax: R2 is violated; the quotient must find it too, at the
    // same depth.
    let params = Params::new(3, 3).unwrap();
    let model = build_model(
        Variant::Static,
        params,
        FixLevel::Original,
        2,
        Requirement::R2,
    );
    let pred = error_predicate(&model, Requirement::R2);
    let full = Checker::new(&model).find_state(&pred).expect("violated");
    let sym = Symmetric::new(&model, canonical);
    let reduced = Checker::new(&sym).find_state(&pred).expect("violated");
    assert_eq!(full.len(), reduced.len());
}

#[test]
fn rejoin_grid_is_stable_across_parameters() {
    for (tmin, tmax) in REJOIN_GRID {
        let params = Params::new(tmin, tmax).unwrap();
        let naive = rejoin_cell(params, FixLevel::CorrectedBounds);
        assert!(
            naive.stale_admitted && naive.rejoiner_latched_out,
            "({tmin},{tmax}): naive rejoin must be racy: {naive:?}"
        );
        let epoch = rejoin_cell(params, FixLevel::Full);
        assert!(
            epoch.safe() && epoch.stale_filtered,
            "({tmin},{tmax}): epochs must repair it: {epoch:?}"
        );
        assert_eq!((naive.deadlocks, epoch.deadlocks), (0, 0));
    }
}

#[test]
fn epoch_rejoin_network_still_detects_crashes() {
    // The epoch extension must not break the protocol's purpose. With
    // rejoins a participant crash is no longer final, so the trigger is
    // a crash that *is*: the coordinator's (it never restarts), or an
    // enrolled participant's once out of incarnations. Either still
    // brings down the whole network of the safety grid's own model.
    let final_crash = |s: &HbState| {
        s.coord.status == Status::Crashed
            || s.resps
                .iter()
                .any(|r| r.status == Status::Crashed && r.joined && r.epoch == REJOIN_CAP)
    };
    for (tmin, tmax) in REJOIN_GRID {
        let model = build_lifecycle_model(Params::new(tmin, tmax).unwrap(), FixLevel::Full);
        let live = check_leads_to(&model, final_crash, network_down, 1 << 22);
        assert!(live.holds(), "({tmin},{tmax})");
    }
}
