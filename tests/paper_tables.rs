//! Integration: the paper's Table 1 / Table 2 verdicts.
//!
//! The cheap cells (R2/R3: fault-free models, thousands of states; R1's
//! violated cells: BFS stops at the first error) run on the paper's exact
//! `tmax = 10` data sets even in debug builds. R1's *satisfied* cells need
//! an exhaustive sweep of ~10^6 states, so they are asserted here at
//! proportionally reduced constants and in full by `cargo bench`
//! (`table1`/`table2`, release mode).

use accelerated_heartbeat::core::params::PAPER_DATASETS;
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::verify::tables::{TABLE1_EXPECTED, TABLE2_EXPECTED};
use accelerated_heartbeat::verify::{verify, Requirement};

fn expected_for(variant: Variant) -> [[bool; 5]; 3] {
    if Variant::TABLE1.contains(&variant) {
        TABLE1_EXPECTED
    } else {
        TABLE2_EXPECTED
    }
}

#[test]
fn r2_and_r3_match_the_paper_on_all_variants_and_datasets() {
    for variant in Variant::ALL {
        let expected = expected_for(variant);
        for (col, (tmin, tmax)) in PAPER_DATASETS.into_iter().enumerate() {
            let params = Params::new(tmin, tmax).unwrap();
            for (row, req) in [Requirement::R2, Requirement::R3].into_iter().enumerate() {
                let v = verify(variant, params, FixLevel::Original, req);
                assert_eq!(
                    v.holds,
                    expected[row + 1][col],
                    "{variant} {req} at tmin={tmin}"
                );
            }
        }
    }
}

#[test]
fn r1_violated_cells_match_the_paper() {
    // The F cells are found quickly (BFS stops at the first monitor
    // error); the T cells are covered by `r1_satisfied_cells_reduced` and
    // the release-mode benches.
    for variant in Variant::ALL {
        for (col, (tmin, tmax)) in PAPER_DATASETS.into_iter().enumerate() {
            if expected_for(variant)[0][col] {
                continue;
            }
            let params = Params::new(tmin, tmax).unwrap();
            let v = verify(variant, params, FixLevel::Original, Requirement::R1);
            assert!(!v.holds, "{variant} R1 must be violated at tmin={tmin}");
            assert!(v.counterexample.is_some());
        }
    }
}

#[test]
fn r1_satisfied_cells_reduced_constants() {
    // tmax = 4, tmin = 3: 2*tmin > tmax, the regime where the claimed
    // 2*tmax bound is correct — R1 must hold for every variant.
    let params = Params::new(3, 4).unwrap();
    for variant in Variant::ALL {
        let v = verify(variant, params, FixLevel::Original, Requirement::R1);
        assert!(v.holds, "{variant} R1 should hold at (3,4): {:?}", v.stats);
    }
}

#[test]
fn r1_violated_cells_reduced_constants() {
    // tmax = 4, tmin = 1: 2*tmin <= tmax, the regime of Figure 10.
    let params = Params::new(1, 4).unwrap();
    for variant in Variant::ALL {
        let v = verify(variant, params, FixLevel::Original, Requirement::R1);
        assert!(!v.holds, "{variant} R1 should fail at (1,4)");
    }
}

#[test]
fn counterexamples_replay_against_the_model() {
    // Every counterexample the checker returns must be a genuine trace:
    // replaying its actions from the initial state reproduces its states.
    use accelerated_heartbeat::verify::requirements::build_model;
    use mck::Model;

    let params = Params::new(10, 10).unwrap();
    for (variant, req) in [
        (Variant::Binary, Requirement::R2),
        (Variant::Binary, Requirement::R3),
        (Variant::Expanding, Requirement::R2),
    ] {
        let v = verify(variant, params, FixLevel::Original, req);
        let ce = v.counterexample.expect("violated at tmin=tmax");
        let model = build_model(variant, params, FixLevel::Original, 1, req);
        let mut cur = ce.initial_state().clone();
        for (action, state) in ce.steps() {
            cur = model
                .next_state(&cur, action)
                .expect("counterexample action must be enabled");
            assert_eq!(&cur, state, "{variant} {req}: trace divergence");
        }
    }
}

#[test]
fn verdict_is_independent_of_engine() {
    // `verify` and the search on four workers must agree with the
    // sequential loop.
    use accelerated_heartbeat::verify::requirements::{build_model, error_predicate};

    let params = Params::new(5, 10).unwrap();
    for req in [Requirement::R2, Requirement::R3] {
        let model = build_model(Variant::Expanding, params, FixLevel::Original, 1, req);
        let on = |threads: usize| {
            mck::Checker::new(&model)
                .threads(threads)
                .check_invariant(|s| !error_predicate(&model, req)(s))
        };
        let seq = on(1);
        let par = on(4);
        let v = verify(Variant::Expanding, params, FixLevel::Original, req);
        assert_eq!(seq.holds(), par.holds(), "engine disagreement on {req}");
        assert_eq!(seq.stats(), par.stats(), "engine disagreement on {req}");
        assert_eq!(seq.holds(), v.holds, "verify disagrees on {req}");
        assert_eq!(seq.stats(), v.stats, "verify disagrees on {req}");
    }
}
