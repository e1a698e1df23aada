//! State-space report: model sizes for every (variant, data set,
//! requirement) cell of the verification campaign, plus the liveness
//! check — the kind of table model-checking papers report alongside their
//! verdicts — and the §7 crash/leave → rejoin grid on the same machines.

use hb_core::params::PAPER_DATASETS;
use hb_core::{FixLevel, Params, Variant};
use hb_verify::liveness::check_eventual_inactivation;
use hb_verify::requirements::{rejoin_cell, verify, Requirement, REJOIN_CAP, REJOIN_GRID};
use mck::liveness::LeadsToOutcome;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    println!("== state-space sizes of the composed models (original protocols) ==\n");
    println!(
        "{:<16} {:>6} | {:>12} {:>12} {:>12}",
        "variant", "tmin", "R1 states", "R2 states", "R3 states"
    );
    println!("{}", "-".repeat(66));
    let mut grand_total = 0usize;
    for variant in Variant::ALL {
        for (tmin, tmax) in PAPER_DATASETS {
            let params = Params::new(tmin, tmax).unwrap();
            let mut cells = Vec::new();
            for req in Requirement::ALL {
                let v = verify(variant, params, FixLevel::Original, req);
                grand_total += v.stats.states;
                // Violated cells stop early; mark them.
                let mark = if v.holds { "" } else { "*" };
                cells.push(format!("{}{}", v.stats.states, mark));
            }
            println!(
                "{:<16} {:>6} | {:>12} {:>12} {:>12}",
                variant.name(),
                tmin,
                cells[0],
                cells[1],
                cells[2]
            );
        }
    }
    println!("(*) violated cell: BFS stops at the first error, so the count is partial\n");
    println!("total states explored: {grand_total}");

    println!("\n== GM98 liveness: a network crash leads to full inactivation ==\n");
    println!("(checked as AG(crash -> AF all-inactive) with a lasso search; faults on)\n");
    println!(
        "{:<16} {:>8} {:>10} {:>10}",
        "variant", "params", "verdict", "states"
    );
    println!("{}", "-".repeat(50));
    for variant in Variant::ALL {
        let params = Params::new(1, 4).unwrap();
        let out = check_eventual_inactivation(variant, params, FixLevel::Original, 1, 1 << 24);
        let (verdict, states) = match &out {
            LeadsToOutcome::Holds { states } => ("holds", *states),
            LeadsToOutcome::Violated { .. } => ("VIOLATED", 0),
            LeadsToOutcome::Unknown { states } => ("unknown", *states),
        };
        println!(
            "{:<16} {:>8} {:>10} {:>10}",
            variant.name(),
            "(1,4)",
            verdict,
            states
        );
        assert!(out.holds(), "{variant}: GM98's liveness core must hold");
    }
    println!(
        "\nthe *eventual* inactivation guarantee of GM98 holds for every variant\n\
         even in their original form — what the 2009 analysis refutes are the\n\
         *timed* refinements (the 2*tmax bound) and race-freedom, not the\n\
         liveness core."
    );

    println!("\n== §7 rejoin on the runtime machines (future work of GM98 / AM09) ==\n");
    println!(
        "(dynamic, n = 1, lossless, crashes + leaves, up to {REJOIN_CAP} rejoins; exhaustive)\n"
    );
    for (tmin, tmax) in REJOIN_GRID {
        for fix in FixLevel::ALL {
            let c = rejoin_cell(Params::new(tmin, tmax).unwrap(), fix);
            println!("({tmin},{tmax}) {:<17} {c:?}", fix.name());
            assert_eq!(c.deadlocks, 0);
            assert_eq!(c.safe(), fix == FixLevel::Full, "{c:?}");
        }
    }
    println!("\nonly the full fix (epoch bar, receive priority, any-phase join bound) is safe");
    println!("wall time: {:.1?}", t0.elapsed());
}
