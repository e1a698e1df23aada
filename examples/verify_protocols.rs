//! Model-check the accelerated heartbeat protocols.
//!
//! Checks requirements R1–R3 for a chosen variant and fix level across the
//! paper's data sets, printing verdicts, state counts and — for violated
//! cells — the shortest counterexample as a sequence chart.
//!
//! ```text
//! cargo run --release --example verify_protocols -- [variant] [fix level]
//! # e.g.
//! cargo run --release --example verify_protocols -- binary original
//! cargo run --release --example verify_protocols -- expanding full-fix
//! ```
//!
//! Both default to the first of their kind (`binary`, `original`); a name
//! that is neither a variant nor a fix level is an error listing those
//! that are.

use accelerated_heartbeat::core::params::PAPER_DATASETS;
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::verify::render::path_to_log;
use accelerated_heartbeat::verify::{verify, Requirement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let variant = args
        .get(1)
        .map_or(Ok(Variant::Binary), |s| Variant::from_name(s))?;
    let fix = args
        .get(2)
        .map_or(Ok(FixLevel::Original), |s| FixLevel::from_name(s))?;

    println!("== model checking {variant} at fix level {fix} ==\n");
    let mut first_ce_shown = false;
    for req in Requirement::ALL {
        print!("{req}:");
        let mut cells = Vec::new();
        for (tmin, tmax) in PAPER_DATASETS {
            let params = Params::new(tmin, tmax)?;
            let v = verify(variant, params, fix, req);
            print!("  tmin={tmin}: {}", v.symbol());
            cells.push(v);
        }
        println!();
        if !first_ce_shown {
            if let Some(v) = cells.iter().find(|v| !v.holds) {
                let ce = v.counterexample.as_ref().expect("violated => CE");
                println!(
                    "\nshortest counterexample for {req} at {} ({} transitions, {} states explored):",
                    v.params,
                    ce.len(),
                    v.stats.states
                );
                println!("{}", path_to_log(ce).render_chart(1));
                first_ce_shown = true;
            }
        }
    }
    println!("(T = requirement holds, F = violated; compare Tables 1-2 of Atif & Mousavi 2009)");
    Ok(())
}
