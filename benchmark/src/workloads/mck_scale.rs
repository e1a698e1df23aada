//! `mck_scale`: the checker side.

use std::time::Instant;

use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::mck::packed::PackedChecker;
use accelerated_heartbeat::mck::symmetry::Symmetric;
use accelerated_heartbeat::mck::{Checker, Reduced};
use accelerated_heartbeat::verify::requirements::{build_model, error_predicate};
use accelerated_heartbeat::verify::tables::{
    scale_cell, scale_disagreements, Reduction, ScaleCell, ScaleLimits, ScaleOutcome,
};
use accelerated_heartbeat::verify::{
    certified_canonical, HbAmpleOracle, HbCodec, HbState, Requirement,
};

use super::{check, secs, Round, Workload};
use crate::decorators::{traced_canonical, TracedCodec, TracedModel, TracedOracle};
use crate::trace::{span, Name};

/// One cell of the round: variant, participants, reduction stack.
type Cell = (Variant, usize, Reduction);

/// A full round: the cells of `BENCH_mck.json` that finish, about two
/// seconds in all.
const FULL: [Cell; 5] = [
    (Variant::Static, 8, Reduction::Sym),
    (Variant::Static, 8, Reduction::SymPor),
    (Variant::Static, 8, Reduction::SymPorPacked),
    (Variant::Expanding, 4, Reduction::SymPor),
    (Variant::Expanding, 4, Reduction::SymPorPacked),
];
/// About a tenth of that, for the traced round.
const TENTH: [Cell; 3] = [
    (Variant::Static, 8, Reduction::SymPor),
    (Variant::Static, 8, Reduction::SymPorPacked),
    (Variant::Expanding, 2, Reduction::SymPorPacked),
];
/// The same stacks on state spaces of a few thousand, for `--smoke`.
const SMOKE: [Cell; 5] = [
    (Variant::Static, 4, Reduction::Sym),
    (Variant::Static, 4, Reduction::SymPor),
    (Variant::Static, 4, Reduction::SymPorPacked),
    (Variant::Expanding, 2, Reduction::SymPor),
    (Variant::Expanding, 2, Reduction::SymPorPacked),
];

/// `hb_verify::tables::scale_cell` on requirement R2 at the full fix.
/// Timing is `tmin = 2`, `tmax = 6` — the cell `BENCH_mck.json` has a
/// trajectory for — not the runtime workloads' `(2, 8)`.
pub struct MckScale {
    cells: &'static [Cell],
    /// The cell set-up runs once before timing starts.
    prime: Cell,
}

/// The checker cell's timing parameters.
pub fn params() -> Params {
    Params::new(2, 6).expect("tmin 2 <= tmax 6")
}

const FIX: FixLevel = FixLevel::Full;
const REQ: Requirement = Requirement::R2;

impl MckScale {
    /// Pick the cell list for `scale`; nothing here is random.
    pub fn generate(scale: f64) -> Self {
        let small = (Variant::Static, 4, Reduction::SymPorPacked);
        let (cells, prime): (&[Cell], Cell) = if scale >= 0.5 {
            (&FULL, FULL[2])
        } else if scale >= 0.05 {
            (&TENTH, small)
        } else {
            (&SMOKE, small)
        };
        MckScale { cells, prime }
    }

    /// Set-up: what every cell needs before its first state — the
    /// composed model, the symmetry certificate and the dataflow-derived
    /// codec — then one packed cell, to page the checker in.
    fn setup(&self) -> bool {
        let mut certified = true;
        for &(variant, n, _) in self.cells {
            let model = build_model(variant, params(), FIX, n, REQ).stagger_starts(true);
            certified &= certified_canonical(&model).is_ok();
            std::hint::black_box(HbCodec::for_model(&model));
        }
        let (variant, n, reduction) = self.prime;
        let warm = scale_cell(
            variant,
            params(),
            FIX,
            REQ,
            n,
            reduction,
            ScaleLimits::default(),
        );
        certified && warm.outcome == ScaleOutcome::Holds
    }

    fn finish(&self, setup_s: f64, certified: bool, cells: Vec<ScaleCell>, run_s: f64) -> Round {
        let states: usize = cells.iter().map(|c| c.states).sum();
        let mut round = Round {
            setup_s,
            run_s,
            work: states as f64,
            host: vec![
                ("verdict_s", run_s),
                ("states_per_s", states as f64 / run_s),
            ],
            ..Round::default()
        };
        let open: Vec<String> = cells
            .iter()
            .filter(|c| c.outcome != ScaleOutcome::Holds)
            .map(|c| format!("{} n={} {}: {:?}", c.variant, c.n, c.reduction, c.outcome))
            .collect();
        round.checks.push(check(
            "every cell is certified and reaches the verdict Holds",
            certified && open.is_empty(),
            || format!("certified {certified}, {open:?}"),
        ));
        let disagreements = scale_disagreements(&cells);
        round.checks.push(check(
            "the reduction stacks agree on every verdict",
            disagreements.is_empty(),
            || format!("{disagreements:?}"),
        ));
        let peak = cells.iter().filter_map(|c| c.peak_bytes).max().unwrap_or(0);
        round.simulated.push(("peak_store_bytes", peak as f64));
        round
    }
}

impl Workload for MckScale {
    fn round(&self) -> Round {
        let t0 = Instant::now();
        let certified = self.setup();
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let cells = self
            .cells
            .iter()
            .map(|&(variant, n, reduction)| {
                scale_cell(
                    variant,
                    params(),
                    FIX,
                    REQ,
                    n,
                    reduction,
                    ScaleLimits::default(),
                )
            })
            .collect();
        let run_s = secs(t1);
        self.finish(setup_s, certified, cells, run_s)
    }

    /// `scale_cell` with every seam decorated: the model, the
    /// canonicalizer, the ample oracle and the packed codec.
    fn traced_round(&self) -> Round {
        let t0 = Instant::now();
        let certified = self.setup();
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let cells = span(Name::Round, || {
            self.cells
                .iter()
                .map(|&cell| span(Name::MckCheck, || traced_cell(cell)))
                .collect()
        });
        let run_s = secs(t1);
        self.finish(setup_s, certified, cells, run_s)
    }
}

fn traced_cell((variant, n, reduction): Cell) -> ScaleCell {
    let limits = ScaleLimits::default();
    let model = build_model(variant, params(), FIX, n, REQ).stagger_starts(true);
    let pred = |s: &HbState| !error_predicate(&model, REQ)(s);
    let canon =
        traced_canonical(certified_canonical(&model).expect("setup checked the certificate"));
    let traced = TracedModel(&model);
    let oracle = TracedOracle(HbAmpleOracle::new(&model, REQ));
    let start = Instant::now();
    let (holds, stats, peak_bytes) = match reduction {
        Reduction::Sym => {
            let sym = Symmetric::new(&traced, canon);
            let out = Checker::new(&sym)
                .max_states(limits.max_states)
                .check_invariant(pred);
            (out.holds(), out.stats(), None)
        }
        Reduction::SymPor => {
            let red = Reduced::new(&traced, oracle);
            let sym = Symmetric::new(&red, canon);
            let out = Checker::new(&sym)
                .max_states(limits.max_states)
                .check_invariant(pred);
            (out.holds(), out.stats(), None)
        }
        _ => {
            let red = Reduced::new(&traced, oracle);
            let sym = Symmetric::new(&red, canon);
            let run = PackedChecker::new(&sym, TracedCodec(HbCodec::for_model(&model)))
                .max_states(limits.max_states)
                .check_invariant(pred);
            (
                run.outcome.holds(),
                run.outcome.stats(),
                Some(run.mem.total()),
            )
        }
    };
    ScaleCell {
        variant,
        requirement: REQ,
        n,
        reduction,
        outcome: if holds {
            ScaleOutcome::Holds
        } else if stats.truncated {
            ScaleOutcome::Exhausted
        } else {
            ScaleOutcome::Violated { depth: stats.depth }
        },
        states: stats.states,
        transitions: stats.transitions,
        peak_bytes,
        millis: start.elapsed().as_millis(),
    }
}
