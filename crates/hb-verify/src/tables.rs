//! Regeneration of the paper's verification tables.
//!
//! * [`table1`] — Table 1: (revised) binary, two-phase and static
//!   protocols on the five data sets `tmin ∈ {1,4,5,9,10}`, `tmax = 10`.
//! * [`table2`] — Table 2: expanding and dynamic protocols, same data
//!   sets.
//! * [`table_fixed`] — the §6 result: every variant at
//!   [`FixLevel::Full`] satisfies every requirement on every data set.
//!
//! Each report carries the paper's expected verdicts next to the measured
//! ones and renders as the same `T`/`F` grid the paper prints.
//!
//! Beyond the paper's `n = 1` grids, the **scale campaign**
//! ([`scale_grid`]) sweeps the multi-party protocols at `n ∈ {2, 4, 8}`
//! with staggered starts (and leaves, for the dynamic variant) under
//! four reduction stacks — unreduced, certificate-gated symmetry,
//! symmetry × partial-order reduction, and the same pair on the
//! bit-packed store — reporting state counts, memory and verdicts side
//! by side so the reductions can be cross-checked against each other
//! and against the unreduced checker on every affordable cell.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hb_core::params::PAPER_DATASETS;
use hb_core::{FixLevel, Params, Variant};
use mck::bfs::Stats;
use mck::packed::PackedChecker;
use mck::symmetry::Symmetric;
use mck::{CheckOutcome, Checker, Model, Reduced};

use crate::model::HbState;
use crate::packed::HbCodec;
use crate::por::HbAmpleOracle;
use crate::requirements::{build_model, error_predicate, verify_with_n, Requirement, Verdict};
use crate::symmetry::certify;

/// The paper's Table 1 verdicts (rows R1, R2, R3 × the five data sets).
pub const TABLE1_EXPECTED: [[bool; 5]; 3] = [
    [false, false, false, true, true], // R1
    [true, true, true, true, false],   // R2
    [true, true, true, true, false],   // R3
];

/// The paper's Table 2 verdicts.
pub const TABLE2_EXPECTED: [[bool; 5]; 3] = [
    [false, false, false, true, true], // R1
    [true, true, false, false, false], // R2
    [true, true, true, true, false],   // R3
];

/// The §6 expectation for the fully fixed protocols: everything holds.
pub const FIXED_EXPECTED: [[bool; 5]; 3] = [[true; 5]; 3];

/// One row of a table report: a (variant, requirement) pair swept over the
/// data sets.
#[derive(Clone, Debug)]
pub struct RowReport {
    /// The protocol variant of this row.
    pub variant: Variant,
    /// The requirement of this row.
    pub requirement: Requirement,
    /// One verdict per data set.
    pub verdicts: Vec<Verdict>,
    /// The paper's expected truth values for this row.
    pub expected: Vec<bool>,
}

impl RowReport {
    /// Whether every measured verdict matches the paper.
    pub fn matches(&self) -> bool {
        self.verdicts.len() == self.expected.len()
            && self
                .verdicts
                .iter()
                .zip(&self.expected)
                .all(|(v, e)| v.holds == *e)
    }
}

/// A regenerated verification table.
#[derive(Clone, Debug)]
pub struct TableReport {
    /// Table caption.
    pub title: String,
    /// The data sets (columns).
    pub datasets: Vec<Params>,
    /// Rows, grouped by variant then requirement.
    pub rows: Vec<RowReport>,
}

impl TableReport {
    /// Whether every cell matches the paper's verdict.
    pub fn matches_expected(&self) -> bool {
        self.rows.iter().all(RowReport::matches)
    }

    /// Total states explored across all cells.
    pub fn total_states(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| &r.verdicts)
            .map(|v| v.stats.states)
            .sum()
    }

    /// Render the table in the paper's format, with a `paper:` line under
    /// each measured row and a trailing match summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:<24}", "tmin");
        for p in &self.datasets {
            let _ = write!(out, "{:>4}", p.tmin());
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<24}", "tmax");
        for p in &self.datasets {
            let _ = write!(out, "{:>4}", p.tmax());
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "-".repeat(24 + 4 * self.datasets.len() + 22));
        let mut last_variant = None;
        for row in &self.rows {
            if last_variant != Some(row.variant) {
                let _ = writeln!(out, "[{}]", row.variant);
                last_variant = Some(row.variant);
            }
            let _ = write!(out, "  {:<22}", row.requirement.name());
            for v in &row.verdicts {
                let _ = write!(out, "{:>4}", v.symbol());
            }
            let _ = write!(out, "   paper:");
            for e in &row.expected {
                let _ = write!(out, " {}", if *e { "T" } else { "F" });
            }
            let _ = writeln!(
                out,
                "  {}",
                if row.matches() {
                    "MATCH"
                } else {
                    "** MISMATCH **"
                }
            );
        }
        let _ = writeln!(
            out,
            "overall: {} ({} states explored)",
            if self.matches_expected() {
                "all cells match the paper"
            } else {
                "MISMATCHES PRESENT"
            },
            self.total_states()
        );
        out
    }
}

/// The five `tmax = 10` data sets of the paper as validated [`Params`].
pub fn paper_params() -> Vec<Params> {
    PAPER_DATASETS
        .iter()
        .map(|&(tmin, tmax)| Params::new(tmin, tmax).expect("paper data sets are valid"))
        .collect()
}

fn run_table(
    title: &str,
    variants: &[Variant],
    fix: FixLevel,
    datasets: &[Params],
    expected: &[[bool; 5]; 3],
) -> TableReport {
    let mut rows = Vec::new();
    for &variant in variants {
        for (ri, req) in Requirement::ALL.into_iter().enumerate() {
            let verdicts = datasets
                .iter()
                .map(|&p| verify_with_n(variant, p, fix, req, 1))
                .collect();
            rows.push(RowReport {
                variant,
                requirement: req,
                verdicts,
                expected: expected[ri].to_vec(),
            });
        }
    }
    TableReport {
        title: title.to_string(),
        datasets: datasets.to_vec(),
        rows,
    }
}

/// Regenerate the paper's **Table 1** (verification results for the
/// (revised) binary, two-phase and static protocols).
///
/// Explores a few hundred thousand states; order of seconds in release
/// mode.
pub fn table1() -> TableReport {
    run_table(
        "Table 1: verification results for (revised) binary, two-phase and static protocols",
        &Variant::TABLE1,
        FixLevel::Original,
        &paper_params(),
        &TABLE1_EXPECTED,
    )
}

/// Regenerate the paper's **Table 2** (verification results for the
/// expanding and dynamic protocols).
pub fn table2() -> TableReport {
    run_table(
        "Table 2: verification results for expanding and dynamic protocols",
        &Variant::TABLE2,
        FixLevel::Original,
        &paper_params(),
        &TABLE2_EXPECTED,
    )
}

/// Regenerate the §6 result: all six variants at [`FixLevel::Full`] pass
/// every requirement on every data set.
pub fn table_fixed() -> TableReport {
    run_table(
        "Fixed protocols (receive priority + corrected bounds): all requirements hold",
        &Variant::ALL,
        FixLevel::Full,
        &paper_params(),
        &FIXED_EXPECTED,
    )
}

/// Sweep a single variant at a given fix level over arbitrary data sets,
/// with no paper expectation attached (the `expected` column repeats the
/// measurement). Used by the ablation bench to show what each of the two
/// fixes repairs on its own.
pub fn sweep_variant(variant: Variant, fix: FixLevel, datasets: &[Params]) -> TableReport {
    let rows = Requirement::ALL
        .into_iter()
        .map(|req| {
            let verdicts: Vec<Verdict> = datasets
                .iter()
                .map(|&p| verify_with_n(variant, p, fix, req, 1))
                .collect();
            let expected = verdicts.iter().map(|v| v.holds).collect();
            RowReport {
                variant,
                requirement: req,
                verdicts,
                expected,
            }
        })
        .collect();
    TableReport {
        title: format!("{variant} at fix level {fix}"),
        datasets: datasets.to_vec(),
        rows,
    }
}

/// The reduction stack applied to one scale-campaign cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Plain BFS over the unreduced composed model.
    Full,
    /// Certificate-gated symmetry quotient (sort-key canonicalization).
    Sym,
    /// Symmetry quotient over the ample-set-reduced model.
    SymPor,
    /// [`Reduction::SymPor`] explored on the bit-packed store with
    /// dataflow-proven field widths.
    SymPorPacked,
}

impl Reduction {
    /// All stacks, weakest first.
    pub const ALL: [Reduction; 4] = [
        Reduction::Full,
        Reduction::Sym,
        Reduction::SymPor,
        Reduction::SymPorPacked,
    ];

    /// Short name for report columns.
    pub fn name(self) -> &'static str {
        match self {
            Reduction::Full => "full",
            Reduction::Sym => "sym",
            Reduction::SymPor => "sym+por",
            Reduction::SymPorPacked => "sym+por+packed",
        }
    }
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exploration budget for one scale cell. A cell that exhausts either
/// limit reports [`ScaleOutcome::Exhausted`] instead of a verdict —
/// that *is* the measurement for the unreduced baselines.
#[derive(Clone, Copy, Debug)]
pub struct ScaleLimits {
    /// Stop after interning this many states.
    pub max_states: usize,
    /// Stop after this much wall-clock time.
    pub time_budget: Duration,
}

impl Default for ScaleLimits {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            time_budget: Duration::from_secs(30),
        }
    }
}

/// What a scale cell concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScaleOutcome {
    /// The requirement holds (exhaustively, within this reduction).
    Holds,
    /// Violated, with the depth of the found counterexample.
    Violated {
        /// Length of the counterexample path.
        depth: usize,
    },
    /// The state or time budget ran out first.
    Exhausted,
    /// The symmetry certificate refused the quotient (rendered reason).
    Refused(String),
}

impl ScaleOutcome {
    /// Report symbol: `T`, `F`, `—` (exhausted) or `refused`.
    pub fn symbol(&self) -> &'static str {
        match self {
            ScaleOutcome::Holds => "T",
            ScaleOutcome::Violated { .. } => "F",
            ScaleOutcome::Exhausted => "—",
            ScaleOutcome::Refused(_) => "refused",
        }
    }
}

/// One measured cell of the scale campaign.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Protocol variant.
    pub variant: Variant,
    /// Requirement checked.
    pub requirement: Requirement,
    /// Participant count.
    pub n: usize,
    /// Reduction stack used.
    pub reduction: Reduction,
    /// Verdict or exhaustion.
    pub outcome: ScaleOutcome,
    /// States interned before finishing (or giving up).
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// Peak bytes of the packed store (packed runs only).
    pub peak_bytes: Option<usize>,
    /// Wall-clock milliseconds.
    pub millis: u128,
}

fn scale_outcome<M: Model>(o: &CheckOutcome<M>) -> (ScaleOutcome, Stats) {
    match o {
        CheckOutcome::Holds(st) => (ScaleOutcome::Holds, *st),
        CheckOutcome::Violated { path, stats } => {
            (ScaleOutcome::Violated { depth: path.len() }, *stats)
        }
        CheckOutcome::Incomplete(st) => (ScaleOutcome::Exhausted, *st),
    }
}

/// Plain BFS over `model` (bare or wrapped) within the cell's limits.
fn bfs<M: Model<State = HbState>>(
    model: &M,
    limits: ScaleLimits,
    pred: impl Fn(&HbState) -> bool,
) -> (ScaleOutcome, Stats) {
    let out = Checker::new(model)
        .max_states(limits.max_states)
        .time_budget(limits.time_budget)
        .check_invariant(pred);
    scale_outcome(&out)
}

/// Measure one scale-campaign cell.
///
/// The model is built exactly as the paper cells are
/// ([`build_model`]) plus staggered starts; the dynamic variant keeps
/// its voluntary leaves. The `Sym*` stacks go through [`certify`], so an
/// uncertified machine yields [`ScaleOutcome::Refused`] instead of an
/// unsound quotient, and a certified one canonicalizes each successor in
/// place.
pub fn scale_cell(
    variant: Variant,
    params: Params,
    fix: FixLevel,
    req: Requirement,
    n: usize,
    reduction: Reduction,
    limits: ScaleLimits,
) -> ScaleCell {
    let model = build_model(variant, params, fix, n, req).stagger_starts(true);
    let pred = |s: &HbState| !error_predicate(&model, req)(s);
    let start = Instant::now();
    let mut peak_bytes = None;
    let (outcome, stats) = if reduction == Reduction::Full {
        bfs(&model, limits, pred)
    } else {
        match certify(&model) {
            Err(refusal) => (ScaleOutcome::Refused(refusal.to_string()), Stats::default()),
            Ok(canon) if reduction == Reduction::Sym => {
                bfs(&Symmetric::new(&model, canon), limits, pred)
            }
            Ok(canon) => {
                let red = Reduced::new(&model, HbAmpleOracle::new(&model, req));
                let sym = Symmetric::new(&red, canon);
                if reduction == Reduction::SymPor {
                    bfs(&sym, limits, pred)
                } else {
                    let run = PackedChecker::new(&sym, HbCodec::for_model(&model))
                        .max_states(limits.max_states)
                        .time_budget(limits.time_budget)
                        .check_invariant(pred);
                    peak_bytes = Some(run.mem.total());
                    scale_outcome(&run.outcome)
                }
            }
        }
    };
    ScaleCell {
        variant,
        requirement: req,
        n,
        reduction,
        outcome,
        states: stats.states,
        transitions: stats.transitions,
        peak_bytes,
        millis: start.elapsed().as_millis(),
    }
}

/// The multi-party scale campaign: static/expanding/dynamic × `ns` ×
/// `reqs` × all four reduction stacks, at [`FixLevel::Full`]-style
/// `fix`. Cells run weakest stack first so a budget-limited sweep still
/// yields the baseline numbers.
pub fn scale_grid(
    params: Params,
    fix: FixLevel,
    ns: &[usize],
    reqs: &[Requirement],
    limits: ScaleLimits,
) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    for &variant in &[Variant::Static, Variant::Expanding, Variant::Dynamic] {
        for &n in ns {
            for &req in reqs {
                for reduction in Reduction::ALL {
                    cells.push(scale_cell(variant, params, fix, req, n, reduction, limits));
                }
            }
        }
    }
    cells
}

/// Cross-check a scale sweep: within each (variant, requirement, n)
/// group, every cell that finished (no exhaustion/refusal) must agree
/// on the verdict. Returns the disagreeing groups, empty when sound.
pub fn scale_disagreements(cells: &[ScaleCell]) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, Requirement, usize), Vec<&ScaleCell>> = BTreeMap::new();
    for c in cells {
        groups
            .entry((c.variant.to_string(), c.requirement, c.n))
            .or_default()
            .push(c);
    }
    let mut bad = Vec::new();
    for ((v, req, n), group) in groups {
        let verdicts: Vec<&str> = group
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    ScaleOutcome::Holds | ScaleOutcome::Violated { .. }
                )
            })
            .map(|c| c.outcome.symbol())
            .collect();
        if verdicts.windows(2).any(|w| w[0] != w[1]) {
            bad.push(format!("{v}/{req}/n={n}: {verdicts:?}"));
        }
    }
    bad
}

/// Render a scale sweep as an aligned text table.
pub fn render_scale(cells: &[ScaleCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>3} {:<3} {:<15} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "variant", "req", "n", "reduction", "verdict", "states", "transitions", "peak-bytes", "ms"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    for c in cells {
        let peak = c
            .peak_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<10} {:>3} {:<3} {:<15} {:>8} {:>10} {:>12} {:>12} {:>8}",
            c.variant.to_string(),
            c.requirement.name(),
            c.n,
            c.reduction.name(),
            c.outcome.symbol(),
            c.states,
            c.transitions,
            peak,
            c.millis
        );
    }
    let bad = scale_disagreements(cells);
    let _ = writeln!(
        out,
        "cross-check: {}",
        if bad.is_empty() {
            "all finished stacks agree".to_string()
        } else {
            format!("DISAGREEMENTS: {bad:?}")
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full tmax=10 campaigns run in the integration tests and benches;
    // here we exercise the report plumbing on miniature parameters.

    #[test]
    fn expected_grids_have_paper_shape() {
        assert_eq!(TABLE1_EXPECTED[0], [false, false, false, true, true]);
        assert_eq!(TABLE2_EXPECTED[1], [true, true, false, false, false]);
        assert!(FIXED_EXPECTED.iter().flatten().all(|&b| b));
    }

    #[test]
    fn paper_params_match_constants() {
        let ps = paper_params();
        assert_eq!(ps.len(), 5);
        assert_eq!(ps[0].tmin(), 1);
        assert!(ps.iter().all(|p| p.tmax() == 10));
    }

    #[test]
    fn render_contains_headers_and_verdicts() {
        let datasets = vec![Params::new(2, 4).unwrap()];
        let report = sweep_variant(Variant::Binary, FixLevel::Full, &datasets);
        let text = report.render();
        assert!(text.contains("binary"));
        assert!(text.contains("tmin"));
        assert!(text.contains("R2"));
        assert!(report.total_states() > 0);
        assert!(report.matches_expected(), "self-expectation always matches");
    }

    #[test]
    fn mismatch_is_reported() {
        let datasets = vec![Params::new(2, 4).unwrap()];
        let mut report = sweep_variant(Variant::Binary, FixLevel::Full, &datasets);
        report.rows[0].expected = vec![!report.rows[0].verdicts[0].holds];
        assert!(!report.matches_expected());
        assert!(report.render().contains("MISMATCH"));
    }

    #[test]
    fn scale_cell_stacks_agree_on_a_small_static_cell() {
        let p = Params::new(1, 3).unwrap();
        let limits = ScaleLimits::default();
        let cells: Vec<ScaleCell> = Reduction::ALL
            .into_iter()
            .map(|r| {
                scale_cell(
                    Variant::Static,
                    p,
                    FixLevel::Original,
                    Requirement::R2,
                    2,
                    r,
                    limits,
                )
            })
            .collect();
        assert!(scale_disagreements(&cells).is_empty());
        assert!(cells.iter().all(|c| c.outcome == ScaleOutcome::Holds));
        let full = cells[0].states;
        let sym = cells[1].states;
        let sym_por = cells[2].states;
        let packed = cells[3].states;
        assert!(sym < full, "symmetry must shrink: {sym} vs {full}");
        assert!(sym_por <= sym, "por must not grow: {sym_por} vs {sym}");
        assert_eq!(packed, sym_por, "packed explores the same graph");
        assert!(cells[3].peak_bytes.unwrap() > 0);
        let rendered = render_scale(&cells);
        assert!(rendered.contains("sym+por+packed"));
        assert!(rendered.contains("all finished stacks agree"));
    }

    /// The `(2, 6)` full-fix R2 cells `benchmark/`'s smoke round runs, plus
    /// static n = 2, the cell CI smoke-checked before the counts were
    /// pinned here: all four stacks finish and agree. Then the five cells
    /// `benchmark/`'s full `mck_scale` round times (static n = 8 and
    /// expanding n = 4, the quotient stacks only). The counts move if
    /// the canonical representative or the ample order does (a different
    /// member of an orbit has its enabled actions in a different order, so
    /// POR picks a different subset); `peak_bytes` moves with the packed
    /// record layout or the index geometry.
    #[test]
    fn scale_cell_counts_are_pinned() {
        let p = Params::new(2, 6).unwrap();
        type Row = (Reduction, usize, usize, Option<usize>);
        let pinned: [(Variant, usize, &[Row]); 5] = [
            (
                Variant::Static,
                2,
                &[
                    (Reduction::Full, 213, 376, None),
                    (Reduction::Sym, 134, 236, None),
                    (Reduction::SymPor, 130, 213, None),
                    (Reduction::SymPorPacked, 130, 213, Some(35_291)),
                ],
            ),
            (
                Variant::Static,
                4,
                &[
                    (Reduction::Full, 11_169, 33_504, None),
                    (Reduction::Sym, 1_337, 4_074, None),
                    (Reduction::SymPor, 1_099, 2_570, None),
                    (Reduction::SymPorPacked, 1_099, 2_570, Some(59_129)),
                ],
            ),
            (
                Variant::Expanding,
                2,
                &[
                    (Reduction::Full, 2_687, 5_621, None),
                    (Reduction::Sym, 1_877, 4_190, None),
                    (Reduction::SymPor, 1_767, 3_628, None),
                    (Reduction::SymPorPacked, 1_767, 3_628, Some(68_011)),
                ],
            ),
            (
                Variant::Static,
                8,
                &[
                    (Reduction::Sym, 34_141, 191_138, None),
                    (Reduction::SymPor, 20_072, 63_747, None),
                    (Reduction::SymPorPacked, 20_072, 63_747, Some(943_092)),
                ],
            ),
            (
                Variant::Expanding,
                4,
                &[
                    (Reduction::SymPor, 125_692, 447_446, None),
                    (Reduction::SymPorPacked, 125_692, 447_446, Some(5_362_354)),
                ],
            ),
        ];
        for (variant, n, rows) in pinned {
            for &(reduction, states, transitions, peak_bytes) in rows {
                let c = scale_cell(
                    variant,
                    p,
                    FixLevel::Full,
                    Requirement::R2,
                    n,
                    reduction,
                    ScaleLimits::default(),
                );
                assert_eq!(
                    c.outcome,
                    ScaleOutcome::Holds,
                    "{variant} n={n} {reduction}"
                );
                assert_eq!(
                    (c.states, c.transitions, c.peak_bytes),
                    (states, transitions, peak_bytes),
                    "{variant} n={n} {reduction}"
                );
            }
        }
    }

    /// One cell past the protocol state's inline capacity (eight
    /// participants): static n = 9 under the quotient stacks, cut at a
    /// state cap so a debug build finishes it in seconds. The time budget
    /// is far beyond what the cap takes, so the cap alone decides where
    /// the search stops.
    #[test]
    fn a_cell_past_the_inline_capacity_is_pinned() {
        let limits = ScaleLimits {
            max_states: 20_000,
            time_budget: Duration::from_secs(600),
        };
        for (reduction, states, transitions, peak_bytes) in [
            (Reduction::SymPor, 20_000, 66_551, None),
            (Reduction::SymPorPacked, 20_000, 66_551, Some(1_007_919)),
        ] {
            let c = scale_cell(
                Variant::Static,
                Params::new(2, 6).unwrap(),
                FixLevel::Full,
                Requirement::R2,
                9,
                reduction,
                limits,
            );
            assert_eq!(c.outcome, ScaleOutcome::Exhausted, "{reduction}");
            assert_eq!(
                (c.states, c.transitions, c.peak_bytes),
                (states, transitions, peak_bytes),
                "{reduction}"
            );
        }
    }

    #[test]
    fn scale_cell_reports_exhaustion_within_budget() {
        let p = Params::new(2, 8).unwrap();
        let limits = ScaleLimits {
            max_states: 500,
            time_budget: Duration::from_secs(5),
        };
        let c = scale_cell(
            Variant::Static,
            p,
            FixLevel::Full,
            Requirement::R2,
            4,
            Reduction::Full,
            limits,
        );
        assert_eq!(c.outcome, ScaleOutcome::Exhausted);
        assert!(c.states <= 501);
        assert_eq!(c.outcome.symbol(), "—");
    }

    #[test]
    fn scale_grid_covers_the_campaign_shape() {
        let p = Params::new(1, 2).unwrap();
        let limits = ScaleLimits {
            max_states: 20_000,
            time_budget: Duration::from_secs(10),
        };
        let cells = scale_grid(p, FixLevel::Full, &[2], &[Requirement::R3], limits);
        // 3 variants × 1 n × 1 req × 4 stacks.
        assert_eq!(cells.len(), 12);
        assert!(scale_disagreements(&cells).is_empty());
        assert!(cells
            .iter()
            .filter(|c| c.reduction == Reduction::SymPorPacked)
            .all(|c| c.peak_bytes.is_some()));
    }

    #[test]
    fn miniature_table_matches_itself_across_fixes() {
        // Tiny end-to-end: binary at (2,4) original has R1 violated,
        // fixed has it satisfied — visible through the table API.
        let datasets = vec![Params::new(1, 4).unwrap()];
        let orig = sweep_variant(Variant::Binary, FixLevel::Original, &datasets);
        let full = sweep_variant(Variant::Binary, FixLevel::Full, &datasets);
        let r1_orig = &orig.rows[0].verdicts[0];
        let r1_full = &full.rows[0].verdicts[0];
        assert!(!r1_orig.holds);
        assert!(r1_full.holds);
    }
}
