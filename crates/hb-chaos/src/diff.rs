//! Diffing two campaign reports: the sim-vs-live gate.
//!
//! The simulator and the live runtime execute the same plans, but their
//! fault randomness is consumed in different orders, so per-cell
//! statistics are two independent samples of the same distribution —
//! byte equality is the wrong question. This module asks the right one:
//! do the two reports tell the same protocol story?
//!
//! * **Structure is exact.** Same protocol context (variant, timing
//!   parameters, n, duration, seed count) and the same grid, cell for
//!   cell; the analytically derived `claimed_bound` / `corrected_bound`
//!   and `runs` must match to the digit.
//! * **Qualitative flags must agree.** Whether a cell saw bound
//!   violations, false suspicions, pre-crash starvation, stale-beat
//!   admission, missed detections or missed re-convergences is the
//!   protocol story. A flag that is set on one side and clear on the
//!   other is a hard divergence — unless both sides sit within a
//!   one-run slack of zero, where a single unlucky seed can flip it
//!   (reported, but tolerated).
//! * **Quantities get calibrated tolerances.** Counters over seeds are
//!   binomial samples (tolerance scales with `runs`); delay statistics
//!   live on the tick grid (tolerance scales with `tmax`, and means are
//!   only comparable when both sides have a population); message rates
//!   are tight (the protocols send the same traffic modulo lost
//!   retries).
//!
//! [`diff_reports`] returns every [`Divergence`] found;
//! [`DiffReport::hard`] is the CI gate (`chaos_campaign --diff A B`
//! exits non-zero iff it is non-empty against the checked-in artifact
//! pair).

use crate::json::{JsonError, Value};

/// How bad one divergence is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Within calibrated tolerance or flip slack: reported for the
    /// record, does not fail the gate.
    Note,
    /// Outside tolerance: the reports tell different stories.
    Hard,
}

/// One discrepancy between the two reports.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Grid-cell label (`fix/loss/burst/drift/partition`), or `"campaign"`
    /// for report-level mismatches.
    pub cell: String,
    /// The field that diverged.
    pub field: String,
    /// Value in the first report, rendered.
    pub left: String,
    /// Value in the second report, rendered.
    pub right: String,
    /// Whether the gate fails on it.
    pub severity: Severity,
}

/// Everything [`diff_reports`] found.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// All divergences, in report order.
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// The gate-failing subset.
    pub fn hard(&self) -> Vec<&Divergence> {
        self.divergences
            .iter()
            .filter(|d| d.severity == Severity::Hard)
            .collect()
    }

    /// Human rendering, one line per divergence plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.divergences {
            let tag = match d.severity {
                Severity::Note => "note",
                Severity::Hard => "HARD",
            };
            out.push_str(&format!(
                "[{tag}] {}: {} = {} vs {}\n",
                d.cell, d.field, d.left, d.right
            ));
        }
        out.push_str(&format!(
            "{} divergence(s), {} hard\n",
            self.divergences.len(),
            self.hard().len()
        ));
        out
    }
}

// Calibrated tolerances, set against the checked-in
// `campaign_gm98_sim.json` / `campaign_gm98_live.json` pair: wide enough
// that two honest samples of the same protocol pass, tight enough that a
// protocol-level regression (a bound violated on one substrate only,
// detection lost wholesale) fails.

/// Fraction of `runs` two per-run counters (`detected`, `reconverged`,
/// `stabilised`, `down_before_crash`, `violations_*`) may differ by.
const RUN_FRAC: f64 = 0.35;
/// Fraction of `runs` two event counters (`false_suspicions`,
/// `stale_admitted` — several events can land in one run) may differ by.
const EVENT_FRAC: f64 = 0.75;
/// Tick tolerance for delay statistics, as a multiple of the report's
/// `tmax`.
const TICK_FRAC_OF_TMAX: f64 = 1.0;
/// Absolute tolerance on `msg_per_tick`.
const RATE_ABS: f64 = 0.02;
/// A qualitative flag flip is only a note when both sides are at most
/// this many runs' worth of events away from zero.
const FLIP_SLACK: f64 = 1.0;

/// Parse both documents and diff them. Shape errors (missing fields,
/// wrong types) surface as [`JsonError`]; protocol-story differences
/// come back inside the [`DiffReport`].
pub fn diff_reports(left: &str, right: &str) -> Result<DiffReport, JsonError> {
    let a = Value::parse(left)?;
    let b = Value::parse(right)?;
    let mut report = DiffReport::default();

    // Report-level context must match exactly — except `backend`, which
    // is the whole point of the comparison, and `name`, which embeds it.
    // `monitor` is context too: comparing a monitored campaign against an
    // unmonitored one would vacuously pass every monitor check. (Absent
    // in pre-monitor reports → both default to false.)
    for field in [
        "record", "variant", "tmin", "tmax", "n", "duration", "seeds", "monitor",
    ] {
        let (l, r) = (a.opt_field(field)?, b.opt_field(field)?);
        if l != r {
            report.divergences.push(Divergence {
                cell: "campaign".into(),
                field: field.into(),
                left: l.map_or_else(|| "absent".to_string(), render),
                right: r.map_or_else(|| "absent".to_string(), render),
                severity: Severity::Hard,
            });
        }
    }
    let tmax = a.field("tmax")?.as_f64()?;
    let tick_tol = TICK_FRAC_OF_TMAX * tmax;

    let cells_a = a.field("cells")?.as_arr()?;
    let cells_b = b.field("cells")?.as_arr()?;
    if cells_a.len() != cells_b.len() {
        report.divergences.push(Divergence {
            cell: "campaign".into(),
            field: "cells".into(),
            left: cells_a.len().to_string(),
            right: cells_b.len().to_string(),
            severity: Severity::Hard,
        });
        return Ok(report); // no cell pairing to compare
    }

    for (ca, cb) in cells_a.iter().zip(cells_b) {
        let label = cell_label(ca)?;
        if cell_label(cb)? != label {
            report.divergences.push(Divergence {
                cell: label,
                field: "grid".into(),
                left: cell_label(ca)?,
                right: cell_label(cb)?,
                severity: Severity::Hard,
            });
            continue; // different grid points: values aren't comparable
        }
        diff_cell(ca, cb, &label, tick_tol, &mut report)?;
    }
    Ok(report)
}

/// How one per-cell field is compared.
#[derive(Clone, Copy)]
enum Rule {
    /// Samples nothing (run counts, analytic bounds): any gap is hard.
    Exact,
    /// A counter over seeds — a binomial sample: tolerated up to this
    /// fraction of `runs`.
    Runs(f64),
    /// The protocol story, reported as `<field> (flag)`: for the success
    /// counters "ever succeeds" (a partial shortfall is sampling noise the
    /// `Runs` rule already covers), for the trouble counters "ever
    /// troubles". A flip is hard unless both sides sit within the slack of
    /// zero, where one unlucky seed can flip it.
    Flag,
    /// A tick-grid delay statistic, comparable only when both sides have
    /// the named population — otherwise one side's 0 is "no sample", not
    /// "zero delay", and the population's `Flag` already covers the story.
    Ticks(&'static str),
    /// Steady-state overhead: tight, the protocols send the same traffic.
    Rate,
}

/// Every compared field of a cell, in report order. `monitor_*` fields
/// are absent in pre-monitor reports and read as 0: the run count is
/// structural, the per-requirement firing counts are per-run samples, and
/// whether a requirement fired *at all* in a cell is protocol story.
const CELL_RULES: &[(&str, Rule)] = &[
    ("runs", Rule::Exact),
    ("claimed_bound", Rule::Exact),
    ("corrected_bound", Rule::Exact),
    ("detected", Rule::Runs(RUN_FRAC)),
    ("down_before_crash", Rule::Runs(RUN_FRAC)),
    ("reconverged", Rule::Runs(RUN_FRAC)),
    ("stabilised", Rule::Runs(RUN_FRAC)),
    ("violations_claimed", Rule::Runs(RUN_FRAC)),
    ("violations_corrected", Rule::Runs(RUN_FRAC)),
    ("false_suspicions", Rule::Runs(EVENT_FRAC)),
    ("stale_admitted", Rule::Runs(EVENT_FRAC)),
    ("detected", Rule::Flag),
    ("reconverged", Rule::Flag),
    ("stabilised", Rule::Flag),
    ("down_before_crash", Rule::Flag),
    ("violations_claimed", Rule::Flag),
    ("violations_corrected", Rule::Flag),
    ("false_suspicions", Rule::Flag),
    ("stale_admitted", Rule::Flag),
    ("detect_mean", Rule::Ticks("detected")),
    ("detect_max", Rule::Ticks("detected")),
    ("reconv_detect_mean", Rule::Ticks("reconverged")),
    ("reconv_detect_max", Rule::Ticks("reconverged")),
    ("reconv_stable_mean", Rule::Ticks("stabilised")),
    ("reconv_stable_max", Rule::Ticks("stabilised")),
    ("msg_per_tick", Rule::Rate),
    ("monitor_runs", Rule::Exact),
    ("monitor_clean", Rule::Runs(RUN_FRAC)),
    ("monitor_r1", Rule::Runs(RUN_FRAC)),
    ("monitor_r2", Rule::Runs(RUN_FRAC)),
    ("monitor_r3", Rule::Runs(RUN_FRAC)),
    ("monitor_r1", Rule::Flag),
    ("monitor_r2", Rule::Flag),
    ("monitor_r3", Rule::Flag),
];

fn diff_cell(
    ca: &Value,
    cb: &Value,
    label: &str,
    tick_tol: f64,
    report: &mut DiffReport,
) -> Result<(), JsonError> {
    let runs = ca.field("runs")?.as_f64()?;
    let mut push = |field: &str, l: f64, r: f64, tolerated: bool| {
        report.divergences.push(Divergence {
            cell: label.to_string(),
            field: field.into(),
            left: l.to_string(),
            right: r.to_string(),
            severity: if tolerated {
                Severity::Note
            } else {
                Severity::Hard
            },
        });
    };
    let num = |c: &Value, field: &str| match c.opt_field(field)? {
        Some(v) => v.as_f64(),
        None if field.starts_with("monitor_") => Ok(0.0),
        None => c.field(field)?.as_f64(),
    };

    for &(field, rule) in CELL_RULES {
        let (l, r) = (num(ca, field)?, num(cb, field)?);
        let gap = (l - r).abs();
        match rule {
            Rule::Flag if (l > 0.0) != (r > 0.0) => {
                push(&format!("{field} (flag)"), l, r, l.max(r) <= FLIP_SLACK);
            }
            Rule::Flag => {}
            Rule::Ticks(population)
                if num(ca, population)? == 0.0 || num(cb, population)? == 0.0 => {}
            _ if l == r => {}
            Rule::Exact => push(field, l, r, false),
            Rule::Runs(frac) => push(field, l, r, gap <= (frac * runs).ceil()),
            Rule::Ticks(_) => push(field, l, r, gap <= tick_tol),
            Rule::Rate => push(field, l, r, gap <= RATE_ABS),
        }
    }

    // First-violation tick: a tick-grid quantity, comparable only when
    // both sides saw a violation at all. On lossy cells it is the
    // *earliest* firing across all seeds — an extreme order statistic
    // over two independent loss realizations, so a wide gap there is
    // sampling, not a determinism break.
    let lossy = ca.field("loss")?.as_f64()? > 0.0 || cb.field("loss")?.as_f64()? > 0.0;
    if let (Some(l), Some(r)) = (
        ca.opt_field("monitor_first")?,
        cb.opt_field("monitor_first")?,
    ) {
        let (l, r) = (l.as_f64()?, r.as_f64()?);
        if l != r {
            push("monitor_first", l, r, lossy || (l - r).abs() <= tick_tol);
        }
    }
    Ok(())
}

/// The grid-point label of one cell object.
fn cell_label(cell: &Value) -> Result<String, JsonError> {
    Ok(format!(
        "{}/loss{}x{}/drift{}/part{}",
        cell.field("fix")?.as_str()?,
        cell.field("loss")?.as_f64()?,
        cell.field("burst")?.as_f64()?,
        cell.field("drift")?.as_str()?,
        cell.field("partition")?.as_f64()?,
    ))
}

fn render(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Num(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(over: &[(&str, &str)]) -> String {
        let mut fields: Vec<(String, String)> = [
            ("fix", "\"original\""),
            ("loss", "0.02"),
            ("burst", "2"),
            ("drift", "\"1/1\""),
            ("partition", "0"),
            ("runs", "10"),
            ("detected", "10"),
            ("down_before_crash", "0"),
            ("detect_mean", "14.000"),
            ("detect_max", "14"),
            ("claimed_bound", "16"),
            ("corrected_bound", "22"),
            ("violations_claimed", "0"),
            ("violations_corrected", "0"),
            ("false_suspicions", "0"),
            ("msg_per_tick", "0.2490"),
            ("reconverged", "10"),
            ("reconv_detect_mean", "5.200"),
            ("reconv_detect_max", "6"),
            ("stabilised", "10"),
            ("reconv_stable_mean", "7.100"),
            ("reconv_stable_max", "9"),
            ("stale_admitted", "0"),
        ]
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
        for &(k, v) in over {
            let slot = fields
                .iter_mut()
                .find(|(fk, _)| fk == k)
                .expect("known field");
            slot.1 = v.to_string();
        }
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn campaign(backend: &str, cells: &[String]) -> String {
        format!(
            "{{\"record\":\"campaign\",\"name\":\"t\",\"backend\":\"{backend}\",\
             \"variant\":\"binary\",\"tmin\":2,\"tmax\":8,\"n\":1,\"duration\":2000,\
             \"seeds\":10,\"cells\":[{}]}}",
            cells.join(",")
        )
    }

    #[test]
    fn identical_reports_diff_clean() {
        let doc = campaign("sim", &[cell(&[])]);
        let live = campaign("live", &[cell(&[])]);
        let d = diff_reports(&doc, &live).unwrap();
        assert!(d.divergences.is_empty(), "{}", d.render());
    }

    #[test]
    fn sampling_noise_is_a_note_and_regressions_are_hard() {
        let sim = campaign("sim", &[cell(&[])]);
        // Two seeds' worth of drift on a run counter: tolerated.
        let noisy = campaign(
            "live",
            &[cell(&[
                ("detected", "8"),
                ("reconverged", "8"),
                ("detect_mean", "15.1"),
            ])],
        );
        let d = diff_reports(&sim, &noisy).unwrap();
        assert!(!d.divergences.is_empty());
        assert!(d.hard().is_empty(), "{}", d.render());

        // Detection collapsing on one substrate: hard.
        let broken = campaign("live", &[cell(&[("detected", "2"), ("detect_mean", "19")])]);
        let d = diff_reports(&sim, &broken).unwrap();
        assert!(!d.hard().is_empty(), "{}", d.render());
    }

    #[test]
    fn qualitative_flips_split_on_the_slack() {
        let sim = campaign("sim", &[cell(&[])]);
        // One unlucky seed claims a violation: borderline, a note.
        let one = campaign("live", &[cell(&[("violations_claimed", "1")])]);
        let d = diff_reports(&sim, &one).unwrap();
        assert!(d.hard().is_empty(), "{}", d.render());

        // A systematic violation pattern on one side only: hard.
        let many = campaign("live", &[cell(&[("violations_claimed", "3")])]);
        let d = diff_reports(&sim, &many).unwrap();
        assert!(!d.hard().is_empty(), "{}", d.render());
    }

    #[test]
    fn bounds_and_grid_must_match_exactly() {
        let sim = campaign("sim", &[cell(&[])]);
        let bound = campaign("live", &[cell(&[("corrected_bound", "23")])]);
        let d = diff_reports(&sim, &bound).unwrap();
        assert_eq!(d.hard().len(), 1, "{}", d.render());

        let grid = campaign("live", &[cell(&[("loss", "0.05")])]);
        let d = diff_reports(&sim, &grid).unwrap();
        assert!(!d.hard().is_empty(), "{}", d.render());

        let fewer = campaign("live", &[]);
        let d = diff_reports(&sim, &fewer).unwrap();
        assert!(!d.hard().is_empty(), "{}", d.render());
    }

    #[test]
    fn monitor_fields_are_optional_and_gate_on_the_story() {
        // Pre-monitor artifacts (no monitor fields at all) diff clean
        // against themselves — covered by identical_reports_diff_clean —
        // and against a monitored report they diverge hard on the
        // campaign-level flag.
        let plain = campaign("sim", &[cell(&[])]);
        let monitored = campaign("live", &[cell(&[])])
            .replace("\"seeds\":10,", "\"seeds\":10,\"monitor\":true,");
        let d = diff_reports(&plain, &monitored).unwrap();
        assert!(
            d.hard().iter().any(|x| x.field == "monitor"),
            "{}",
            d.render()
        );

        // Same grid, monitored on both sides: R1 firing on one substrate
        // only is the protocol story — hard.
        let mon = |r1: &str, clean: &str, first: &str| {
            campaign(
                "sim",
                &[cell(&[]).replace(
                    "\"stale_admitted\":0",
                    &format!(
                        "\"stale_admitted\":0,\"monitor_runs\":30,\
                             \"monitor_clean\":{clean},\"monitor_r1\":{r1},\
                             \"monitor_r2\":0,\"monitor_r3\":0,\
                             \"monitor_first\":{first}"
                    ),
                )],
            )
        };
        let firing = mon("10", "20", "1017");
        let quiet = mon("0", "30", "null");
        let d = diff_reports(&firing, &quiet).unwrap();
        assert!(
            d.hard().iter().any(|x| x.field == "monitor_r1 (flag)"),
            "{}",
            d.render()
        );
        // Both firing, timestamps a few ticks apart: a note.
        let close = mon("10", "20", "1019");
        let d = diff_reports(&firing, &close).unwrap();
        assert!(d.hard().is_empty(), "{}", d.render());
        assert!(
            d.divergences.iter().any(|x| x.field == "monitor_first"),
            "{}",
            d.render()
        );
        // A wide gap in the earliest firing is still a note on lossy
        // cells (min over two loss realizations) but hard on lossless
        // ones, whose runs are deterministic.
        let far = mon("10", "20", "1100");
        let d = diff_reports(&firing, &far).unwrap();
        assert!(d.hard().is_empty(), "{}", d.render());
        let lossless = |s: &str| s.replace("\"loss\":0.02", "\"loss\":0");
        let d = diff_reports(&lossless(&firing), &lossless(&far)).unwrap();
        assert!(
            d.hard().iter().any(|x| x.field == "monitor_first"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn missing_population_skips_delay_comparison() {
        // Left never detects, right always does: the flag flip is the
        // finding; detect_mean 0.0-vs-14.0 must not also fire.
        let sim = campaign(
            "sim",
            &[cell(&[
                ("detected", "0"),
                ("detect_mean", "0.000"),
                ("detect_max", "0"),
            ])],
        );
        let live = campaign("live", &[cell(&[])]);
        let d = diff_reports(&sim, &live).unwrap();
        assert!(d.divergences.iter().all(|x| x.field != "detect_mean"));
        assert!(
            d.divergences.iter().any(|x| x.field == "detected (flag)"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn the_checked_in_artifact_pair_passes_the_gate() {
        // Calibration contract: the shipped sim/live artifacts must diff
        // to notes only. (Paths are relative to the workspace root.)
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let sim = std::fs::read_to_string(format!("{root}/artifacts/campaign_gm98_sim.json"));
        let live = std::fs::read_to_string(format!("{root}/artifacts/campaign_gm98_live.json"));
        let (Ok(sim), Ok(live)) = (sim, live) else {
            return; // artifacts not present in this checkout
        };
        let d = diff_reports(&sim, &live).unwrap();
        assert!(
            d.hard().is_empty(),
            "checked-in artifacts must pass: {}",
            d.render()
        );
        assert!(
            !d.divergences.is_empty(),
            "the two substrates are known to sample differently"
        );
    }
}
