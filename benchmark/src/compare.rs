//! `--compare A.json B.json`: apply each end-to-end metric's bound to
//! two result files, one row per metric and workload.

use std::fmt::Write as _;

use accelerated_heartbeat::chaos::json::Value;

use crate::metrics::{self, Better};

/// How one metric on one workload fared from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// B is worse than A by more than the bound.
    Regressed,
    /// Within the bound, but on one side the best round stands further
    /// from the run's near quartile than the bound allows: too few
    /// undisturbed rounds to say what the program's own speed was.
    Unresolved,
    /// Every sample of B is better than every sample of A.
    Improved,
    /// Within the bound, and both best rounds are well supported.
    Unchanged,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
            Status::Improved => "improved",
            Status::Unchanged => "unchanged",
        }
    }
}

/// One side's figures for a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// The reported value (the run's best round).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Side {
    /// How far the best round stands from the quartile on its own side
    /// of the run — the spread that matters to a value taken from the
    /// fast end (the whole q1–q3 range mostly measures the neighbours).
    pub fn support(&self, better: Better) -> f64 {
        match better {
            Better::Higher => self.max - self.q3,
            Better::Lower => self.q1 - self.min,
        }
    }
}

/// Judge B against A for metric `m` on `workload`.
pub fn judge(m: &metrics::EndToEnd, workload: &str, a: Side, b: Side) -> Status {
    let allowance = m.allowance(workload, a.value);
    let (worse_by, b_clear_of_a) = match m.better {
        Better::Higher => (a.value - b.value, b.min > a.max),
        Better::Lower => (b.value - a.value, b.max < a.min),
    };
    if worse_by > allowance {
        Status::Regressed
    } else if b_clear_of_a {
        Status::Improved
    } else if a.support(m.better).max(b.support(m.better)) > allowance {
        Status::Unresolved
    } else {
        Status::Unchanged
    }
}

fn side(metric: &Value) -> Result<Side, String> {
    let f = |k: &str| -> Result<f64, String> {
        metric
            .field(k)
            .and_then(Value::as_f64)
            .map_err(|e| format!("{k}: {}", e.0))
    };
    Ok(Side {
        value: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
    })
}

/// The comparison table and its verdict counts.
pub struct Comparison {
    /// One row per metric and workload, with a heading.
    pub table: String,
    /// Rows that breached their bound.
    pub regressed: usize,
    /// Rows whose spread is wider than their bound.
    pub unresolved: usize,
}

/// Compare two results files (the text of each).
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let parse = |text: &str| Value::parse(text).map_err(|e| e.0);
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let workloads =
        |v: &Value| -> Result<Value, String> { v.field("workloads").cloned().map_err(|e| e.0) };
    let (a, b) = (workloads(&a)?, workloads(&b)?);
    let mut out = Comparison {
        table: String::new(),
        regressed: 0,
        unresolved: 0,
    };
    let _ = writeln!(
        out.table,
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>8} {:>9}  status",
        "workload", "metric", "A value", "B value", "change", "bound", "support"
    );
    for w in &metrics::WORKLOADS {
        let (Ok(wa), Ok(wb)) = (a.field(w.name), b.field(w.name)) else {
            continue;
        };
        for side_of in [wa, wb] {
            if side_of
                .field("failed")
                .and_then(Value::as_u64)
                .map_err(|e| e.0)?
                > 0
            {
                // A failed operation misses every bound.
                out.regressed += 1;
                let _ = writeln!(out.table, "{:<16} has failed operations: REGRESSED", w.name);
            }
        }
        let (ma, mb) = (
            wa.field("metrics").map_err(|e| e.0)?,
            wb.field("metrics").map_err(|e| e.0)?,
        );
        for m in metrics::END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let (Ok(va), Ok(vb)) = (ma.field(m.name), mb.field(m.name)) else {
                return Err(format!("{}: {} missing from a file", w.name, m.name));
            };
            let (sa, sb) = (side(va)?, side(vb)?);
            let status = judge(m, w.name, sa, sb);
            match status {
                Status::Regressed => out.regressed += 1,
                Status::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let rel = |x: f64| {
                if sa.value == 0.0 {
                    0.0
                } else {
                    100.0 * x / sa.value.abs()
                }
            };
            let _ = writeln!(
                out.table,
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>8.2}%  {}",
                w.name,
                m.name,
                sa.value,
                sb.value,
                rel(sb.value - sa.value),
                rel(m.allowance(w.name, sa.value)),
                rel(sa.support(m.better).max(sb.support(m.better))),
                status.as_str()
            );
        }
    }
    let _ = writeln!(
        out.table,
        "{} regressed, {} unresolved",
        out.regressed, out.unresolved
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Side {
        Side {
            value: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
        }
    }

    fn around(value: f64, half_iqr: f64, reach: f64) -> Side {
        Side {
            value,
            q1: value - half_iqr,
            q3: value + half_iqr,
            min: value - reach,
            max: value + reach,
        }
    }

    #[test]
    fn a_breach_is_a_regression_in_either_direction() {
        let rate = metrics::end_to_end("beats_per_s").unwrap(); // higher, 25 %
        assert_eq!(
            judge(rate, "sim_steady", flat(100.0), flat(74.0)),
            Status::Regressed
        );
        assert_eq!(
            judge(rate, "sim_steady", flat(100.0), flat(76.0)),
            Status::Unchanged
        );
        let secs = metrics::end_to_end("verdict_s").unwrap(); // lower, 25 %
        assert_eq!(
            judge(secs, "mck_scale", flat(2.0), flat(2.6)),
            Status::Regressed
        );
        assert_eq!(
            judge(secs, "mck_scale", flat(2.0), flat(1.0)),
            Status::Improved
        );
    }

    #[test]
    fn a_thin_fast_end_is_unresolved_not_unchanged() {
        let rate = metrics::end_to_end("beats_per_s").unwrap();
        let noisy = around(100.0, 15.0, 45.0); // max - q3 = 30 > bound 25
        assert_eq!(
            judge(rate, "sim_steady", noisy, around(101.0, 1.0, 2.0)),
            Status::Unresolved
        );
        let steady = around(100.0, 1.0, 2.0);
        assert_eq!(
            judge(rate, "sim_steady", steady, around(101.0, 1.0, 2.0)),
            Status::Unchanged
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(rate, "sim_steady", noisy, around(250.0, 15.0, 45.0)),
            Status::Improved
        );
    }

    #[test]
    fn simulated_metrics_may_not_move_at_all() {
        let detect = metrics::end_to_end("detect_ticks_max").unwrap();
        assert_eq!(
            judge(detect, "sim_steady", flat(14.0), flat(14.0)),
            Status::Unchanged
        );
        assert_eq!(
            judge(detect, "sim_steady", flat(14.0), flat(15.0)),
            Status::Regressed
        );
        assert_eq!(
            judge(detect, "live_udp", flat(14.0), flat(15.0)),
            Status::Unchanged
        );
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let file = |rate: f64| {
            format!(
                "{{\"workloads\":{{\"mck_scale\":{{\"failed\":0,\"metrics\":{{{}}}}}}}}}",
                metrics::END_TO_END
                    .iter()
                    .filter(|m| m.applies_to("mck_scale"))
                    .map(|m| {
                        let v = if m.name == "states_per_s" { rate } else { 1.0 };
                        format!(
                            "\"{}\":{{\"value\":{v},\"q1\":{v},\"q3\":{v},\"min\":{v},\"max\":{v}}}",
                            m.name
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let same = compare(&file(100.0), &file(100.0)).unwrap();
        assert_eq!((same.regressed, same.unresolved), (0, 0));
        let slower = compare(&file(100.0), &file(70.0)).unwrap();
        assert_eq!(slower.regressed, 1);
        assert!(slower.table.contains("REGRESSED"));
        assert!(compare("{}", "{}").is_err());
    }
}
