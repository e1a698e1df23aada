//! Rendering an [`Outcome`]: the table a person reads, the one-line
//! result the regression driver reads, and the result files
//! `--compare` reads.

use std::fmt::Write as _;

use crate::harness::Outcome;
use crate::metrics::{self, UNIVERSAL};
use crate::stats::Summary;

/// A float as JSON: every digit, and never `NaN`/`inf` (not JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn summary_json(unit: &str, s: &Summary) -> String {
    format!(
        "{{\"unit\":\"{unit}\",\"value\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}}}",
        num(s.value),
        num(s.median),
        num(s.q1),
        num(s.q3),
        num(s.min),
        num(s.max),
        s.n
    )
}

impl Outcome {
    /// `"name":{"value":..,"unit":..}` per per-layer metric.
    fn layer_entries(&self) -> Vec<String> {
        self.per_layer
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(*v),
                    m.unit
                )
            })
            .collect()
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — the universal end-to-end
    /// metrics for an untraced run, every per-layer metric for a traced
    /// one.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            self.layer_entries()
        } else {
            UNIVERSAL
                .iter()
                .filter_map(|u| self.end_to_end.iter().find(|(m, _)| m.name == *u))
                .map(|(m, s)| {
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        m.name,
                        num(s.value),
                        m.unit
                    )
                })
                .collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The full result, one JSON object: what `result_<workload>.json`
    /// and `layers_<workload>.json` hold.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            self.layer_entries()
        } else {
            self.end_to_end
                .iter()
                .map(|(m, s)| format!("\"{}\":{}", m.name, summary_json(m.unit, s)))
                .collect()
        };
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", accelerated_heartbeat::chaos::json::escape(f)))
            .collect();
        format!(
            "{{\"record\":\"workload_result\",\"workload\":\"{}\",\"seed\":{},\"smoke\":{},\
             \"traced\":{},\"rounds\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"failures\":[{}],\n\"metrics\":{{\n{}\n}}}}\n",
            self.workload,
            self.options.seed,
            self.options.smoke,
            self.traced,
            self.rounds,
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(","),
            metrics.join(",\n")
        )
    }

    /// Every metric by name with its unit, for a person.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {}{} rounds{}) ==",
            self.workload,
            self.options.seed,
            if self.traced { "traced, " } else { "" },
            self.rounds,
            if self.options.smoke { ", smoke" } else { "" },
        );
        if self.workload == "live_udp" && !self.traced {
            let _ = writeln!(
                out,
                "   (datagrams cross the host loopback interface, not a real link)"
            );
        }
        if self.traced {
            for (m, v) in &self.per_layer {
                // The two trace figures belong to this workload alone.
                let shown = if m.name.starts_with("trace.") {
                    format!("{}.{}", m.name, self.workload)
                } else {
                    m.name.to_string()
                };
                let _ = writeln!(out, "{shown:<40} {:>16} {}", sig(*v), m.unit);
            }
        } else {
            let _ = writeln!(
                out,
                "{:<20} {:>14} {:<7} {:>14} {:>9} {:>14} {:>14} {:>3}  time",
                "metric", "value", "unit", "median", "iqr/med", "min", "max", "n"
            );
            for (m, s) in &self.end_to_end {
                let _ = writeln!(
                    out,
                    "{:<20} {:>14} {:<7} {:>14} {:>8.2}% {:>14} {:>14} {:>3}  {}",
                    m.name,
                    sig(s.value),
                    m.unit,
                    sig(s.median),
                    100.0 * s.spread(),
                    sig(s.min),
                    sig(s.max),
                    s.n,
                    m.clock.as_str()
                );
            }
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        out
    }
}

/// What the benchmark declares: the workloads with their reasons, the
/// end-to-end metrics with their bounds, and the per-layer metrics with
/// the end-to-end metric each should move.
pub fn declaration() -> String {
    let mut out = String::from("workloads\n");
    for w in &metrics::WORKLOADS {
        let _ = writeln!(out, "  {:<16} {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics (workloads; unit, better; time; bound)\n");
    for m in &metrics::END_TO_END {
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(", ")
        };
        let _ = writeln!(
            out,
            "  {:<18} {on}; {}, {}; {}; {}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.clock.as_str(),
            100.0 * m.bound
        );
    }
    out.push_str("\nper-layer metrics (unit, better) -> should move\n");
    for m in &metrics::PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<30} ({}, {}) -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

/// Six significant digits, no exponent for everyday magnitudes.
fn sig(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1e5 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// Merge per-workload result objects into one results file.
pub fn merge(
    seed: u64,
    smoke: bool,
    results: &[(String, String)],
    layers: &[(String, String)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let object = |entries: &[(String, String)]| {
        entries
            .iter()
            .map(|(w, json)| format!("\"{w}\":{}", json.trim_end()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\"record\":\"benchmark_results\",\"seed\":{seed},\"smoke\":{smoke},\"nproc\":{nproc},\n\
         \"workloads\":{{\n{}\n}},\n\"layers\":{{\n{}\n}}}}\n",
        object(results),
        object(layers)
    )
}
