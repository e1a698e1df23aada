//! Lint findings: machine-readable JSON and the human report.

use hb_core::json::{self, ToJson};

/// The lint that produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lint {
    /// A time-triggered transition and a receive from the same control
    /// state are jointly enabled at an urgent-delivery instant, the
    /// receive writes state the timeout's decision reads, and the
    /// timeout clobbers the receive's writes or inactivates — the AM09
    /// §6 bug class.
    TimeoutReceiveOverlap,
    /// A control state no transition path can reach from the initial
    /// state.
    UnreachableState,
    /// A transition whose guard is self-contradictory and can never
    /// fire.
    DeadTransition,
    /// Two receive transitions from the same state, for the same
    /// environment input, with jointly satisfiable guards: dispatch is
    /// ambiguous.
    AmbiguousReceive,
    /// A transition writes an epoch variable without a monotone
    /// (RFC 1982 serial order) discipline.
    EpochNonMonotone,
    /// A transition's behaviour depends on the concrete rank of a
    /// participant ([`hb_core::describe::PidScope::Rank`]): the machine
    /// cannot be symmetry-certified and the quotient checker refuses
    /// it. Advisory — rank dependence is legitimate (deterministic
    /// coordinator takeover needs it) but costs the n! → n log n
    /// canonicalization speed-up, so it is surfaced, not denied.
    PidConcreteGuard,
}

impl Lint {
    /// Stable kebab-case identifier (JSON `lint` field).
    pub fn name(self) -> &'static str {
        match self {
            Lint::TimeoutReceiveOverlap => "timeout-receive-overlap",
            Lint::UnreachableState => "unreachable-state",
            Lint::DeadTransition => "dead-transition",
            Lint::AmbiguousReceive => "ambiguous-receive",
            Lint::EpochNonMonotone => "epoch-non-monotone",
            Lint::PidConcreteGuard => "pid-concrete-guard",
        }
    }

    /// Advisory lints inform without failing `--deny-findings`: they
    /// flag a cost (a forfeited optimization), not a defect.
    pub fn is_advisory(self) -> bool {
        matches!(self, Lint::PidConcreteGuard)
    }

    /// JSON `severity` field value.
    pub fn severity(self) -> &'static str {
        if self.is_advisory() {
            "advisory"
        } else {
            "error"
        }
    }
}

/// One finding of one lint on one machine.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Machine identifier (`role/variant/fix`).
    pub machine: String,
    /// Which lint fired.
    pub lint: Lint,
    /// The transition or state names involved.
    pub items: Vec<String>,
    /// One-sentence explanation.
    pub detail: String,
}

impl Finding {
    /// The finding as a single-line JSON object.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for Finding {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("machine", &self.machine)
                .field("lint", self.lint.name())
                .field("severity", self.lint.severity())
                .field("items", &self.items)
                .field("detail", &self.detail);
        });
    }
}

/// Sort findings into the stable report order: machine, then lint
/// name, then involved items. Lint order is by *name* (the public,
/// kebab-case identifier), not enum declaration order, so the JSON
/// stream stays stable if the enum is ever reordered.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.machine.as_str(), a.lint.name(), &a.items).cmp(&(
            b.machine.as_str(),
            b.lint.name(),
            &b.items,
        ))
    });
}

/// Render findings as a human report: one block per machine with
/// findings, plus a one-line summary.
pub fn render_human(findings: &[Finding], machines_checked: usize) -> String {
    let mut out = String::new();
    let mut last_machine = "";
    for f in findings {
        if f.machine != last_machine {
            out.push_str(&format!("{}\n", f.machine));
            last_machine = &f.machine;
        }
        out.push_str(&format!(
            "  [{}{}] {}: {}\n",
            f.lint.name(),
            if f.lint.is_advisory() {
                ", advisory"
            } else {
                ""
            },
            f.items.join(" / "),
            f.detail
        ));
    }
    let advisory = findings.iter().filter(|f| f.lint.is_advisory()).count();
    if advisory > 0 {
        out.push_str(&format!(
            "{} finding(s) ({} advisory) across {} machine(s) checked\n",
            findings.len(),
            advisory,
            machines_checked
        ));
    } else {
        out.push_str(&format!(
            "{} finding(s) across {} machine(s) checked\n",
            findings.len(),
            machines_checked
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_escaped() {
        let f = Finding {
            machine: "coordinator/binary/original".into(),
            lint: Lint::TimeoutReceiveOverlap,
            items: vec!["accelerate".into(), "register-beat".into()],
            detail: "a \"race\"".into(),
        };
        assert_eq!(
            f.to_json(),
            "{\"machine\":\"coordinator/binary/original\",\
             \"lint\":\"timeout-receive-overlap\",\
             \"severity\":\"error\",\
             \"items\":[\"accelerate\",\"register-beat\"],\
             \"detail\":\"a \\\"race\\\"\"}"
        );
    }

    #[test]
    fn only_the_rank_lint_is_advisory() {
        for lint in [
            Lint::TimeoutReceiveOverlap,
            Lint::UnreachableState,
            Lint::DeadTransition,
            Lint::AmbiguousReceive,
            Lint::EpochNonMonotone,
        ] {
            assert!(!lint.is_advisory());
            assert_eq!(lint.severity(), "error");
        }
        assert!(Lint::PidConcreteGuard.is_advisory());
        assert_eq!(Lint::PidConcreteGuard.severity(), "advisory");
    }

    #[test]
    fn sort_is_by_machine_then_lint_name_then_items() {
        let f = |m: &str, lint, item: &str| Finding {
            machine: m.into(),
            lint,
            items: vec![item.into()],
            detail: "d".into(),
        };
        let mut v = vec![
            f("b", Lint::DeadTransition, "z"),
            f("a", Lint::UnreachableState, "x"),
            f("a", Lint::AmbiguousReceive, "y"),
            f("a", Lint::AmbiguousReceive, "w"),
        ];
        sort_findings(&mut v);
        let keys: Vec<(String, &str, String)> = v
            .iter()
            .map(|f| (f.machine.clone(), f.lint.name(), f.items[0].clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), "ambiguous-receive", "w".into()),
                ("a".into(), "ambiguous-receive", "y".into()),
                ("a".into(), "unreachable-state", "x".into()),
                ("b".into(), "dead-transition", "z".into()),
            ]
        );
    }

    #[test]
    fn human_report_groups_by_machine() {
        let f = |m: &str| Finding {
            machine: m.into(),
            lint: Lint::UnreachableState,
            items: vec!["x".into()],
            detail: "d".into(),
        };
        let r = render_human(&[f("a"), f("a"), f("b")], 4);
        assert_eq!(r.matches("a\n").count(), 1);
        assert!(r.contains("3 finding(s) across 4 machine(s)"));
    }
}
