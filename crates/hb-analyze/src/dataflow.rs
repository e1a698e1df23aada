//! The dataflow report: proven variable ranges and symmetry verdicts
//! for every protocol machine.
//!
//! This is the user-facing surface of `hb_core::dataflow`: for each of
//! the 72 IRs ([`crate::all_machines`]) it runs the interval/parity
//! fixpoint under that machine's [`Concretization`] and attaches the
//! static symmetry certificate. Two consumers depend on the same
//! numbers:
//!
//! * `hb_verify::packed::HbCodec` sizes its bit fields from the proven
//!   ranges — the report makes the widths auditable (`bits` column);
//! * `hb_verify::symmetry::certified_canonical` gates the O(n log n)
//!   sort-key quotient on the certificate — the report names the
//!   counterexample transition for every refused machine.
//!
//! The analysis runs under the default checker trigger set
//! ([`CHECKER_TRIGGERS`]): unless a model opts into §7 rejoins
//! (`HbModel::rejoin_cap`), `Internal` revive steps never fire in the
//! model checker, which is exactly what pins the epoch variables to
//! zero-width fields.

use hb_core::dataflow::{
    analyze, symmetry_certificate, Concretization, Interval, SymmetryVerdict, CHECKER_TRIGGERS,
};
use hb_core::describe::DescribeMachine;
use hb_core::{CoordSpec, FixLevel, Params, RespSpec, Variant};
use hb_member::describe::member_concretization;
use hb_member::MemberSpec;

/// One machine's analysis summary.
#[derive(Clone, Debug)]
pub struct MachineReport {
    /// Machine identifier (`role/variant/fix`).
    pub machine: String,
    /// Machine-wide proven range and packed bit width per variable,
    /// in declaration order.
    pub ranges: Vec<VarRange>,
    /// Control states the checker trigger set cannot reach.
    pub unreachable: Vec<&'static str>,
    /// The static interchangeability certificate.
    pub verdict: SymmetryVerdict,
}

/// A proven range for one declared variable.
#[derive(Clone, Copy, Debug)]
pub struct VarRange {
    /// Variable name.
    pub var: &'static str,
    /// Machine-wide interval hull.
    pub range: Interval,
    /// Bits a packed encoding needs for this variable.
    pub bits: u32,
}

impl MachineReport {
    /// Total packed bits across all declared variables.
    pub fn total_bits(&self) -> u32 {
        self.ranges.iter().map(|r| r.bits).sum()
    }
}

fn report(
    machine: String,
    ir: &hb_core::describe::MachineIr,
    conc: &Concretization,
) -> MachineReport {
    let a = analyze(ir, conc, &CHECKER_TRIGGERS);
    let ranges = ir
        .vars
        .iter()
        .map(|decl| {
            // A variable the machine declares but the analysis never
            // saw written stays at its initial interval.
            let range = a
                .range(decl.name)
                .unwrap_or_else(|| conc.initial(decl.name));
            VarRange {
                var: decl.name,
                range,
                bits: range.bits(),
            }
        })
        .collect();
    MachineReport {
        machine,
        ranges,
        unreachable: a.unreachable,
        verdict: symmetry_certificate(ir),
    }
}

/// Analyze all 72 machines, in [`crate::all_machines`] order.
pub fn dataflow_report() -> Vec<MachineReport> {
    let p = Params::new(1, 10).expect("valid params");
    let mut out = Vec::new();
    for v in Variant::ALL {
        for fix in FixLevel::ALL {
            let cs = CoordSpec::new(v, p, 1, fix);
            out.push(report(
                cs.describe().name(),
                &cs.describe(),
                &Concretization::coordinator(&cs),
            ));
            let rs = RespSpec::new(v, p, fix);
            out.push(report(
                rs.describe().name(),
                &rs.describe(),
                &Concretization::responder(&rs),
            ));
            let ms = MemberSpec::new(v, p, fix);
            out.push(report(
                ms.describe().name(),
                &ms.describe(),
                &member_concretization(&ms),
            ));
        }
    }
    out.sort_by(|a, b| a.machine.cmp(&b.machine));
    out
}

/// Count `(certified, refused)` machines.
pub fn verdict_counts(reports: &[MachineReport]) -> (usize, usize) {
    let certified = reports.iter().filter(|r| r.verdict.is_certified()).count();
    (certified, reports.len() - certified)
}

/// Render the report for the CLI: one block per machine with the
/// symmetry verdict and the proven ranges, then a verdict summary.
pub fn render_dataflow(reports: &[MachineReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!("{}\n", r.machine));
        match r.verdict {
            SymmetryVerdict::Certified => {
                out.push_str("  symmetry: certified (sort-key quotient admissible)\n");
            }
            SymmetryVerdict::Refused { transition, reason } => {
                out.push_str(&format!(
                    "  symmetry: refused — '{transition}' is rank-dependent ({reason})\n"
                ));
            }
        }
        for vr in &r.ranges {
            out.push_str(&format!(
                "  {:>16} ∈ [{}, {}]  ({} bit{})\n",
                vr.var,
                vr.range.lo,
                vr.range.hi,
                vr.bits,
                if vr.bits == 1 { "" } else { "s" },
            ));
        }
        if !r.unreachable.is_empty() {
            out.push_str(&format!(
                "  unreachable under checker triggers: {}\n",
                r.unreachable.join(", ")
            ));
        }
        out.push_str(&format!("  total packed: {} bits\n", r.total_bits()));
    }
    let (certified, refused) = verdict_counts(reports);
    out.push_str(&format!(
        "{certified} machine(s) certified interchangeable, {refused} refused, \
         of {} analyzed\n",
        reports.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_machine_gets_a_verdict_and_plain_roles_certify() {
        let reports = dataflow_report();
        assert_eq!(reports.len(), 72);
        let (certified, refused) = verdict_counts(&reports);
        assert_eq!(
            certified, 48,
            "both plain roles of all 24 variant×fix cells"
        );
        assert_eq!(refused, 24, "every member machine has a takeover");
        for r in &reports {
            let is_member = r.machine.starts_with("member/");
            assert_eq!(
                !r.verdict.is_certified(),
                is_member,
                "verdict mismatch on {}",
                r.machine
            );
            if let SymmetryVerdict::Refused { transition, .. } = r.verdict {
                assert!(
                    transition.starts_with("takeover"),
                    "{}: unexpected counterexample '{transition}'",
                    r.machine
                );
            }
        }
    }

    #[test]
    fn report_is_sorted_and_every_declared_var_has_a_range() {
        let reports = dataflow_report();
        let names: Vec<&String> = reports.iter().map(|r| &r.machine).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for r in &reports {
            assert!(!r.ranges.is_empty(), "{} declares no variables?", r.machine);
            for vr in &r.ranges {
                assert!(vr.range.lo <= vr.range.hi);
                assert!(vr.bits <= 32);
            }
        }
    }

    #[test]
    fn epochs_are_zero_width_under_checker_triggers() {
        // By default the checker never revives, so every epoch-kinded
        // variable is pinned at its initial point value — the packed encoding's
        // headline saving, asserted here at the report surface.
        let reports = dataflow_report();
        for r in reports
            .iter()
            .filter(|r| r.machine.starts_with("responder/"))
        {
            for vr in r.ranges.iter().filter(|vr| vr.var == "epoch") {
                assert_eq!(vr.bits, 0, "{}: epoch should be pinned", r.machine);
            }
        }
    }

    #[test]
    fn render_names_the_takeover_counterexample() {
        let reports = dataflow_report();
        let text = render_dataflow(&reports);
        assert!(text.contains("48 machine(s) certified"), "{text}");
        assert!(text.contains("24 refused"));
        assert!(text.contains("refused — 'takeover"));
        assert!(text.contains("certified (sort-key quotient admissible)"));
    }
}
