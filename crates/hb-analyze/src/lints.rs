//! The lint catalog over [`MachineIr`].

use hb_core::describe::{
    satisfiable, Atom, DescribeMachine, MachineIr, PidScope, Transition, Trigger, VarKind,
};
use hb_core::{CoordSpec, FixLevel, Params, RespSpec, Variant};
use hb_member::MemberSpec;

use crate::findings::{sort_findings, Finding, Lint};

/// Every protocol machine: the two plain roles plus the `hb-member`
/// view-change machine × all six variants × all four fix levels
/// (72 IRs). The IR is parameter-free, so a single representative
/// `Params` is used for construction.
pub fn all_machines() -> Vec<MachineIr> {
    let p = Params::new(1, 10).expect("valid params");
    let mut out = Vec::new();
    for v in Variant::ALL {
        for fix in FixLevel::ALL {
            out.push(CoordSpec::new(v, p, 1, fix).describe());
            out.push(RespSpec::new(v, p, fix).describe());
            out.push(MemberSpec::new(v, p, fix).describe());
        }
    }
    out
}

/// Run every lint over one machine. Findings come back in the stable
/// (machine, lint name, items) report order.
pub fn lint_machine(ir: &MachineIr) -> Vec<Finding> {
    let mut out = Vec::new();
    timeout_receive_overlap(ir, &mut out);
    unreachable_states(ir, &mut out);
    dead_transitions(ir, &mut out);
    ambiguous_receive(ir, &mut out);
    epoch_monotonicity(ir, &mut out);
    pid_concrete_guard(ir, &mut out);
    sort_findings(&mut out);
    out
}

/// Run every lint over every machine. The result is globally sorted
/// by (machine, lint name, items) — construction order never leaks
/// into the JSON stream.
pub fn lint_all(machines: &[MachineIr]) -> Vec<Finding> {
    let mut out: Vec<Finding> = machines.iter().flat_map(lint_machine).collect();
    sort_findings(&mut out);
    out
}

fn intersects(a: &[&'static str], b: &[&'static str]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// The AM09 §6 bug shape. For every (time-triggered `t`, receive `r`)
/// pair from the same control state, flag when all of:
///
/// 1. *shared instant* — both guards are jointly satisfiable together
///    with [`Atom::UrgentMessagePending`]: a message delivery is due in
///    the very instant the timer fires (the §6.1 receive-priority side
///    condition [`Atom::NoUrgentMessage`] contradicts this, which is
///    exactly how the fixed machines escape);
/// 2. *decision dependence* — `r` writes state that `t` reads: the
///    receive would have changed what the timeout decides;
/// 3. *destruction* — `t` overwrites state `r` writes, or inactivates
///    (`status` write): firing the timeout first loses the receive's
///    evidence irrecoverably.
///
/// Condition 3 is what keeps benign time/receive pairs (a periodic
/// join-phase send racing its confirmation) out of the report.
fn timeout_receive_overlap(ir: &MachineIr, out: &mut Vec<Finding>) {
    for t in ir.transitions.iter().filter(|t| t.trigger == Trigger::Time) {
        for r in ir
            .transitions
            .iter()
            .filter(|r| r.trigger == Trigger::Receive && r.from == t.from)
        {
            let decision_dependent = intersects(&r.writes, &t.reads);
            let destructive = intersects(&t.writes, &r.writes) || t.writes.contains(&"status");
            if !(decision_dependent && destructive) {
                continue;
            }
            let mut joint: Vec<Atom> = t.guard.clone();
            joint.extend(r.guard.iter().copied());
            joint.push(Atom::UrgentMessagePending);
            if satisfiable(&joint) {
                out.push(Finding {
                    machine: ir.name(),
                    lint: Lint::TimeoutReceiveOverlap,
                    items: vec![t.name.into(), r.name.into()],
                    detail: format!(
                        "'{}' can fire in the same instant as the pending receive '{}' \
                         and destroys evidence the receive records",
                        t.name, r.name
                    ),
                });
            }
        }
    }
}

/// Control states unreachable from the initial state.
fn unreachable_states(ir: &MachineIr, out: &mut Vec<Finding>) {
    let mut reached = vec![ir.initial];
    let mut frontier = vec![ir.initial];
    while let Some(s) = frontier.pop() {
        for t in ir.transitions.iter().filter(|t| t.from == s) {
            if !reached.contains(&t.to) {
                reached.push(t.to);
                frontier.push(t.to);
            }
        }
    }
    for &s in ir.states.iter().filter(|s| !reached.contains(s)) {
        out.push(Finding {
            machine: ir.name(),
            lint: Lint::UnreachableState,
            items: vec![s.into()],
            detail: format!("no transition path reaches control state '{s}'"),
        });
    }
}

/// Transitions whose guard is self-contradictory.
fn dead_transitions(ir: &MachineIr, out: &mut Vec<Finding>) {
    for t in ir.transitions.iter().filter(|t| !satisfiable(&t.guard)) {
        out.push(Finding {
            machine: ir.name(),
            lint: Lint::DeadTransition,
            items: vec![t.name.into()],
            detail: format!("guard of '{}' is unsatisfiable; it can never fire", t.name),
        });
    }
}

/// Ambiguous receive dispatch: two receive transitions from the same
/// state, for the same environment input, with jointly satisfiable
/// guards. Distinct `input` labels mark intended environment branching
/// (the dynamic stay/leave decision) and are exempt.
fn ambiguous_receive(ir: &MachineIr, out: &mut Vec<Finding>) {
    let recv: Vec<&Transition> = ir
        .transitions
        .iter()
        .filter(|t| t.trigger == Trigger::Receive)
        .collect();
    for (i, a) in recv.iter().enumerate() {
        for b in &recv[i + 1..] {
            if a.from != b.from || a.input != b.input {
                continue;
            }
            let mut joint: Vec<Atom> = a.guard.clone();
            joint.extend(b.guard.iter().copied());
            if satisfiable(&joint) {
                out.push(Finding {
                    machine: ir.name(),
                    lint: Lint::AmbiguousReceive,
                    items: vec![a.name.into(), b.name.into()],
                    detail: format!(
                        "'{}' and '{}' can both match the same message",
                        a.name, b.name
                    ),
                });
            }
        }
    }
}

/// Epoch writes must follow a monotone discipline in RFC 1982 serial
/// order — otherwise a revived node can fall behind its own bar and be
/// filtered forever.
fn epoch_monotonicity(ir: &MachineIr, out: &mut Vec<Finding>) {
    for t in &ir.transitions {
        let writes_epoch = t
            .writes
            .iter()
            .any(|w| ir.var_kind(w) == Some(VarKind::Epoch));
        if writes_epoch && !t.epoch_effect.is_monotone() {
            out.push(Finding {
                machine: ir.name(),
                lint: Lint::EpochNonMonotone,
                items: vec![t.name.into()],
                detail: format!(
                    "'{}' writes an epoch variable without a serial-order-monotone effect",
                    t.name
                ),
            });
        }
    }
}

/// Advisory: transitions whose behaviour depends on a participant's
/// concrete rank ([`PidScope::Rank`]). These are the symmetry
/// certificate's counterexamples — `hb_verify::symmetry` refuses the
/// sort-key quotient for any machine with one, and there is no fallback:
/// the n! brute-force canonicalizer would pick a representative just as
/// unsoundly when participants are genuinely distinguishable, so a
/// refused model runs unreduced. Surfaced so the forfeited speed-up is a
/// conscious design cost, never a silent one.
fn pid_concrete_guard(ir: &MachineIr, out: &mut Vec<Finding>) {
    for t in &ir.transitions {
        if let PidScope::Rank(reason) = t.pid_scope {
            out.push(Finding {
                machine: ir.name(),
                lint: Lint::PidConcreteGuard,
                items: vec![t.name.into()],
                detail: format!("'{}' consults a concrete rank: {reason}", t.name),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::describe::{EpochEffect, Role, VarDecl};

    /// A minimal synthetic IR to drive the structural lints that the
    /// real machines (deliberately) never trip.
    fn synthetic() -> MachineIr {
        let t = |name, from, to, trigger, guard: Vec<Atom>| Transition {
            name,
            from,
            to,
            trigger,
            input: None,
            guard,
            reads: vec![],
            writes: vec![],
            consumes: matches!(trigger, Trigger::Receive),
            sends: vec![],
            epoch_effect: EpochEffect::None,
            updates: vec![],
            pid_scope: hb_core::describe::PidScope::Uniform,
        };
        MachineIr {
            role: Role::Responder,
            variant: Variant::Binary,
            fix: FixLevel::Original,
            states: vec!["a", "b", "orphan"],
            initial: "a",
            vars: vec![VarDecl {
                name: "epoch",
                kind: VarKind::Epoch,
            }],
            transitions: vec![
                t("go", "a", "b", Trigger::Internal, vec![]),
                t(
                    "never",
                    "a",
                    "b",
                    Trigger::Time,
                    vec![Atom::Joined, Atom::NotJoined],
                ),
                t(
                    "recv-one",
                    "b",
                    "b",
                    Trigger::Receive,
                    vec![Atom::MessagePending],
                ),
                t(
                    "recv-two",
                    "b",
                    "b",
                    Trigger::Receive,
                    vec![Atom::MessagePending, Atom::Active],
                ),
                Transition {
                    writes: vec!["epoch"],
                    epoch_effect: EpochEffect::Clobber,
                    ..t("clobber", "b", "a", Trigger::Internal, vec![])
                },
            ],
        }
    }

    #[test]
    fn synthetic_ir_trips_the_structural_lints() {
        let findings = lint_machine(&synthetic());
        let lints: Vec<Lint> = findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&Lint::UnreachableState), "{findings:?}");
        assert!(lints.contains(&Lint::DeadTransition), "{findings:?}");
        assert!(lints.contains(&Lint::AmbiguousReceive), "{findings:?}");
        assert!(lints.contains(&Lint::EpochNonMonotone), "{findings:?}");
        assert!(!lints.contains(&Lint::TimeoutReceiveOverlap));
    }

    #[test]
    fn distinct_inputs_exempt_intended_branching() {
        let mut ir = synthetic();
        for t in ir.transitions.iter_mut() {
            if t.name == "recv-one" {
                t.input = Some("stay");
            }
        }
        let findings = lint_machine(&ir);
        assert!(!findings.iter().any(|f| f.lint == Lint::AmbiguousReceive));
    }

    #[test]
    fn enumerates_all_72_machines() {
        assert_eq!(all_machines().len(), 72);
    }

    #[test]
    fn rank_scoped_transition_trips_the_advisory_lint() {
        let mut ir = synthetic();
        ir.transitions[0].pid_scope = hb_core::describe::PidScope::Rank("lowest rank wins");
        let findings = lint_machine(&ir);
        let f = findings
            .iter()
            .find(|f| f.lint == Lint::PidConcreteGuard)
            .expect("rank scope must be flagged");
        assert_eq!(f.items, vec!["go".to_string()]);
        assert!(f.detail.contains("lowest rank wins"));
    }

    #[test]
    fn only_member_machines_carry_the_rank_advisory() {
        for ir in all_machines() {
            let findings = lint_machine(&ir);
            let rank_findings: Vec<&Finding> = findings
                .iter()
                .filter(|f| f.lint == Lint::PidConcreteGuard)
                .collect();
            let is_member = ir.name().starts_with("member/");
            assert_eq!(
                !rank_findings.is_empty(),
                is_member,
                "rank advisory mismatch on {}",
                ir.name()
            );
            if is_member {
                assert!(
                    rank_findings
                        .iter()
                        .all(|f| f.items[0].starts_with("takeover")),
                    "unexpected rank-scoped transition on {}: {rank_findings:?}",
                    ir.name()
                );
            }
        }
    }

    #[test]
    fn lint_all_is_globally_sorted() {
        let findings = lint_all(&all_machines());
        let keys: Vec<(String, &str, Vec<String>)> = findings
            .iter()
            .map(|f| (f.machine.clone(), f.lint.name(), f.items.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
