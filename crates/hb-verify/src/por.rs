//! Independence-driven partial-order reduction for [`HbModel`].
//!
//! The composed heartbeat model interleaves deliveries, losses, timeouts
//! and ticks; most of those interleavings are equivalent up to
//! commutation. This module instantiates the generic ample-set wrapper
//! of [`mck::por`] with an oracle whose independence relation is
//! *derived from the machines' own transition-system IR*
//! ([`hb_core::describe`]): which transition classes send, and to whom,
//! comes from [`SendProfile`], not from hand-maintained tables.
//!
//! # The ample-set rules
//!
//! Rules 0 and 1 lean on crashes and leaves being *final*, which holds
//! exactly when the model's [`HbModel::rejoin_cap`] is 0 (the default).
//! The oracle reads the cap and skips both rules when participants may
//! rejoin; Rule 2's argument never mentions finality and stays on.
//!
//! **Rule 0 — absorbed-predicate chains.** Each requirement predicate
//! has a *sticky-false* region: a set of states closed under all
//! transitions in which the predicate is false and can never become
//! true again. Under R1 that is any state whose coordinator is inactive
//! (`coord.status` never returns to `Active` and `monitor_error` — which
//! conjoins coordinator liveness — is permanently false), and any state
//! in which every ghost monitor is disarmed while its responder is dead
//! and no re-arming beat (a `flag = true` message from that responder
//! to `p[0]`) is in flight: dead responders never send, and arming
//! happens only on such a delivery. Under R3 it is any state with an
//! inactive responder, which permanently falsifies the "all participants
//! still active" premise. No full-model path through a sticky-false region
//! reaches a violation (the region is closed), so the standard
//! ample-set construction never needs to preserve interleavings inside
//! it: the oracle explores a single arbitrary successor per state,
//! collapsing the whole subtree to a chain. This is where the bulk of
//! the R1 state mass goes — everything downstream of a coordinator
//! crash — and most of the R3 mass of the expanding/dynamic variants,
//! downstream of a spurious participant self-inactivation.
//!
//! **Rule 1 — dead-destination groups.** The IR proves that a beat
//! delivered to an inactive or departed responder, and a leave
//! acknowledgement delivered to any responder, have an *empty write
//! footprint*: `on_beat` refuses them all without touching local state,
//! no reply is sent, and (crashes and leaves being final) a down
//! responder never acts again. Resolving such a message — any of
//! its deliveries, or its loss — therefore writes nothing but the
//! channel itself and the ghost `lost` flag, neither of which any
//! requirement predicate reads. The whole group commutes with every
//! other action *including the global tick*, so it is ample in any
//! state where it is enabled: the entire (in-flight × time) product of
//! a message bound for a dead process collapses to immediate
//! resolution. This is where the bulk of the R1 state mass goes — the
//! post-crash tail in which the coordinator keeps (re-)broadcasting to
//! a crashed participant.
//!
//! **Rule 2 — urgent delivery groups**: all enabled
//! actions on one in-flight message `m` with `budget == 0` (its
//! [`Deliver`](HbAction::Deliver) actions, plus [`Lose`](HbAction::Lose)
//! when loss is on). Such a group is the ample set iff every *other*
//! enabled action `β` is independent of it:
//!
//! * `β` does not run on `m.dst` (process-disjointness), and
//! * `β` cannot send a message to `m.dst` (so no action dependent on
//!   the group can fire before it — condition C1; the send targets come
//!   from the IR's [`SendProfile`]), and
//! * the group is invisible to the checked predicate (C2): deliveries
//!   never write a status field, and deliveries to the coordinator are
//!   excluded whenever ghost R1 monitors are attached.
//!
//! Soundness of C1 leans on urgency: while `m` has budget 0 the global
//! tick is disabled, so no *new* timer can fire before the group
//! resolves, and any message created after the candidate state is
//! causally behind the group. The cycle proviso (C3) holds because
//! zero-time action cycles are impossible (every delivery chain within
//! an instant is finite, timeouts re-arm only across ticks), so every
//! cycle of the graph crosses a tick — and tick-enabled states have no
//! urgent message, hence are always fully expanded.
//!
//! These arguments are checked empirically: `hb-analyze` re-runs every
//! Table 1/Table 2 cell with and without reduction and insists on
//! identical verdicts (`por_cross_check`), and a workspace proptest does
//! the same on random small parameters.

use hb_core::describe::{DescribeMachine, SendProfile};
use mck::por::AmpleOracle;
use mck::{CheckOutcome, Checker, Path};

use crate::model::{HbAction, HbModel, HbState, Msg};
use crate::requirements::{build_model, error_predicate, Requirement, Verdict};

/// Ample-set oracle for the composed heartbeat model.
pub struct HbAmpleOracle {
    /// The requirement being checked — fixes which states are
    /// sticky-false (Rule 0) and what the predicate observes (C2).
    requirement: Requirement,
    /// R1 monitors observe deliveries to `p[0]`; when attached, those
    /// deliveries are visible and never form an ample set.
    observes_monitors: bool,
    /// Crashes and leaves are final (`rejoin_cap == 0`): Rules 0–1 apply.
    down_is_final: bool,
    coord: SendProfile,
    resp: SendProfile,
}

impl HbAmpleOracle {
    /// Build the oracle for `model`, deriving the send footprints from
    /// the machines' IR.
    pub fn new(model: &HbModel, requirement: Requirement) -> Self {
        Self {
            requirement,
            observes_monitors: model.monitor_bound_value().is_some(),
            down_is_final: model.rejoin_cap_value() == 0,
            coord: model.coord_spec().describe().send_profile(),
            resp: model.resp_spec().describe().send_profile(),
        }
    }

    /// Rule 0: whether `state` lies in the requirement's sticky-false
    /// region — the predicate is false here and in every state reachable
    /// from here, so the subtree needs no interleaving coverage at all.
    fn predicate_absorbed(&self, state: &HbState) -> bool {
        match self.requirement {
            Requirement::R1 => {
                if !self.observes_monitors {
                    return false;
                }
                if !state.coord.status.is_active() {
                    return true; // p[0] never restarts: its liveness is sticky
                }
                state.monitors.iter().enumerate().all(|(i, m)| {
                    !m.armed
                        && !state.resps[i].status.is_active()
                        && !state
                            .channel
                            .iter()
                            .any(|msg| msg.dst == 0 && msg.src == i + 1 && msg.hb.flag)
                })
            }
            // NvInactive is both the violation and absorbing, so a
            // sticky-false region would have to exclude every future
            // self-inactivation — not a static condition. R2 cells are
            // tiny; leave them fully expanded.
            Requirement::R2 => false,
            Requirement::R3 => state.resps.iter().any(|r| !r.status.is_active()),
        }
    }

    /// Whether enabled action `β` is independent of the delivery group
    /// on message `m` (same-message actions are inside the group and
    /// never reach here).
    fn independent_of_group(&self, beta: &HbAction, m: &Msg) -> bool {
        match beta {
            // A reduced state must not let time pass ahead of an urgent
            // delivery; urgency already disables Tick, but stay safe.
            HbAction::Tick => false,
            // Runs on p[0]; and its broadcast targets every participant.
            HbAction::CoordTimeout => m.dst != 0 && !self.coord.time_sends,
            // Runs on p; sends nothing.
            HbAction::RespWatchdog(p) | HbAction::Crash(p) | HbAction::Rejoin(p) => *p != m.dst,
            // Runs on p; its join beat targets p[0].
            HbAction::JoinSend(p) => *p != m.dst && !(self.resp.time_sends && m.dst == 0),
            // Another message's delivery: disjoint destination, and its
            // follow-up send (reply to p[0], or leave-ack back to the
            // leaver) must not target m.dst.
            HbAction::Deliver { msg: m2, .. } => {
                if m2.dst == m.dst {
                    return false;
                }
                let followup_hits_dst = if m2.dst == 0 {
                    !m2.hb.flag && self.coord.receive_false_sends && m2.src == m.dst
                } else {
                    m2.hb.flag && self.resp.receive_true_sends && m.dst == 0
                };
                !followup_hits_dst
            }
            // Loss of another message only writes the ghost `lost` flag.
            HbAction::Lose(_) => true,
        }
    }
}

impl HbAmpleOracle {
    /// Whether resolving `m` is statically a no-op on its recipient
    /// (given `down_is_final`): the destination responder is inactive or
    /// has left, or the message is a leave acknowledgement (`flag == false`), which
    /// `on_beat` discards unconditionally. In the IR these are exactly
    /// the receive transitions with an empty write footprint.
    fn dead_on_arrival(state: &HbState, m: &Msg) -> bool {
        if m.dst == 0 {
            return false; // deliveries at p[0] drive the R1 monitors
        }
        let r = &state.resps[m.dst - 1];
        !r.status.is_active() || r.left || !m.hb.flag
    }
}

impl AmpleOracle<HbModel> for HbAmpleOracle {
    fn ample(&self, state: &HbState, enabled: &[HbAction]) -> Option<Vec<usize>> {
        if enabled.len() < 2 {
            return None;
        }
        // Rule 0: inside a sticky-false region any single successor
        // represents the subtree — explore it as a chain.
        if self.down_is_final && self.predicate_absorbed(state) {
            return Some(vec![0]);
        }
        // Try each message as a candidate, in enabled order
        // (deterministic: the model emits deliveries in channel order).
        for (i, a) in enabled.iter().enumerate() {
            let HbAction::Deliver { msg, leave: false } = a else {
                continue;
            };
            // The group: every enabled action on this exact message.
            let in_group = |b: &HbAction| match b {
                HbAction::Deliver { msg: m2, .. } => m2 == msg,
                HbAction::Lose(m2) => m2 == msg,
                _ => false,
            };
            let group: Vec<usize> = (i..enabled.len())
                .filter(|&j| in_group(&enabled[j]))
                .collect();
            if group.len() == enabled.len() {
                continue; // not a proper subset — nothing to defer
            }
            // Rule 1: a message bound for a dead recipient commutes with
            // everything, tick included — always ample.
            if self.down_is_final && Self::dead_on_arrival(state, msg) {
                return Some(group);
            }
            // Rule 2: an urgent message whose group every outside action
            // is independent of.
            if msg.budget != 0 {
                continue;
            }
            if msg.dst == 0 && self.observes_monitors {
                continue; // visible to the R1 monitors (C2)
            }
            if enabled
                .iter()
                .enumerate()
                .filter(|&(j, _)| !group.contains(&j))
                .all(|(_, b)| self.independent_of_group(b, msg))
            {
                return Some(group);
            }
        }
        None
    }
}

/// [`crate::requirements::verify_with_n`] under ample-set reduction.
///
/// Explores the reduced graph instead of the full one; the verdict is
/// guaranteed equal by the C0–C3 argument above and double-checked by
/// `hb-analyze`'s cross-check gate. Stats report the *reduced*
/// exploration, which is the point: compare against the full run to
/// measure the savings.
pub fn verify_with_n_por(
    variant: hb_core::Variant,
    params: hb_core::Params,
    fix: hb_core::FixLevel,
    req: Requirement,
    n: usize,
) -> Verdict {
    let model = build_model(variant, params, fix, n, req);
    let reduced = mck::por::Reduced::new(&model, HbAmpleOracle::new(&model, req));
    let outcome = Checker::new(&reduced).check_invariant(|s| !error_predicate(&model, req)(s));
    let (holds, counterexample, stats) = match outcome {
        CheckOutcome::Holds(stats) => (true, None, stats),
        CheckOutcome::Violated { path, stats } => {
            // Re-key the path from the wrapper to the inner model (same
            // state and action types).
            let path =
                Path::<HbModel>::from_steps(path.initial_state().clone(), path.steps().to_vec());
            (false, Some(path), stats)
        }
        CheckOutcome::Incomplete(stats) => {
            unreachable!("unbounded check cannot be incomplete: {stats:?}")
        }
    };
    Verdict {
        variant,
        params,
        fix,
        requirement: req,
        holds,
        counterexample,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::verify_with_n;
    use hb_core::{FixLevel, Params, Variant};

    #[test]
    fn por_agrees_with_full_exploration_on_spot_cells() {
        let cells = [
            (Variant::Binary, 4, 10, FixLevel::Original, Requirement::R2),
            (Variant::Binary, 10, 10, FixLevel::Original, Requirement::R2),
            (Variant::Binary, 4, 10, FixLevel::Full, Requirement::R1),
            (
                Variant::Expanding,
                5,
                10,
                FixLevel::Original,
                Requirement::R3,
            ),
            (Variant::Dynamic, 4, 10, FixLevel::Full, Requirement::R2),
        ];
        for (v, tmin, tmax, fix, req) in cells {
            let p = Params::new(tmin, tmax).unwrap();
            let full = verify_with_n(v, p, fix, req, 1);
            let por = verify_with_n_por(v, p, fix, req, 1);
            assert_eq!(full.holds, por.holds, "{v:?}/{tmin}-{tmax}/{fix:?}/{req:?}");
            assert!(
                por.stats.states <= full.stats.states,
                "reduction must not grow the graph"
            );
        }
    }

    #[test]
    fn rejoin_cells_are_reduced_without_the_finality_rules() {
        // Crash → p[0] starves → rejoin puts every participant back up
        // next to an NV-inactive coordinator: an R3 violation that lies
        // *behind* a state with a down participant, i.e. inside what
        // Rule 0 would collapse to a chain were crashes final. The
        // oracle must notice they are not.
        let model = crate::model::rejoin_n2(FixLevel::Full);
        for req in [Requirement::R2, Requirement::R3] {
            let pred = |s: &HbState| !error_predicate(&model, req)(s);
            let full = Checker::new(&model).check_invariant(pred);
            let reduced = mck::por::Reduced::new(&model, HbAmpleOracle::new(&model, req));
            let por = Checker::new(&reduced).check_invariant(pred);
            assert!(!full.holds(), "{req}: reachable only through a rejoin");
            assert_eq!(full.holds(), por.holds(), "{req}");
            assert!(por.stats().states <= full.stats().states, "{req}");
        }
    }

    #[test]
    fn reduction_shrinks_a_fault_free_multi_participant_cell() {
        // With one participant the channel never holds two messages, so
        // there is nothing to commute; from two participants on, the
        // broadcast beats and their replies race, and the ample rule
        // collapses those interleavings.
        let p = Params::new(4, 10).unwrap();
        let full = verify_with_n(Variant::Static, p, FixLevel::Original, Requirement::R2, 2);
        let por = verify_with_n_por(Variant::Static, p, FixLevel::Original, Requirement::R2, 2);
        assert_eq!(full.holds, por.holds);
        assert!(
            por.stats.states < full.stats.states,
            "expected real reduction: full={} por={}",
            full.stats.states,
            por.stats.states
        );
    }
}
