//! Participant-permutation symmetry for the composed heartbeat models,
//! gated by the IR's static interchangeability certificate.
//!
//! In the static/expanding/dynamic protocols all participants run the
//! same code, so global states that differ only by a renaming of the
//! participants are bisimilar. Two canonicalization functions pick one
//! representative per orbit:
//!
//! * [`canonical`] — brute force over all `n!` permutations, the least
//!   permuted state in the derived `Ord`. Exact but exponential; kept as
//!   the cross-check oracle.
//! * [`canonical_sorted`] — `O(n log n)`: the participants are permuted
//!   into the order of their per-participant data (responder state, the
//!   coordinator's `rcvd`/`tm`/`jnd`/`left`/`min_epoch` slots, the ghost
//!   monitor, and the multiset of in-flight messages touching that
//!   participant), compared in place on the state. Because every message
//!   has the coordinator as one endpoint, that is the participant's
//!   *entire* slice of the global state, so participants that compare
//!   equal are literally interchangeable and the result is orbit-unique.
//!
//! The sorting shortcut is only sound when participants really are
//! interchangeable; that used to be a hand-waved obligation. It is now
//! discharged statically: [`certified_canonical`] consults
//! [`hb_core::dataflow::symmetry_certificate`] on both machines' IR and
//! *refuses the quotient at construction* — naming the offending
//! transition — for any machine with a rank-dependent transition (e.g.
//! the membership machines' `takeover`), or when the model's
//! per-participant fault switches are not uniform.
//!
//! ```
//! use hb_core::{Params, Variant, FixLevel};
//! use hb_verify::{HbModel, symmetry::certified_canonical};
//! use mck::{Checker, symmetry::Symmetric};
//!
//! let model = HbModel::new(Variant::Static, Params::new(1, 3).unwrap(), 2, FixLevel::Original);
//! let canon = certified_canonical(&model).expect("plain machines are certified");
//! let sym = Symmetric::new(&model, canon);
//! let full = Checker::new(&model).check_invariant(|_| true).stats().states;
//! let reduced = Checker::new(&sym).check_invariant(|_| true).stats().states;
//! assert!(reduced < full);
//! ```
//!
//! Only use the quotient with *symmetric* properties (invariant under the
//! same renaming) — R2 ("some participant NV-inactive"), R3, and the
//! liveness goal all qualify; "participant **2** specifically fails" does
//! not.

use std::cmp::Ordering;

use hb_core::dataflow::{symmetry_certificate, SymmetryVerdict};
use hb_core::describe::{DescribeMachine, Role};
use hb_core::Pid;

use crate::model::{HbModel, HbState, Msg};

fn permute(s: &HbState, perm: &[usize]) -> HbState {
    let n = perm.len();
    let mut out = s.clone();
    // perm[i] = index of the participant that moves to slot i.
    for (i, &j) in perm.iter().enumerate() {
        out.resps[i] = s.resps[j].clone();
        out.coord.rcvd[i] = s.coord.rcvd[j];
        out.coord.tm[i] = s.coord.tm[j];
        out.coord.jnd[i] = s.coord.jnd[j];
        out.coord.left[i] = s.coord.left[j];
        out.coord.min_epoch[i] = s.coord.min_epoch[j];
        if !s.monitors.is_empty() {
            out.monitors[i] = s.monitors[j];
        }
    }
    // relabel message endpoints: old pid j+1 becomes new pid i+1
    let mut new_pid = vec![0 as Pid; n + 1];
    for i in 0..n {
        new_pid[perm[i] + 1] = i + 1;
    }
    out.channel = s
        .channel
        .iter()
        .map(|m| Msg {
            src: if m.src == 0 { 0 } else { new_pid[m.src] },
            dst: if m.dst == 0 { 0 } else { new_pid[m.dst] },
            ..*m
        })
        .collect();
    out.channel.sort_unstable();
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// The canonical representative of `s` under participant permutation:
/// the least permuted state in the derived `Ord` on [`HbState`].
pub fn canonical(s: &HbState) -> HbState {
    let n = s.resps.len();
    if n <= 1 {
        return s.clone();
    }
    permutations(n)
        .into_iter()
        .map(|p| permute(s, &p))
        .min()
        .expect("at least the identity permutation exists")
}

/// Order participants `i` and `j` (0-based) of `s` by everything the
/// global state knows about each: its responder state, the coordinator's
/// slots for it, its ghost monitor, then its in-flight messages as
/// `(to_coord, hb, budget)`. Every message has `p[0]` as one endpoint, so
/// that entry loses nothing, and the sorted channel already yields a
/// participant's messages in that order (its inbound run, then its
/// outbound run). Two participants that compare equal have identical
/// slices of the global state — swapping them is the identity.
fn cmp_participants(s: &HbState, i: usize, j: usize) -> Ordering {
    let slots = |i: usize| {
        let c = &s.coord;
        let of_coord = (c.rcvd[i], c.tm[i], c.jnd[i], c.left[i], c.min_epoch[i]);
        (&s.resps[i], of_coord, s.monitors.get(i))
    };
    let msgs = |i: usize| {
        let touches = move |m: &&Msg| m.src == i + 1 || m.dst == i + 1;
        let entry = |m: &Msg| (m.dst == 0, m.hb, m.budget);
        s.channel.iter().filter(touches).map(entry)
    };
    slots(i).cmp(&slots(j)).then_with(|| msgs(i).cmp(msgs(j)))
}

/// The canonical representative of `s` in `O(n log n)`: participants
/// permuted into [`cmp_participants`] order (see the module docs for why
/// that order determines the orbit). Picks a (possibly) different
/// representative than [`canonical`], but the same *function* on each
/// orbit — which is all [`mck::symmetry::Symmetric`] needs. Nothing is
/// allocated beyond the returned state unless participants must move.
pub fn canonical_sorted(s: &HbState) -> HbState {
    debug_assert!(s.channel.is_sorted(), "HbState::channel is kept sorted");
    let n = s.resps.len();
    if (1..n).all(|i| cmp_participants(s, i - 1, i).is_le()) {
        return s.clone(); // already canonical
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| cmp_participants(s, i, j));
    permute(s, &order)
}

/// Why a model was refused the symmetric quotient.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymmetryRefusal {
    /// A machine transition consults a concrete rank: the IR certificate
    /// names it as the counterexample.
    RankDependent {
        /// Which of the two machines tripped the certificate.
        role: Role,
        /// The offending transition.
        transition: &'static str,
        /// The IR's explanation of the asymmetry.
        reason: &'static str,
    },
    /// The model's per-participant crash switches are not uniform, so
    /// renaming participants changes the enabled fault actions.
    NonUniformFaults,
}

impl std::fmt::Display for SymmetryRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetryRefusal::RankDependent {
                role,
                transition,
                reason,
            } => write!(
                f,
                "quotient refused: {role:?} transition `{transition}` is rank-dependent ({reason})"
            ),
            SymmetryRefusal::NonUniformFaults => write!(
                f,
                "quotient refused: per-participant fault switches are not uniform"
            ),
        }
    }
}

impl std::error::Error for SymmetryRefusal {}

/// The certificate-gated constructor for the fast canonicalizer.
///
/// Returns [`canonical_sorted`] iff the static symmetry certificate of
/// both machine IRs is [`SymmetryVerdict::Certified`] *and* the model's
/// participant fault switches are uniform; otherwise the refusal names
/// the counterexample transition. There is no fallback to brute force —
/// an uncertified machine gets no quotient at all, because the `n!`
/// search picks a representative just as unsoundly when participants
/// are genuinely distinguishable.
pub fn certified_canonical(model: &HbModel) -> Result<fn(&HbState) -> HbState, SymmetryRefusal> {
    for (role, verdict) in [
        (
            Role::Coordinator,
            symmetry_certificate(&model.coord_spec().describe()),
        ),
        (
            Role::Responder,
            symmetry_certificate(&model.resp_spec().describe()),
        ),
    ] {
        if let SymmetryVerdict::Refused { transition, reason } = verdict {
            return Err(SymmetryRefusal::RankDependent {
                role,
                transition,
                reason,
            });
        }
    }
    if !model.participant_faults_uniform() {
        return Err(SymmetryRefusal::NonUniformFaults);
    }
    Ok(canonical_sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::{build_model, error_predicate, Requirement};
    use hb_core::{FixLevel, Params, Variant};
    use mck::symmetry::Symmetric;
    use mck::Checker;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Everything the global state knows about one participant, owned:
    /// the sort key [`canonical_sorted`] built per participant before it
    /// compared in place, kept as the oracle for [`cmp_participants`].
    type ParticipantKey = (
        hb_core::RespState,
        bool,
        u32,
        bool,
        bool,
        u8,
        Option<crate::model::MonitorState>,
        Vec<(bool, hb_core::Heartbeat, u32)>,
    );

    fn participant_key(s: &HbState, i: usize) -> ParticipantKey {
        let pid = i + 1;
        let mut msgs: Vec<(bool, hb_core::Heartbeat, u32)> = s
            .channel
            .iter()
            .filter(|m| m.src == pid || m.dst == pid)
            .map(|m| (m.dst == 0, m.hb, m.budget))
            .collect();
        msgs.sort_unstable();
        (
            s.resps[i].clone(),
            s.coord.rcvd[i],
            s.coord.tm[i],
            s.coord.jnd[i],
            s.coord.left[i],
            s.coord.min_epoch[i],
            s.monitors.get(i).copied(),
            msgs,
        )
    }

    fn canonical_by_key(s: &HbState) -> HbState {
        let mut order: Vec<usize> = (0..s.resps.len()).collect();
        order.sort_by_cached_key(|&i| participant_key(s, i));
        permute(s, &order)
    }

    #[test]
    fn the_comparator_picks_the_key_sorts_representative() {
        let mut rng = StdRng::seed_from_u64(19);
        let (mut moved, mut epochs, mut leaves) = (0, false, false);
        let grid = [Variant::Static, Variant::Expanding, Variant::Dynamic]
            .into_iter()
            .flat_map(|v| [2, 3, 4, 8].map(|n| (v, n)));
        for (variant, n) in grid {
            // R1: monitors attached and loss on. One rejoin each, so epochs
            // and the epoch bar leave zero. With participant crashes on, a
            // random walk is mostly crashes and rejoins; with them off it
            // gets as far as joins, rounds and (dynamic) leaves.
            for crashes in [true, false] {
                let p = Params::new(2, 4).unwrap();
                let m = build_model(variant, p, FixLevel::Full, n, Requirement::R1)
                    .stagger_starts(true)
                    .allow_crashes(crashes)
                    .crashable(0, false)
                    .rejoin_cap(1);
                for _ in 0..2 {
                    for s in mck::sim::random_walk(&m, &mut rng, 150).states() {
                        let mut perm: Vec<usize> = (0..n).collect();
                        perm.shuffle(&mut rng);
                        for s in [permute(&s, &perm), s] {
                            let c = canonical_sorted(&s);
                            assert_eq!(c, canonical_by_key(&s), "{variant} n={n}");
                            moved += usize::from(c != s);
                            epochs |= s.coord.min_epoch.iter().any(|&e| e > 0);
                            leaves |= s.channel.iter().any(|m| !m.hb.flag);
                        }
                    }
                }
            }
        }
        assert!(moved > 1_000, "the walks must exercise the sort: {moved}");
        assert!(
            epochs && leaves,
            "epoch bars {epochs}, leave beats {leaves}"
        );
    }

    fn model(n: usize) -> crate::model::HbModel {
        build_model(
            Variant::Static,
            Params::new(1, 3).unwrap(),
            FixLevel::Original,
            n,
            Requirement::R2,
        )
    }

    #[test]
    fn canonicalization_is_idempotent_and_permutation_invariant() {
        let m = model(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let path = mck::sim::random_walk(&m, &mut rng, 50);
            for s in path.states() {
                let c = canonical(&s);
                assert_eq!(canonical(&c), c, "idempotent");
                let swapped = permute(&s, &[1, 0]);
                assert_eq!(canonical(&swapped), c, "orbit-invariant");
            }
        }
    }

    #[test]
    fn quotient_agrees_with_full_model_on_r2() {
        let m = model(2);
        let sym = Symmetric::new(&m, canonical);
        let pred = |s: &HbState| error_predicate(&m, Requirement::R2)(s);
        let full = Checker::new(&m).find_state(pred);
        let red = Checker::new(&sym).find_state(pred);
        assert_eq!(full.is_some(), red.is_some());
        if let (Some(f), Some(r)) = (full, red) {
            assert_eq!(f.len(), r.len(), "shortest violation depth must agree");
        }
    }

    #[test]
    fn quotient_is_strictly_smaller_with_two_participants() {
        let m = model(2);
        let sym = Symmetric::new(&m, canonical);
        let full = Checker::new(&m).check_invariant(|_| true).stats().states;
        let reduced = Checker::new(&sym).check_invariant(|_| true).stats().states;
        assert!(reduced < full, "no reduction: {reduced} vs {full} states");
    }

    #[test]
    fn sorted_canonicalization_matches_brute_force_orbits() {
        // `canonical_sorted` may pick a different representative than
        // the n! search, but it must be constant on each orbit and land
        // in the *same* orbit — checked by round-tripping through the
        // brute-force representative.
        let m = model(3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let path = mck::sim::random_walk(&m, &mut rng, 40);
            for s in path.states() {
                let c = canonical_sorted(&s);
                assert_eq!(canonical_sorted(&c), c, "idempotent");
                let swapped = permute(&s, &[2, 0, 1]);
                assert_eq!(canonical_sorted(&swapped), c, "orbit-invariant");
                assert_eq!(canonical(&c), canonical(&s), "same orbit as brute force");
            }
        }
    }

    #[test]
    fn sorted_quotient_agrees_with_brute_force_quotient_on_r2() {
        let m = model(2);
        let brute = Symmetric::new(&m, canonical);
        let sorted = Symmetric::new(&m, canonical_sorted);
        let pred = |s: &HbState| error_predicate(&m, Requirement::R2)(s);
        let b = Checker::new(&brute).find_state(pred);
        let s = Checker::new(&sorted).find_state(pred);
        assert_eq!(b.is_some(), s.is_some());
        if let (Some(b), Some(s)) = (b, s) {
            assert_eq!(b.len(), s.len(), "shortest violation depth must agree");
        }
        // The quotients are the same size: both functions pick exactly
        // one representative per orbit.
        let bs = Checker::new(&brute)
            .check_invariant(|_| true)
            .stats()
            .states;
        let ss = Checker::new(&sorted)
            .check_invariant(|_| true)
            .stats()
            .states;
        assert_eq!(bs, ss, "orbit counts must match");
    }

    #[test]
    fn certificate_admits_every_plain_machine() {
        for variant in Variant::ALL {
            let n = if variant.is_two_process() { 1 } else { 2 };
            let m =
                crate::model::HbModel::new(variant, Params::new(2, 4).unwrap(), n, FixLevel::Full);
            assert!(
                certified_canonical(&m).is_ok(),
                "{variant} should be certified"
            );
        }
    }

    #[test]
    fn certificate_refuses_non_uniform_fault_switches() {
        let m = crate::model::HbModel::new(
            Variant::Static,
            Params::new(2, 4).unwrap(),
            2,
            FixLevel::Full,
        )
        .crashable(1, false);
        let err = certified_canonical(&m).unwrap_err();
        assert_eq!(err, SymmetryRefusal::NonUniformFaults);
        assert!(err.to_string().contains("not uniform"));
    }

    #[test]
    fn staggered_starts_keep_the_quotient_sound() {
        let m = build_model(
            Variant::Static,
            Params::new(1, 3).unwrap(),
            FixLevel::Original,
            2,
            Requirement::R2,
        )
        .stagger_starts(true);
        let canon = certified_canonical(&m).unwrap();
        let sym = Symmetric::new(&m, canon);
        let pred = |s: &HbState| error_predicate(&m, Requirement::R2)(s);
        let full = Checker::new(&m).find_state(pred);
        let red = Checker::new(&sym).find_state(pred);
        assert_eq!(full.is_some(), red.is_some());
        let mut rng = StdRng::seed_from_u64(21);
        assert!(sym.verify_symmetric(&mut rng, 6, 25));
    }

    #[test]
    fn uniform_rejoin_cap_keeps_the_certificate_and_the_verdicts() {
        // The cap is one number for all participants, so renaming them
        // still commutes with every action, `Rejoin` included.
        let m = crate::model::rejoin_n2(FixLevel::Full);
        let sym = Symmetric::new(&m, certified_canonical(&m).expect("uniform cap"));
        // Violated (a rejoiner starves once p[0] has given up) …
        let r2 = |s: &HbState| error_predicate(&m, Requirement::R2)(s);
        let full = Checker::new(&m).find_state(r2).expect("reachable");
        let red = Checker::new(&sym).find_state(r2).expect("reachable");
        assert_eq!(full.len(), red.len(), "shortest violation depth must agree");
        // … and holding (the epoch bar admits no stale beat) verdicts.
        let no_stale = |s: &HbState| s.coord.stale_admitted == 0;
        let full = Checker::new(&m).check_invariant(no_stale);
        let red = Checker::new(&sym).check_invariant(no_stale);
        assert!(full.holds() && red.holds());
        let brute = Checker::new(&Symmetric::new(&m, canonical)).check_invariant(no_stale);
        assert_eq!(red.stats().states, brute.stats().states, "orbit counts");
        assert!(red.stats().states < full.stats().states);
        assert!(sym.verify_symmetric(&mut StdRng::seed_from_u64(15), 8, 40));
    }

    #[test]
    fn symmetry_self_check_passes() {
        let m = model(2);
        let sym = Symmetric::new(&m, canonical);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(sym.verify_symmetric(&mut rng, 8, 30));
    }

    #[test]
    fn three_participant_quotient_shrinks_substantially() {
        let m = model(3);
        let sym = Symmetric::new(&m, canonical);
        let full = Checker::new(&m)
            .max_states(400_000)
            .check_invariant(|_| true);
        let reduced = Checker::new(&sym)
            .max_states(400_000)
            .check_invariant(|_| true);
        // With 3! = 6 permutations the quotient approaches a 6x saving on
        // the participant-distinguishing portion of the space.
        assert!(reduced.stats().states * 2 < full.stats().states.max(1) * 3);
    }
}
