//! Participant-permutation symmetry for the composed heartbeat models,
//! gated by the IR's static interchangeability certificate.
//!
//! In the static/expanding/dynamic protocols all participants run the
//! same code, so global states that differ only by a renaming of the
//! participants are bisimilar. One in-place permutation (participants
//! swapped cycle by cycle, the channel relabelled and re-sorted) serves
//! two ways of picking one representative per orbit:
//!
//! * [`canonical`] — brute force over all `n!` permutations, the least
//!   permuted state in the derived `Ord`. Exact but exponential; kept as
//!   the cross-check oracle.
//! * [`canonicalize`] — `O(n log n)`: the participants are permuted
//!   into the order of their per-participant data (responder state, the
//!   coordinator's `rcvd`/`tm`/`jnd`/`left`/`min_epoch` slots, the ghost
//!   monitor, and the multiset of in-flight messages touching that
//!   participant). Because every message has the coordinator as one
//!   endpoint, that is the participant's *entire* slice of the global
//!   state, so participants that compare equal are literally
//!   interchangeable and the result is orbit-unique. It takes the state
//!   by value and reworks it in place; [`canonical_sorted`] is the same
//!   function on a clone, for callers that hold a reference.
//!
//! The sorting shortcut is only sound when participants really are
//! interchangeable; that used to be a hand-waved obligation. It is now
//! discharged statically: [`certify`] consults
//! [`hb_core::dataflow::symmetry_certificate`] on both machines' IR and
//! *refuses the quotient at construction* — naming the offending
//! transition — for any machine with a rank-dependent transition (e.g.
//! the membership machines' `takeover`), or when the model's
//! per-participant fault switches are not uniform.
//!
//! ```
//! use hb_core::{Params, Variant, FixLevel};
//! use hb_verify::{HbModel, symmetry::certify};
//! use mck::{Checker, symmetry::Symmetric};
//!
//! let model = HbModel::new(Variant::Static, Params::new(1, 3).unwrap(), 2, FixLevel::Original);
//! let canon = certify(&model).expect("plain machines are certified");
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

use hb_core::dataflow::{symmetry_certificate, SymmetryVerdict};
use hb_core::describe::{DescribeMachine, Role};
use hb_core::{Heartbeat, Pid};
use mck::symmetry::Canonicalize;

use crate::model::{HbModel, HbState, Msg};

/// Rename participants in place: old pid `p` becomes `new_pid[p]`
/// (`new_pid[0] == 0`, the coordinator stays put). The channel is
/// relabelled and re-sorted; the per-participant fields are permuted
/// cycle by cycle, each swap sending one participant home, on slices
/// taken once. `new_pid` is left as the identity.
fn relabel(s: &mut HbState, new_pid: &mut [Pid]) {
    // Pids below 256 (`HbModel::new`) rename to pids below 256.
    for m in &mut s.channel {
        m.src = new_pid[usize::from(m.src)] as u8;
        m.dst = new_pid[usize::from(m.dst)] as u8;
    }
    s.channel.sort_unstable();
    let c = &mut s.coord;
    let (rcvd, tm, jnd) = (&mut *c.rcvd, &mut *c.tm, &mut *c.jnd);
    let (left, min_epoch) = (&mut *c.left, &mut *c.min_epoch);
    let (resps, monitors) = (&mut *s.resps, &mut *s.monitors);
    for i in 1..new_pid.len() {
        while new_pid[i] != i {
            let home = new_pid[i];
            let (a, b) = (i - 1, home - 1);
            resps.swap(a, b);
            rcvd.swap(a, b);
            tm.swap(a, b);
            jnd.swap(a, b);
            left.swap(a, b);
            min_epoch.swap(a, b);
            if !monitors.is_empty() {
                monitors.swap(a, b);
            }
            new_pid.swap(i, home);
        }
    }
}

/// `s` with participant `perm[i]` (0-based) moved into slot `i`.
fn permuted(s: &HbState, perm: &[usize]) -> HbState {
    let mut new_pid = vec![0; perm.len() + 1];
    for (i, &j) in perm.iter().enumerate() {
        new_pid[j + 1] = i + 1;
    }
    let mut out = s.clone();
    relabel(&mut out, &mut new_pid);
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
    permutations(s.resps.len())
        .iter()
        .map(|p| permuted(s, p))
        .min()
        .expect("at least the identity permutation exists")
}

/// Participants a canonicalization keys on the stack; a larger group (no
/// shipped cell has one) keys on the heap.
const INLINE: usize = 16;

/// One participant, keyed once. `key` is everything the global state
/// knows about it except its messages, at a fixed width whose order is
/// the derived order of `(responder state, (rcvd, tm, jnd, left,
/// min_epoch), monitor)`: every field at its full width, most significant
/// first. The monitor is present for all participants or for none, so its
/// `Option` tag is left out. `inbound` (from `p[0]`) and `outbound` (to
/// `p[0]`) are its runs of the sorted channel, as `(start, end)`.
#[derive(Clone, Copy, Default)]
struct Keyed {
    key: (u128, u64),
    inbound: (u32, u32),
    outbound: (u32, u32),
}

impl Keyed {
    /// The participant's messages as `(to_coord, hb, budget)`, in channel
    /// order: every message has `p[0]` as one endpoint, so that entry
    /// loses nothing, and the sorted channel holds all inbound runs (src
    /// 0) before any outbound run.
    fn messages<'c>(
        &self,
        channel: &'c [Msg],
    ) -> impl Iterator<Item = (bool, Heartbeat, u32)> + 'c {
        let run = |(start, end): (u32, u32)| &channel[start as usize..end as usize];
        let runs = run(self.inbound).iter().chain(run(self.outbound));
        runs.map(|m| (m.dst == 0, m.hb, m.budget))
    }
}

/// Key every participant of `s` into `keyed`, one each, and find their
/// message runs in one pass over the sorted channel.
fn key_all(s: &HbState, keyed: &mut [Keyed]) {
    let (n, c) = (keyed.len(), &s.coord);
    let (rcvd, tm, jnd, left) = (&c.rcvd[..n], &c.tm[..n], &c.jnd[..n], &c.left[..n]);
    let (min_epoch, monitors) = (&c.min_epoch[..n], s.monitors.get(..n));
    for (i, (r, k)) in s.resps.iter().zip(keyed.iter_mut()).enumerate() {
        // 2 + 32 + 32 + 1 + 1 + 8 responder bits, then 1 + 32: 109 bits.
        let resp = (r.status as u128) << 74
            | u128::from(r.waiting) << 42
            | u128::from(r.join_elapsed) << 10
            | u128::from(r.joined) << 9
            | u128::from(r.left) << 8
            | u128::from(r.epoch);
        let high = resp << 33 | u128::from(rcvd[i]) << 32 | u128::from(tm[i]);
        // 1 + 1 + 8 coordinator bits, then the monitor's 1 + 32: 43 bits.
        let monitor = monitors.map_or(0, |m| {
            u64::from(m[i].armed) << 32 | u64::from(m[i].since_last)
        });
        let low = u64::from(jnd[i]) << 42
            | u64::from(left[i]) << 41
            | u64::from(min_epoch[i]) << 33
            | monitor;
        k.key = (high, low);
    }
    for (at, m) in (0u32..).zip(&s.channel) {
        let k = &mut keyed[usize::from(m.src.max(m.dst)) - 1];
        let run = if m.src == 0 {
            &mut k.inbound
        } else {
            &mut k.outbound
        };
        if run.0 == run.1 {
            run.0 = at;
        }
        run.1 = at + 1;
    }
}

/// The canonical representative of `s` in `O(n log n)`, computed in
/// place: participants permuted into the order of everything the global
/// state knows about each — its key, then its messages, compared only
/// when keys tie. Two participants that compare equal have identical
/// slices of the global state, so swapping them is the identity and the
/// representative does not depend on how ties are broken. An
/// already-ordered state is returned as it came. Picks a (possibly)
/// different representative than [`canonical`], but the same *function*
/// on each orbit — which is all [`mck::symmetry::Symmetric`] needs.
pub fn canonicalize(s: HbState) -> HbState {
    let n = s.resps.len();
    if n <= INLINE {
        let mut keyed = [Keyed::default(); INLINE];
        let (mut order, mut new_pid) = ([0; INLINE], [0; INLINE + 1]);
        sort_participants(s, &mut keyed[..n], &mut order[..n], &mut new_pid[..=n])
    } else {
        let mut keyed = vec![Keyed::default(); n];
        sort_participants(s, &mut keyed, &mut vec![0; n], &mut vec![0; n + 1])
    }
}

/// [`canonicalize`] over buffers the caller provides: one entry per
/// participant, and one more in `new_pid`.
fn sort_participants(
    mut s: HbState,
    keyed: &mut [Keyed],
    order: &mut [usize],
    new_pid: &mut [Pid],
) -> HbState {
    debug_assert!(s.channel.is_sorted(), "HbState::channel is kept sorted");
    key_all(&s, keyed);
    let channel = &s.channel;
    let cmp = |&i: &usize, &j: &usize| {
        let (a, b) = (&keyed[i], &keyed[j]);
        a.key
            .cmp(&b.key)
            .then_with(|| a.messages(channel).cmp(b.messages(channel)))
    };
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    if order.is_sorted_by(|i, j| cmp(i, j).is_le()) {
        return s;
    }
    order.sort_unstable_by(cmp);
    for (i, &j) in order.iter().enumerate() {
        new_pid[j + 1] = i + 1;
    }
    relabel(&mut s, new_pid);
    s
}

/// [`canonicalize`] on a clone of `s`, for the seams that lend a state
/// rather than hand it over.
pub fn canonical_sorted(s: &HbState) -> HbState {
    canonicalize(s.clone())
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

/// Proof that a model's participants are interchangeable, and the
/// canonicalizer that proof admits: [`canonicalize`], handed each
/// successor by value. Only [`certify`] makes one.
#[derive(Clone, Copy, Debug)]
pub struct Certified(());

impl Canonicalize<HbState> for Certified {
    fn canonicalize(&self, state: HbState) -> HbState {
        canonicalize(state)
    }
}

/// The certificate gate for the fast canonicalizer.
///
/// Succeeds iff the static symmetry certificate of both machine IRs is
/// [`SymmetryVerdict::Certified`] *and* the model's participant fault
/// switches are uniform; otherwise the refusal names the counterexample
/// transition. There is no fallback to brute force — an uncertified
/// machine gets no quotient at all, because the `n!` search picks a
/// representative just as unsoundly when participants are genuinely
/// distinguishable.
pub fn certify(model: &HbModel) -> Result<Certified, SymmetryRefusal> {
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
    Ok(Certified(()))
}

/// [`certify`], handing out the by-reference [`canonical_sorted`]: one
/// clone per successor more than [`Certified`] costs.
pub fn certified_canonical(model: &HbModel) -> Result<fn(&HbState) -> HbState, SymmetryRefusal> {
    certify(model).map(|_| canonical_sorted as fn(&HbState) -> HbState)
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
    /// the sort key [`canonical_sorted`] once built per participant, kept
    /// as the oracle for its packed keys and message runs.
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
            .filter(|m| usize::from(m.src) == pid || usize::from(m.dst) == pid)
            .map(|m| (m.dst == 0, m.hb, m.budget))
            .collect();
        msgs.sort_unstable();
        (
            s.resps[i],
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
        permuted(s, &order)
    }

    #[test]
    fn the_comparator_picks_the_key_sorts_representative() {
        let mut rng = StdRng::seed_from_u64(19);
        let (mut moved, mut epochs, mut leaves) = (0, false, false);
        // `INLINE + 1` participants are keyed on the heap.
        let grid = [Variant::Static, Variant::Expanding, Variant::Dynamic]
            .into_iter()
            .flat_map(|v| [2, 3, 4, 8, INLINE + 1].map(|n| (v, n)));
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
                let by_value = certify(&m).expect("uniform switches");
                for _ in 0..2 {
                    for s in mck::sim::random_walk(&m, &mut rng, 150).states() {
                        let mut perm: Vec<usize> = (0..n).collect();
                        perm.shuffle(&mut rng);
                        for s in [permuted(&s, &perm), s] {
                            let c = canonical_sorted(&s);
                            assert_eq!(c, canonical_by_key(&s), "{variant} n={n}");
                            let in_place = by_value.canonicalize(s.clone());
                            assert_eq!(in_place, c, "{variant} n={n} by value");
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

    #[test]
    fn every_shuffle_hashes_equal_after_canonicalization() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hash_of = |s: &HbState| BuildHasherDefault::<DefaultHasher>::default().hash_one(s);
        let mut rng = StdRng::seed_from_u64(24);
        let p = Params::new(2, 4).unwrap();
        for variant in [Variant::Static, Variant::Expanding, Variant::Dynamic] {
            let n = 4;
            let m = build_model(variant, p, FixLevel::Full, n, Requirement::R1)
                .stagger_starts(true)
                .crashable(0, false)
                .rejoin_cap(1);
            for s in mck::sim::random_walk(&m, &mut rng, 200).states() {
                let c = canonical_sorted(&s);
                for _ in 0..4 {
                    let mut perm: Vec<usize> = (0..n).collect();
                    perm.shuffle(&mut rng);
                    let shuffled = canonical_sorted(&permuted(&s, &perm));
                    assert_eq!(shuffled, c, "{variant}");
                    assert_eq!(hash_of(&shuffled), hash_of(&c), "{variant}");
                }
            }
        }
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
                let swapped = permuted(&s, &[1, 0]);
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
                let swapped = permuted(&s, &[2, 0, 1]);
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
