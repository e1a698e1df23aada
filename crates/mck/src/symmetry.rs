//! Symmetry reduction: explore the quotient of a model under a
//! state-canonicalization function.
//!
//! Many models contain interchangeable components (e.g. the participants
//! of the static heartbeat protocol): states that differ only by a
//! permutation of those components are bisimilar, so it suffices to
//! explore one representative per orbit. The caller supplies a
//! [`Canonicalize`] mapping each state to its orbit representative; the
//! wrapper applies it to initial states and to every successor. The
//! successor is handed over by value, so a canonicalizer may rework it in
//! place; any `Fn(&S) -> S` is one too, at the price of the copy it
//! returns.
//!
//! **Soundness**: canonicalization must be induced by an automorphism of
//! the transition system — for every state `s` and enabled action `a`,
//! `canon(next(s, a))` must equal `canon(next(canon(s), a'))` for some
//! action `a'` of the representative. For fully interchangeable
//! components, sorting their sub-states achieves this. Reachability of
//! any *symmetric* predicate (one invariant under the same permutations)
//! is then preserved. The property is the caller's obligation;
//! [`verify_symmetric`](Symmetric::verify_symmetric) provides a random
//! self-check.
//!
//! # Example
//!
//! ```
//! use mck::{Model, bfs::Checker, symmetry::Symmetric};
//!
//! /// Two identical counters; only the multiset of values matters.
//! struct Pair;
//! impl Model for Pair {
//!     type State = (u8, u8);
//!     type Action = usize;
//!     fn initial_states(&self) -> Vec<(u8, u8)> { vec![(0, 0)] }
//!     fn actions(&self, s: &(u8, u8), out: &mut Vec<usize>) {
//!         if s.0 < 4 { out.push(0); }
//!         if s.1 < 4 { out.push(1); }
//!     }
//!     fn next_state(&self, s: &(u8, u8), a: &usize) -> Option<(u8, u8)> {
//!         Some(if *a == 0 { (s.0 + 1, s.1) } else { (s.0, s.1 + 1) })
//!     }
//! }
//!
//! let sym = Symmetric::new(&Pair, |s: &(u8, u8)| {
//!     (s.0.min(s.1), s.0.max(s.1)) // sort the pair
//! });
//! let full = Checker::new(&Pair).check_invariant(|_| true).stats().states;
//! let reduced = Checker::new(&sym).check_invariant(|_| true).stats().states;
//! assert_eq!(full, 25);
//! assert_eq!(reduced, 15); // multisets of two values in 0..=4
//! ```

use crate::model::Model;

/// Maps a state to the representative of its orbit.
pub trait Canonicalize<S> {
    /// The representative of `state`'s orbit. The state is the
    /// canonicalizer's to rework in place.
    fn canonicalize(&self, state: S) -> S;
}

/// A function from a borrowed state to its representative.
impl<S, F: Fn(&S) -> S> Canonicalize<S> for F {
    fn canonicalize(&self, state: S) -> S {
        self(&state)
    }
}

/// A model explored modulo a canonicalization function.
pub struct Symmetric<'a, M: Model, C> {
    inner: &'a M,
    canonicalize: C,
}

impl<'a, M: Model, C: Canonicalize<M::State>> Symmetric<'a, M, C> {
    /// Wrap `inner`, exploring only canonical representatives.
    pub fn new(inner: &'a M, canonicalize: C) -> Self {
        Self {
            inner,
            canonicalize,
        }
    }

    /// The canonical representative of a state.
    pub fn canon(&self, s: M::State) -> M::State {
        self.canonicalize.canonicalize(s)
    }

    /// Random self-check of the soundness obligation: from `walks` random
    /// walks of length `steps`, verify that canonicalization is
    /// idempotent and that every successor of a canonical state has a
    /// counterpart (equal canonical form) among the successors of the
    /// original state and vice versa. Returns `false` if a discrepancy
    /// was found.
    pub fn verify_symmetric<R: rand::Rng>(&self, rng: &mut R, walks: usize, steps: usize) -> bool
    where
        M::State: Ord,
    {
        use crate::model::ModelExt;
        for _ in 0..walks {
            let path = crate::sim::random_walk(self.inner, rng, steps);
            for s in path.states() {
                let c = self.canon(s.clone());
                if self.canon(c.clone()) != c {
                    return false; // not idempotent
                }
                let mut succ_s: Vec<M::State> = self
                    .inner
                    .successors(&s)
                    .into_iter()
                    .map(|(_, t)| self.canon(t))
                    .collect();
                let mut succ_c: Vec<M::State> = self
                    .inner
                    .successors(&c)
                    .into_iter()
                    .map(|(_, t)| self.canon(t))
                    .collect();
                succ_s.sort();
                succ_s.dedup();
                succ_c.sort();
                succ_c.dedup();
                if succ_s != succ_c {
                    return false; // orbits diverge
                }
            }
        }
        true
    }
}

impl<M: Model, C: Canonicalize<M::State>> Model for Symmetric<'_, M, C> {
    type State = M::State;
    type Action = M::Action;

    fn initial_states(&self) -> Vec<Self::State> {
        self.inner
            .initial_states()
            .into_iter()
            .map(|s| self.canon(s))
            .collect()
    }

    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        self.inner.actions(state, out);
    }

    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        self.inner.next_state(state, action).map(|s| self.canon(s))
    }

    fn format_action(&self, action: &Self::Action) -> String {
        self.inner.format_action(action)
    }

    fn format_state(&self, state: &Self::State) -> String {
        self.inner.format_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Checker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[derive(Debug)]
    struct Pair(u8);
    impl Model for Pair {
        type State = (u8, u8);
        type Action = usize;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<usize>) {
            if s.0 < self.0 {
                out.push(0);
            }
            if s.1 < self.0 {
                out.push(1);
            }
        }
        fn next_state(&self, s: &(u8, u8), a: &usize) -> Option<(u8, u8)> {
            Some(if *a == 0 {
                (s.0 + 1, s.1)
            } else {
                (s.0, s.1 + 1)
            })
        }
    }

    fn sort_pair(s: &(u8, u8)) -> (u8, u8) {
        (s.0.min(s.1), s.0.max(s.1))
    }

    #[test]
    fn quotient_is_smaller_and_sound() {
        let m = Pair(5);
        let full = Checker::new(&m).check_invariant(|_| true).stats().states;
        let sym = Symmetric::new(&m, sort_pair);
        let reduced = Checker::new(&sym).check_invariant(|_| true).stats().states;
        assert_eq!(full, 36);
        assert_eq!(reduced, 21); // multisets {(i,j) : i <= j}
    }

    /// The same quotient, handed each state by value.
    struct SortInPlace;
    impl Canonicalize<(u8, u8)> for SortInPlace {
        fn canonicalize(&self, (a, b): (u8, u8)) -> (u8, u8) {
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        }
    }

    #[test]
    fn a_by_value_canonicalizer_explores_the_same_quotient() {
        let m = Pair(5);
        let by_ref = Symmetric::new(&m, sort_pair);
        let by_value = Symmetric::new(&m, SortInPlace);
        let a = Checker::new(&by_ref).check_invariant(|_| true).stats();
        let b = Checker::new(&by_value).check_invariant(|_| true).stats();
        assert_eq!(a, b);
        assert_eq!(b.states, 21);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(by_value.verify_symmetric(&mut rng, 10, 20));
    }

    #[test]
    fn symmetric_predicates_agree() {
        let m = Pair(5);
        let sym = Symmetric::new(&m, sort_pair);
        // "some counter reaches 5 while the other is 0" is symmetric
        let goal = |s: &(u8, u8)| (s.0 == 5 && s.1 == 0) || (s.0 == 0 && s.1 == 5);
        let full = Checker::new(&m).find_state(goal);
        let red = Checker::new(&sym).find_state(goal);
        assert_eq!(full.is_some(), red.is_some());
        assert_eq!(full.unwrap().len(), red.unwrap().len());
    }

    #[test]
    fn self_check_passes_for_true_symmetry() {
        let m = Pair(4);
        let sym = Symmetric::new(&m, sort_pair);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sym.verify_symmetric(&mut rng, 10, 20));
    }

    #[test]
    fn self_check_catches_bogus_canonicalization() {
        let m = Pair(4);
        // Collapsing everything to (0,0) is *not* an automorphism quotient.
        let bogus = Symmetric::new(&m, |_s: &(u8, u8)| (0, 0));
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!bogus.verify_symmetric(&mut rng, 10, 20));
    }

    #[test]
    fn identity_canonicalization_changes_nothing() {
        let m = Pair(4);
        let id = Symmetric::new(&m, |s: &(u8, u8)| *s);
        let full = Checker::new(&m).check_invariant(|_| true).stats();
        let same = Checker::new(&id).check_invariant(|_| true).stats();
        assert_eq!(full.states, same.states);
        assert_eq!(full.transitions, same.transitions);
    }
}
