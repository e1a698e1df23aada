//! Ample-set partial-order reduction as a model wrapper.
//!
//! Explicit-state exploration of asynchronous systems pays for every
//! interleaving of independent actions. Ample-set reduction (Peled)
//! explores, from each state, only a subset of the enabled actions — an
//! *ample set* — chosen so that every deferred interleaving is still
//! represented by some explored path. The checker itself is unchanged:
//! [`Reduced`] wraps any [`Model`] and filters its `actions()` through an
//! [`AmpleOracle`], exactly like [`crate::model::Restricted`] but with
//! the whole enabled set in view.
//!
//! The oracle owns the soundness argument. For invariant checking it
//! must guarantee the classic conditions:
//!
//! * **C0 (emptiness)** — return `None` (full expansion) rather than an
//!   empty set at non-deadlock states;
//! * **C1 (dependence)** — on no path of the *full* model from the
//!   state can an action dependent on the ample set fire before some
//!   member of the ample set does;
//! * **C2 (invisibility)** — if the ample set is a proper subset, its
//!   members must not change the truth of the checked predicate;
//! * **C3 (cycle proviso)** — every cycle of the reduced graph must
//!   contain at least one fully-expanded state.
//!
//! The generic wrapper enforces none of this — it cannot — but makes
//! the contract explicit, and `hb-analyze` backs the heartbeat oracle
//! with an exhaustive POR-vs-full agreement check over the paper's
//! table cells.

use crate::model::Model;

/// Chooses ample sets for a concrete model.
///
/// `enabled` is the full enabled-action list in the order the model
/// produced it. Return `Some(indices)` (non-empty, strictly fewer than
/// `enabled.len()`, indices into `enabled`, strictly ascending) to
/// reduce, or `None` to expand the state fully. Implementations carry
/// the C0–C3 soundness burden described at the module level.
pub trait AmpleOracle<M: Model> {
    /// The ample subset of `enabled` at `state`, or `None` for full
    /// expansion.
    fn ample(&self, state: &M::State, enabled: &[M::Action]) -> Option<Vec<usize>>;
}

/// A model explored through an [`AmpleOracle`].
///
/// States, actions and successors are the inner model's; only the
/// enabled-action lists shrink. Wrap it in the usual
/// [`Checker`](crate::bfs::Checker) to explore the reduced graph.
pub struct Reduced<'a, M: Model, O> {
    inner: &'a M,
    oracle: O,
}

impl<'a, M: Model, O: AmpleOracle<M>> Reduced<'a, M, O> {
    /// Wrap `inner`, exploring only oracle-chosen ample sets.
    pub fn new(inner: &'a M, oracle: O) -> Self {
        Self { inner, oracle }
    }
}

impl<M: Model, O: AmpleOracle<M>> Model for Reduced<'_, M, O> {
    type State = M::State;
    type Action = M::Action;

    fn initial_states(&self) -> Vec<Self::State> {
        self.inner.initial_states()
    }

    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        let from = out.len();
        self.inner.actions(state, out);
        let enabled = &mut out[from..];
        let Some(idx) = self.oracle.ample(state, enabled) else {
            return;
        };
        debug_assert!(!idx.is_empty(), "ample set must not be empty (C0)");
        debug_assert!(idx.len() < enabled.len(), "ample set must be proper");
        debug_assert!(idx.is_sorted_by(|a, b| a < b), "indices must ascend");
        // The k-th chosen index is at least k, so swapping its action
        // forward never displaces a later choice; enabled order is kept.
        for (k, &i) in idx.iter().enumerate() {
            enabled.swap(k, i);
        }
        out.truncate(from + idx.len());
    }

    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        self.inner.next_state(state, action)
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

    /// Two independent counters, each stepping 0..=3; actions commute.
    struct TwoCounters;
    impl Model for TwoCounters {
        type State = (u8, u8);
        type Action = u8; // which counter to step
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<u8>) {
            if s.0 < 3 {
                out.push(0);
            }
            if s.1 < 3 {
                out.push(1);
            }
        }
        fn next_state(&self, s: &(u8, u8), a: &u8) -> Option<(u8, u8)> {
            Some(match a {
                0 => (s.0 + 1, s.1),
                _ => (s.0, s.1 + 1),
            })
        }
    }

    /// Always pick the first enabled action when more than one is
    /// enabled. Sound here: the actions are globally independent and
    /// invisible to the predicates below, and the graph is acyclic.
    struct First;
    impl AmpleOracle<TwoCounters> for First {
        fn ample(&self, _s: &(u8, u8), enabled: &[u8]) -> Option<Vec<usize>> {
            (enabled.len() > 1).then(|| vec![0])
        }
    }

    #[test]
    fn reduction_preserves_the_reachable_corner() {
        let full = Checker::new(&TwoCounters).check_invariant(|s| *s != (3, 3));
        let m = TwoCounters;
        let red = Checker::new(&Reduced::new(&m, First)).check_invariant(|s| *s != (3, 3));
        assert_eq!(full.holds(), red.holds());
        assert!(!red.holds(), "corner still reached");
        // The diamond collapses to a line: 16 states down to 7.
        assert!(red.stats().states < full.stats().states);
        assert_eq!(red.stats().states, 7);
        assert_eq!(full.stats().states, 16);
    }

    #[test]
    fn chosen_actions_are_compacted_in_enabled_order_behind_what_out_held() {
        /// Five enabled actions `10..15` everywhere.
        struct Five;
        impl Model for Five {
            type State = ();
            type Action = u8;
            fn initial_states(&self) -> Vec<()> {
                vec![()]
            }
            fn actions(&self, _: &(), out: &mut Vec<u8>) {
                out.extend(10..15);
            }
            fn next_state(&self, _: &(), _: &u8) -> Option<()> {
                None
            }
        }
        struct Pick(&'static [usize]);
        impl AmpleOracle<Five> for Pick {
            fn ample(&self, _: &(), enabled: &[u8]) -> Option<Vec<usize>> {
                assert_eq!(enabled, [10, 11, 12, 13, 14], "only the model's own");
                Some(self.0.to_vec())
            }
        }
        for (pick, kept) in [
            (&[0][..], &[10][..]),
            (&[1, 2], &[11, 12]),
            (&[0, 2, 4], &[10, 12, 14]),
            (&[1, 2, 3, 4], &[11, 12, 13, 14]),
        ] {
            let mut out = vec![7, 8];
            Reduced::new(&Five, Pick(pick)).actions(&(), &mut out);
            assert_eq!(out, [&[7, 8], kept].concat(), "picked {pick:?}");
        }
    }

    #[test]
    fn none_means_full_expansion() {
        struct Never;
        impl AmpleOracle<TwoCounters> for Never {
            fn ample(&self, _s: &(u8, u8), _e: &[u8]) -> Option<Vec<usize>> {
                None
            }
        }
        let m = TwoCounters;
        let red = Checker::new(&Reduced::new(&m, Never)).check_invariant(|_| true);
        assert_eq!(red.stats().states, 16);
    }
}
