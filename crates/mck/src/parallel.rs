//! Frontier-parallel BFS over all cores.
//!
//! Level-synchronous parallel breadth-first search: the states of each BFS
//! level are *expanded* across scoped worker threads
//! (`std::thread::scope`) and their successors *interned* sequentially, in
//! frontier order, by the one search loop of this crate. State ids, parent
//! links, statistics and the counterexample are therefore exactly those
//! of the sequential [`crate::bfs::Checker`], at any thread count.

use std::ops::Range;

use crate::bfs::CheckOutcome;
use crate::model::Model;
use crate::search::{find, successors, Hashed, Limits, Order, Store, Successors};

/// Below this many states per worker a level is expanded on fewer threads
/// (spawning one costs about as much as a few expansions).
const MIN_STATES_PER_WORKER: usize = 16;

/// A parallel breadth-first invariant checker.
///
/// Requires `Model: Sync` and `State: Send + Sync` in addition to the
/// usual [`Model`] bounds; it composes with any `Model` wrapper
/// ([`Symmetric`](crate::symmetry::Symmetric),
/// [`Reduced`](crate::por::Reduced), …). For small models the sequential
/// [`crate::bfs::Checker`] is faster; this engine pays off when a
/// transition is expensive and BFS levels are wide.
pub struct ParallelChecker<'a, M: Model> {
    model: &'a M,
    threads: usize,
    limits: Limits,
}

impl<'a, M> ParallelChecker<'a, M>
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    /// Create a parallel checker using all available parallelism.
    pub fn new(model: &'a M) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            model,
            threads,
            limits: Limits::NONE,
        }
    }

    /// Override the number of worker threads.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Bound the number of distinct states explored.
    pub fn max_states(mut self, n: usize) -> Self {
        self.limits.max_states = n;
        self
    }

    /// Check that `invariant` holds on every reachable state.
    pub fn check_invariant<F>(&self, invariant: F) -> CheckOutcome<M>
    where
        F: Fn(&M::State) -> bool,
    {
        let model = self.model;
        let expand = |store: &Hashed<M::State>, ids: Range<usize>| {
            let mut actions = Vec::new();
            ids.map(|id| {
                let mut out = Successors::new();
                successors(model, &store.get(id), &mut actions, |k, next| {
                    out.push((k, next));
                    true
                });
                out
            })
            .collect::<Vec<_>>()
        };
        let fan_out = |store: &Hashed<M::State>, ids: Range<usize>| {
            let workers = self.threads.min(ids.len() / MIN_STATES_PER_WORKER);
            if workers < 2 {
                return expand(store, ids);
            }
            let share = ids.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = ids
                    .clone()
                    .step_by(share)
                    .map(|from| {
                        let part = from..ids.end.min(from + share);
                        scope.spawn(|| expand(store, part))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let order = Order::Levels(&fan_out);
        find(model, Hashed::new(), order, self.limits, |s| !invariant(s))
            .reachability(model)
            .into_check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Checker;

    /// 3-dimensional grid: enough states to exercise the parallel path.
    struct Grid3(u8);
    impl Model for Grid3 {
        type State = (u8, u8, u8);
        type Action = u8;
        fn initial_states(&self) -> Vec<(u8, u8, u8)> {
            vec![(0, 0, 0)]
        }
        fn actions(&self, s: &(u8, u8, u8), out: &mut Vec<u8>) {
            if s.0 < self.0 {
                out.push(0);
            }
            if s.1 < self.0 {
                out.push(1);
            }
            if s.2 < self.0 {
                out.push(2);
            }
        }
        fn next_state(&self, s: &(u8, u8, u8), a: &u8) -> Option<(u8, u8, u8)> {
            Some(match a {
                0 => (s.0 + 1, s.1, s.2),
                1 => (s.0, s.1 + 1, s.2),
                _ => (s.0, s.1, s.2 + 1),
            })
        }
    }

    #[test]
    fn parallel_matches_sequential_state_count() {
        let m = Grid3(6);
        let seq = Checker::new(&m).check_invariant(|_| true);
        let par = ParallelChecker::new(&m)
            .threads(4)
            .check_invariant(|_| true);
        assert!(seq.holds() && par.holds());
        assert_eq!(seq.stats().states, par.stats().states);
    }

    #[test]
    fn parallel_finds_violation_with_valid_path() {
        let m = Grid3(6);
        let out = ParallelChecker::new(&m)
            .threads(4)
            .check_invariant(|s| *s != (3, 3, 3));
        let path = out.counterexample().expect("violation");
        assert_eq!(path.last_state(), &(3, 3, 3));
        // Replay the path to confirm validity.
        let mut cur = *path.initial_state();
        for (a, s) in path.steps() {
            cur = m.next_state(&cur, a).unwrap();
            assert_eq!(&cur, s);
        }
        // Level-synchronous BFS still gives a shortest path here.
        assert_eq!(path.len(), 9);
    }

    #[test]
    fn parallel_state_cap() {
        let m = Grid3(20);
        let out = ParallelChecker::new(&m)
            .threads(2)
            .max_states(100)
            .check_invariant(|_| true);
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
    }

    #[test]
    fn violation_in_initial_state() {
        let m = Grid3(2);
        let out = ParallelChecker::new(&m).check_invariant(|s| *s != (0, 0, 0));
        assert_eq!(out.counterexample().unwrap().len(), 0);
    }
}
