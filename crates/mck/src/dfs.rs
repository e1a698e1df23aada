//! Depth-first exploration: memory-lean reachability, deadlock detection,
//! and iterative deepening.
//!
//! BFS ([`crate::bfs::Checker`]) is the default engine because it yields
//! shortest counterexamples; the DFS engine is useful when the frontier
//! would not fit in memory, when any counterexample (not necessarily
//! shortest) suffices, or to enumerate deadlocks.

use crate::bfs::Reachability;
use crate::model::Model;
use crate::search::{explore, find, Hashed, Limits, Order, Store};

/// Result of a DFS search: [`Reachability`], whose witness is then not
/// necessarily shortest.
pub type DfsOutcome<M> = Reachability<M>;

/// Depth-first searcher.
pub struct Dfs<'a, M: Model> {
    model: &'a M,
    limits: Limits,
}

impl<'a, M: Model> Dfs<'a, M> {
    /// Create a DFS engine with no practical limits.
    pub fn new(model: &'a M) -> Self {
        Self {
            model,
            limits: Limits::NONE,
        }
    }

    /// Bound the search depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.limits.max_depth = d;
        self
    }

    /// Bound the number of distinct visited states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.limits.max_states = n;
        self
    }

    /// Depth-first search for a state satisfying `goal`: the most recently
    /// discovered state is expanded next.
    ///
    /// Visited-state deduplication is global, so with an unbounded depth the
    /// search is exhaustive. With a depth bound, dedup is still global,
    /// which may miss goal states only reachable by a short path explored
    /// after a longer one — acceptable for its use as a bounded smoke check;
    /// use [`iterative_deepening`](Dfs::iterative_deepening) for
    /// depth-bounded completeness.
    pub fn find<F>(&self, goal: F) -> DfsOutcome<M>
    where
        F: Fn(&M::State) -> bool,
    {
        find(self.model, Hashed::new(), Order::Lifo, self.limits, goal).reachability(self.model)
    }

    /// Iterative-deepening search: repeated depth-bounded DFS with depth
    /// 1, 2, 4, ... up to `limit`. Returns a shortest-or-near-shortest
    /// witness using far less memory than BFS (visited set is cleared per
    /// round).
    pub fn iterative_deepening<F>(&self, goal: F, limit: usize) -> DfsOutcome<M>
    where
        F: Fn(&M::State) -> bool + Copy,
    {
        let mut depth = 1usize;
        loop {
            let out = Dfs::new(self.model)
                .max_depth(depth)
                .max_states(self.limits.max_states)
                .find(goal);
            match out {
                DfsOutcome::Found { .. } => return out,
                DfsOutcome::Unreachable(s) => return DfsOutcome::Unreachable(s),
                DfsOutcome::Unknown(s) => {
                    if depth >= limit {
                        return DfsOutcome::Unknown(s);
                    }
                }
            }
            depth = (depth * 2).min(limit);
        }
    }

    /// Enumerate all reachable deadlock states (no enabled transitions),
    /// among the states expanded within the configured bounds.
    pub fn deadlocks(&self) -> Vec<M::State> {
        let mut dead = Vec::new();
        let out = explore(
            self.model,
            Hashed::new(),
            Order::Lifo,
            self.limits,
            |_, _| true,
            |id, edges| {
                if edges.is_empty() {
                    dead.push(id);
                }
            },
        );
        dead.into_iter().map(|id| out.store.get(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Chain(u32);
    impl Model for Chain {
        type State = u32;
        type Action = ();
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn actions(&self, s: &u32, out: &mut Vec<()>) {
            if *s < self.0 {
                out.push(());
            }
        }
        fn next_state(&self, s: &u32, _: &()) -> Option<u32> {
            Some(s + 1)
        }
    }

    #[test]
    fn dfs_finds_goal() {
        let out = Dfs::new(&Chain(10)).find(|s| *s == 7);
        assert_eq!(out.path().unwrap().last_state(), &7);
        assert_eq!(out.path().unwrap().len(), 7);
    }

    #[test]
    fn dfs_exhaustive_unreachable() {
        let out = Dfs::new(&Chain(10)).find(|s| *s == 42);
        assert!(matches!(out, DfsOutcome::Unreachable(_)));
        assert_eq!(out.stats().states, 11);
    }

    #[test]
    fn depth_bound_truncates() {
        let out = Dfs::new(&Chain(10)).max_depth(3).find(|s| *s == 7);
        assert!(matches!(out, DfsOutcome::Unknown(_)));
    }

    #[test]
    fn iterative_deepening_finds_goal() {
        let out = Dfs::new(&Chain(100)).iterative_deepening(|s| *s == 9, 64);
        assert_eq!(out.path().unwrap().len(), 9);
    }

    #[test]
    fn iterative_deepening_respects_limit() {
        let out = Dfs::new(&Chain(100)).iterative_deepening(|s| *s == 90, 16);
        assert!(matches!(out, DfsOutcome::Unknown(_)));
    }

    #[test]
    fn deadlock_enumeration() {
        let dl = Dfs::new(&Chain(5)).deadlocks();
        assert_eq!(dl, vec![5]);
    }

    #[test]
    fn goal_in_initial_state() {
        let out = Dfs::new(&Chain(5)).find(|s| *s == 0);
        assert!(out.path().unwrap().is_empty());
    }
}
