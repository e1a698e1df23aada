//! Breadth-first invariant checking with shortest-counterexample
//! reconstruction.

use std::time::Duration;

use crate::model::Model;
use crate::parallel::{find_on, workers};
use crate::search::{Hashed, Limits};
use crate::trace::Path;

/// Exploration statistics reported by every check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed (including ones leading to known states).
    pub transitions: usize,
    /// Largest BFS depth reached.
    pub depth: usize,
    /// Whether exploration stopped early due to a configured limit.
    pub truncated: bool,
}

/// The result of a check.
#[derive(Clone, Debug)]
pub enum CheckOutcome<M: Model> {
    /// The property holds on every reachable state (exhaustive).
    Holds(Stats),
    /// A reachable state violates the property; a shortest path witnessing
    /// the violation is attached.
    Violated {
        /// Shortest path from an initial state to the violating state.
        path: Path<M>,
        /// Exploration statistics at the time of the violation.
        stats: Stats,
    },
    /// Exploration hit a limit (state or depth bound) before completing.
    Incomplete(Stats),
}

impl<M: Model> CheckOutcome<M> {
    /// Whether the property was proven to hold exhaustively.
    pub fn holds(&self) -> bool {
        matches!(self, CheckOutcome::Holds(_))
    }

    /// The counterexample path, if the property was violated.
    pub fn counterexample(&self) -> Option<&Path<M>> {
        match self {
            CheckOutcome::Violated { path, .. } => Some(path),
            _ => None,
        }
    }

    /// Exploration statistics.
    pub fn stats(&self) -> Stats {
        match self {
            CheckOutcome::Holds(s) | CheckOutcome::Incomplete(s) => *s,
            CheckOutcome::Violated { stats, .. } => *stats,
        }
    }
}

/// A breadth-first checker over a [`Model`].
///
/// BFS guarantees that the first violation found is at minimal depth, i.e.
/// counterexamples are shortest — this matters for regenerating the paper's
/// counter-example figures, which are minimal scenarios.
///
/// With two or more cores it expands states on one worker thread per core
/// ([`crate::parallel`]; [`threads`](Self::threads) pins the count), and
/// the search, its `Stats` and counterexample are the same on any number.
///
/// # Example
///
/// ```
/// use mck::{Model, bfs::Checker};
/// struct M;
/// impl Model for M {
///     type State = u32; type Action = ();
///     fn initial_states(&self) -> Vec<u32> { vec![0] }
///     fn actions(&self, s: &u32, out: &mut Vec<()>) { if *s < 5 { out.push(()); } }
///     fn next_state(&self, s: &u32, _: &()) -> Option<u32> { Some(s + 1) }
/// }
/// assert!(Checker::new(&M).check_invariant(|s| *s <= 5).holds());
/// assert!(!Checker::new(&M).check_invariant(|s| *s < 5).holds());
/// ```
pub struct Checker<'a, M: Model> {
    model: &'a M,
    limits: Limits,
    workers: usize,
}

impl<'a, M> Checker<'a, M>
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    /// A checker with no practical limits, on every core.
    pub fn new(model: &'a M) -> Self {
        Self {
            model,
            limits: Limits::NONE,
            workers: workers(),
        }
    }

    /// Expand on `n` worker threads; one (or none) runs the sequential
    /// loop on the calling thread.
    pub fn threads(mut self, n: usize) -> Self {
        self.workers = if n < 2 { 0 } else { n };
        self
    }

    /// Stop exploring (returning [`CheckOutcome::Incomplete`]) after this
    /// many distinct states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.limits.max_states = n;
        self
    }

    /// Stop exploring beyond this BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.limits.max_depth = d;
        self
    }

    /// Stop exploring after roughly this wall-clock budget.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.limits.time_budget = Some(d);
        self
    }

    /// Check that `invariant` holds on every reachable state.
    pub fn check_invariant<F>(&self, invariant: F) -> CheckOutcome<M>
    where
        F: Fn(&M::State) -> bool + Sync,
    {
        self.check_reachability(|s| !invariant(s)).into_check()
    }

    /// Search for a reachable state satisfying `goal`.
    ///
    /// Returns [`CheckOutcome::Violated`] (with a shortest witness path) if a
    /// goal state is reachable, [`CheckOutcome::Holds`] if exhaustively not.
    /// The "violated"/"holds" naming is from the invariant point of view
    /// (`goal` = bad state); use
    /// [`find_state`](Checker::find_state) for goal-oriented naming.
    pub fn check_reachability<F>(&self, goal: F) -> Reachability<M>
    where
        F: Fn(&M::State) -> bool + Sync,
    {
        find_on(self.model, Hashed::new(), self.workers, self.limits, goal).reachability(self.model)
    }

    /// Goal-oriented alias for [`check_reachability`](Self::check_reachability):
    /// returns a shortest path to a state satisfying `goal`, if one is
    /// reachable within the configured limits.
    pub fn find_state<F>(&self, goal: F) -> Option<Path<M>>
    where
        F: Fn(&M::State) -> bool + Sync,
    {
        match self.check_reachability(goal) {
            Reachability::Found { path, .. } => Some(path),
            _ => None,
        }
    }
}

/// Result of a reachability query.
#[derive(Clone, Debug)]
pub enum Reachability<M: Model> {
    /// A goal state is reachable; shortest witness attached.
    Found {
        /// Shortest path from an initial state to the goal state.
        path: Path<M>,
        /// Exploration statistics at the time the goal was found.
        stats: Stats,
    },
    /// No goal state is reachable (exhaustive).
    Unreachable(Stats),
    /// Exploration was truncated by a limit before an answer was known.
    Unknown(Stats),
}

impl<M: Model> Reachability<M> {
    /// Exploration statistics.
    pub fn stats(&self) -> Stats {
        match self {
            Reachability::Found { stats, .. } => *stats,
            Reachability::Unreachable(s) | Reachability::Unknown(s) => *s,
        }
    }

    /// The witness path, if a goal state was found.
    pub fn path(&self) -> Option<&Path<M>> {
        match self {
            Reachability::Found { path, .. } => Some(path),
            _ => None,
        }
    }

    /// Whether the goal was proven unreachable.
    pub fn unreachable(&self) -> bool {
        matches!(self, Reachability::Unreachable(_))
    }

    /// The same result read as an invariant check (`goal` = bad state).
    pub(crate) fn into_check(self) -> CheckOutcome<M> {
        match self {
            Reachability::Found { path, stats } => CheckOutcome::Violated { path, stats },
            Reachability::Unreachable(stats) => CheckOutcome::Holds(stats),
            Reachability::Unknown(stats) => CheckOutcome::Incomplete(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two counters that can each step to 3; goal = both equal 3.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8; // 0 = step x, 1 = step y
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

    #[test]
    fn exhaustive_state_count() {
        let out = Checker::new(&Grid).check_invariant(|_| true);
        assert!(out.holds());
        assert_eq!(out.stats().states, 16);
        // 2 actions from interior states; total transitions = 24.
        assert_eq!(out.stats().transitions, 24);
    }

    #[test]
    fn shortest_counterexample() {
        let out = Checker::new(&Grid).check_invariant(|s| *s != (2, 1));
        let path = out.counterexample().expect("reachable");
        assert_eq!(path.len(), 3);
        assert_eq!(path.last_state(), &(2, 1));
    }

    #[test]
    fn find_state_returns_witness() {
        let p = Checker::new(&Grid).find_state(|s| *s == (3, 3)).unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn state_limit_reports_incomplete() {
        let out = Checker::new(&Grid)
            .max_states(3)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
        assert!(out.stats().truncated);
    }

    #[test]
    fn depth_limit_cuts_search() {
        let out = Checker::new(&Grid)
            .max_depth(2)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
    }

    #[test]
    fn depth_limit_still_finds_shallow_violations() {
        let out = Checker::new(&Grid)
            .max_depth(2)
            .check_invariant(|s| *s != (1, 0));
        assert_eq!(out.counterexample().unwrap().len(), 1);
    }

    #[test]
    fn violation_in_initial_state_gives_empty_path() {
        let out = Checker::new(&Grid).check_invariant(|s| *s != (0, 0));
        let path = out.counterexample().unwrap();
        assert!(path.is_empty());
        assert_eq!(path.last_state(), &(0, 0));
    }

    #[test]
    fn unreachable_goal_is_exhaustive() {
        let r = Checker::new(&Grid).check_reachability(|s| s.0 > 3);
        assert!(r.unreachable());
        assert_eq!(r.stats().states, 16);
    }
}
