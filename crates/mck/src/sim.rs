//! Random-walk exploration.
//!
//! Random walks do not prove anything, but they are a fast smoke test for
//! invariants on state spaces too large to exhaust, and they drive the
//! property-based cross-validation between the verification models and the
//! discrete-event simulator.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::model::Model;
use crate::trace::Path;

/// Outcome of a batch of random walks.
#[derive(Clone, Debug)]
pub enum WalkOutcome<M: Model> {
    /// No walk hit a violating state.
    NoViolationFound {
        /// Number of walks performed.
        walks: usize,
        /// Total transitions taken across all walks.
        steps: usize,
    },
    /// Some walk reached a violating state.
    Violated {
        /// The violating walk (up to and including the bad state).
        path: Path<M>,
    },
}

impl<M: Model> WalkOutcome<M> {
    /// The violating path, if any.
    pub fn path(&self) -> Option<&Path<M>> {
        match self {
            WalkOutcome::Violated { path } => Some(path),
            _ => None,
        }
    }
}

/// Perform a single random walk of at most `max_steps` transitions,
/// starting from a uniformly chosen initial state.
///
/// The walk stops early at deadlock states.
///
/// # Panics
///
/// Panics if the model has no initial state.
#[expect(
    clippy::expect_used,
    reason = "a model without initial states is a caller bug"
)]
pub fn random_walk<M: Model, R: Rng>(model: &M, rng: &mut R, max_steps: usize) -> Path<M> {
    let inits = model.initial_states();
    let init = inits
        .choose(rng)
        .cloned()
        .expect("model must have at least one initial state");
    let mut path = Path::new(init.clone());
    let mut cur = init;
    let mut acts = Vec::new();
    for _ in 0..max_steps {
        acts.clear();
        model.actions(&cur, &mut acts);
        // Retry over enabled actions (actions() may over-approximate).
        acts.shuffle(rng);
        let mut advanced = false;
        for a in &acts {
            if let Some(next) = model.next_state(&cur, a) {
                path.push(a.clone(), next.clone());
                cur = next;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break; // deadlock
        }
    }
    path
}

/// Run `walks` random walks of up to `max_steps` each, checking `invariant`
/// on every visited state.
///
/// # Panics
///
/// Panics if the model has no initial state.
#[expect(
    clippy::expect_used,
    reason = "a model without initial states is a caller bug"
)]
pub fn check_invariant_by_walks<M: Model, R: Rng, F>(
    model: &M,
    rng: &mut R,
    walks: usize,
    max_steps: usize,
    invariant: F,
) -> WalkOutcome<M>
where
    F: Fn(&M::State) -> bool,
{
    let mut steps = 0;
    for _ in 0..walks {
        let inits = model.initial_states();
        let init = inits
            .choose(rng)
            .cloned()
            .expect("model must have at least one initial state");
        if !invariant(&init) {
            return WalkOutcome::Violated {
                path: Path::new(init),
            };
        }
        let mut path = Path::new(init.clone());
        let mut cur = init;
        let mut acts = Vec::new();
        for _ in 0..max_steps {
            acts.clear();
            model.actions(&cur, &mut acts);
            acts.shuffle(rng);
            let mut advanced = false;
            for a in &acts {
                if let Some(next) = model.next_state(&cur, a) {
                    steps += 1;
                    path.push(a.clone(), next.clone());
                    cur = next;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
            if !invariant(&cur) {
                return WalkOutcome::Violated { path };
            }
        }
    }
    WalkOutcome::NoViolationFound { walks, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<u8>) {
            if s.0 < 5 {
                out.push(0);
            }
            if s.1 < 5 {
                out.push(1);
            }
        }
        fn next_state(&self, s: &(u8, u8), a: &u8) -> Option<(u8, u8)> {
            Some(if *a == 0 {
                (s.0 + 1, s.1)
            } else {
                (s.0, s.1 + 1)
            })
        }
    }

    #[test]
    fn walk_terminates_at_deadlock() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_walk(&Grid, &mut rng, 1000);
        assert_eq!(p.len(), 10); // deadlock at (5,5) after exactly 10 steps
        assert_eq!(p.last_state(), &(5, 5));
    }

    #[test]
    fn walks_find_easy_violation() {
        let mut rng = StdRng::seed_from_u64(42);
        let out = check_invariant_by_walks(&Grid, &mut rng, 100, 20, |s| s.0 + s.1 < 8);
        assert!(out.path().is_some());
    }

    #[test]
    fn walks_pass_true_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = check_invariant_by_walks(&Grid, &mut rng, 50, 20, |s| s.0 <= 5 && s.1 <= 5);
        assert!(matches!(out, WalkOutcome::NoViolationFound { .. }));
    }

    #[test]
    fn walk_respects_step_cap() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_walk(&Grid, &mut rng, 3);
        assert!(p.len() <= 3);
    }

    #[test]
    fn violated_initial_state_detected() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = check_invariant_by_walks(&Grid, &mut rng, 1, 5, |s| *s != (0, 0));
        assert!(out.path().unwrap().is_empty());
    }
}
