//! Checking several named invariants in a single exploration.
//!
//! The table campaigns check three requirements per protocol
//! configuration; exploring the state space once per requirement is
//! wasteful when the requirements share a model. [`check_all`] explores
//! once and reports, per property, whether it held and (if not) a
//! shortest violating path — BFS order guarantees each recorded witness
//! is minimal for its property.
//!
//! # Example
//!
//! ```
//! use mck::{Model, props::{check_all, Property}};
//!
//! struct Count;
//! impl Model for Count {
//!     type State = u8; type Action = ();
//!     fn initial_states(&self) -> Vec<u8> { vec![0] }
//!     fn actions(&self, s: &u8, out: &mut Vec<()>) { if *s < 9 { out.push(()); } }
//!     fn next_state(&self, s: &u8, _: &()) -> Option<u8> { Some(s + 1) }
//! }
//!
//! let report = check_all(
//!     &Count,
//!     vec![
//!         Property::invariant("below-7", |s: &u8| *s < 7),
//!         Property::invariant("below-100", |s: &u8| *s < 100),
//!     ],
//!     usize::MAX,
//! );
//! assert!(!report.holds("below-7").unwrap());
//! assert!(report.holds("below-100").unwrap());
//! assert_eq!(report.violation("below-7").unwrap().len(), 7);
//! ```

use crate::bfs::Stats;
use crate::model::Model;
use crate::search::{explore, Hashed, Limits, Order};
use crate::trace::Path;

/// A named invariant.
pub struct Property<S> {
    name: String,
    invariant: Box<dyn Fn(&S) -> bool>,
}

impl<S> Property<S> {
    /// An invariant property: `predicate` must hold on every reachable
    /// state.
    pub fn invariant(name: impl Into<String>, predicate: impl Fn(&S) -> bool + 'static) -> Self {
        Property {
            name: name.into(),
            invariant: Box::new(predicate),
        }
    }

    /// The property's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Outcome of a multi-property check.
pub struct PropsReport<M: Model> {
    results: Vec<(String, Option<Path<M>>)>,
    /// Exploration statistics (one exploration for all properties).
    pub stats: Stats,
}

impl<M: Model> PropsReport<M> {
    /// Whether the named property held (`None` for an unknown name).
    pub fn holds(&self, name: &str) -> Option<bool> {
        self.results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.is_none())
    }

    /// The shortest violation of the named property, if it was violated.
    pub fn violation(&self, name: &str) -> Option<&Path<M>> {
        self.results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_ref())
    }

    /// Whether every property held.
    pub fn all_hold(&self) -> bool {
        self.results.iter().all(|(_, v)| v.is_none())
    }

    /// Iterate `(name, holds)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, bool)> {
        self.results.iter().map(|(n, v)| (n.as_str(), v.is_none()))
    }
}

/// Explore `model` once (BFS, up to `max_states` states) and check every
/// property. Witnesses are recorded the first time each property is
/// violated, so each is a shortest counterexample for its property.
///
/// The exploration is exhaustive unless the state cap is hit, in which
/// case properties with no recorded violation are reported as holding
/// *of the explored prefix* (check `stats.truncated`).
pub fn check_all<M: Model>(
    model: &M,
    properties: Vec<Property<M::State>>,
    max_states: usize,
) -> PropsReport<M> {
    // Id of the first state violating each property; `open` counts the
    // properties with none yet.
    let mut first: Vec<Option<usize>> = vec![None; properties.len()];
    let mut open = properties.len();
    let limits = Limits {
        max_states,
        ..Limits::NONE
    };
    let out = explore(
        model,
        Hashed::new(),
        Order::Fifo,
        limits,
        |id, state| {
            for (slot, prop) in first.iter_mut().zip(&properties) {
                if slot.is_none() && !(prop.invariant)(state) {
                    *slot = Some(id);
                    open -= 1;
                }
            }
            open > 0 // every property already violated: nothing left to learn
        },
        |_, _| {},
    );
    PropsReport {
        results: properties
            .into_iter()
            .zip(first)
            .map(|(p, id)| (p.name, id.map(|id| out.path(model, id))))
            .collect(),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Checker;

    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<u8>) {
            if s.0 < 4 {
                out.push(0);
            }
            if s.1 < 4 {
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
    fn mixed_verdicts_single_pass() {
        let report = check_all(
            &Grid,
            vec![
                Property::invariant("sum-small", |s: &(u8, u8)| s.0 + s.1 < 6),
                Property::invariant("never-33", |s: &(u8, u8)| *s != (3, 3)),
                Property::invariant("in-bounds", |s: &(u8, u8)| s.0 <= 4 && s.1 <= 4),
            ],
            usize::MAX,
        );
        assert_eq!(report.holds("sum-small"), Some(false));
        assert_eq!(report.holds("never-33"), Some(false));
        assert_eq!(report.holds("in-bounds"), Some(true));
        assert!(!report.all_hold());
        assert_eq!(report.holds("no-such"), None);
    }

    #[test]
    fn witnesses_match_dedicated_bfs() {
        let report = check_all(
            &Grid,
            vec![Property::invariant("never-21", |s: &(u8, u8)| *s != (2, 1))],
            usize::MAX,
        );
        let multi = report.violation("never-21").unwrap();
        let single = Checker::new(&Grid)
            .check_invariant(|s| *s != (2, 1))
            .counterexample()
            .cloned()
            .unwrap();
        assert_eq!(multi.len(), single.len(), "both must be shortest");
        assert_eq!(multi.last_state(), single.last_state());
    }

    #[test]
    fn early_exit_when_everything_violated() {
        // Both properties fail at the initial state: exploration should
        // stop immediately.
        let report = check_all(
            &Grid,
            vec![
                Property::invariant("not-origin", |s: &(u8, u8)| *s != (0, 0)),
                Property::invariant("x-positive", |s: &(u8, u8)| s.0 > 0),
            ],
            usize::MAX,
        );
        assert!(!report.all_hold());
        assert_eq!(report.stats.states, 1);
    }

    #[test]
    fn truncation_is_flagged() {
        let report = check_all(
            &Grid,
            vec![Property::invariant("true", |_: &(u8, u8)| true)],
            3,
        );
        assert!(report.stats.truncated);
    }

    #[test]
    fn iter_lists_all_properties() {
        let report = check_all(
            &Grid,
            vec![
                Property::invariant("a", |_: &(u8, u8)| true),
                Property::invariant("b", |s: &(u8, u8)| s.0 < 9),
            ],
            usize::MAX,
        );
        let names: Vec<_> = report.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(report.all_hold());
        assert_eq!(report.stats.states, 25);
    }
}
