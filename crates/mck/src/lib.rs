//! `mck` — a small, fast explicit-state model checker.
//!
//! This crate is the verification substrate for the accelerated-heartbeat
//! reproduction. The original analysis (Atif & Mousavi, 2009) used mCRL2 +
//! CADP and UPPAAL; neither is available here, and all the properties they
//! check are plain safety/reachability over finite discrete-time transition
//! systems, so an explicit-state checker decides exactly the same questions.
//!
//! # Overview
//!
//! * [`Model`] — describe a transition system: initial states, enabled
//!   actions per state, successor per action.
//! * [`bfs::Checker`] — breadth-first reachability / invariant checking with
//!   shortest counterexample reconstruction, on [`parallel`]'s workers when
//!   there are two cores or more.
//! * [`dfs`] — depth-first and iterative-deepening exploration, plus
//!   deadlock detection.
//! * [`parallel`] — the pipeline: successors computed on worker threads
//!   and interned on one, in id order, so statistics and counterexamples
//!   are the sequential loop's.
//! * [`packed`] — the same BFS over bit-packed states in a flat arena, on
//!   [`parallel`]'s workers when there are two cores or more.
//! * [`props`] — several named invariants in one exploration.
//! * [`por`], [`symmetry`] — partial-order and symmetry reduction as
//!   [`Model`] wrappers; they compose with every engine above.
//! * [`liveness`] — leads-to checking (`AG (trigger → AF goal)`) by
//!   goal-avoiding lasso search.
//! * [`sim`] — random-walk exploration (smoke tests, property-based tests).
//! * [`graph`] — exhaustive state-graph construction, statistics and DOT
//!   export.
//! * [`lts`] — labelled transition systems: tau-hiding, weak-trace
//!   determinization and partition-refinement minimization (trace
//!   equivalence on a deterministic LTS, strong bisimulation in general;
//!   used to regenerate the reduced LTS figures of the paper).
//!
//! The engines ([`bfs`], [`dfs`], [`packed`], [`props`], [`graph`]) are a
//! few lines each over one crate-private search loop: a state store, a
//! frontier order, shared limits and two callbacks.
//!
//! # Example
//!
//! ```
//! use mck::{Model, bfs::Checker};
//!
//! /// A counter that may step +1 or +2 up to 10.
//! struct Count;
//! impl Model for Count {
//!     type State = u8;
//!     type Action = u8; // increment amount
//!     fn initial_states(&self) -> Vec<u8> { vec![0] }
//!     fn actions(&self, s: &u8, out: &mut Vec<u8>) {
//!         if *s < 10 { out.push(1); out.push(2); }
//!     }
//!     fn next_state(&self, s: &u8, a: &u8) -> Option<u8> { Some(s + a) }
//! }
//!
//! let outcome = Checker::new(&Count).check_invariant(|s| *s != 7);
//! let path = outcome.counterexample().expect("7 is reachable");
//! assert_eq!(path.last_state(), &7);
//! assert_eq!(path.actions().len(), 4); // BFS finds a shortest witness: 2+2+2+1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bfs;
pub mod dfs;
pub mod graph;
pub mod liveness;
pub mod lts;
pub mod model;
pub mod packed;
pub mod parallel;
pub mod por;
pub mod props;
mod search;
pub mod sim;
pub mod symmetry;
pub mod trace;

pub use bfs::{CheckOutcome, Checker};
pub use model::{Model, ModelExt};
pub use por::{AmpleOracle, Reduced};
pub use trace::Path;
