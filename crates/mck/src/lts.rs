//! Labelled transition systems: hiding, weak-trace determinization, and
//! strong-bisimulation minimization.
//!
//! The Atif & Mousavi report presents "reduced transition systems" of the
//! heartbeat processes (their Figures 1 and 2), obtained by hiding internal
//! actions and reducing modulo weak-trace equivalence. This module provides
//! exactly those operations so the figures can be regenerated from our
//! models.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::graph::StateGraph;
use crate::model::Model;

/// A labelled transition system over string labels.
///
/// The special label [`Lts::TAU`] denotes an internal (hidden) action.
#[derive(Clone, Debug, Default)]
pub struct Lts {
    /// Number of states; states are `0..num_states`.
    pub num_states: usize,
    /// The initial state.
    pub initial: usize,
    /// Edges `(source, label, target)`.
    pub transitions: Vec<(usize, String, usize)>,
}

impl Lts {
    /// The internal-action label.
    pub const TAU: &'static str = "tau";

    /// Build an LTS from an explored [`StateGraph`], labelling each edge via
    /// `label`. Multiple initial states are joined under a fresh root with
    /// tau edges (rare; models here have a single initial state).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no initial state (its model had none).
    #[expect(
        clippy::expect_used,
        reason = "a model without initial states is a caller bug"
    )]
    pub fn from_graph<M: Model>(
        graph: &StateGraph<M>,
        label: impl Fn(&M::Action) -> String,
    ) -> Self {
        let mut lts = Lts {
            num_states: graph.states.len(),
            initial: *graph.initial.first().expect("graph has an initial state"),
            transitions: graph
                .transitions
                .iter()
                .map(|(s, a, t)| (*s, label(a), *t))
                .collect(),
        };
        if graph.initial.len() > 1 {
            let root = lts.num_states;
            lts.num_states += 1;
            for &i in &graph.initial {
                lts.transitions.push((root, Self::TAU.to_string(), i));
            }
            lts.initial = root;
        }
        lts
    }

    /// Replace every label in `hidden` with tau.
    pub fn hide(&self, hidden: &[&str]) -> Lts {
        let set: HashSet<&str> = hidden.iter().copied().collect();
        Lts {
            num_states: self.num_states,
            initial: self.initial,
            transitions: self
                .transitions
                .iter()
                .map(|(s, l, t)| {
                    let l = if set.contains(l.as_str()) {
                        Self::TAU.to_string()
                    } else {
                        l.clone()
                    };
                    (*s, l, *t)
                })
                .collect(),
        }
    }

    /// The set of visible (non-tau) labels.
    pub fn alphabet(&self) -> BTreeSet<String> {
        self.transitions
            .iter()
            .filter(|(_, l, _)| l != Self::TAU)
            .map(|(_, l, _)| l.clone())
            .collect()
    }

    fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        // per-state list of (label-id, target); labels interned separately
        let mut adj = vec![Vec::new(); self.num_states];
        let mut labels: HashMap<&str, usize> = HashMap::new();
        for (s, l, t) in &self.transitions {
            let next_id = labels.len();
            let id = *labels.entry(l.as_str()).or_insert(next_id);
            adj[*s].push((id, *t));
        }
        adj
    }

    fn tau_closure(&self, seed: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = seed.clone();
        let mut queue: VecDeque<usize> = seed.iter().copied().collect();
        let mut tau_adj: Vec<Vec<usize>> = vec![Vec::new(); self.num_states];
        for (s, l, t) in &self.transitions {
            if l == Self::TAU {
                tau_adj[*s].push(*t);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &tau_adj[u] {
                if closure.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        closure
    }

    /// Determinize modulo weak-trace equivalence: subset construction over
    /// tau-closures. The result is the minimal-by-construction DFA of the
    /// weak-trace language when followed by [`Lts::minimize_traces`]
    /// (Hopcroft-style refinement on the deterministic system).
    pub fn determinize_weak(&self) -> Lts {
        let init = self.tau_closure(&BTreeSet::from([self.initial]));
        let mut index: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        let mut subsets: Vec<BTreeSet<usize>> = Vec::new();
        let mut out = Vec::new();
        index.insert(init.clone(), 0);
        subsets.push(init);
        let mut cursor = 0;
        while cursor < subsets.len() {
            let cur = subsets[cursor].clone();
            // group successors by visible label
            let mut by_label: HashMap<String, BTreeSet<usize>> = HashMap::new();
            for (s, l, t) in &self.transitions {
                if l != Self::TAU && cur.contains(s) {
                    by_label.entry(l.clone()).or_default().insert(*t);
                }
            }
            let mut labels: Vec<_> = by_label.into_iter().collect();
            labels.sort_by(|a, b| a.0.cmp(&b.0));
            for (l, targets) in labels {
                let closed = self.tau_closure(&targets);
                let next_id = subsets.len();
                let id = *index.entry(closed.clone()).or_insert_with(|| {
                    subsets.push(closed);
                    next_id
                });
                out.push((cursor, l, id));
            }
            cursor += 1;
        }
        Lts {
            num_states: subsets.len(),
            initial: 0,
            transitions: out,
        }
    }

    /// Minimize via partition refinement: split blocks by the set of
    /// (label, target-block) signatures until stable. On a *deterministic*
    /// LTS this is trace (language) minimization — for the output of
    /// [`determinize_weak`](Lts::determinize_weak), the canonical minimal
    /// weak-trace automaton. On a nondeterministic one the same refinement
    /// computes strong bisimulation (tau is an ordinary label).
    pub fn minimize_traces(&self) -> Lts {
        let adj = self.adjacency();
        let mut block: Vec<usize> = vec![0; self.num_states];
        if self.num_states == 0 {
            return self.clone();
        }
        let mut num_blocks = 1usize;
        loop {
            let mut sig_index: HashMap<(usize, Vec<(usize, usize)>), usize> = HashMap::new();
            let mut new_block = vec![0usize; self.num_states];
            for s in 0..self.num_states {
                let mut sig: Vec<(usize, usize)> = adj[s]
                    .iter()
                    .map(|(l, t)| (*l, block[*t]))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                sig.sort_unstable();
                let key = (block[s], sig);
                let next_id = sig_index.len();
                let id = *sig_index.entry(key).or_insert(next_id);
                new_block[s] = id;
            }
            let nb = sig_index.len();
            block = new_block;
            if nb == num_blocks {
                break;
            }
            num_blocks = nb;
        }
        // Rebuild quotient.
        let mut transitions: BTreeSet<(usize, String, usize)> = BTreeSet::new();
        for (s, l, t) in &self.transitions {
            transitions.insert((block[*s], l.clone(), block[*t]));
        }
        Lts {
            num_states: num_blocks,
            initial: block[self.initial],
            transitions: transitions.into_iter().collect(),
        }
    }

    /// Render in Graphviz DOT.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph lts {\n  rankdir=LR;\n");
        for i in 0..self.num_states {
            let shape = if i == self.initial {
                "doublecircle"
            } else {
                "circle"
            };
            out.push_str(&format!("  n{i} [shape={shape}, label=\"{i}\"];\n"));
        }
        for (s, l, t) in &self.transitions {
            out.push_str(&format!("  n{s} -> n{t} [label=\"{l}\"];\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Whether a visible trace (sequence of labels) is accepted, i.e. can be
    /// performed from the initial state interleaved with tau steps.
    pub fn accepts_weak_trace(&self, trace: &[&str]) -> bool {
        let mut cur = self.tau_closure(&BTreeSet::from([self.initial]));
        for step in trace {
            let mut next = BTreeSet::new();
            for (s, l, t) in &self.transitions {
                if l == step && cur.contains(s) {
                    next.insert(*t);
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = self.tau_closure(&next);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lts(n: usize, init: usize, edges: &[(usize, &str, usize)]) -> Lts {
        Lts {
            num_states: n,
            initial: init,
            transitions: edges
                .iter()
                .map(|(s, l, t)| (*s, l.to_string(), *t))
                .collect(),
        }
    }

    #[test]
    fn hide_replaces_labels() {
        let l = lts(2, 0, &[(0, "a", 1), (1, "b", 0)]);
        let h = l.hide(&["a"]);
        assert!(h.transitions.iter().any(|(_, l, _)| l == Lts::TAU));
        assert_eq!(h.alphabet().len(), 1);
    }

    #[test]
    fn weak_trace_accepts_through_tau() {
        // 0 -tau-> 1 -a-> 2
        let l = lts(3, 0, &[(0, "tau", 1), (1, "a", 2)]);
        assert!(l.accepts_weak_trace(&["a"]));
        assert!(!l.accepts_weak_trace(&["b"]));
        assert!(l.accepts_weak_trace(&[]));
    }

    #[test]
    fn determinize_collapses_tau() {
        // 0 -tau-> 1, 0 -tau-> 2, 1 -a-> 3, 2 -a-> 3
        let l = lts(
            4,
            0,
            &[(0, "tau", 1), (0, "tau", 2), (1, "a", 3), (2, "a", 3)],
        );
        let d = l.determinize_weak();
        // {0,1,2} -a-> {3}
        assert_eq!(d.num_states, 2);
        assert_eq!(d.transitions.len(), 1);
    }

    #[test]
    fn minimize_traces_merges_equivalent() {
        // Deterministic: two branches with identical continuation languages.
        // 0 -a-> 1 -c-> 3 ; 0 -b-> 2 -c-> 4
        let l = lts(5, 0, &[(0, "a", 1), (0, "b", 2), (1, "c", 3), (2, "c", 4)]);
        let m = l.minimize_traces();
        // 1 and 2 merge, 3 and 4 merge: 3 states.
        assert_eq!(m.num_states, 3);
    }

    #[test]
    fn bisim_distinguishes_branching() {
        // classic: a.(b+c) vs a.b + a.c are trace equivalent but not bisimilar
        let spec = lts(4, 0, &[(0, "a", 1), (1, "b", 2), (1, "c", 3)]);
        let impl_ = lts(6, 0, &[(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "c", 4)]);
        let ms = spec.minimize_traces();
        let mi = impl_.minimize_traces();
        assert_ne!(ms.num_states, mi.num_states);
        // but weak-trace determinization makes them equal-sized
        let ds = spec.determinize_weak().minimize_traces();
        let di = impl_.determinize_weak().minimize_traces();
        assert_eq!(ds.num_states, di.num_states);
    }

    #[test]
    fn self_loop_ring_minimizes_to_one_state() {
        let l = lts(4, 0, &[(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 0)]);
        let m = l.minimize_traces();
        assert_eq!(m.num_states, 1);
        assert_eq!(m.transitions.len(), 1);
    }

    #[test]
    fn dot_output_well_formed() {
        let l = lts(2, 0, &[(0, "a", 1)]);
        let dot = l.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"a\""));
    }

    #[test]
    fn from_graph_roundtrip() {
        struct Two;
        impl Model for Two {
            type State = bool;
            type Action = &'static str;
            fn initial_states(&self) -> Vec<bool> {
                vec![false]
            }
            fn actions(&self, _: &bool, out: &mut Vec<&'static str>) {
                out.push("flip");
            }
            fn next_state(&self, s: &bool, _: &&'static str) -> Option<bool> {
                Some(!s)
            }
        }
        let g = StateGraph::explore(&Two, usize::MAX);
        let l = Lts::from_graph(&g, |a| a.to_string());
        assert_eq!(l.num_states, 2);
        assert!(l.accepts_weak_trace(&["flip", "flip", "flip"]));
    }
}
