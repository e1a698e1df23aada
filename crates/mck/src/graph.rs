//! Exhaustive state-graph construction, statistics, and DOT export.
//!
//! Used by the figure-regeneration benches (reduced transition systems of
//! p\[0\] and p\[1\]) and handy for debugging models.

use std::fmt::Write as _;

use crate::model::Model;
use crate::search::{self, Hashed, Limits, Order};

/// A fully explored state graph of a model.
#[derive(Clone, Debug)]
pub struct StateGraph<M: Model> {
    /// All reachable states; index = state id.
    pub states: Vec<M::State>,
    /// Edges `(source id, action, target id)`.
    pub transitions: Vec<(usize, M::Action, usize)>,
    /// Ids of the initial states.
    pub initial: Vec<usize>,
    /// Whether the exploration hit the state cap.
    pub truncated: bool,
}

/// Summary statistics of a state graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of reachable states.
    pub states: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of deadlock states (no outgoing transitions).
    pub deadlocks: usize,
    /// Eccentricity of the initial state set (max BFS distance).
    pub diameter: usize,
}

impl<M: Model> StateGraph<M> {
    /// Exhaustively explore `model`, expanding nothing more once
    /// `max_states` distinct states are known.
    pub fn explore(model: &M, max_states: usize) -> Self {
        let mut edges: Vec<(usize, u32, usize)> = Vec::new();
        let limits = Limits {
            max_states,
            ..Limits::NONE
        };
        let out = search::explore(
            model,
            Hashed::new(),
            Order::Fifo,
            limits,
            |_, _| true,
            |id, out_edges| edges.extend(out_edges.iter().map(|&(k, t)| (id, k, t as usize))),
        );
        let states = out.store.into_states();
        // The search reports action indices; edges arrive grouped by
        // source, so each source's actions are enumerated once more.
        let mut transitions = Vec::with_capacity(edges.len());
        let mut actions = Vec::new();
        let mut actions_of = usize::MAX;
        for (id, k, target) in edges {
            if id != actions_of {
                actions.clear();
                model.actions(&states[id], &mut actions);
                actions_of = id;
            }
            transitions.push((id, actions[k as usize].clone(), target));
        }
        StateGraph {
            states,
            transitions,
            initial: (0..out.roots).collect(),
            truncated: out.stats.truncated,
        }
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> GraphStats {
        let mut outdeg = vec![0usize; self.states.len()];
        for (s, _, _) in &self.transitions {
            outdeg[*s] += 1;
        }
        let deadlocks = outdeg.iter().filter(|d| **d == 0).count();

        // BFS from the initial set for the diameter.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.states.len()];
        for (s, _, t) in &self.transitions {
            adj[*s].push(*t);
        }
        let mut dist = vec![usize::MAX; self.states.len()];
        let mut queue = std::collections::VecDeque::new();
        for &i in &self.initial {
            dist[i] = 0;
            queue.push_back(i);
        }
        let mut diameter = 0;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    diameter = diameter.max(dist[v]);
                    queue.push_back(v);
                }
            }
        }

        GraphStats {
            states: self.states.len(),
            transitions: self.transitions.len(),
            deadlocks,
            diameter,
        }
    }

    /// Render the graph in Graphviz DOT format using the model's
    /// formatting hooks.
    pub fn to_dot(&self, model: &M) -> String {
        let mut out = String::from("digraph model {\n  rankdir=LR;\n");
        for (i, s) in self.states.iter().enumerate() {
            let shape = if self.initial.contains(&i) {
                "doublecircle"
            } else {
                "circle"
            };
            let label = model.format_state(s).replace('"', "'");
            let _ = writeln!(out, "  n{i} [shape={shape}, label=\"{label}\"];");
        }
        for (s, a, t) in &self.transitions {
            let label = model.format_action(a).replace('"', "'");
            let _ = writeln!(out, "  n{s} -> n{t} [label=\"{label}\"];");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ring(u8);
    impl Model for Ring {
        type State = u8;
        type Action = ();
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn actions(&self, _: &u8, out: &mut Vec<()>) {
            out.push(());
        }
        fn next_state(&self, s: &u8, _: &()) -> Option<u8> {
            Some((s + 1) % self.0)
        }
    }

    #[test]
    fn ring_graph_shape() {
        let g = StateGraph::explore(&Ring(5), usize::MAX);
        let st = g.stats();
        assert_eq!(st.states, 5);
        assert_eq!(st.transitions, 5);
        assert_eq!(st.deadlocks, 0);
        assert_eq!(st.diameter, 4);
        assert!(!g.truncated);
    }

    #[test]
    fn truncation_flag() {
        let g = StateGraph::explore(&Ring(100), 10);
        assert!(g.truncated);
        assert_eq!(g.states.len(), 10);
    }

    #[test]
    fn dot_export_mentions_every_state() {
        let g = StateGraph::explore(&Ring(3), usize::MAX);
        let dot = g.to_dot(&Ring(3));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n0"));
        assert!(dot.contains("n2"));
        assert!(dot.contains("doublecircle"));
    }

    struct Dead;
    impl Model for Dead {
        type State = u8;
        type Action = ();
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn actions(&self, s: &u8, out: &mut Vec<()>) {
            if *s == 0 {
                out.push(());
            }
        }
        fn next_state(&self, _: &u8, _: &()) -> Option<u8> {
            Some(1)
        }
    }

    #[test]
    fn deadlock_counted() {
        let g = StateGraph::explore(&Dead, usize::MAX);
        assert_eq!(g.stats().deadlocks, 1);
    }
}
