//! The one exhaustive-search loop every engine in this crate is a call to.
//!
//! [`explore`] interns states to dense ids **in discovery order** through a
//! [`Store`], keeps one parent-link vector of `(parent id, action index)`
//! and drives two callbacks: one per freshly discovered state (which may
//! stop the search) and one per expanded state with its out-edges. What
//! varies between the engines is only
//!
//! * the **store** — [`Hashed`] full values, or the bit-packed arena of
//!   [`crate::packed`];
//! * the **order** — FIFO, which needs no queue because ids *are* BFS
//!   order (a cursor and a level boundary suffice), or a LIFO stack;
//!   [`Order::Levels`] is FIFO with each level's successors computed up
//!   front by the caller (the parallel engine's fan-out), interned here
//!   sequentially in frontier order — so its ids, links, statistics and
//!   counterexample are those of plain FIFO by construction;
//! * the [`Limits`].
//!
//! The link stores the action's *index* in [`Model::actions`]' output,
//! not the action: [`Explored::path`] re-derives it on trace-back, so
//! nothing is cloned per state beyond what the store itself keeps.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::bfs::{Reachability, Stats};
use crate::model::Model;
use crate::trace::Path;

/// Interns states to dense ids `0, 1, 2, …` in first-seen order.
pub(crate) trait Store<S> {
    /// Intern `state`, returning its id. A state not seen before is shown
    /// to `fresh` *before* it is moved in (the packed store never holds a
    /// decoded value to lend afterwards), and `fresh`'s answer is returned;
    /// a known state yields `None`.
    fn intern<R>(&mut self, state: S, fresh: impl FnOnce(&S) -> R) -> (usize, Option<R>);

    /// The state with this id, by value (a clone or a decode).
    fn get(&self, id: usize) -> S;
}

/// The plain store: every state kept in full, deduplicated by hash and
/// equality.
pub(crate) struct Hashed<S> {
    states: Vec<S>,
    index: HashMap<S, u32>,
}

impl<S> Hashed<S> {
    pub(crate) fn new() -> Self {
        Hashed {
            states: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// All interned states, indexed by id.
    pub(crate) fn into_states(self) -> Vec<S> {
        self.states
    }
}

impl<S: Clone + Eq + Hash> Store<S> for Hashed<S> {
    fn intern<R>(&mut self, state: S, fresh: impl FnOnce(&S) -> R) -> (usize, Option<R>) {
        match self.index.entry(state) {
            Entry::Occupied(known) => (*known.get() as usize, None),
            Entry::Vacant(slot) => {
                let id = self.states.len();
                let answer = fresh(slot.key());
                self.states.push(slot.key().clone());
                slot.insert(id as u32);
                (id, Some(answer))
            }
        }
    }

    fn get(&self, id: usize) -> S {
        self.states[id].clone()
    }
}

/// Successors of one state as `(action index, next state)`, in action
/// order.
pub(crate) type Successors<S> = Vec<(u32, S)>;

/// Computes the successors of a run of discovered, unexpanded ids at
/// once: one entry per id, in id order.
pub(crate) type FanOut<'a, St, S> = &'a dyn Fn(&St, Range<usize>) -> Vec<Successors<S>>;

/// The order in which discovered states are expanded.
pub(crate) enum Order<'a, St, S> {
    /// Breadth-first: shortest witnesses.
    Fifo,
    /// Last discovered, first expanded.
    Lifo,
    /// Breadth-first, with each BFS level's successors computed at once
    /// by the given function.
    Levels(FanOut<'a, St, S>),
}

/// When to give up. A search that gave up reports `Stats::truncated`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Limits {
    /// Expand nothing more once this many distinct states are interned.
    pub max_states: usize,
    /// Do not expand states at this depth or deeper.
    pub max_depth: usize,
    /// Expand nothing more after roughly this much wall-clock time.
    pub time_budget: Option<Duration>,
}

impl Limits {
    /// No practical limits.
    pub(crate) const NONE: Limits = Limits {
        max_states: usize::MAX,
        max_depth: usize::MAX,
        time_budget: None,
    };
}

/// Parent link of an initial state.
const ROOT: (u32, u32) = (u32::MAX, 0);

/// What a finished (or stopped, or truncated) search leaves behind.
pub(crate) struct Explored<St> {
    /// Every discovered state, by id.
    pub store: St,
    /// `(parent id, action index)` per id; [`ROOT`] for initial states.
    links: Vec<(u32, u32)>,
    /// Exploration statistics.
    pub stats: Stats,
    /// Number of (distinct) initial states; they hold ids `0..roots`.
    pub roots: usize,
    /// Peak count of discovered-but-unexpanded states.
    pub peak_frontier: usize,
    /// The state at which the fresh-state callback stopped the search.
    pub stopped: Option<usize>,
}

impl<St> Explored<St> {
    /// Bytes held by the parent links.
    pub(crate) fn links_bytes(&self) -> usize {
        std::mem::size_of_val(self.links.as_slice())
    }

    /// The discovery path to `id`: walk the parent links back to a root,
    /// re-deriving each step's action from its recorded index.
    pub(crate) fn path<M: Model>(&self, model: &M, mut id: usize) -> Path<M>
    where
        St: Store<M::State>,
    {
        let mut rev: Vec<(M::Action, M::State)> = Vec::new();
        let mut actions = Vec::new();
        let mut state = self.store.get(id);
        while self.links[id] != ROOT {
            let (parent, action) = self.links[id];
            id = parent as usize;
            let parent_state = self.store.get(id);
            actions.clear();
            model.actions(&parent_state, &mut actions);
            rev.push((actions.swap_remove(action as usize), state));
            state = parent_state;
        }
        rev.reverse();
        Path::from_steps(state, rev)
    }

    /// Read the search as a reachability query whose fresh-state callback
    /// stopped at the goal.
    pub(crate) fn reachability<M: Model>(&self, model: &M) -> Reachability<M>
    where
        St: Store<M::State>,
    {
        match self.stopped {
            Some(id) => Reachability::Found {
                path: self.path(model, id),
                stats: self.stats,
            },
            None if self.stats.truncated => Reachability::Unknown(self.stats),
            None => Reachability::Unreachable(self.stats),
        }
    }
}

/// Feed `each` every `(action index, successor)` of `state`, in action
/// order, until it answers `false`; returns whether it never did.
pub(crate) fn successors<M: Model>(
    model: &M,
    state: &M::State,
    actions: &mut Vec<M::Action>,
    mut each: impl FnMut(u32, M::State) -> bool,
) -> bool {
    actions.clear();
    model.actions(state, actions);
    (0u32..).zip(actions.iter()).all(|(k, action)| {
        model
            .next_state(state, action)
            .is_none_or(|next| each(k, next))
    })
}

/// The search state [`explore`] threads through admission and popping.
struct Run<St, V> {
    out: Explored<St>,
    /// `Lifo` only: discovered, unexpanded `(id, depth)`. The FIFO orders
    /// need no queue: the unexpanded ids are `cursor..discovered()`.
    stack: Option<Vec<(u32, u32)>>,
    cursor: usize,
    /// Depth of the state at `cursor`, and the id at which it grows by one.
    level: usize,
    level_end: usize,
    on_fresh: V,
}

impl<St, V> Run<St, V> {
    /// States interned so far: the next fresh id.
    fn discovered(&self) -> usize {
        self.out.links.len()
    }

    /// Intern `state`, reached over `link` at `depth`; returns its id.
    fn admit<S>(&mut self, link: (u32, u32), depth: usize, state: S) -> usize
    where
        St: Store<S>,
        V: FnMut(usize, &S) -> bool,
    {
        let fresh_id = self.discovered();
        assert!(fresh_id < u32::MAX as usize, "more than 2^32 - 1 states");
        let on_fresh = &mut self.on_fresh;
        let (id, go_on) = self.out.store.intern(state, |s| on_fresh(fresh_id, s));
        let Some(go_on) = go_on else {
            return id;
        };
        self.out.links.push(link);
        self.out.stats.states += 1;
        self.out.stats.depth = self.out.stats.depth.max(depth);
        if !go_on {
            self.out.stopped = Some(id);
            return id;
        }
        if let Some(stack) = &mut self.stack {
            stack.push((id as u32, depth as u32));
        }
        self.note_frontier();
        id
    }

    fn note_frontier(&mut self) {
        let pending = match &self.stack {
            Some(stack) => stack.len(),
            None => self.discovered() - self.cursor,
        };
        self.out.peak_frontier = self.out.peak_frontier.max(pending);
    }

    /// The next `(id, depth)` to expand.
    fn pop(&mut self) -> Option<(usize, usize)> {
        self.note_frontier();
        if let Some(stack) = &mut self.stack {
            return stack.pop().map(|(id, d)| (id as usize, d as usize));
        }
        if self.cursor == self.discovered() {
            return None;
        }
        if self.cursor == self.level_end {
            self.level += 1;
            self.level_end = self.discovered();
        }
        self.cursor += 1;
        Some((self.cursor - 1, self.level))
    }
}

/// Explore `model` from its initial states.
///
/// `on_fresh(id, state)` is called once per distinct state, in discovery
/// order; answering `false` stops the search there
/// ([`Explored::stopped`]). `on_expanded(id, edges)` is called once per
/// fully expanded state with its out-edges `(action index, target id)` in
/// action order — an empty slice is a deadlock.
///
/// The `max_states` and `time_budget` limits are tested when a state is
/// taken off the frontier, so a search overshoots `max_states` by at most
/// one state's successors.
pub(crate) fn explore<M: Model, St: Store<M::State>>(
    model: &M,
    store: St,
    order: Order<'_, St, M::State>,
    limits: Limits,
    on_fresh: impl FnMut(usize, &M::State) -> bool,
    mut on_expanded: impl FnMut(usize, &[(u32, u32)]),
) -> Explored<St> {
    let start = Instant::now();
    let mut run = Run {
        out: Explored {
            store,
            links: Vec::new(),
            stats: Stats::default(),
            roots: 0,
            peak_frontier: 0,
            stopped: None,
        },
        stack: matches!(order, Order::Lifo).then(Vec::new),
        cursor: 0,
        level: 0,
        level_end: 0,
        on_fresh,
    };
    for init in model.initial_states() {
        run.admit(ROOT, 0, init);
        if run.out.stopped.is_some() {
            return run.out;
        }
    }
    run.out.roots = run.discovered();
    run.level_end = run.out.roots;

    let mut actions = Vec::new();
    let mut edges = Vec::new();
    // `Levels` only: the precomputed successors of ids `batch_from..`.
    let mut batch_from = 0;
    let mut batch: Vec<Successors<M::State>> = Vec::new();
    while let Some((id, depth)) = run.pop() {
        if depth >= limits.max_depth {
            run.out.stats.truncated = true;
            continue;
        }
        if run.out.stats.states >= limits.max_states
            || limits.time_budget.is_some_and(|b| start.elapsed() > b)
        {
            run.out.stats.truncated = true;
            break;
        }
        // One state at a time, successors are admitted as they are
        // produced; only the level fan-out materialises them.
        let state = match &order {
            Order::Levels(fan_out) => {
                if id >= batch_from + batch.len() {
                    batch_from = id;
                    batch = fan_out(&run.out.store, id..run.discovered());
                }
                None
            }
            _ => Some(run.out.store.get(id)),
        };
        edges.clear();
        let mut admit = |action: u32, next: M::State| {
            run.out.stats.transitions += 1;
            let target = run.admit((id as u32, action), depth + 1, next);
            edges.push((action, target as u32));
            run.out.stopped.is_none()
        };
        let expanded = match &state {
            Some(state) => successors(model, state, &mut actions, admit),
            None => std::mem::take(&mut batch[id - batch_from])
                .into_iter()
                .all(|(action, next)| admit(action, next)),
        };
        if !expanded {
            break;
        }
        on_expanded(id, &edges);
    }
    run.out
}

/// [`explore`] as a reachability query: stop at the first state satisfying
/// `goal` (read the answer with [`Explored::reachability`]).
pub(crate) fn find<M: Model, St: Store<M::State>>(
    model: &M,
    store: St,
    order: Order<'_, St, M::State>,
    limits: Limits,
    goal: impl Fn(&M::State) -> bool,
) -> Explored<St> {
    explore(model, store, order, limits, |_, s| !goal(s), |_, _| {})
}
