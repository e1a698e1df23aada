//! The one exhaustive-search loop every engine in this crate is a call to.
//!
//! [`explore`] interns states to dense ids **in discovery order** through a
//! [`Store`], keeps one parent-link vector of `(parent id, action index)`
//! and drives two callbacks: one per freshly discovered state (which may
//! stop the search) and one per expanded state with its out-edges. What
//! varies between the engines is only
//!
//! * the **store** — one [`IdIndex`] (id + fingerprint slots, fed by the
//!   crate's one hash function) under two record layouts: [`Hashed`], a
//!   vector of full values, or the bit-packed arena of [`crate::packed`];
//!   either way each state is kept once;
//! * the **order** — FIFO, which needs no queue because ids *are* BFS
//!   order (a cursor and a level boundary suffice), or a LIFO stack;
//! * where an expanded state's successors come from ([`Expand`]): computed
//!   here, one state at a time ([`Sequential`]), or by worker threads
//!   ahead of the loop ([`crate::parallel`]'s pipeline), which this loop
//!   still interns one at a time in id order — so the pipeline's ids,
//!   links, statistics and counterexample are those of the sequential
//!   search by construction;
//! * the [`Limits`].
//!
//! The link stores the action's *index* in [`Model::actions`]' output,
//! not the action: [`Explored::path`] re-derives it on trace-back, so
//! nothing is cloned per state beyond what the store itself keeps.

use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
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

/// The crate's one hash function: word-at-a-time multiply-rotate, unseeded
/// (a search probes the same slots on every run). States come from the
/// model, never from outside the program, so nobody crafts collisions.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.write_u64(u64::from_le_bytes(word));
        }
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    // One multiply per field: the provided methods would go through `write`.
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    /// A product's high bits are its best mixed: fold them onto the low
    /// half, where [`IdIndex`] takes the fingerprint and the home slot.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

pub(crate) fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    BuildHasherDefault::<WordHasher>::default().hash_one(value)
}

/// The id index under both stores: open addressing, linear probing, no
/// stored keys — a slot is `0` when vacant, else `(id + 1) << 16 |
/// fingerprint`. The store keeps the records, in whatever layout it likes,
/// and lends the index its length and two closures over ids: "equals the
/// probe" and "hash it again" (for when the table doubles).
pub(crate) struct IdIndex(Vec<u64>);

const FINGERPRINT_BITS: u32 = 16;

/// What a slot holds for `id` under `hash`: the low hash bits as fingerprint.
fn entry(hash: u64, id: usize) -> u64 {
    (id as u64 + 1) << FINGERPRINT_BITS | hash & ((1 << FINGERPRINT_BITS) - 1)
}

impl IdIndex {
    pub(crate) fn new() -> Self {
        IdIndex(vec![0; 1 << 12])
    }

    /// Bytes held by the slot table.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(self.0.as_slice())
    }

    /// Walk `hash`'s probe sequence: `Ok(id)` of the first entry carrying
    /// its fingerprint that satisfies `same`, else `Err(slot)`, the vacant
    /// slot ending the sequence. The home slot is taken from the hash bits
    /// *above* the fingerprint, so entries sharing a home still differ in
    /// what their slots remember of them, however large the table.
    fn probe(&self, hash: u64, same: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.0.len() - 1;
        let mut i = (hash >> FINGERPRINT_BITS) as usize & mask;
        loop {
            let slot = self.0[i];
            if slot == 0 {
                return Err(i);
            }
            let id = (slot >> FINGERPRINT_BITS) as usize - 1;
            if slot == entry(hash, id) && same(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of the indexed record that hashes to `hash` and satisfies
    /// `same`; or `None`, having indexed `len` — the store's record count,
    /// hence its next id — under `hash`. Load factor at most 0.7.
    pub(crate) fn intern(
        &mut self,
        len: usize,
        hash: u64,
        same: impl Fn(usize) -> bool,
        hash_of_id: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        if len * 10 >= self.0.len() * 7 {
            self.0 = vec![0; self.0.len() * 2];
            for id in 0..len {
                let hash = hash_of_id(id);
                #[expect(
                    clippy::expect_used,
                    reason = "a probe that matches nothing ends vacant"
                )]
                let slot = self.probe(hash, |_| false).expect_err("nothing matches");
                self.0[slot] = entry(hash, id);
            }
        }
        match self.probe(hash, same) {
            Ok(id) => Some(id),
            Err(slot) => {
                self.0[slot] = entry(hash, len);
                None
            }
        }
    }
}

/// The plain store: every state kept in full, once, found again through
/// the [`IdIndex`] by hash and equality.
pub(crate) struct Hashed<S> {
    states: Vec<S>,
    index: IdIndex,
}

impl<S> Hashed<S> {
    pub(crate) fn new() -> Self {
        Hashed {
            states: Vec::new(),
            index: IdIndex::new(),
        }
    }

    /// All interned states, indexed by id.
    pub(crate) fn into_states(self) -> Vec<S> {
        self.states
    }
}

impl<S: Eq + Hash> Hashed<S> {
    /// [`Store::intern`] for a state whose hash is known.
    pub(crate) fn intern_hashed<R>(
        &mut self,
        state: S,
        hash: u64,
        fresh: impl FnOnce(&S) -> R,
    ) -> (usize, Option<R>) {
        let (states, id) = (&self.states, self.states.len());
        let same = |known: usize| states[known] == state;
        let rehash = |known: usize| hash_of(&states[known]);
        if let Some(known) = self.index.intern(id, hash, same, rehash) {
            return (known, None);
        }
        let answer = fresh(&state);
        self.states.push(state);
        (id, Some(answer))
    }
}

impl<S: Clone + Eq + Hash> Store<S> for Hashed<S> {
    fn intern<R>(&mut self, state: S, fresh: impl FnOnce(&S) -> R) -> (usize, Option<R>) {
        let hash = hash_of(&state);
        self.intern_hashed(state, hash, fresh)
    }

    fn get(&self, id: usize) -> S {
        self.states[id].clone()
    }
}

/// The order in which discovered states are expanded.
pub(crate) enum Order {
    /// Breadth-first: shortest witnesses.
    Fifo,
    /// Last discovered, first expanded.
    Lifo,
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

/// Where [`explore_with`] takes an expanded state's successors from.
pub(crate) trait Expand<St, V> {
    /// Admit every successor of `id`, which is at `depth`, in action order,
    /// through [`Run::admit`] or [`Run::arrive`] until one answers `false`;
    /// returns whether none did.
    fn expand(&mut self, run: &mut Run<St, V>, id: usize, depth: usize) -> bool;
}

/// Successors computed on the search thread, one state at a time.
pub(crate) struct Sequential<'m, M: Model> {
    model: &'m M,
    actions: Vec<M::Action>,
}

impl<'m, M: Model> Sequential<'m, M> {
    pub(crate) fn new(model: &'m M) -> Self {
        Sequential {
            model,
            actions: Vec::new(),
        }
    }
}

impl<M, St, V> Expand<St, V> for Sequential<'_, M>
where
    M: Model,
    St: Store<M::State>,
    V: FnMut(usize, &M::State) -> bool,
{
    fn expand(&mut self, run: &mut Run<St, V>, id: usize, depth: usize) -> bool {
        let state = run.out.store.get(id);
        successors(self.model, &state, &mut self.actions, |action, next| {
            let target = run.admit((id as u32, action), depth + 1, next);
            run.edge(action, target)
        })
    }
}

/// The search state [`explore_with`] threads through admission and popping.
pub(crate) struct Run<St, V> {
    out: Explored<St>,
    /// `Lifo` only: discovered, unexpanded `(id, depth)`. FIFO needs no
    /// queue: the unexpanded ids are `cursor..discovered()`.
    stack: Option<Vec<(u32, u32)>>,
    cursor: usize,
    /// Depth of the state at `cursor`, and the id at which it grows by one.
    level: usize,
    level_end: usize,
    /// Out-edges `(action index, target id)` of the state being expanded.
    edges: Vec<(u32, u32)>,
    on_fresh: V,
}

impl<St, V> Run<St, V> {
    /// States interned so far: the next fresh id.
    pub(crate) fn discovered(&self) -> usize {
        self.out.links.len()
    }

    pub(crate) fn store(&self) -> &St {
        &self.out.store
    }

    /// Intern `state`, reached over `link` at `depth`; returns its id.
    fn admit<S>(&mut self, link: (u32, u32), depth: usize, state: S) -> usize
    where
        St: Store<S>,
        V: FnMut(usize, &S) -> bool,
    {
        let fresh_id = self.discovered();
        let on_fresh = &mut self.on_fresh;
        let (id, go_on) = self.out.store.intern(state, |s| on_fresh(fresh_id, s));
        self.link(link, depth, id, go_on)
    }

    /// Admit a successor of `from` (at `depth`) by `action` whose fresh-state
    /// answer `go_on` was computed off this thread: `land` interns it,
    /// returning its id and whether it is new. Returns whether to go on.
    pub(crate) fn arrive(
        &mut self,
        (from, depth): (usize, usize),
        action: u32,
        go_on: bool,
        land: impl FnOnce(&mut St) -> (usize, bool),
    ) -> bool {
        let (id, fresh) = land(&mut self.out.store);
        let target = self.link((from as u32, action), depth + 1, id, fresh.then_some(go_on));
        self.edge(action, target)
    }

    /// Book the state `id`, reached over `link` at `depth`. A fresh one
    /// (`go_on` is its fresh-state answer) is linked, counted, and queued
    /// or, on `false`, stops the search. Returns `id`.
    fn link(&mut self, link: (u32, u32), depth: usize, id: usize, go_on: Option<bool>) -> usize {
        let Some(go_on) = go_on else {
            return id;
        };
        assert!(id < u32::MAX as usize, "more than 2^32 - 1 states");
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

    /// Record the transition by `action` to `target`; whether to go on.
    fn edge(&mut self, action: u32, target: usize) -> bool {
        self.out.stats.transitions += 1;
        self.edges.push((action, target as u32));
        self.out.stopped.is_none()
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

/// Explore `model` from its initial states, one state at a time.
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
    order: Order,
    limits: Limits,
    on_fresh: impl FnMut(usize, &M::State) -> bool,
    on_expanded: impl FnMut(usize, &[(u32, u32)]),
) -> Explored<St> {
    let expand = &mut Sequential::new(model);
    explore_with(model, expand, store, order, limits, on_fresh, on_expanded)
}

/// [`explore`], taking each expanded state's successors from `expand`.
/// The initial states are admitted here, through `on_fresh`.
pub(crate) fn explore_with<M: Model, St: Store<M::State>, V: FnMut(usize, &M::State) -> bool>(
    model: &M,
    expand: &mut impl Expand<St, V>,
    store: St,
    order: Order,
    limits: Limits,
    on_fresh: V,
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
        edges: Vec::new(),
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
        run.edges.clear();
        if !expand.expand(&mut run, id, depth) {
            break;
        }
        on_expanded(id, &run.edges);
    }
    run.out
}

/// [`explore`] as a reachability query: stop at the first state satisfying
/// `goal` (read the answer with [`Explored::reachability`]).
pub(crate) fn find<M: Model, St: Store<M::State>>(
    model: &M,
    store: St,
    order: Order,
    limits: Limits,
    goal: impl Fn(&M::State) -> bool,
) -> Explored<St> {
    explore(model, store, order, limits, |_, s| !goal(s), |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_starts_at_4096_slots_and_doubles_at_load_seven_tenths() {
        let mut index = IdIndex::new();
        let distinct = |index: &mut IdIndex, id: usize| {
            let known = index.intern(id, hash_of(&id), |_| false, |known| hash_of(&known));
            assert_eq!(known, None);
        };
        (0..2_868).for_each(|id| distinct(&mut index, id));
        assert_eq!(index.bytes(), 4_096 * 8, "2 867 * 10 < 4 096 * 7");
        distinct(&mut index, 2_868);
        assert_eq!(index.bytes(), 8_192 * 8, "2 868 * 10 >= 4 096 * 7");
        for id in 0..=2_868 {
            let known = index.intern(
                2_869,
                hash_of(&id),
                |known| known == id,
                |_| unreachable!("no doubling at 2 869 of 8 192"),
            );
            assert_eq!(known, Some(id), "found again after the doubling");
        }
    }

    #[test]
    fn entries_sharing_a_home_slot_keep_distinct_fingerprints() {
        // Equal above the fingerprint bits, different below.
        let (a, b) = (0xABCD_0000_1234u64, 0xABCD_0000_4321u64);
        let mut index = IdIndex::new();
        let home = index.probe(a, |_| unreachable!());
        assert_eq!(index.probe(b, |_| unreachable!()), home, "same home slot");
        assert_ne!(entry(a, 0), entry(b, 0));
        let none = |_| -> u64 { unreachable!("no doubling") };
        assert_eq!(index.intern(0, a, |_| unreachable!(), none), None);
        // The probe for `b` starts on `a`'s slot and passes it on the
        // fingerprint alone, without asking the store to compare records.
        let asked = |_| -> bool { panic!("the fingerprint filters this entry") };
        assert_eq!(index.intern(1, b, asked, none), None);
        assert_eq!(index.intern(2, a, |id| id == 0, none), Some(0));
        assert_eq!(index.intern(2, b, |id| id == 1, none), Some(1));
    }
}
