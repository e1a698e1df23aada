//! The pipeline: successors computed on worker threads, interned on one.
//!
//! `find_on` runs the crate's one search loop (`search::explore_with`)
//! breadth-first on the calling thread, which alone owns the store: its
//! id index, its records and the parent links. Discovered ids are shipped
//! to scoped worker threads in chunks of `CHUNK` (64) as soon as they are
//! interned, at most `CHUNKS_PER_WORKER` (4) chunks a worker in flight, each
//! as the store's own records (`Ship`). A worker decodes each state,
//! enumerates its actions, computes every successor, encodes it, hashes
//! the record and evaluates the goal on it (`Wire`); it sends the chunk
//! back with one record, hash and goal bit per successor. The search
//! thread takes chunks back in id order and interns each successor with
//! the same bookkeeping as the sequential loop, so ids, parent links,
//! `Stats`, the peak frontier and the counterexample are the sequential
//! search's at any worker count.
//!
//! A chunk's buffers go back and forth: the search thread allocates them,
//! clears a chunk it has interned and ships it again, and a worker writes
//! its successors into the buffers the chunk arrived with. A worker that
//! outgrows a buffer reallocates it, which glibc does in the heap the
//! buffer came from, so no memory settles in a worker's heap: whatever the
//! workers wrote is freed on the search thread, where the next search
//! reuses it.
//!
//! A worker runs each chunk under `catch_unwind` and sends a panic's
//! payload back instead; the search thread then stops, closes the job
//! queue, joins the workers and re-raises the payload. Stopping early
//! (a goal state, a limit) closes the queue the same way, and workers
//! finish the chunks already queued and exit.
//!
//! Two stores ship their records: the packed arena ([`crate::packed`]),
//! whose records are a few bytes, and the hashed store
//! ([`crate::bfs::Checker`]), whose records are the flat state values
//! themselves.

use std::any::Any;
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crate::model::Model;
use crate::search::{
    explore_with, find, hash_of, successors, Expand, Explored, Hashed, Limits, Order, Run, Store,
};

/// Ids a chunk carries, unless the search waits on the next id.
const CHUNK: usize = 64;

/// Chunks in flight, per worker.
const CHUNKS_PER_WORKER: usize = 4;

/// Workers on this machine: one per core, or none (the sequential loop)
/// below two cores, where the search thread would mostly wait.
pub(crate) fn workers() -> usize {
    match std::thread::available_parallelism().map_or(1, |n| n.get()) {
        1 => 0,
        cores => cores,
    }
}

/// A run of records in flight between the search thread and a worker.
pub(crate) trait Records: Send {
    /// Empty, with room for `records` records.
    fn with_room(records: usize) -> Self;
    /// Empty, keeping the allocation.
    fn clear(&mut self);
}

impl<T: Send> Records for Vec<T> {
    fn with_room(records: usize) -> Self {
        Vec::with_capacity(records)
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// A worker's end of a [`Ship`] store: it reads the records of the
/// states it expands and writes its successors' records.
pub(crate) trait Wire<S: Clone>: Send {
    /// The records of the states shipped out.
    type Out: Records;
    /// The records of their successors, sent back.
    type Back: Records;
    /// The `i`th state of `out`.
    fn unpack<'r>(&self, out: &'r Self::Out, i: usize) -> Cow<'r, S>;
    /// Append `state`'s record to `back`; returns the hash the store
    /// indexes that record under.
    fn pack(&mut self, state: S, back: &mut Self::Back) -> u64;
}

/// A store whose records travel to the pipeline's workers and back.
pub(crate) trait Ship<S: Clone>: Store<S> {
    /// One worker's end.
    type Wire: Wire<S>;
    /// A fresh worker end.
    fn wire(&self) -> Self::Wire;
    /// Append the record of `id` to `out`.
    fn ship(&self, id: usize, out: &mut <Self::Wire as Wire<S>>::Out);
    /// Intern the `i`th record of `back`, whose hash is `hash`: its id,
    /// and whether it is new.
    fn land(
        &mut self,
        back: &mut <Self::Wire as Wire<S>>::Back,
        i: usize,
        hash: u64,
    ) -> (usize, bool);
}

/// One successor as a worker reports it.
#[derive(Clone, Copy)]
struct Succ {
    action: u32,
    goal: bool,
    hash: u64,
}

/// The ids `ids`, out to a worker and back with their successors.
struct Chunk<O, B> {
    ids: Range<usize>,
    /// The records of `ids`.
    states: O,
    /// Their successors' records, in id then action order.
    next: B,
    /// One per record of `next`.
    succs: Vec<Succ>,
    /// Per id: the end of its successors in `succs`.
    ends: Vec<usize>,
}

impl<O: Records, B: Records> Chunk<O, B> {
    /// A chunk allocated on the calling thread, with room for a chunk's
    /// records and four successors each.
    fn new() -> Self {
        Chunk {
            ids: 0..0,
            states: O::with_room(CHUNK),
            next: B::with_room(4 * CHUNK),
            succs: Vec::with_capacity(4 * CHUNK),
            ends: Vec::with_capacity(CHUNK),
        }
    }
}

type ChunkOf<S, W> = Chunk<<W as Wire<S>>::Out, <W as Wire<S>>::Back>;

type Panic = Box<dyn Any + Send>;

/// A worker: expand every chunk `jobs` yields until the queue closes.
fn work<M: Model, W: Wire<M::State>>(
    model: &M,
    mut wire: W,
    goal: &(impl Fn(&M::State) -> bool + Sync),
    jobs: &Mutex<Receiver<ChunkOf<M::State, W>>>,
    done: Sender<Result<ChunkOf<M::State, W>, Panic>>,
) {
    let mut actions = Vec::new();
    loop {
        let job = match jobs.lock() {
            Ok(jobs) => jobs.recv(),
            Err(_) => return,
        };
        let Ok(mut chunk) = job else {
            return;
        };
        let expanded = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..chunk.ids.len() {
                let state = wire.unpack(&chunk.states, i);
                successors(model, &state, &mut actions, |action, next| {
                    let goal = goal(&next);
                    let hash = wire.pack(next, &mut chunk.next);
                    chunk.succs.push(Succ { action, goal, hash });
                    true
                });
                chunk.ends.push(chunk.succs.len());
            }
        }));
        if done.send(expanded.map(|()| chunk)).is_err() {
            return;
        }
    }
}

/// The search thread's end: ships discovered ids and hands the search
/// each expanded id's successors, in id order.
struct Pipeline<S: Clone, W: Wire<S>> {
    jobs: Sender<ChunkOf<S, W>>,
    done: Receiver<Result<ChunkOf<S, W>, Panic>>,
    workers: usize,
    /// Ids below this have been shipped.
    shipped: usize,
    /// Chunks shipped and not yet taken back into `current`.
    in_flight: usize,
    /// The chunk being interned; the next one starts at its end.
    current: ChunkOf<S, W>,
    /// Chunks back ahead of their turn.
    early: Vec<ChunkOf<S, W>>,
    /// Cleared chunks, to ship again.
    spare: Vec<ChunkOf<S, W>>,
    /// A worker's panic.
    failed: Option<Panic>,
}

impl<S: Clone, W: Wire<S>> Pipeline<S, W> {
    /// Make `current` the chunk holding `id`, shipping discovered ids on
    /// the way; `false` once a worker has failed.
    fn reach(&mut self, id: usize, discovered: usize, ship: impl Fn(usize, &mut W::Out)) -> bool {
        while !self.current.ids.contains(&id) {
            if self.failed.is_some() {
                return false;
            }
            self.dispatch(id, discovered, &ship);
            let next = self.current.ids.end;
            if let Some(at) = self.early.iter().position(|c| c.ids.start == next) {
                let mut interned = std::mem::replace(&mut self.current, self.early.swap_remove(at));
                self.in_flight -= 1;
                interned.states.clear();
                interned.next.clear();
                interned.succs.clear();
                interned.ends.clear();
                self.spare.push(interned);
                continue;
            }
            match self.done.recv() {
                Ok(Ok(chunk)) => self.early.push(chunk),
                Ok(Err(panic)) => self.failed = Some(panic),
                Err(_) => self.failed = Some(Box::new("the pipeline's workers are gone")),
            }
        }
        true
    }

    /// Ship discovered ids in chunks of [`CHUNK`], with at most
    /// [`CHUNKS_PER_WORKER`] chunks a worker in flight. When the search
    /// waits on an id not yet shipped, ship what there is, split across
    /// the workers.
    fn dispatch(&mut self, id: usize, discovered: usize, ship: &impl Fn(usize, &mut W::Out)) {
        let waiting = self.shipped <= id;
        let size = if waiting {
            (discovered - self.shipped)
                .div_ceil(self.workers)
                .min(CHUNK)
        } else {
            CHUNK
        };
        while self.shipped < discovered && self.in_flight < CHUNKS_PER_WORKER * self.workers {
            let end = discovered.min(self.shipped + size);
            if end - self.shipped < size && !waiting {
                return;
            }
            let mut chunk = self.spare.pop().unwrap_or_else(Chunk::new);
            chunk.ids = self.shipped..end;
            chunk.ids.clone().for_each(|id| ship(id, &mut chunk.states));
            self.shipped = end;
            self.in_flight += 1;
            if self.jobs.send(chunk).is_err() {
                self.failed = Some(Box::new("the pipeline's workers are gone"));
                return;
            }
        }
    }
}

impl<S: Clone, St: Ship<S>, V> Expand<St, V> for Pipeline<S, St::Wire> {
    fn expand(&mut self, run: &mut Run<St, V>, id: usize, depth: usize) -> bool {
        let store = run.store();
        if !self.reach(id, run.discovered(), |id, out| store.ship(id, out)) {
            return false;
        }
        let chunk = &mut self.current;
        let at = id - chunk.ids.start;
        let from = at.checked_sub(1).map_or(0, |before| chunk.ends[before]);
        (from..chunk.ends[at]).all(|i| {
            let Succ { action, goal, hash } = chunk.succs[i];
            run.arrive((id, depth), action, !goal, |store| {
                store.land(&mut chunk.next, i, hash)
            })
        })
    }
}

/// Breadth-first [`find`] over `store`, with `workers` threads expanding
/// states ahead of the search thread, or none: the sequential loop. The
/// same search either way. A worker's panic is re-raised here with its
/// own payload.
pub(crate) fn find_on<M, St>(
    model: &M,
    store: St,
    workers: usize,
    limits: Limits,
    goal: impl Fn(&M::State) -> bool + Sync,
) -> Explored<St>
where
    M: Model + Sync,
    St: Ship<M::State>,
{
    if workers == 0 {
        return find(model, store, Order::Fifo, limits, goal);
    }
    let wires: Vec<St::Wire> = (0..workers).map(|_| store.wire()).collect();
    let (jobs, queue) = channel();
    let (done, results) = channel();
    let (goal, queue) = (&goal, &Mutex::new(queue));
    let (out, failed) = std::thread::scope(|scope| {
        for wire in wires {
            let done = done.clone();
            scope.spawn(move || work(model, wire, goal, queue, done));
        }
        drop(done);
        let mut pipeline = Pipeline {
            jobs,
            done: results,
            workers,
            shipped: 0,
            in_flight: 0,
            current: Chunk::new(),
            early: Vec::new(),
            spare: Vec::new(),
            failed: None,
        };
        let on_fresh = |_: usize, s: &M::State| !goal(s);
        let out = explore_with(
            model,
            &mut pipeline,
            store,
            Order::Fifo,
            limits,
            on_fresh,
            |_, _| {},
        );
        // The job queue closes as `pipeline` drops here; the scope then
        // joins the workers.
        (out, pipeline.failed)
    });
    if let Some(panic) = failed {
        resume_unwind(panic);
    }
    out
}

/// A worker's end of the hashed store: the values themselves.
pub(crate) struct Values;

impl<S: Clone + std::hash::Hash + Send> Wire<S> for Values {
    type Out = Vec<S>;
    type Back = Vec<Option<S>>;

    fn unpack<'r>(&self, out: &'r Vec<S>, i: usize) -> Cow<'r, S> {
        Cow::Borrowed(&out[i])
    }

    fn pack(&mut self, state: S, back: &mut Vec<Option<S>>) -> u64 {
        let hash = hash_of(&state);
        back.push(Some(state));
        hash
    }
}

impl<S: Clone + Eq + std::hash::Hash + Send> Ship<S> for Hashed<S> {
    type Wire = Values;

    fn wire(&self) -> Values {
        Values
    }

    fn ship(&self, id: usize, out: &mut Vec<S>) {
        out.push(self.get(id));
    }

    fn land(&mut self, back: &mut Vec<Option<S>>, i: usize, hash: u64) -> (usize, bool) {
        let Some(state) = back[i].take() else {
            unreachable!("a successor lands once");
        };
        let (id, fresh) = self.intern_hashed(state, hash, |_| ());
        (id, fresh.is_some())
    }
}

/// A name for [`Checker`](crate::bfs::Checker), kept for callers that
/// import it.
pub type ParallelChecker<'a, M> = crate::bfs::Checker<'a, M>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{CheckOutcome, Checker};

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
        let seq = Checker::new(&m).threads(1).check_invariant(|_| true);
        let par = Checker::new(&m).threads(4).check_invariant(|_| true);
        assert!(seq.holds() && par.holds());
        assert_eq!(seq.stats().states, par.stats().states);
    }

    #[test]
    fn parallel_finds_violation_with_valid_path() {
        let m = Grid3(6);
        let out = Checker::new(&m)
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
        // Still breadth-first: a shortest path.
        assert_eq!(path.len(), 9);
    }

    #[test]
    fn parallel_state_cap() {
        let m = Grid3(20);
        let out = Checker::new(&m)
            .threads(2)
            .max_states(100)
            .check_invariant(|_| true);
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
    }

    #[test]
    fn violation_in_initial_state() {
        let m = Grid3(2);
        let out = Checker::new(&m).check_invariant(|s| *s != (0, 0, 0));
        assert_eq!(out.counterexample().unwrap().len(), 0);
    }
}
