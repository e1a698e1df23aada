//! Bit-packed explicit-state exploration: the frontier and the
//! visited-state set hold *encoded* states, at widths a static range
//! analysis has proven sufficient, instead of full `State` values.
//!
//! The plain [`crate::bfs::Checker`] keeps every distinct state as a full
//! value — for the heartbeat composition, hundreds of bytes per state.
//! [`PackedChecker`] runs the same search, through the same id index
//! (`search::IdIndex`: an id and a 16-bit fingerprint per slot, no stored
//! keys, byte-compare on candidate hits), over two flat buffers:
//!
//! * an **arena** of concatenated bit-packed records (one per state,
//!   variable length, written by a [`StateCodec`]),
//! * an **offset** vector locating each record.
//!
//! A field is written and read a word at a time, never bit by bit: the
//! writer ORs it into a 64-bit word it keeps and moves past every complete
//! 32 bits, the reader shifts it out of the at most five bytes it touches.
//!
//! Packing buys bytes, not time: on two or more cores both stores run on
//! [`crate::parallel`]'s pipeline, whose workers do all but the interning,
//! and a search over either store takes about as long.
//!
//! The codec owns the soundness of the widths: encoding a value outside
//! its proven range panics (never silently truncates), and in debug
//! builds every encoded record is immediately decoded and compared to
//! the original state, so a wrong width or a forgotten field fails the
//! first test that reaches it. `hb-verify::packed` derives its codec
//! widths from the `hb-core::dataflow` interval analysis.
//!
//! Exploration is breadth-first (shortest counterexamples): the same
//! search loop as [`crate::bfs`], over this store instead of the hashed
//! one, so statistics and counterexamples are identical, on any number of
//! cores.

use std::borrow::Cow;
use std::fmt::Debug;
use std::time::Duration;

use crate::bfs::CheckOutcome;
use crate::model::Model;
use crate::parallel::{self, find_on, Records, Ship, Wire};
use crate::search::{self, hash_of, IdIndex, Limits};

/// LSB-first bit writer over a reusable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    /// The record's complete 32-bit words, then a copy of `word`.
    bytes: Vec<u8>,
    /// Bytes in complete words: where the copy of `word` starts.
    at: usize,
    /// The `used` (< 32) bits past `at`, LSB first, then zeros.
    word: u64,
    used: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to empty, keeping the allocation.
    pub fn clear(&mut self) {
        (self.at, self.word, self.used) = (0, 0, 0);
    }

    /// Append the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits — a codec trying
    /// to encode outside its proven range must fail loudly, never
    /// truncate.
    #[inline(always)]
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "bit width {width} > 32");
        assert!(
            width == 32 || value >> width == 0,
            "value {value} exceeds its proven {width}-bit range"
        );
        // At most 31 + 32 bits. The word lives in a register; the buffer
        // gets a copy, stored and never read back.
        self.word |= u64::from(value) << self.used;
        self.used += width;
        match self.bytes.get_mut(self.at..self.at + 8) {
            Some(word) => word.copy_from_slice(&self.word.to_le_bytes()),
            None => self.grow(),
        }
        if self.used >= 32 {
            self.at += 4;
            self.word >>= 32;
            self.used -= 32;
        }
    }

    /// Make room for `word` past `at` and store it there.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let len = (2 * self.bytes.len()).max(self.at + 8);
        self.bytes.resize(len, 0);
        self.bytes[self.at..self.at + 8].copy_from_slice(&self.word.to_le_bytes());
    }

    /// The packed bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.at + self.used.div_ceil(8) as usize]
    }
}

/// LSB-first bit reader over a packed record.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Read `width` bits (the inverse of [`BitWriter::push`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 32 or the record holds fewer bits.
    #[inline]
    pub fn read(&mut self, width: u32) -> u32 {
        assert!(width <= 32, "bit width {width} > 32");
        let at = self.pos / 8;
        let word = match self.bytes.get(at..at + 8) {
            Some(eight) => {
                let mut word = [0; 8];
                word.copy_from_slice(eight);
                u64::from_le_bytes(word)
            }
            // The record's last few bytes: only those the field touches.
            None => {
                let end = (self.pos + width as usize).div_ceil(8);
                let tail = self.bytes[at..end].iter().rev();
                tail.fold(0, |word, &byte| word << 8 | u64::from(byte))
            }
        };
        let value = word >> (self.pos % 8);
        self.pos += width as usize;
        (value & ((1 << width) - 1)) as u32
    }
}

/// A bijection between states and bit-packed records.
///
/// `decode(encode(s)) == s` must hold exactly; debug builds assert it
/// on every interned state. Widths are the codec's contract: encoding
/// panics on out-of-range values rather than truncating.
pub trait StateCodec<S> {
    /// Append the packed encoding of `state`.
    fn encode(&self, state: &S, w: &mut BitWriter);
    /// Decode one state (consuming exactly what `encode` wrote).
    fn decode(&self, r: &mut BitReader) -> S;
}

/// Memory footprint of a packed exploration, in bytes.
///
/// The pipeline's chunks in flight are outside it: at most four a worker,
/// each 64 records and their successors' records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedMem {
    /// Concatenated packed state records.
    pub arena_bytes: usize,
    /// Open-addressing hash index.
    pub index_bytes: usize,
    /// Offsets and parent links.
    pub links_bytes: usize,
    /// Peak count of discovered-but-unexpanded ids, at 8 bytes each.
    pub frontier_bytes: usize,
}

impl PackedMem {
    /// Total bytes across all four buffers at their peak.
    pub fn total(&self) -> usize {
        self.arena_bytes + self.index_bytes + self.links_bytes + self.frontier_bytes
    }
}

/// A check outcome plus the packed store's memory accounting.
#[derive(Clone, Debug)]
pub struct PackedRun<M: Model> {
    /// The verdict, in the same shape as the plain checker's.
    pub outcome: CheckOutcome<M>,
    /// Peak memory of the packed exploration.
    pub mem: PackedMem,
}

/// Concatenated packed records and where each one starts: the store's
/// records, and a run of them in the pipeline.
#[derive(Default)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl Records for Arena {
    fn with_room(records: usize) -> Self {
        // The heartbeat models' records are a dozen bytes or so.
        Arena {
            bytes: Vec::with_capacity(16 * records),
            offsets: Vec::with_capacity(records),
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.clear();
    }
}

impl Arena {
    fn record(&self, id: usize) -> &[u8] {
        let end = self
            .offsets
            .get(id + 1)
            .map_or(self.bytes.len(), |&o| o as usize);
        &self.bytes[self.offsets[id] as usize..end]
    }

    fn push(&mut self, record: &[u8]) {
        assert!(
            self.bytes.len() + record.len() <= u32::MAX as usize,
            "packed arena exceeded 4 GiB"
        );
        self.offsets.push(self.bytes.len() as u32);
        self.bytes.extend_from_slice(record);
    }
}

/// The packed arena as a [`search::Store`]: states go in through the
/// codec and come back out by decoding; the shared [`IdIndex`] finds a
/// record again by the hash and the bytes of its encoding.
struct Packed<'c, C> {
    arena: Arena,
    index: IdIndex,
    codec: &'c C,
    scratch: BitWriter,
}

/// `state`'s record, written over `w`. Debug builds decode it back and
/// compare.
fn encode<'w, S: PartialEq + Debug>(
    codec: &impl StateCodec<S>,
    state: &S,
    w: &'w mut BitWriter,
) -> &'w [u8] {
    w.clear();
    codec.encode(state, w);
    #[cfg(debug_assertions)]
    {
        let back = codec.decode(&mut BitReader::new(w.bytes()));
        debug_assert!(
            back == *state,
            "packed codec round-trip mismatch:\n  in:  {state:?}\n  out: {back:?}"
        );
    }
    w.bytes()
}

/// Intern the record `bytes`, whose hash is `hash`, in `arena` through
/// `index`: its id, and whether it is new.
fn intern_record(arena: &mut Arena, index: &mut IdIndex, bytes: &[u8], hash: u64) -> (usize, bool) {
    let (known, id) = (&*arena, arena.offsets.len());
    let same = |k: usize| known.record(k) == bytes;
    let rehash = |k: usize| hash_of(known.record(k));
    match index.intern(id, hash, same, rehash) {
        Some(k) => (k, false),
        None => {
            arena.push(bytes);
            (id, true)
        }
    }
}

impl<S: PartialEq + Debug, C: StateCodec<S>> search::Store<S> for Packed<'_, C> {
    fn intern<R>(&mut self, state: S, fresh: impl FnOnce(&S) -> R) -> (usize, Option<R>) {
        let bytes = encode(self.codec, &state, &mut self.scratch);
        let (id, new) = intern_record(&mut self.arena, &mut self.index, bytes, hash_of(bytes));
        (id, new.then(|| fresh(&state)))
    }

    fn get(&self, id: usize) -> S {
        self.codec
            .decode(&mut BitReader::new(self.arena.record(id)))
    }
}

/// A worker's end of the packed store: it decodes the records it is sent
/// and encodes its successors'.
struct PackedWire<'c, C> {
    codec: &'c C,
    scratch: BitWriter,
}

impl<S: Clone + PartialEq + Debug, C: StateCodec<S> + Sync> Wire<S> for PackedWire<'_, C> {
    type Out = Arena;
    type Back = Arena;

    fn unpack<'r>(&self, out: &'r Arena, i: usize) -> Cow<'r, S> {
        Cow::Owned(self.codec.decode(&mut BitReader::new(out.record(i))))
    }

    fn pack(&mut self, state: S, back: &mut Arena) -> u64 {
        let bytes = encode(self.codec, &state, &mut self.scratch);
        back.push(bytes);
        hash_of(bytes)
    }
}

impl<'c, S: Clone + PartialEq + Debug, C: StateCodec<S> + Sync> Ship<S> for Packed<'c, C> {
    type Wire = PackedWire<'c, C>;

    fn wire(&self) -> PackedWire<'c, C> {
        PackedWire {
            codec: self.codec,
            scratch: BitWriter::new(),
        }
    }

    fn ship(&self, id: usize, out: &mut Arena) {
        out.push(self.arena.record(id));
    }

    fn land(&mut self, back: &mut Arena, i: usize, hash: u64) -> (usize, bool) {
        intern_record(&mut self.arena, &mut self.index, back.record(i), hash)
    }
}

/// Explicit-state checker over bit-packed states.
///
/// Mirrors [`crate::bfs::Checker`]'s builder and outcome shapes; the
/// difference is purely representational (see the module docs).
pub struct PackedChecker<'a, M: Model, C: StateCodec<M::State>> {
    model: &'a M,
    codec: C,
    limits: Limits,
}

impl<'a, M: Model, C: StateCodec<M::State>> PackedChecker<'a, M, C> {
    /// A checker with no practical limits.
    pub fn new(model: &'a M, codec: C) -> Self {
        Self {
            model,
            codec,
            limits: Limits::NONE,
        }
    }

    /// Stop (reporting `Incomplete`) after this many distinct states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.limits.max_states = n;
        self
    }

    /// Stop after roughly this wall-clock budget.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.limits.time_budget = Some(d);
        self
    }

    /// Check that `invariant` holds on every reachable state.
    ///
    /// With two or more cores the states are expanded on one worker thread
    /// per core ([`crate::parallel`]); the search, and so the outcome and
    /// the memory accounting, is the same on any number.
    pub fn check_invariant<F>(&self, invariant: F) -> PackedRun<M>
    where
        M: Sync,
        C: Sync,
        F: Fn(&M::State) -> bool + Sync,
    {
        self.check_on(parallel::workers(), invariant)
    }

    /// [`check_invariant`](Self::check_invariant) on `workers` worker
    /// threads, or on the sequential loop for none.
    pub(crate) fn check_on<F>(&self, workers: usize, invariant: F) -> PackedRun<M>
    where
        M: Sync,
        C: Sync,
        F: Fn(&M::State) -> bool + Sync,
    {
        let store = Packed {
            arena: Arena::default(),
            index: IdIndex::new(),
            codec: &self.codec,
            scratch: BitWriter::new(),
        };
        let out = find_on(self.model, store, workers, self.limits, |s| !invariant(s));
        let mem = PackedMem {
            arena_bytes: out.store.arena.bytes.len(),
            index_bytes: out.store.index.bytes(),
            links_bytes: out.links_bytes() + out.store.arena.offsets.len() * 4,
            frontier_bytes: out.peak_frontier * std::mem::size_of::<(u32, u32)>(),
        };
        PackedRun {
            outcome: out.reachability(self.model).into_check(),
            mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Checker;
    use crate::graph::StateGraph;

    /// The same two-counter grid the plain BFS tests use.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8;
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

    struct GridCodec;
    impl StateCodec<(u8, u8)> for GridCodec {
        fn encode(&self, s: &(u8, u8), w: &mut BitWriter) {
            w.push(s.0 as u32, 2);
            w.push(s.1 as u32, 2);
        }
        fn decode(&self, r: &mut BitReader) -> (u8, u8) {
            (r.read(2) as u8, r.read(2) as u8)
        }
    }

    #[test]
    fn bit_roundtrip_across_byte_boundaries() {
        let mut w = BitWriter::new();
        for (v, bits) in [(5u32, 3), (0, 0), (1023, 10), (1, 1), (77, 7)] {
            w.push(v, bits);
        }
        let mut r = BitReader::new(w.bytes());
        for (v, bits) in [(5u32, 3), (0, 0), (1023, 10), (1, 1), (77, 7)] {
            assert_eq!(r.read(bits), v);
        }
    }

    /// The bit-at-a-time codec, kept as the oracle for [`BitWriter::push`]
    /// and [`BitReader::read`]: append the low `width` bits of `value`.
    fn oracle_push(bytes: &mut Vec<u8>, bits: &mut usize, value: u32, width: u32) {
        for i in 0..width {
            let bit = (value >> i) & 1;
            let byte = *bits / 8;
            if byte == bytes.len() {
                bytes.push(0);
            }
            bytes[byte] |= (bit as u8) << (*bits % 8);
            *bits += 1;
        }
    }

    /// The oracle's read of `width` bits at bit `*pos`.
    fn oracle_read(bytes: &[u8], pos: &mut usize, width: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..width {
            let bit = (bytes[*pos / 8] >> (*pos % 8)) & 1;
            v |= (bit as u32) << i;
            *pos += 1;
        }
        v
    }

    #[test]
    fn the_codec_writes_and_reads_the_bit_serial_oracles_bytes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        let (mut zeros, mut full, mut straddling) = (0, 0, 0);
        for _ in 0..500 {
            let fields: Vec<(u32, u32)> = (0..rng.gen_range(1..40usize))
                .map(|_| {
                    let width = match rng.gen_range(0..8u32) {
                        0 => 0,
                        1 => 32,
                        _ => rng.gen_range(1..32u32),
                    };
                    let value = match width {
                        0 => 0,
                        32 => rng.gen_range(0..=u32::MAX),
                        w => rng.gen_range(0..1u32 << w),
                    };
                    (value, width)
                })
                .collect();
            let (mut w, mut oracle, mut bits) = (BitWriter::new(), Vec::new(), 0);
            for &(value, width) in &fields {
                zeros += usize::from(width == 0);
                full += usize::from(width == 32);
                straddling +=
                    usize::from(bits / 8 != (bits + width as usize).saturating_sub(1) / 8);
                w.push(value, width);
                oracle_push(&mut oracle, &mut bits, value, width);
                assert_eq!(w.bytes(), oracle, "{fields:?}");
            }
            let (mut r, mut pos) = (BitReader::new(w.bytes()), 0);
            for &(value, width) in &fields {
                assert_eq!(oracle_read(&oracle, &mut pos, width), value);
                assert_eq!(r.read(width), value, "{fields:?}");
            }
        }
        assert!(zeros > 100 && full > 100 && straddling > 1_000);
    }

    #[test]
    fn one_writer_writes_the_oracles_bytes_at_every_width_across_many_words() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(30);
        // One writer for every record: `clear` must forget the last one.
        let mut w = BitWriter::new();
        let (mut widths, mut longest, mut peeks) = ([0; 33], 0, 0);
        for _ in 0..300 {
            w.clear();
            let (mut oracle, mut bits, mut fields) = (Vec::new(), 0, Vec::new());
            for _ in 0..rng.gen_range(1..300usize) {
                let width = rng.gen_range(0..=32u32);
                let top = u32::MAX >> (32 - width.max(1));
                let value = match (width, rng.gen_range(0..3u32)) {
                    (0, _) | (_, 0) => 0,
                    (_, 1) => top,
                    _ => rng.gen_range(0..=top),
                };
                widths[width as usize] += 1;
                w.push(value, width);
                oracle_push(&mut oracle, &mut bits, value, width);
                fields.push((value, width));
                // Read in the middle of the record, then write on.
                if rng.gen_range(0..8u32) == 0 {
                    assert_eq!(w.bytes(), oracle, "{fields:?}");
                    peeks += 1;
                }
            }
            assert_eq!(w.bytes(), oracle, "{fields:?}");
            longest = longest.max(oracle.len());
            let mut r = BitReader::new(w.bytes());
            for &(value, width) in &fields {
                assert_eq!(r.read(width), value, "{fields:?}");
            }
        }
        assert!(widths.iter().all(|&n| n > 500), "{widths:?}");
        assert!(
            longest > 64 * 8 && peeks > 1_000,
            "{longest} bytes, {peeks} peeks"
        );
    }

    #[test]
    #[should_panic(expected = "bit width 33 > 32")]
    fn a_field_wider_than_32_bits_panics() {
        BitWriter::new().push(0, 33);
    }

    #[test]
    #[should_panic(expected = "exceeds its proven")]
    fn encoding_outside_the_proven_range_panics() {
        BitWriter::new().push(4, 2);
    }

    #[test]
    fn packed_agrees_with_plain_bfs_exhaustively() {
        let plain = Checker::new(&Grid).check_invariant(|_| true);
        let packed = PackedChecker::new(&Grid, GridCodec).check_invariant(|_| true);
        assert!(packed.outcome.holds());
        assert_eq!(packed.outcome.stats().states, plain.stats().states);
        assert_eq!(
            packed.outcome.stats().transitions,
            plain.stats().transitions
        );
        // 16 states, 4 bits each, records byte-aligned: 16 arena bytes.
        assert_eq!(packed.mem.arena_bytes, 16);
    }

    #[test]
    fn packed_counterexamples_are_shortest_and_rebuildable() {
        let run = PackedChecker::new(&Grid, GridCodec).check_invariant(|s| *s != (2, 1));
        let path = run.outcome.counterexample().expect("reachable");
        assert_eq!(path.len(), 3);
        assert_eq!(path.last_state(), &(2, 1));
        // Replay the rebuilt actions through the model.
        let mut s = *path.initial_state();
        for (a, expect) in path.steps() {
            s = Grid.next_state(&s, a).unwrap();
            assert_eq!(&s, expect);
        }
    }

    #[test]
    fn state_limit_reports_incomplete() {
        let run = PackedChecker::new(&Grid, GridCodec)
            .max_states(3)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(run.outcome, CheckOutcome::Incomplete(_)));
    }

    /// Moves on a 6 × 6 board from two corners: right, up, diagonal, left.
    /// Off-board moves are listed but disabled (`next_state` is `None`, so
    /// action indices skip), (2, 2) is a deadlock, one initial state is
    /// listed twice, and most cells have several shortest paths.
    struct Board;
    impl Model for Board {
        type State = (u8, u8);
        type Action = (i8, i8);
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0), (5, 0), (0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<(i8, i8)>) {
            if *s != (2, 2) {
                out.extend([(1, 0), (0, 1), (1, 1), (-1, 0)]);
            }
        }
        fn next_state(&self, s: &(u8, u8), a: &(i8, i8)) -> Option<(u8, u8)> {
            let x = s.0.checked_add_signed(a.0).filter(|&x| x < 6)?;
            let y = s.1.checked_add_signed(a.1).filter(|&y| y < 6)?;
            Some((x, y))
        }
    }

    struct BoardCodec;
    impl StateCodec<(u8, u8)> for BoardCodec {
        fn encode(&self, s: &(u8, u8), w: &mut BitWriter) {
            w.push(s.0.into(), 3);
            w.push(s.1.into(), 3);
        }
        fn decode(&self, r: &mut BitReader) -> (u8, u8) {
            (r.read(3) as u8, r.read(3) as u8)
        }
    }

    /// Run the sequential loop over the hashed store under `limits` on the
    /// invariant "not `bad`", and assert that every other search is the
    /// same one: the same verdict, the same `Stats` (`depth` and
    /// `truncated` included) and the same counterexample, step for step.
    /// The others are `Checker` as built by its public builders, and the
    /// hashed and the packed store each run sequentially and on the
    /// pipeline at 1, 2 and 4 workers, each store with the sequential
    /// loop's peak frontier, and the packed one with the same memory
    /// accounting at every worker count. Returns that accounting.
    fn same_search<M, C>(
        model: &M,
        codec: C,
        limits: Limits,
        bad: impl Fn(&M::State) -> bool + Sync,
    ) -> PackedMem
    where
        M: Model + Sync,
        M::State: Send + Sync,
        M::Action: PartialEq,
        C: StateCodec<M::State> + Sync,
    {
        let reference = search::find(
            model,
            search::Hashed::new(),
            search::Order::Fifo,
            limits,
            &bad,
        );
        let plain = reference.reachability(model).into_check();
        let same = |run: &CheckOutcome<M>, what: &str| {
            assert_eq!(
                std::mem::discriminant(&plain),
                std::mem::discriminant(run),
                "{what}"
            );
            assert_eq!(plain.stats(), run.stats(), "{what}");
            assert_eq!(plain.counterexample(), run.counterexample(), "{what}");
        };
        let mut checker = Checker::new(model)
            .max_states(limits.max_states)
            .max_depth(limits.max_depth);
        if let Some(budget) = limits.time_budget {
            checker = checker.time_budget(budget);
        }
        same(
            &checker.check_invariant(|s| !bad(s)),
            &format!("{limits:?} by Checker"),
        );
        let packed = PackedChecker {
            model,
            codec,
            limits,
        };
        let sequential = packed.check_on(0, |s| !bad(s));
        for workers in [0, 1, 2, 4] {
            let what = format!("{limits:?} on {workers} workers");
            let hashed = find_on(model, search::Hashed::new(), workers, limits, &bad);
            same(
                &hashed.reachability(model).into_check(),
                &format!("hashed, {what}"),
            );
            assert_eq!(
                hashed.peak_frontier, reference.peak_frontier,
                "hashed, {what}"
            );
            let run = packed.check_on(workers, |s| !bad(s));
            same(&run.outcome, &format!("packed, {what}"));
            assert_eq!(run.mem, sequential.mem, "{what}");
            assert_eq!(
                run.mem.frontier_bytes,
                reference.peak_frontier * 8,
                "packed, {what}"
            );
        }
        sequential.mem
    }

    #[test]
    fn the_packed_search_is_the_plain_search_exhaustively() {
        for mem in [
            same_search(&Grid, GridCodec, Limits::NONE, |_| false),
            same_search(&Board, BoardCodec, Limits::NONE, |_| false),
        ] {
            // One byte a record, 8 of link and 4 of offset a state, and
            // an index that never doubled.
            assert_eq!(mem.links_bytes, 12 * mem.arena_bytes);
            assert_eq!(mem.index_bytes, 4_096 * 8);
        }
    }

    #[test]
    fn the_packed_search_finds_the_plain_searchs_counterexample_to_every_state() {
        let all = StateGraph::explore(&Board, usize::MAX).states;
        assert_eq!(all.len(), 36);
        for target in all {
            same_search(&Board, BoardCodec, Limits::NONE, |s| *s == target);
        }
        for target in StateGraph::explore(&Grid, usize::MAX).states {
            same_search(&Grid, GridCodec, Limits::NONE, |s| *s == target);
        }
    }

    #[test]
    fn the_packed_search_truncates_where_the_plain_search_does() {
        for max_states in 1..=40 {
            for max_depth in 0..=7 {
                let limits = Limits {
                    max_states,
                    max_depth,
                    time_budget: None,
                };
                same_search(&Board, BoardCodec, limits, |_| false);
                same_search(&Board, BoardCodec, limits, |s| *s == (4, 3));
                same_search(&Grid, GridCodec, limits, |s| *s == (3, 1));
            }
        }
    }

    #[test]
    fn the_searches_stop_where_the_plain_search_does_on_a_time_budget() {
        // A zero budget is spent before the first state leaves the
        // frontier; an hour is never spent. Both are deterministic.
        for budget in [Duration::ZERO, Duration::from_secs(3_600)] {
            let limits = Limits {
                time_budget: Some(budget),
                ..Limits::NONE
            };
            same_search(&Board, BoardCodec, limits, |_| false);
            same_search(&Board, BoardCodec, limits, |s| *s == (4, 3));
            same_search(&Cube(20), CubeCodec, limits, |s| *s == (7, 9, 4));
        }
    }

    /// A state whose `Hash` is a constant when `collide` is set — every
    /// key then shares one probe sequence in [`Hashed`]. (The packed store
    /// hashes the encoding, so there the flag is just one more bit.)
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Key {
        v: u32,
        collide: bool,
    }
    impl std::hash::Hash for Key {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            h.write_u32(if self.collide { 0 } else { self.v });
        }
    }
    struct KeyCodec;
    impl StateCodec<Key> for KeyCodec {
        fn encode(&self, k: &Key, w: &mut BitWriter) {
            w.push(k.v, 32);
            w.push(k.collide.into(), 1);
        }
        fn decode(&self, r: &mut BitReader) -> Key {
            Key {
                v: r.read(32),
                collide: r.read(1) == 1,
            }
        }
    }

    /// The [`search::Store`] contract, across the index's first two
    /// doublings (4 096 slots at load 0.7: ids 2 868 and 5 735).
    fn drive(mut store: impl search::Store<Key>, collide: bool) {
        const N: usize = 6_000;
        let key = |i: usize| Key {
            v: i as u32 * 3 + 1,
            collide,
        };
        let mut shown = 0;
        for i in 0..N {
            // Ids are dense in first-seen order; a fresh state is shown to
            // the callback, once, and the callback's answer comes back.
            let (id, answer) = store.intern(key(i), |k| {
                shown += 1;
                k.v
            });
            assert_eq!((id, answer), (i, Some(key(i).v)));
            // An equal state gets the same id and is not shown again.
            let again = store.intern(key(i / 2), |_| -> u32 { unreachable!("known") });
            assert_eq!(again, (i / 2, None));
        }
        assert_eq!(shown, N);
        for i in 0..N {
            assert_eq!(store.get(i), key(i), "id {i}");
        }
    }

    #[test]
    fn both_stores_keep_the_intern_contract_across_growth() {
        for collide in [true, false] {
            drive(search::Hashed::new(), collide);
            let packed = Packed {
                arena: Arena::default(),
                index: IdIndex::new(),
                codec: &KeyCodec,
                scratch: BitWriter::new(),
            };
            drive(packed, collide);
        }
    }

    #[test]
    fn the_index_survives_growth() {
        // A model with enough states to force several index growths.
        struct Big;
        impl Model for Big {
            type State = u32;
            type Action = ();
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn actions(&self, s: &u32, out: &mut Vec<()>) {
                if *s < 20_000 {
                    out.push(());
                }
            }
            fn next_state(&self, s: &u32, _: &()) -> Option<u32> {
                Some(s + 1)
            }
        }
        struct U32Codec;
        impl StateCodec<u32> for U32Codec {
            fn encode(&self, s: &u32, w: &mut BitWriter) {
                w.push(*s, 15);
            }
            fn decode(&self, r: &mut BitReader) -> u32 {
                r.read(15)
            }
        }
        let run = PackedChecker::new(&Big, U32Codec).check_invariant(|_| true);
        assert!(run.outcome.holds());
        assert_eq!(run.outcome.stats().states, 20_001);
    }

    /// Three counters up to a bound: 9 261 states at 20, enough to keep
    /// chunks in flight.
    struct Cube(u8);
    impl Model for Cube {
        type State = (u8, u8, u8);
        type Action = u8;
        fn initial_states(&self) -> Vec<(u8, u8, u8)> {
            vec![(0, 0, 0)]
        }
        fn actions(&self, s: &(u8, u8, u8), out: &mut Vec<u8>) {
            for (k, c) in (0..).zip([s.0, s.1, s.2]) {
                if c < self.0 {
                    out.push(k);
                }
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

    /// Five bits a counter: one too few past 31.
    struct CubeCodec;
    impl StateCodec<(u8, u8, u8)> for CubeCodec {
        fn encode(&self, s: &(u8, u8, u8), w: &mut BitWriter) {
            [s.0, s.1, s.2].iter().for_each(|&c| w.push(c.into(), 5));
        }
        fn decode(&self, r: &mut BitReader) -> (u8, u8, u8) {
            (r.read(5) as u8, r.read(5) as u8, r.read(5) as u8)
        }
    }

    #[test]
    fn the_pipeline_stops_mid_chunk_and_at_the_state_cap_with_work_in_flight() {
        // (7, 9, 4) is discovered deep into the search, inside a chunk,
        // with other chunks out; the cap stops the search the same way.
        let cube = Cube(20);
        same_search(&cube, CubeCodec, Limits::NONE, |s| *s == (7, 9, 4));
        same_search(&cube, CubeCodec, Limits::NONE, |s| *s == (20, 20, 20));
        for max_states in [1, 64, 65, 1_000, 4_321] {
            let limits = Limits {
                max_states,
                ..Limits::NONE
            };
            same_search(&cube, CubeCodec, limits, |_| false);
        }
    }

    /// A worker encodes (32, 0, 0) in five bits: the codec's own panic
    /// must reach the caller.
    fn overflow_on(workers: usize) {
        PackedChecker::new(&Cube(40), CubeCodec).check_on(workers, |_| true);
    }

    #[test]
    #[should_panic(expected = "exceeds its proven")]
    fn a_workers_panic_reaches_the_caller_at_2_workers() {
        overflow_on(2);
    }

    #[test]
    #[should_panic(expected = "exceeds its proven")]
    fn a_workers_panic_reaches_the_caller_at_4_workers() {
        overflow_on(4);
    }
}
