//! Bit-packed explicit-state exploration: the frontier and the
//! visited-state set hold *encoded* states, at widths a static range
//! analysis has proven sufficient, instead of hash-map keys of the full
//! `State` value.
//!
//! The plain [`crate::bfs::Checker`] stores every distinct state twice
//! (once in the intern vector, once as a `HashMap` key) — dozens of heap
//! allocations per state for a model like the heartbeat composition
//! whose states own vectors. [`PackedChecker`] runs the same search over
//! three flat buffers, beside the search's own parent links:
//!
//! * an **arena** of concatenated bit-packed records (one per state,
//!   variable length, written by a [`StateCodec`]),
//! * an **offset** vector locating each record,
//! * an open-addressing **hash index** over the records (no stored
//!   keys: a 16-bit fingerprint per slot, byte-compare on candidate
//!   hits).
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
//! one, so statistics and counterexamples are identical.

use std::time::Duration;

use crate::bfs::CheckOutcome;
use crate::model::Model;
use crate::search::{self, find, Limits, Order};

/// LSB-first bit writer over a reusable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bits = 0;
    }

    /// Append the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits — a codec trying
    /// to encode outside its proven range must fail loudly, never
    /// truncate.
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "bit width {width} > 32");
        assert!(
            width == 32 || value >> width == 0,
            "value {value} exceeds its proven {width}-bit range"
        );
        for i in 0..width {
            let bit = (value >> i) & 1;
            let byte = self.bits / 8;
            if byte == self.bytes.len() {
                self.bytes.push(0);
            }
            self.bytes[byte] |= (bit as u8) << (self.bits % 8);
            self.bits += 1;
        }
    }

    /// The packed bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
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
    pub fn read(&mut self, width: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..width {
            let byte = self.pos / 8;
            let bit = (self.bytes[byte] >> (self.pos % 8)) & 1;
            v |= (bit as u32) << i;
            self.pos += 1;
        }
        v
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

/// Packed-state store: arena + offsets + open-addressing index.
struct Store {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    /// `0` = empty; otherwise `((id + 1) << 16) | fingerprint`.
    slots: Vec<u64>,
    mask: usize,
}

const FP_MASK: u64 = 0xFFFF;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Store {
    fn new() -> Self {
        let cap = 1 << 12;
        Self {
            arena: Vec::new(),
            offsets: Vec::new(),
            slots: vec![0; cap],
            mask: cap - 1,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    fn record(&self, id: usize) -> &[u8] {
        let start = self.offsets[id] as usize;
        let end = self
            .offsets
            .get(id + 1)
            .map(|&o| o as usize)
            .unwrap_or(self.arena.len());
        &self.arena[start..end]
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots = vec![0; cap];
        for id in 0..self.len() {
            let h = fnv1a(self.record(id));
            let mut i = h as usize & self.mask;
            while self.slots[i] != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = ((id as u64 + 1) << 16) | (h & FP_MASK);
        }
    }

    /// Intern a packed record; returns `(id, freshly inserted)`.
    fn intern(&mut self, bytes: &[u8]) -> (usize, bool) {
        // Keep the load factor at or below 0.7.
        if self.len() * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let h = fnv1a(bytes);
        let mut i = h as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                let id = self.offsets.len();
                assert!(
                    self.arena.len() + bytes.len() <= u32::MAX as usize,
                    "packed arena exceeded 4 GiB"
                );
                self.offsets.push(self.arena.len() as u32);
                self.arena.extend_from_slice(bytes);
                self.slots[i] = ((id as u64 + 1) << 16) | (h & FP_MASK);
                return (id, true);
            }
            if slot & FP_MASK == h & FP_MASK {
                let id = ((slot >> 16) - 1) as usize;
                if self.record(id) == bytes {
                    return (id, false);
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    fn index_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u64>()
    }
}

/// The packed arena as a [`search::Store`]: states go in through the
/// codec and come back out by decoding.
struct Packed<'c, C> {
    arena: Store,
    codec: &'c C,
    scratch: BitWriter,
}

impl<S: PartialEq + std::fmt::Debug, C: StateCodec<S>> search::Store<S> for Packed<'_, C> {
    fn intern<R>(&mut self, state: S, fresh: impl FnOnce(&S) -> R) -> (usize, Option<R>) {
        self.scratch.clear();
        self.codec.encode(&state, &mut self.scratch);
        #[cfg(debug_assertions)]
        {
            let back = self.codec.decode(&mut BitReader::new(self.scratch.bytes()));
            debug_assert!(
                back == state,
                "packed codec round-trip mismatch:\n  in:  {state:?}\n  out: {back:?}"
            );
        }
        let (id, is_fresh) = self.arena.intern(self.scratch.bytes());
        (id, is_fresh.then(|| fresh(&state)))
    }

    fn get(&self, id: usize) -> S {
        self.codec
            .decode(&mut BitReader::new(self.arena.record(id)))
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
    pub fn check_invariant<F>(&self, invariant: F) -> PackedRun<M>
    where
        F: Fn(&M::State) -> bool,
    {
        let store = Packed {
            arena: Store::new(),
            codec: &self.codec,
            scratch: BitWriter::new(),
        };
        let out = find(self.model, store, Order::Fifo, self.limits, |s| {
            !invariant(s)
        });
        let arena = &out.store.arena;
        let mem = PackedMem {
            arena_bytes: arena.arena.len(),
            index_bytes: arena.index_bytes(),
            links_bytes: out.links_bytes() + arena.offsets.len() * 4,
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
}
