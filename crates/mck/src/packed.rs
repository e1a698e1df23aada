//! Bit-packed explicit-state exploration: the frontier and the
//! visited-state set hold *encoded* states, at widths a static range
//! analysis has proven sufficient, instead of full `State` values.
//!
//! The plain [`crate::bfs::Checker`] keeps every distinct state as a full
//! value — for a model like the heartbeat composition, whose states own
//! vectors, that is several heap blocks and hundreds of bytes per state.
//! [`PackedChecker`] runs the same search, through the same id index
//! (`search::IdIndex`: an id and a 16-bit fingerprint per slot, no stored
//! keys, byte-compare on candidate hits), over two flat buffers:
//!
//! * an **arena** of concatenated bit-packed records (one per state,
//!   variable length, written by a [`StateCodec`]),
//! * an **offset** vector locating each record.
//!
//! A field is written and read a word at a time (shifted into place and
//! ORed over the at most five bytes it touches), never bit by bit. What
//! packing buys is still bytes, not time: encoding a successor costs more
//! than hashing its full value, so a packed search runs slower than the
//! same search over the hashed store.
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
use crate::search::{self, find, hash_of, IdIndex, Limits, Order};

/// LSB-first bit writer over a reusable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    /// The record, then at least 8 zero bytes past its last partial byte,
    /// so every field is one 8-byte read-modify-write.
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
    #[inline]
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "bit width {width} > 32");
        assert!(
            width == 32 || value >> width == 0,
            "value {value} exceeds its proven {width}-bit range"
        );
        // At most 7 + 32 bits, shifted into place and ORed over one word.
        let (at, shift) = (self.bits / 8, self.bits % 8);
        if self.bytes.len() < at + 8 {
            self.bytes.resize(at + 16, 0);
        }
        let word = &mut self.bytes[at..at + 8];
        let mut bits = [0; 8];
        bits.copy_from_slice(word);
        let bits = u64::from_le_bytes(bits) | u64::from(value) << shift;
        word.copy_from_slice(&bits.to_le_bytes());
        self.bits += width as usize;
    }

    /// The packed bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.bits.div_ceil(8)]
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

/// Concatenated packed records and where each one starts.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
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
        let (bytes, arena, id) = (self.scratch.bytes(), &self.arena, self.arena.offsets.len());
        let same = |known: usize| arena.record(known) == bytes;
        let rehash = |known: usize| hash_of(arena.record(known));
        if let Some(known) = self.index.intern(id, hash_of(bytes), same, rehash) {
            return (known, None);
        }
        self.arena.push(bytes);
        (id, Some(fresh(&state)))
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
            arena: Arena::default(),
            index: IdIndex::new(),
            codec: &self.codec,
            scratch: BitWriter::new(),
        };
        let out = find(self.model, store, Order::Fifo, self.limits, |s| {
            !invariant(s)
        });
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
}
