//! Allocation counts on the hot paths: up to eight participants the
//! protocol state is inline, so the model checker's successor path (step,
//! canonicalize, decode), a warmed-up simulator run and a warmed-up
//! loopback cluster run, monitored or not, allocate nothing.
//!
//! This binary installs its own global allocator, which counts the
//! allocations each thread makes. The claim is about the optimised build,
//! so `scripts/ci.sh` runs this file with `--release` as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::mck::packed::{BitReader, BitWriter, StateCodec};
use accelerated_heartbeat::mck::symmetry::Canonicalize;
use accelerated_heartbeat::mck::Model;
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::net::{ClusterConfig, Faults, VirtualCluster};
use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::World;
use accelerated_heartbeat::verify::requirements::build_model;
use accelerated_heartbeat::verify::symmetry::certify;
use accelerated_heartbeat::verify::{HbCodec, HbState, Requirement};

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s; the caller's guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many allocations this thread made in it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The cells `mck_scale` times that fit inline: static n = 8 and
/// expanding n = 4, R2 at the full fix with staggered starts.
const CELLS: [(Variant, usize); 2] = [(Variant::Static, 8), (Variant::Expanding, 4)];

/// Up to `limit` canonical states reachable from the initial one,
/// breadth-first (this part may allocate).
fn reachable(variant: Variant, n: usize, limit: usize) -> Vec<HbState> {
    let params = Params::new(2, 6).unwrap();
    let model =
        build_model(variant, params, FixLevel::Full, n, Requirement::R2).stagger_starts(true);
    let canon = certify(&model).unwrap();
    let mut seen = HashSet::new();
    let mut states = model.initial_states();
    let mut actions = Vec::new();
    let mut i = 0;
    while i < states.len() && states.len() < limit {
        actions.clear();
        model.actions(&states[i], &mut actions);
        for a in &actions {
            if let Some(next) = model.next_state(&states[i], a) {
                let next = canon.canonicalize(next);
                if seen.insert(next.clone()) {
                    states.push(next);
                }
            }
        }
        i += 1;
    }
    states
}

#[test]
fn a_successor_allocates_nothing_up_to_eight_participants() {
    let params = Params::new(2, 6).unwrap();
    for (variant, n) in CELLS {
        let model =
            build_model(variant, params, FixLevel::Full, n, Requirement::R2).stagger_starts(true);
        let canon = certify(&model).unwrap();
        let states = reachable(variant, n, 3_000);
        assert!(states.len() >= 3_000, "{variant} n={n}: {}", states.len());
        // Every enabled action of every state, taken outside the count:
        // the action list is not part of the claim.
        let enabled: Vec<Vec<_>> = states
            .iter()
            .map(|s| {
                let mut acts = Vec::new();
                model.actions(s, &mut acts);
                acts
            })
            .collect();
        let (successors, allocs) = allocations(|| {
            let mut successors = 0;
            for (s, acts) in states.iter().zip(&enabled) {
                for a in acts {
                    if let Some(next) = model.next_state(s, a) {
                        std::hint::black_box(canon.canonicalize(next));
                        successors += 1;
                    }
                }
            }
            successors
        });
        assert!(successors > 10_000, "{variant} n={n}: {successors}");
        assert_eq!(allocs, 0, "{variant} n={n}: over {successors} successors");

        let codec = HbCodec::for_model(&model);
        let mut w = BitWriter::new();
        let packed: Vec<Vec<u8>> = states
            .iter()
            .map(|s| {
                w.clear();
                codec.encode(s, &mut w);
                w.bytes().to_vec()
            })
            .collect();
        let (decoded, allocs) = allocations(|| {
            packed
                .iter()
                .zip(&states)
                .all(|(bytes, s)| codec.decode(&mut BitReader::new(bytes)) == *s)
        });
        assert!(decoded, "{variant} n={n}: a decode differs");
        assert_eq!(allocs, 0, "{variant} n={n}: over {} decodes", states.len());
    }
}

#[test]
fn a_warmed_up_world_run_allocates_nothing_at_eight_participants() {
    let mut world = World::new(
        WorldConfig {
            variant: Variant::Static,
            params: Params::new(2, 8).unwrap(),
            fix: FixLevel::Full,
            n: 8,
            loss_prob: 0.0,
            log_events: false,
        },
        7,
    );
    world.run_until(1_000);
    let ((), allocs) = allocations(|| world.run_until(20_000));
    assert_eq!(world.now(), 20_000, "the group stays up without faults");
    assert_eq!(allocs, 0);
}

#[test]
fn a_warmed_up_cluster_allocates_nothing_at_eight_participants() {
    let cfg = ClusterConfig {
        variant: Variant::Static,
        params: Params::new(2, 8).unwrap(),
        fix: FixLevel::Full,
        n: 8,
        faults: Faults::none(),
        seed: 7,
        record_events: false,
    };
    for monitored in [false, true] {
        let mut cluster = VirtualCluster::new(cfg);
        // A participant that starts inside the first round, and one on a
        // slow clock (a fast one trips the monitor, which keeps true
        // time): neither leaves the cluster's bookkeeping anything to
        // grow once warmed up.
        cluster.schedule_start(8, 5);
        cluster.skew_clock(3, 0, 7, 8);
        if monitored {
            let monitor = MonitorSet::new(cfg.variant, cfg.params, cfg.fix, cfg.n);
            cluster.attach_owned_tap(Box::new(monitor));
        }
        cluster.run_until(1_000);
        let ((), allocs) = allocations(|| cluster.run_until(20_000));
        assert_eq!(cluster.now(), 20_000, "the group stays up without faults");
        assert_eq!(allocs, 0, "monitored: {monitored}");
        if monitored {
            let tap = cluster
                .take_owned_taps()
                .pop()
                .expect("the monitor comes back");
            let mut monitor = MonitorSet::from_tap(tap).expect("a MonitorSet");
            monitor.finish(20_000);
            assert!(monitor.verdicts().clean());
        }
    }
}
