//! Bit-packed state encoding for the composed heartbeat model, with
//! field widths taken from the IR dataflow analysis.
//!
//! [`HbCodec`] implements [`mck::packed::StateCodec`] for [`HbState`]:
//! every numeric field is stored as `value - lo` in exactly
//! [`Interval::bits`] bits of its *proven* reachable range, computed by
//! [`hb_core::dataflow::system_ranges`] under the model's trigger set.
//! With the default `rejoin_cap` of 0 nothing restarts, so epochs stay
//! pinned near zero and the 8-bit epoch fields cost 0–1 bits instead of
//! 8; a model whose participants may rejoin is analyzed with the IR's
//! `revive` transition active and pays the full epoch width. Booleans
//! cost one bit, statuses two.
//!
//! The widths are a *contract*, not a heuristic: encoding a value
//! outside its proven range panics (see [`mck::packed::BitWriter`]),
//! and debug builds decode every interned record back and assert
//! equality — so a packed run over the full reachable set doubles as a
//! machine-checked validation of the dataflow ranges against the real
//! model.
//!
//! Two fields are not machine variables and get engineering bounds
//! instead of proven ones, both documented here and enforced by the
//! same panic-on-overflow contract:
//!
//! * the channel length — capped at `4n + 2` (per participant: one
//!   urgent leftover plus one fresh message in each direction is
//!   already generous; the checker's own invariant tests keep the true
//!   bound far lower);
//! * the stale-beat counters. Without rejoins, `stale_filtered` is
//!   provably 0 unless the model both allows leaves and runs the §7
//!   epoch-rejoin fix (the only such configuration in which the bar can
//!   rise above a wire epoch), where it is capped at `3n` stale
//!   leftovers, and `stale_admitted` is provably 0 (wire epochs never
//!   exceed the bar) and costs zero bits. With rejoins every superseded
//!   incarnation can leave a channel-full of stale beats behind, so both
//!   counters are capped at `(rejoin_cap + 1)·(4n + 2)`.

use hb_core::dataflow::{system_ranges, Interval, CHECKER_TRIGGERS, REJOIN_TRIGGERS};
use hb_core::{CoordState, Heartbeat, RespState, Slots, Status};
use mck::packed::{BitReader, BitWriter, StateCodec};

use crate::model::{HbModel, HbState, MonitorState, Msg};

/// Width table for one model configuration; build with
/// [`HbCodec::for_model`] and feed to [`mck::packed::PackedChecker`].
#[derive(Clone, Debug)]
pub struct HbCodec {
    n: usize,
    /// Coordinator round length `t`.
    iv_t: Interval,
    /// Coordinator `elapsed`.
    iv_elapsed: Interval,
    /// Per-participant waiting times `tm[i]`.
    iv_tm: Interval,
    /// Per-participant epoch bars `min_epoch[i]`.
    iv_min_epoch: Interval,
    /// Stale beats admitted (non-zero width only when participants may
    /// rejoin).
    iv_stale_admitted: Interval,
    /// Stale beats filtered (non-zero width only under the epoch fix
    /// with leaves or rejoins).
    iv_stale_filtered: Interval,
    /// Responder watchdogs `waiting`.
    iv_waiting: Interval,
    /// Responder join timers `join_elapsed`.
    iv_join_elapsed: Interval,
    /// Responder incarnations `epoch`.
    iv_epoch: Interval,
    /// Message delay budgets.
    iv_budget: Interval,
    /// Epoch tags on in-flight messages.
    iv_wire: Interval,
    /// Channel length.
    iv_count: Interval,
    /// Message peer (participant pid − 1).
    iv_peer: Interval,
    /// R1 monitor `since_last`, when monitors are attached.
    iv_since: Option<Interval>,
}

impl HbCodec {
    /// Derive the width table for `model` from the IR dataflow ranges.
    pub fn for_model(model: &HbModel) -> Self {
        let rejoins = u32::from(model.rejoin_cap_value());
        let triggers: &[_] = if rejoins > 0 {
            &REJOIN_TRIGGERS
        } else {
            &CHECKER_TRIGGERS
        };
        let sr = system_ranges(model.coord_spec(), model.resp_spec(), triggers);
        let n = model.n();
        // A variable a variant's IR never declares (e.g. `min_epoch` in
        // the binary protocol) is one that variant provably never
        // writes: it sits at its initial value forever, which is
        // exactly the concretization's init interval.
        let cc = hb_core::dataflow::Concretization::coordinator(model.coord_spec());
        let rc = hb_core::dataflow::Concretization::responder(model.resp_spec());
        let range =
            |a: &hb_core::dataflow::Analysis,
             conc: &hb_core::dataflow::Concretization,
             var: &str| a.range(var).unwrap_or_else(|| conc.initial(var));
        let rejoin_leaves = model.coord_spec().fix().epoch_rejoin() && model.leave_allowed();
        let iv_count = Interval::new(0, 4 * n as u32 + 2);
        let stale = |possible: bool| match (possible, rejoins) {
            (false, _) => Interval::point(0),
            (true, 0) => Interval::new(0, 3 * n as u32),
            (true, _) => Interval::new(0, (rejoins + 1) * iv_count.hi),
        };
        Self {
            n,
            iv_t: range(&sr.coord, &cc, "t"),
            iv_elapsed: range(&sr.coord, &cc, "elapsed"),
            iv_tm: range(&sr.coord, &cc, "tm"),
            // The machine raises the bar to every fresher tag at *every*
            // fix level (so a run can report what naive rejoin let
            // through), but the IR declares it only where it is read —
            // under the epoch fix. Below that it simply follows the wire.
            iv_min_epoch: range(&sr.coord, &cc, "min_epoch").hull(sr.wire_epoch),
            iv_stale_admitted: stale(rejoins > 0),
            iv_stale_filtered: stale(rejoins > 0 || rejoin_leaves),
            iv_waiting: range(&sr.resp, &rc, "waiting"),
            iv_join_elapsed: range(&sr.resp, &rc, "join_elapsed"),
            iv_epoch: range(&sr.resp, &rc, "epoch"),
            iv_budget: Interval::new(0, model.params().tmin()),
            iv_wire: sr.wire_epoch,
            iv_count,
            iv_peer: Interval::new(0, n as u32 - 1),
            iv_since: model.monitor_bound_value().map(|b| Interval::new(0, b + 1)),
        }
    }
}

#[inline(always)]
fn push_iv(w: &mut BitWriter, v: u32, iv: Interval) {
    assert!(
        iv.contains(v),
        "value {v} outside its proven range [{}, {}]",
        iv.lo,
        iv.hi
    );
    w.push(v - iv.lo, iv.bits());
}

fn read_iv(r: &mut BitReader, iv: Interval) -> u32 {
    iv.lo + r.read(iv.bits())
}

#[inline(always)]
fn push_bool(w: &mut BitWriter, b: bool) {
    w.push(b as u32, 1);
}

fn read_bool(r: &mut BitReader) -> bool {
    r.read(1) == 1
}

#[inline(always)]
fn push_status(w: &mut BitWriter, s: Status) {
    let v = match s {
        Status::Active => 0,
        Status::Crashed => 1,
        Status::NvInactive => 2,
    };
    w.push(v, 2);
}

fn read_status(r: &mut BitReader) -> Status {
    match r.read(2) {
        0 => Status::Active,
        1 => Status::Crashed,
        2 => Status::NvInactive,
        v => unreachable!("status code {v}"),
    }
}

impl StateCodec<HbState> for HbCodec {
    fn encode(&self, s: &HbState, w: &mut BitWriter) {
        push_status(w, s.coord.status);
        push_iv(w, s.coord.t, self.iv_t);
        push_iv(w, s.coord.elapsed, self.iv_elapsed);
        push_iv(w, s.coord.stale_admitted, self.iv_stale_admitted);
        push_iv(w, s.coord.stale_filtered, self.iv_stale_filtered);
        let c = &s.coord;
        let (rcvd, tm, jnd, left, min_epoch) = (&*c.rcvd, &*c.tm, &*c.jnd, &*c.left, &*c.min_epoch);
        for i in 0..self.n {
            push_bool(w, rcvd[i]);
            push_iv(w, tm[i], self.iv_tm);
            push_bool(w, jnd[i]);
            push_bool(w, left[i]);
            push_iv(w, min_epoch[i] as u32, self.iv_min_epoch);
        }
        for r in &s.resps {
            push_status(w, r.status);
            push_iv(w, r.waiting, self.iv_waiting);
            push_iv(w, r.join_elapsed, self.iv_join_elapsed);
            push_bool(w, r.joined);
            push_bool(w, r.left);
            push_iv(w, r.epoch as u32, self.iv_epoch);
        }
        push_iv(w, s.channel.len() as u32, self.iv_count);
        for m in &s.channel {
            let to_coord = m.dst == 0;
            let peer = if to_coord { m.src } else { m.dst };
            push_bool(w, to_coord);
            push_iv(w, u32::from(peer) - 1, self.iv_peer);
            push_bool(w, m.hb.flag);
            push_iv(w, m.hb.epoch as u32, self.iv_wire);
            push_iv(w, m.budget, self.iv_budget);
        }
        push_bool(w, s.lost);
        if let Some(iv) = self.iv_since {
            for m in &s.monitors {
                push_bool(w, m.armed);
                push_iv(w, m.since_last, iv);
            }
        }
    }

    fn decode(&self, r: &mut BitReader) -> HbState {
        let status = read_status(r);
        let t = read_iv(r, self.iv_t);
        let elapsed = read_iv(r, self.iv_elapsed);
        let stale_admitted = read_iv(r, self.iv_stale_admitted);
        let stale_filtered = read_iv(r, self.iv_stale_filtered);
        let mut coord = CoordState {
            status,
            t,
            elapsed,
            rcvd: Slots::new(),
            tm: Slots::new(),
            jnd: Slots::new(),
            left: Slots::new(),
            min_epoch: Slots::new(),
            stale_admitted,
            stale_filtered,
        };
        for _ in 0..self.n {
            coord.rcvd.push(read_bool(r));
            coord.tm.push(read_iv(r, self.iv_tm));
            coord.jnd.push(read_bool(r));
            coord.left.push(read_bool(r));
            coord.min_epoch.push(read_iv(r, self.iv_min_epoch) as u8);
        }
        let resps = (0..self.n)
            .map(|_| RespState {
                status: read_status(r),
                waiting: read_iv(r, self.iv_waiting),
                join_elapsed: read_iv(r, self.iv_join_elapsed),
                joined: read_bool(r),
                left: read_bool(r),
                epoch: read_iv(r, self.iv_epoch) as u8,
            })
            .collect();
        let len = read_iv(r, self.iv_count) as usize;
        let channel = (0..len)
            .map(|_| {
                let to_coord = read_bool(r);
                // Pids are below 256 (`HbModel::new`).
                let peer = read_iv(r, self.iv_peer) as u8 + 1;
                let flag = read_bool(r);
                let epoch = read_iv(r, self.iv_wire) as u8;
                let budget = read_iv(r, self.iv_budget);
                let (src, dst) = if to_coord { (peer, 0) } else { (0, peer) };
                Msg {
                    src,
                    dst,
                    hb: Heartbeat { flag, epoch },
                    budget,
                }
            })
            .collect();
        let lost = read_bool(r);
        let monitors = match self.iv_since {
            Some(iv) => (0..self.n)
                .map(|_| MonitorState {
                    armed: read_bool(r),
                    since_last: read_iv(r, iv),
                })
                .collect(),
            None => Slots::new(),
        };
        HbState {
            coord,
            resps,
            channel,
            lost,
            monitors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::{build_model, error_predicate, Requirement};
    use hb_core::{FixLevel, Params, Variant};
    use mck::packed::PackedChecker;
    use mck::{Checker, Model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trips(codec: &HbCodec, s: &HbState) -> bool {
        let mut w = BitWriter::new();
        codec.encode(s, &mut w);
        let mut r = BitReader::new(w.bytes());
        &codec.decode(&mut r) == s
    }

    #[test]
    fn epoch_fields_cost_almost_nothing() {
        // 8-bit fields in the state, 0–1 bits on disk: the whole point
        // of driving widths from proven ranges instead of types.
        let m = HbModel::new(
            Variant::Static,
            Params::new(2, 4).unwrap(),
            2,
            FixLevel::Full,
        );
        let c = HbCodec::for_model(&m);
        assert_eq!(c.iv_epoch.bits(), 0, "responder epoch pinned to 0");
        assert_eq!(c.iv_wire.bits(), 0, "wire epoch pinned to 0");
        assert_eq!(c.iv_min_epoch.bits(), 0, "static bar never rises");
        assert_eq!(c.iv_stale_filtered.bits(), 0);
        // Dynamic + rejoin: the bar can rise once per leaver.
        let dynamic = HbModel::new(
            Variant::Dynamic,
            Params::new(2, 4).unwrap(),
            2,
            FixLevel::Full,
        );
        let c = HbCodec::for_model(&dynamic);
        assert_eq!(c.iv_min_epoch.bits(), 1, "bar rises to 1 after a leave");
        assert!(c.iv_stale_filtered.bits() > 0);
    }

    #[test]
    fn initial_states_round_trip_for_every_variant() {
        for variant in Variant::ALL {
            let n = if variant.is_two_process() { 1 } else { 3 };
            for fix in [FixLevel::Original, FixLevel::Full] {
                let m = HbModel::new(variant, Params::new(2, 8).unwrap(), n, fix)
                    .stagger_starts(true)
                    .monitor_bound(16);
                let codec = HbCodec::for_model(&m);
                for s in m.initial_states() {
                    assert!(round_trips(&codec, &s), "{variant}/{fix}");
                }
            }
        }
    }

    #[test]
    fn random_walk_states_round_trip() {
        let m = build_model(
            Variant::Dynamic,
            Params::new(2, 4).unwrap(),
            FixLevel::Full,
            2,
            Requirement::R1,
        );
        let codec = HbCodec::for_model(&m);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let path = mck::sim::random_walk(&m, &mut rng, 60);
            for s in path.states() {
                assert!(round_trips(&codec, &s), "state failed: {s:?}");
            }
        }
    }

    #[test]
    fn packed_checker_agrees_with_plain_on_r2() {
        // Exhaustive agreement, and (in debug builds) a decode-assert on
        // every reachable state — the dataflow ranges validated against
        // the real model. Static n=2 exercises multi-participant packing.
        let m = build_model(
            Variant::Static,
            Params::new(1, 3).unwrap(),
            FixLevel::Original,
            2,
            Requirement::R2,
        );
        let pred = |s: &HbState| !error_predicate(&m, Requirement::R2)(s);
        let plain = Checker::new(&m).check_invariant(pred);
        let packed = PackedChecker::new(&m, HbCodec::for_model(&m)).check_invariant(pred);
        assert_eq!(plain.holds(), packed.outcome.holds());
        assert_eq!(plain.stats().states, packed.outcome.stats().states);
        assert_eq!(
            plain.stats().transitions,
            packed.outcome.stats().transitions
        );
        assert!(packed.mem.arena_bytes > 0);
        // The packed arena is a fraction of what boxed `HbState`s cost.
        let per_state = packed.mem.arena_bytes / packed.outcome.stats().states.max(1);
        assert!(
            per_state <= 8,
            "expected a handful of bytes per packed state, got {per_state}"
        );
    }

    #[test]
    fn packed_checker_finds_the_same_counterexample_depth() {
        // tmin = tmax races: R2 is violated; packed BFS must agree on
        // the shortest-witness depth.
        let m = build_model(
            Variant::Binary,
            Params::new(3, 3).unwrap(),
            FixLevel::Original,
            1,
            Requirement::R2,
        );
        let pred = |s: &HbState| !error_predicate(&m, Requirement::R2)(s);
        let plain = Checker::new(&m).check_invariant(pred);
        let packed = PackedChecker::new(&m, HbCodec::for_model(&m)).check_invariant(pred);
        let p_depth = plain.counterexample().unwrap().len();
        let q_depth = packed.outcome.counterexample().unwrap().len();
        assert_eq!(p_depth, q_depth);
    }

    #[test]
    fn the_packed_search_is_the_plain_search_on_every_variant_fix_and_requirement() {
        // Same verdict, same `Stats` (depth included) and the same
        // counterexample step for step: the packed checker runs the same
        // search, so it finds the same shortest witness among the many.
        // The multi-party R1 cells run to 118 k states and past, so every
        // cell stops at `CAP`, and those stop in agreement too.
        const CAP: usize = 20_000;
        let (mut violated, mut truncated) = (0, 0);
        for variant in Variant::ALL {
            let ns: &[usize] = if variant.is_two_process() {
                &[1]
            } else {
                &[1, 2]
            };
            for (&n, fix) in ns
                .iter()
                .flat_map(|n| [(n, FixLevel::Original), (n, FixLevel::Full)])
            {
                for req in [Requirement::R1, Requirement::R2, Requirement::R3] {
                    let m = build_model(variant, Params::new(1, 3).unwrap(), fix, n, req);
                    let bad = error_predicate(&m, req);
                    let plain = Checker::new(&m)
                        .max_states(CAP)
                        .check_invariant(|s| !bad(s));
                    let packed = PackedChecker::new(&m, HbCodec::for_model(&m))
                        .max_states(CAP)
                        .check_invariant(|s| !bad(s));
                    let cell = format!("{variant}/{fix}/{req}/n={n}");
                    assert_eq!(plain.holds(), packed.outcome.holds(), "{cell}");
                    assert_eq!(plain.stats(), packed.outcome.stats(), "{cell}");
                    assert_eq!(
                        plain.counterexample(),
                        packed.outcome.counterexample(),
                        "{cell}"
                    );
                    violated += usize::from(plain.counterexample().is_some());
                    truncated += usize::from(plain.stats().truncated);
                }
            }
        }
        assert!(
            violated > 0 && truncated > 0,
            "{violated} violated, {truncated} truncated"
        );
    }

    #[test]
    fn rejoin_cells_pay_for_epochs_and_agree_with_the_plain_checker() {
        // With participants allowed to rejoin, the widths come from the
        // IR with its `revive` transition active: epochs are no longer
        // pinned, and below the full fix stale beats get admitted. An
        // exhaustive packed run validates every width (overflow panics).
        for fix in [FixLevel::CorrectedBounds, FixLevel::Full] {
            let m = crate::model::rejoin_n2(fix);
            let codec = HbCodec::for_model(&m);
            assert_eq!(codec.iv_epoch.bits(), 8, "revive bumps the incarnation");
            // Violated (a rejoiner starves once p[0] has given up), then
            // the whole graph, state for state.
            let r2 = |s: &HbState| !error_predicate(&m, Requirement::R2)(s);
            for pred in [&r2 as &(dyn Fn(&HbState) -> bool + Sync), &|_| true] {
                let plain = Checker::new(&m).check_invariant(pred);
                let packed = PackedChecker::new(&m, codec.clone()).check_invariant(pred);
                assert_eq!(plain.holds(), packed.outcome.holds(), "{fix}");
                assert_eq!(plain.stats(), packed.outcome.stats(), "{fix}");
            }
        }
    }

    #[test]
    fn rejoin_leave_cells_stay_within_proven_widths() {
        // Dynamic + Full fix + leaves: min_epoch rises to 1 and stale
        // leftovers get filtered — the only configuration with nonzero
        // epoch/stale widths. An exhaustive packed run proves the caps
        // hold on every reachable state.
        let m = build_model(
            Variant::Dynamic,
            Params::new(2, 4).unwrap(),
            FixLevel::Full,
            1,
            Requirement::R2,
        );
        let pred = |s: &HbState| !error_predicate(&m, Requirement::R2)(s);
        let packed = PackedChecker::new(&m, HbCodec::for_model(&m)).check_invariant(pred);
        assert!(packed.outcome.holds());
    }
}
