//! `hb-monitor` — streaming runtime verification of the R1–R3 heartbeat
//! requirements over live and simulated event streams.
//!
//! The model checker in `hb-verify` proves the requirements over *every*
//! behaviour of a small, bounded model; this crate checks them over *one*
//! behaviour of an arbitrarily large, arbitrarily long run — a simulated
//! `World`, a loopback `VirtualCluster`, or a live UDP cluster. Both
//! layers read one spec: [`MonitorSet::new`] takes its R1 bound from
//! [`r1_bound`], the bound the model checks, and arms every watchdog from
//! the start unless the variant [has a join phase](Variant::has_join_phase),
//! as the model's ghost monitor does. The verdicts are hb-core's
//! [`MonitorVerdicts`], the same type the reference replay
//! `hb_verify::reference_verdicts` returns.
//!
//! # Compilation: automaton → streaming checker
//!
//! The model's R1 ghost monitor is a per-participant counter `since[i]`
//! that advances every tick — fine for a checker that owns time, hopeless
//! for a tap that only sees *events*. The streaming compilation replaces
//! the counter with **deadline arithmetic**: an admitted heartbeat at tick
//! `r` arms `deadline[i] = r + bound + 1` (the first tick at which the
//! model's counter would exceed the bound), and every observed timestamp
//! `t` first *fires* any armed deadline `≤ t` — inclusive, and before the
//! event at `t` is processed, matching the model's rule that a `Tick` may
//! precede same-instant deliveries (a rescue beat, or the coordinator's
//! own death, arriving exactly on the deadline tick does not suppress the
//! violation). [`MonitorSet::finish`] fires deadlines up to the run's
//! horizon after the last event.
//!
//! Whether a beat is *admitted* is decided by a coordinator **mirror**: a
//! plain [`CoordState`] replayed through [`CoordSpec::on_heartbeat`] on
//! every delivery to `p[0]`, giving the monitor the spec's own `left`
//! latches and per-slot epoch bars without re-implementing them. The
//! monitor ignores a beat iff the slot is latched *or* the epoch is
//! behind the bar — at every fix level (see `hb_verify::monitor` for why
//! this deliberately out-judges a naive coordinator on stale beats).
//!
//! R2/R3 are latches with a trace-global premise: the first candidate
//! inactivation is recorded online, and [`MonitorSet::verdicts`] discards
//! it if any fault (crash or loss) occurred *anywhere* in the run.
//!
//! Memory is O(participants): two `Vec`s of deadlines/flags, the mirror's
//! per-slot state, and per-participant status bits. No event is buffered.
//!
//! # Example
//!
//! ```
//! use hb_core::{FixLevel, Params, Variant};
//! use hb_core::trace::Event;
//! use hb_core::Heartbeat;
//! use hb_monitor::MonitorSet;
//!
//! let params = Params::new(2, 8).unwrap();
//! let mut mon = MonitorSet::new(Variant::Binary, params, FixLevel::Original, 1);
//! mon.observe(&Event::Deliver { at: 5, from: 1, to: 0, hb: Heartbeat::plain() });
//! mon.finish(200); // silence past the claimed bound: R1 fires
//! let v = mon.verdicts();
//! assert_eq!(v.r1.unwrap().at, 5 + 16 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::events::{EventTap, FirstViolation, MonitorVerdicts, OwnedTap};
use hb_core::serial::serial_lt;
use hb_core::trace::Event;
use hb_core::{FixLevel, Params, Variant};
use hb_verify::requirements::r1_bound;

/// A compiled set of streaming R1–R3 checkers for one protocol cell.
///
/// Feed it events via [`observe`](Self::observe) (or attach it to a sink
/// as an [`EventTap`]), close the run with [`finish`](Self::finish), and
/// read [`verdicts`](Self::verdicts). Events must arrive with
/// non-decreasing timestamps per source; slight cross-node skew in merged
/// live streams is tolerated (the deadline clock only moves forward).
#[derive(Clone, Debug)]
pub struct MonitorSet {
    spec: CoordSpec,
    mirror: CoordState,
    n: usize,
    bound: u32,
    armed: Vec<bool>,
    deadline: Vec<u64>,
    /// Lazy lower bound on the earliest armed deadline. Timestamps below
    /// it skip the O(n) deadline scan entirely; arming keeps it a lower
    /// bound, and a scan that fires nothing recomputes it exactly.
    next_min: u64,
    coord_active: bool,
    resp_active: Vec<bool>,
    any_fault: bool,
    r1: Option<FirstViolation>,
    r2: Option<FirstViolation>,
    r3: Option<FirstViolation>,
}

impl MonitorSet {
    /// Compile the requirement monitors for one `(variant, params, fix)`
    /// cell with `n` participants.
    pub fn new(variant: Variant, params: Params, fix: FixLevel, n: usize) -> Self {
        let bound = r1_bound(variant, params, fix);
        let spec = CoordSpec::new(variant, params, n, fix);
        MonitorSet {
            mirror: spec.init_state(),
            spec,
            n,
            bound,
            armed: vec![!variant.has_join_phase(); n],
            deadline: vec![u64::from(bound) + 1; n],
            next_min: u64::from(bound) + 1,
            coord_active: true,
            resp_active: vec![true; n],
            any_fault: false,
            r1: None,
            r2: None,
            r3: None,
        }
    }

    /// The R1 inactivation bound this set enforces.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Fire any armed R1 deadline `<= t` (the coordinator must still be
    /// active — deadlines are checked *before* the event at `t` applies,
    /// so a death event on the deadline tick does not suppress it).
    fn check_deadlines(&mut self, t: u64) {
        if !self.coord_active || self.r1.is_some() || t < self.next_min {
            return;
        }
        let due = (0..self.n)
            .filter(|&i| self.armed[i] && self.deadline[i] <= t)
            .min_by_key(|&i| (self.deadline[i], i));
        if let Some(i) = due {
            self.r1 = Some(FirstViolation {
                pid: i + 1,
                at: self.deadline[i],
                bound: self.bound,
            });
        } else {
            // Nothing fired: tighten the lower bound to the exact
            // earliest armed deadline so the fast path resumes.
            self.next_min = (0..self.n)
                .filter(|&i| self.armed[i])
                .map(|i| self.deadline[i])
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Feed one event into the checkers.
    pub fn observe(&mut self, e: &Event) {
        self.check_deadlines(e.at());
        match *e {
            Event::Deliver {
                at,
                from,
                to: 0,
                hb,
            } if (1..=self.n).contains(&from) => {
                let i = from - 1;
                let ignored = self.mirror.left[i] || serial_lt(hb.epoch, self.mirror.min_epoch[i]);
                if !hb.flag {
                    self.armed[i] = false;
                } else if !ignored {
                    self.armed[i] = true;
                    self.deadline[i] = at + u64::from(self.bound) + 1;
                    self.next_min = self.next_min.min(self.deadline[i]);
                }
                self.spec.on_heartbeat(&mut self.mirror, from, hb);
            }
            Event::Crash { pid: 0, .. } => {
                self.coord_active = false;
                self.any_fault = true;
            }
            Event::Crash { pid, .. } if (1..=self.n).contains(&pid) => {
                self.any_fault = true;
                self.resp_active[pid - 1] = false;
            }
            Event::NvInactivate { pid: 0, at } => {
                if self.coord_active && self.r3.is_none() && self.resp_active.iter().all(|&a| a) {
                    self.r3 = Some(FirstViolation {
                        pid: 0,
                        at,
                        bound: 0,
                    });
                }
                self.coord_active = false;
            }
            Event::NvInactivate { pid, at } if (1..=self.n).contains(&pid) => {
                if self.r2.is_none() {
                    self.r2 = Some(FirstViolation { pid, at, bound: 0 });
                }
                self.resp_active[pid - 1] = false;
            }
            Event::Revive { pid, .. } if (1..=self.n).contains(&pid) => {
                self.resp_active[pid - 1] = true
            }
            // A membership view coordinated by someone other than pid 0
            // retires R1: the monitored coordinator no longer owes anyone
            // acceleration, the group has failed over (hb-member layer).
            Event::ViewChange { coordinator, .. } if coordinator != 0 => {
                self.coord_active = false;
            }
            Event::Lose { .. } => self.any_fault = true,
            _ => {}
        }
    }

    /// Close the run: fire any deadline up to and including `horizon`
    /// (the run's last tick). Idempotent; further calls with a larger
    /// horizon extend the silence check.
    pub fn finish(&mut self, horizon: u64) {
        self.check_deadlines(horizon);
    }

    /// The verdicts so far. The R2/R3 fault-free premise is evaluated
    /// over everything observed up to this point — call after
    /// [`finish`](Self::finish) for the run's final verdict, or poll
    /// mid-run for provisional verdicts.
    pub fn verdicts(&self) -> MonitorVerdicts {
        MonitorVerdicts {
            r1: self.r1,
            r2: self.r2.filter(|_| !self.any_fault),
            r3: self.r3.filter(|_| !self.any_fault),
        }
    }

    /// Recover a `MonitorSet` that was moved into an owned tap
    /// (`EventSink::attach_owned_tap`) once the run is over — the
    /// single-threaded counterpart of [`shared`](Self::shared), with no
    /// mutex on the event path. Returns `None` if the tap holds some
    /// other type.
    pub fn from_tap(tap: OwnedTap) -> Option<MonitorSet> {
        tap.into_any().downcast::<MonitorSet>().ok().map(|b| *b)
    }

    /// A shareable, thread-safe monitor ready to be attached to event
    /// sinks via `EventSink::attach_tap` (both runtimes accept the same
    /// `SharedTap` type).
    pub fn shared(
        variant: Variant,
        params: Params,
        fix: FixLevel,
        n: usize,
    ) -> Arc<Mutex<MonitorSet>> {
        Arc::new(Mutex::new(MonitorSet::new(variant, params, fix, n)))
    }
}

impl EventTap for MonitorSet {
    fn on_event(&mut self, e: &Event) {
        self.observe(e);
    }

    fn fork(&self) -> Option<OwnedTap> {
        Some(Box::new(self.clone()))
    }
}

/// Replay a recorded event log (sorted by timestamp) through a fresh
/// [`MonitorSet`] and return the final verdicts.
pub fn replay(
    variant: Variant,
    params: Params,
    fix: FixLevel,
    n: usize,
    events: &[Event],
    horizon: u64,
) -> MonitorVerdicts {
    let mut set = MonitorSet::new(variant, params, fix, n);
    for e in events {
        set.observe(e);
    }
    set.finish(horizon);
    set.verdicts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::Heartbeat;
    use hb_verify::monitor::reference_verdicts;

    fn params() -> Params {
        Params::new(2, 8).unwrap()
    }

    fn beat(at: u64, from: usize) -> Event {
        Event::Deliver {
            at,
            from,
            to: 0,
            hb: Heartbeat::plain(),
        }
    }

    #[test]
    fn silence_fires_at_the_deadline_tick() {
        let mut mon = MonitorSet::new(Variant::Binary, params(), FixLevel::Original, 1);
        mon.observe(&beat(5, 1));
        mon.finish(200);
        let v = mon.verdicts();
        let r1 = v.r1.expect("silence past the bound");
        assert_eq!((r1.pid, r1.at, r1.bound), (1, 5 + 16 + 1, 16));
    }

    #[test]
    fn a_rescue_beat_on_the_deadline_tick_is_too_late() {
        // Tick-before-delivery: the deadline fires even though a beat
        // arrives at exactly deadline time.
        let v = replay(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5, 1), beat(22, 1)],
            200,
        );
        assert_eq!(v.r1.expect("deadline tick").at, 22);
        // One tick earlier the beat rescues (until the next deadline).
        let v = replay(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5, 1), beat(21, 1)],
            21,
        );
        assert!(v.clean());
    }

    #[test]
    fn a_failover_view_change_retires_r1() {
        // hb-member failover stream: the coordinator crashes, pid 1 takes
        // over and installs view 1, and the other participants go silent
        // toward pid 0 forever after. R1 must not fire — nobody owes the
        // dead coordinator beats once the group has failed over.
        let v = replay(
            Variant::Dynamic,
            params(),
            FixLevel::Full,
            3,
            &[
                beat(5, 1),
                beat(5, 2),
                beat(5, 3),
                Event::ViewChange {
                    at: 20,
                    pid: 1,
                    view_no: 1,
                    coordinator: 1,
                },
            ],
            2_000,
        );
        assert!(v.clean(), "{v:?}");
        // A view still coordinated by pid 0 keeps the obligation alive.
        let v = replay(
            Variant::Dynamic,
            params(),
            FixLevel::Full,
            3,
            &[
                beat(5, 1),
                beat(5, 2),
                beat(5, 3),
                Event::ViewChange {
                    at: 20,
                    pid: 0,
                    view_no: 1,
                    coordinator: 0,
                },
            ],
            2_000,
        );
        assert!(v.r1.is_some(), "pid-0 view keeps R1 armed: {v:?}");
    }

    #[test]
    fn coordinator_death_on_the_deadline_tick_does_not_suppress() {
        // The deadline check runs before the death event is processed —
        // the model reaches the error on the tick-first interleaving.
        let v = replay(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5, 1), Event::NvInactivate { at: 22, pid: 0 }],
            200,
        );
        assert_eq!(v.r1.expect("tick-first").at, 22);
        // Death strictly before the deadline stops the clock.
        let v = replay(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5, 1), Event::NvInactivate { at: 21, pid: 0 }],
            200,
        );
        assert!(v.r1.is_none());
    }

    #[test]
    fn bound_and_arming_follow_the_fix_level_and_the_join_phase() {
        let p = params();
        for variant in Variant::ALL {
            for fix in FixLevel::ALL {
                let bound = MonitorSet::new(variant, p, fix, 1).bound();
                let want = if fix >= FixLevel::CorrectedBounds {
                    p.p0_bound_corrected(variant)
                } else {
                    p.p0_bound_claimed()
                };
                assert_eq!(bound, want, "{variant}/{fix:?}");
                // A participant that never beats: armed from t = 0
                // without a join phase, never armed with one.
                let v = replay(variant, p, fix, 1, &[], u64::from(bound) + 50);
                if variant.has_join_phase() {
                    assert!(v.clean(), "{variant}/{fix:?}: {v:?}");
                } else {
                    let r1 = v.r1.expect("silent from the start");
                    assert_eq!(
                        (r1.pid, r1.at),
                        (1, u64::from(bound) + 1),
                        "{variant}/{fix:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn join_variants_arm_on_the_first_admitted_beat() {
        // No beats at all: an Expanding participant never arms, so no R1.
        let v = replay(Variant::Expanding, params(), FixLevel::Full, 2, &[], 500);
        assert!(v.clean());
        // After its first beat the watchdog is live.
        let v = replay(
            Variant::Expanding,
            params(),
            FixLevel::Full,
            2,
            &[beat(10, 2)],
            500,
        );
        assert_eq!(v.r1.expect("armed by the beat").pid, 2);
    }

    #[test]
    fn leave_beats_disarm_the_watchdog() {
        let leave = Event::Deliver {
            at: 10, // before the deadline the beat at 5 armed
            from: 1,
            to: 0,
            hb: Heartbeat::leave(),
        };
        let v = replay(
            Variant::Dynamic,
            params(),
            FixLevel::Original,
            1,
            &[beat(5, 1), leave],
            500,
        );
        assert!(v.r1.is_none(), "left participants are not watched");
    }

    #[test]
    fn r2_r3_premise_is_trace_global() {
        let nv = Event::NvInactivate { at: 50, pid: 1 };
        let v = replay(Variant::Binary, params(), FixLevel::Original, 1, &[nv], 50);
        assert_eq!(v.r2.expect("fault-free inactivation").pid, 1);
        // A loss *after* the inactivation still voids the premise.
        let lose = Event::Lose {
            at: 60,
            from: 0,
            to: 1,
        };
        let v = replay(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[nv, lose],
            60,
        );
        assert!(v.r2.is_none());
    }

    #[test]
    fn streaming_and_reference_agree_on_a_mixed_trace() {
        let events = [
            beat(3, 1),
            beat(4, 2),
            Event::Lose {
                at: 9,
                from: 1,
                to: 0,
            },
            beat(11, 1),
            Event::Crash { at: 15, pid: 2 },
            Event::NvInactivate { at: 40, pid: 2 },
            Event::NvInactivate { at: 55, pid: 0 },
        ];
        for fix in [FixLevel::Original, FixLevel::Full] {
            let s = replay(Variant::Static, params(), fix, 2, &events, 120);
            let r = reference_verdicts(Variant::Static, params(), fix, 2, &events, 120);
            assert_eq!(s, r, "{fix:?}");
        }
    }

    #[test]
    fn lifecycle_events_of_unknown_pids_are_ignored() {
        // A two-participant log replayed at n = 1: participant 2's crash,
        // revive and inactivation name no watched slot, and neither does
        // a revive of the coordinator.
        let events = [
            beat(5, 1),
            Event::Crash { at: 6, pid: 2 },
            Event::Revive { at: 7, pid: 2 },
            Event::NvInactivate { at: 8, pid: 2 },
            Event::Revive { at: 9, pid: 0 },
        ];
        for fix in FixLevel::ALL {
            let alone = replay(Variant::Static, params(), fix, 1, &events[..1], 200);
            let s = replay(Variant::Static, params(), fix, 1, &events, 200);
            let r = reference_verdicts(Variant::Static, params(), fix, 1, &events, 200);
            assert_eq!(s, alone, "{fix:?}");
            assert_eq!(r, alone, "{fix:?}");
        }
    }

    #[test]
    fn stale_beats_do_not_extend_the_deadline() {
        // Fresh epoch-1 beat arms the watchdog; an epoch-0 leftover must
        // not re-arm it, even though a naive coordinator admits it.
        let fresh = Event::Deliver {
            at: 5,
            from: 1,
            to: 0,
            hb: Heartbeat::plain().with_epoch(1),
        };
        let stale = Event::Deliver {
            at: 9,
            from: 1,
            to: 0,
            hb: Heartbeat::plain(),
        };
        for fix in [FixLevel::Original, FixLevel::Full] {
            let bound = u64::from(MonitorSet::new(Variant::Binary, params(), fix, 1).bound());
            let v = replay(Variant::Binary, params(), fix, 1, &[fresh, stale], 200);
            let at = v.r1.expect("stale beat is no rescue").at;
            assert_eq!(at, 5 + bound + 1, "{fix:?}");
        }
    }
}
