//! The tick-stepped reference replay of the R1–R3 requirement monitors.
//!
//! The model checker evaluates the requirements as ghost monitors woven
//! into [`HbModel`](crate::model::HbModel): R1 is a per-participant
//! watchdog (armed on an admitted heartbeat — and from the start unless
//! the variant [has a join phase](Variant::has_join_phase) — error when
//! the silence exceeds [`r1_bound`] while the coordinator is still
//! active), R2/R3 are reachability properties under a fault-free premise.
//!
//! [`reference_verdicts`] is the executable semantics of those monitors:
//! a tick-stepped replay over a recorded event stream that mirrors the
//! model's ghost monitors action for action (ghost counters advance on the
//! tick *before* the tick's events are processed, exactly like the model's
//! `Tick` interleaving). The streaming checkers in `hb-monitor` take the
//! same bound and arming and implement the same semantics with deadline
//! arithmetic instead of per-tick counters; both report
//! [`MonitorVerdicts`], and `tests/monitor_agreement.rs` proves the two
//! agree on random fault traces.
//!
//! One deliberate strengthening relative to the *naive* coordinator: the
//! monitor ignores a heartbeat iff the participant's slot is latched
//! (`left`) **or** the beat's epoch is behind the registered bar — at
//! every fix level. At `FixLevel::Full` this coincides with the model's
//! epoch rule (the latch is never set under rejoin), and on epoch-free
//! traces it coincides with the latch rule; on epoch-tagged traces under a
//! naive fix it is strictly stronger than what the naive coordinator
//! implements, which is the point — the monitor judges the implementation
//! against the *spec*, making the stale-beat-admit R1 hazard visible as a
//! violation instead of silently extending the deadline.

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::events::{FirstViolation, MonitorVerdicts};
use hb_core::serial::serial_lt;
use hb_core::trace::Event;
use hb_core::{FixLevel, Params, Variant};

use crate::requirements::r1_bound;

/// Replay a recorded event stream through the model-side ghost monitors.
///
/// `events` must be sorted by timestamp (any single-source log already
/// is; merge per-node live logs first). Ticks `0..=horizon` are stepped
/// explicitly: at each tick the armed R1 counters advance and are checked
/// *before* the tick's events apply, matching the model's rule that a
/// `Tick` action may precede the same-instant deliveries — a violation
/// whose deadline coincides with a rescuing beat (or with the
/// coordinator's own inactivation) is still a violation, because the
/// model reaches the error state on at least one interleaving.
///
/// The R2/R3 fault-free premise is evaluated over the whole trace, like
/// the model's `allow_loss(false).allow_crashes(false)` restriction: a
/// loss *after* an inactivation still discharges the premise. A crash,
/// inactivation or revive naming a pid outside `0..=n` is ignored, like a
/// beat from one.
pub fn reference_verdicts(
    variant: Variant,
    params: Params,
    fix: FixLevel,
    n: usize,
    events: &[Event],
    horizon: u64,
) -> MonitorVerdicts {
    let bound = r1_bound(variant, params, fix);
    let cap = bound + 1;
    let spec = CoordSpec::new(variant, params, n, fix);
    let mut mirror: CoordState = spec.init_state();
    let mut armed = vec![!variant.has_join_phase(); n];
    let mut since = vec![0u32; n];
    let mut coord_active = true;
    let mut resp_active = vec![true; n];
    let mut any_fault = false;
    let (mut r1, mut r2, mut r3) = (None, None, None);

    let mut idx = 0;
    for t in 0..=horizon {
        if t > 0 {
            for i in 0..n {
                if armed[i] {
                    since[i] = (since[i] + 1).min(cap);
                }
            }
            if coord_active && r1.is_none() {
                if let Some(i) = (0..n).find(|&i| armed[i] && since[i] > bound) {
                    r1 = Some(FirstViolation {
                        pid: i + 1,
                        at: t,
                        bound,
                    });
                }
            }
        }
        while idx < events.len() && events[idx].at() == t {
            match events[idx] {
                Event::Deliver {
                    from, to: 0, hb, ..
                } if (1..=n).contains(&from) => {
                    let i = from - 1;
                    let ignored = mirror.left[i] || serial_lt(hb.epoch, mirror.min_epoch[i]);
                    if !hb.flag {
                        armed[i] = false;
                    } else if !ignored {
                        armed[i] = true;
                        since[i] = 0;
                    }
                    spec.on_heartbeat(&mut mirror, from, hb);
                }
                Event::Crash { pid: 0, .. } => {
                    coord_active = false;
                    any_fault = true;
                }
                Event::Crash { pid, .. } if (1..=n).contains(&pid) => {
                    any_fault = true;
                    resp_active[pid - 1] = false;
                }
                Event::NvInactivate { pid: 0, at } => {
                    if coord_active && r3.is_none() && resp_active.iter().all(|&a| a) {
                        r3 = Some(FirstViolation {
                            pid: 0,
                            at,
                            bound: 0,
                        });
                    }
                    coord_active = false;
                }
                Event::NvInactivate { pid, at } if (1..=n).contains(&pid) => {
                    if r2.is_none() {
                        r2 = Some(FirstViolation { pid, at, bound: 0 });
                    }
                    resp_active[pid - 1] = false;
                }
                Event::Revive { pid, .. } if (1..=n).contains(&pid) => resp_active[pid - 1] = true,
                Event::Lose { .. } => any_fault = true,
                _ => {}
            }
            idx += 1;
        }
    }
    MonitorVerdicts {
        r1,
        r2: if any_fault { None } else { r2 },
        r3: if any_fault { None } else { r3 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::Heartbeat;

    const P: (u32, u32) = (2, 8);

    fn params() -> Params {
        Params::new(P.0, P.1).unwrap()
    }

    #[test]
    fn silence_past_the_bound_fires_r1_at_the_deadline() {
        // One beat admitted at t = 5, then silence. The counter resets at
        // 5, so the first tick with since > bound is 5 + bound + 1.
        let bound = r1_bound(Variant::Binary, params(), FixLevel::Original);
        let events = [Event::Deliver {
            at: 5,
            from: 1,
            to: 0,
            hb: Heartbeat::plain(),
        }];
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &events,
            200,
        );
        let r1 = v.r1.expect("must fire");
        assert_eq!(r1.at, 5 + u64::from(bound) + 1);
        assert_eq!((r1.pid, r1.bound), (1, bound));
    }

    #[test]
    fn a_beat_on_the_deadline_tick_does_not_rescue() {
        // The model may schedule the tick (reaching since = bound + 1)
        // before the same-instant delivery: still a violation.
        let bound = u64::from(r1_bound(Variant::Binary, params(), FixLevel::Original));
        let beat = |at| Event::Deliver {
            at,
            from: 1,
            to: 0,
            hb: Heartbeat::plain(),
        };
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5), beat(5 + bound + 1)],
            200,
        );
        assert_eq!(v.r1.expect("tick-first interleaving").at, 5 + bound + 1);
        // One tick earlier the beat wins: since only reaches the bound.
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[beat(5), beat(5 + bound)],
            5 + bound, // horizon before the next deadline
        );
        assert!(v.r1.is_none());
    }

    #[test]
    fn coordinator_death_stops_the_r1_clock() {
        // p0 inactivates *before* the deadline: no violation (R1 only
        // constrains an active coordinator).
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[
                Event::Deliver {
                    at: 5,
                    from: 1,
                    to: 0,
                    hb: Heartbeat::plain(),
                },
                Event::NvInactivate { at: 10, pid: 0 },
            ],
            200,
        );
        assert!(v.r1.is_none());
    }

    #[test]
    fn r2_r3_need_a_fault_free_trace() {
        let nv = Event::NvInactivate { at: 50, pid: 1 };
        let v = reference_verdicts(Variant::Binary, params(), FixLevel::Original, 1, &[nv], 60);
        assert_eq!(v.r2.expect("fault-free nv is a violation").pid, 1);
        // A loss anywhere in the trace — even later — voids the premise.
        let lose = Event::Lose {
            at: 55,
            from: 0,
            to: 1,
        };
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[nv, lose],
            60,
        );
        assert!(v.r2.is_none());
        // R3: coordinator inactivation with every participant active
        // (before the R1 deadline, so only R3 fires).
        let nv0 = Event::NvInactivate { at: 10, pid: 0 };
        let v = reference_verdicts(Variant::Binary, params(), FixLevel::Original, 1, &[nv0], 60);
        assert_eq!(v.r3.expect("R3 fires").pid, 0);
        assert!(v.r1.is_none(), "monitor stops with the coordinator");
    }

    #[test]
    fn stale_beats_do_not_reset_the_monitor() {
        // Register incarnation 1, then replay an epoch-0 leftover: the
        // monitor must keep counting from the *fresh* beat. Naive fix:
        // the coordinator itself would admit the leftover.
        let bound = u64::from(r1_bound(Variant::Binary, params(), FixLevel::Original));
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
            hb: Heartbeat::plain(), // epoch 0 < bar 1
        };
        let v = reference_verdicts(
            Variant::Binary,
            params(),
            FixLevel::Original,
            1,
            &[fresh, stale],
            200,
        );
        assert_eq!(v.r1.expect("stale beat must not rescue").at, 5 + bound + 1);
    }
}
