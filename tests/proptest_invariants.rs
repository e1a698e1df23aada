//! Property-based tests of the core protocol state machines.

use accelerated_heartbeat::core::coordinator::{CoordSpec, TimeoutOutcome};
use accelerated_heartbeat::core::react::{self, Discard};
use accelerated_heartbeat::core::responder::{LeaveDecision, RespSpec};
use accelerated_heartbeat::core::{FixLevel, Heartbeat, Params, Status, Variant};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = Params> {
    (1u32..=16, 0u32..=48).prop_map(|(tmin, extra)| Params::new(tmin, tmin + extra).expect("valid"))
}

fn arb_variant() -> impl Strategy<Value = Variant> {
    prop::sample::select(Variant::ALL.to_vec())
}

/// A random environment stimulus for a coordinator or responder.
#[derive(Clone, Debug)]
enum Stim {
    Ticks(u8),
    Beat { from_offset: u8, flag: bool },
    Timeout,
    Crash,
}

fn arb_stims() -> impl Strategy<Value = Vec<Stim>> {
    prop::collection::vec(
        prop_oneof![
            (1u8..20).prop_map(Stim::Ticks),
            (any::<u8>(), any::<bool>()).prop_map(|(o, f)| Stim::Beat {
                from_offset: o,
                flag: f
            }),
            Just(Stim::Timeout),
            Just(Stim::Crash),
        ],
        0..40,
    )
}

/// From `s`, whose next urgent event is `due_in` ticks away: `advance(k)`
/// equals `k` × `tick()` field for field for every `k` up to it, `due`
/// turns true on exactly that tick, and every tick on the way changes the
/// state. `None` claims the clocks are frozen: then time passing changes
/// nothing, by one tick or by many.
fn check_jump<S: Clone + PartialEq + std::fmt::Debug>(
    s: &S,
    due_in: Option<u32>,
    tick: impl Fn(&mut S),
    advance: impl Fn(&mut S, u32),
    due: impl Fn(&S) -> bool,
) -> Result<(), proptest::TestCaseError> {
    let Some(due_in) = due_in else {
        let (mut ticked, mut jumped) = (s.clone(), s.clone());
        tick(&mut ticked);
        advance(&mut jumped, 1_000);
        prop_assert_eq!(&ticked, s);
        prop_assert_eq!(&jumped, s);
        prop_assert!(!due(s), "due with no deadline: {s:?}");
        return Ok(());
    };
    let mut ticked = s.clone();
    for k in 0..=due_in {
        let mut jumped = s.clone();
        advance(&mut jumped, k);
        prop_assert_eq!(&jumped, &ticked);
        prop_assert_eq!(due(&ticked), k == due_in);
        if k < due_in {
            let before = ticked.clone();
            tick(&mut ticked);
            prop_assert!(ticked != before, "a running clock stood still: {before:?}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `CoordSpec::advance(k)` is `tick` k times and `next_timeout_in` is
    /// exact, at every state a random environment reaches: all six
    /// variants, mid-round and due, after halvings, with participants
    /// joined, un-joined and left, and crashed.
    #[test]
    fn coordinator_advance_is_tick_k_times(
        params in arb_params(),
        variant in arb_variant(),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
        stims in arb_stims(),
    ) {
        let n = if matches!(variant, Variant::Static | Variant::Expanding | Variant::Dynamic) { 3 } else { 1 };
        let spec = CoordSpec::new(variant, params, n, fix);
        let mut s = spec.init_state();
        for stim in stims {
            match stim {
                Stim::Ticks(k) => {
                    for _ in 0..k {
                        if spec.may_tick(&s) { spec.tick(&mut s); }
                    }
                }
                Stim::Beat { from_offset, flag } => {
                    let hb = if flag { Heartbeat::plain() } else { Heartbeat::leave() };
                    spec.on_heartbeat(&mut s, 1 + usize::from(from_offset) % n, hb);
                }
                Stim::Timeout => {
                    if spec.timeout_due(&s) { let _ = spec.on_timeout(&mut s); }
                }
                Stim::Crash => {
                    react::crash(&mut s.status, 0, 0, &mut Discard);
                }
            }
            check_jump(
                &s,
                spec.next_timeout_in(&s),
                |s| spec.tick(s),
                |s, k| spec.advance(s, k),
                |s| spec.timeout_due(s),
            )?;
        }
    }

    /// `RespSpec::advance(k)` is `tick` k times and `next_event_in` is
    /// exact, at every state a random environment reaches: all six
    /// variants, in the join phase and joined, left, crashed, revived.
    #[test]
    fn responder_advance_is_tick_k_times(
        params in arb_params(),
        variant in arb_variant(),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
        stims in arb_stims(),
    ) {
        let spec = RespSpec::new(variant, params, fix);
        let mut s = spec.init_state();
        for stim in stims {
            match stim {
                Stim::Ticks(k) => {
                    for _ in 0..k {
                        if spec.may_tick(&s) { spec.tick(&mut s); }
                        else if spec.join_send_due(&s) { let _ = spec.on_join_send(&mut s); }
                    }
                }
                Stim::Beat { flag, from_offset } => {
                    let dec = if from_offset % 4 == 0 { LeaveDecision::Leave } else { LeaveDecision::Stay };
                    let hb = if flag { Heartbeat::plain() } else { Heartbeat::leave() };
                    let hb = hb.with_epoch(s.epoch);
                    let _ = spec.on_beat(&mut s, hb, dec);
                }
                Stim::Timeout => {
                    if spec.watchdog_due(&s) { spec.on_watchdog(&mut s); }
                }
                // A crash, and at the next one the restart.
                Stim::Crash if s.status == Status::Crashed => s = spec.revive_state(s.epoch),
                Stim::Crash => {
                    react::crash(&mut s.status, 0, 0, &mut Discard);
                }
            }
            check_jump(
                &s,
                spec.next_event_in(&s),
                |s| spec.tick(s),
                |s, k| spec.advance(s, k),
                |s| spec.watchdog_due(s) || spec.join_send_due(s),
            )?;
        }
    }

    /// The halving chain: duration equals the sum of a strictly
    /// decreasing geometric-ish sequence bounded by the closed form
    /// `2*tmax - tmin'` (where `tmin' >= tmin`), and the round count is
    /// at most log2(tmax) + 1.
    #[test]
    fn halving_chain_bounds(params in arb_params()) {
        let rounds = params.silent_rounds_to_inactivation();
        let duration = params.halving_chain_duration();
        prop_assert!(rounds >= 1);
        prop_assert!(u64::from(rounds) <= 1 + u64::from(params.tmax()).ilog2() as u64 + 1);
        prop_assert!(duration >= params.tmax());
        prop_assert!(duration < 2 * params.tmax() + 1);
    }

    /// Bound algebra of §6.2: the corrected p0 bound is never larger than
    /// 3*tmax - tmin and at least 2*tmax... whichever regime, it is
    /// consistent with the halving-chain computation.
    #[test]
    fn corrected_p0_bound_consistency(params in arb_params(), variant in arb_variant()) {
        let bound = params.p0_bound_corrected(variant);
        prop_assert!(bound >= 2 * params.tmin());
        prop_assert!(bound <= 3 * params.tmax() - params.tmin());
        if 2 * params.tmin() > params.tmax() {
            prop_assert_eq!(bound, 2 * params.tmax());
        }
        if !variant.two_phase_step() {
            // chain-based sanity: tmax (receipt round) + chain duration
            // never exceeds the corrected bound
            prop_assert!(params.tmax() + params.halving_chain_duration() <= bound.max(3 * params.tmax() - params.tmin()));
        }
    }

    /// Corrected responder bounds: tighter than the original for the
    /// fixed-membership variants, larger for the join variants iff
    /// 2*tmin >= tmax (exactly the regime where the original bound is
    /// wrong).
    #[test]
    fn corrected_responder_bound_regimes(params in arb_params()) {
        let orig = params.responder_bound_original();
        let fixed_static = params.responder_bound_corrected(Variant::Static);
        let fixed_join = params.responder_bound_corrected(Variant::Expanding);
        prop_assert!(fixed_static <= orig);
        if 2 * params.tmin() > params.tmax() {
            prop_assert!(fixed_join > orig);
        } else {
            prop_assert!(fixed_join <= orig);
        }
    }

    /// The coordinator's round length always stays within [tmin, tmax]
    /// while active, whatever the environment does; status is absorbing;
    /// `elapsed` never exceeds the round length.
    #[test]
    fn coordinator_invariants(
        params in arb_params(),
        variant in arb_variant(),
        stims in arb_stims(),
    ) {
        let n = 1;
        let spec = CoordSpec::new(
            if matches!(variant, Variant::Static) { Variant::Static } else { Variant::Binary },
            params, n, FixLevel::Original,
        );
        let mut s = spec.init_state();
        let mut was_inactive = false;
        for stim in stims {
            match stim {
                Stim::Ticks(k) => {
                    for _ in 0..k {
                        if spec.may_tick(&s) { spec.tick(&mut s); }
                    }
                }
                Stim::Beat { .. } => {
                    // the non-dynamic coordinator treats every beat as a
                    // plain heartbeat
                    spec.on_heartbeat(&mut s, 1, Heartbeat::plain());
                }
                Stim::Timeout => {
                    if spec.timeout_due(&s) {
                        let _ = spec.on_timeout(&mut s);
                    }
                }
                Stim::Crash => {
                    react::crash(&mut s.status, 0, 0, &mut Discard);
                }
            }
            prop_assert!(s.t >= params.tmin() && s.t <= params.tmax());
            prop_assert!(s.elapsed <= s.t);
            if was_inactive {
                prop_assert!(s.status.is_inactive(), "no resurrection");
            }
            was_inactive = s.status.is_inactive();
        }
    }

    /// Responder invariants: the watchdog clock never exceeds its bound,
    /// join beats stop after joining, statuses are absorbing, left is
    /// permanent.
    #[test]
    fn responder_invariants(
        params in arb_params(),
        variant in arb_variant(),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
        stims in arb_stims(),
    ) {
        let spec = RespSpec::new(variant, params, fix);
        let mut s = spec.init_state();
        let mut was_left = false;
        for stim in stims {
            match stim {
                Stim::Ticks(k) => {
                    for _ in 0..k {
                        if spec.may_tick(&s) { spec.tick(&mut s); }
                        else if spec.join_send_due(&s) { let _ = spec.on_join_send(&mut s); }
                        else if spec.watchdog_due(&s) { spec.on_watchdog(&mut s); }
                    }
                }
                Stim::Beat { flag, from_offset } => {
                    let dec = if from_offset % 2 == 0 { LeaveDecision::Stay } else { LeaveDecision::Leave };
                    let hb = if flag {
                        Heartbeat::plain()
                    } else {
                        Heartbeat::leave()
                    };
                    let _ = spec.on_beat(&mut s, hb, dec);
                }
                Stim::Timeout => {
                    if spec.watchdog_due(&s) { spec.on_watchdog(&mut s); }
                }
                Stim::Crash => {
                    react::crash(&mut s.status, 0, 0, &mut Discard);
                }
            }
            prop_assert!(s.waiting <= spec.watchdog_bound());
            prop_assert!(s.join_elapsed <= params.tmin());
            if s.joined {
                prop_assert!(!spec.join_send_due(&s));
            }
            if was_left {
                prop_assert!(s.left, "leaving is permanent");
            }
            was_left = s.left;
            if s.left {
                prop_assert!(variant.supports_leave());
            }
        }
    }

    /// A responder that never hears from the coordinator inactivates
    /// exactly at its watchdog bound.
    #[test]
    fn starved_responder_dies_exactly_at_bound(
        params in arb_params(),
        variant in arb_variant(),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
    ) {
        let spec = RespSpec::new(variant, params, fix);
        let mut s = spec.init_state();
        let mut t = 0u32;
        loop {
            if spec.watchdog_due(&s) {
                spec.on_watchdog(&mut s);
                break;
            }
            if spec.join_send_due(&s) {
                let _ = spec.on_join_send(&mut s);
                continue;
            }
            spec.tick(&mut s);
            t += 1;
            prop_assert!(t <= spec.watchdog_bound(), "overshot the bound");
        }
        prop_assert_eq!(t, spec.watchdog_bound());
        prop_assert_eq!(s.status, Status::NvInactive);
    }

    /// A coordinator that never hears from its participant inactivates
    /// within tmax + halving_chain_duration of the start (binary).
    #[test]
    fn starved_coordinator_dies_within_chain(params in arb_params()) {
        let spec = CoordSpec::new(Variant::Binary, params, 1, FixLevel::Original);
        let mut s = spec.init_state();
        let mut t = 0u64;
        let limit = u64::from(params.tmax() + params.halving_chain_duration());
        loop {
            if spec.timeout_due(&s) {
                if matches!(spec.on_timeout(&mut s), TimeoutOutcome::Inactivated) {
                    break;
                }
                continue;
            }
            spec.tick(&mut s);
            t += 1;
            prop_assert!(t <= limit, "coordinator survived past the chain bound");
        }
        // the first round counts rcvd=true, so the total is exactly
        // tmax + halving_chain_duration
        prop_assert_eq!(t, limit);
    }
}
