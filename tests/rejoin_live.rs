//! Cross-validation of the §7 rejoin story: the exhaustively checked
//! `HbModel`, the simulator and the live loopback runtime all execute
//! the *same* coordinator/participant machines, so on the same
//! crash/revive scenario they must tell the same story — a beat tagged
//! with a superseded incarnation is admitted below `FixLevel::Full`,
//! filtered under it, and the fresh incarnation re-converges.
//!
//! Each artefact is probed at its own level: the machine per beat, the
//! model exhaustively over every schedule of the demo's protocol, the
//! runtimes end to end under the checked-in demo plan.

use accelerated_heartbeat::chaos::{rejoin_demo_plan, run_plan, Backend, FaultPlan};
use accelerated_heartbeat::core::{CoordSpec, FixLevel, Heartbeat, Params, Variant};
use accelerated_heartbeat::verify::{HbAction, HbModel, HbState};
use mck::{Checker, Model};

/// The crash/revive beat schedule, as the epochs `p[0]` hears: the first
/// incarnation beats, crashes, revives as the second incarnation and
/// re-registers — then a stale leftover of the first incarnation (held
/// back by the network) arrives.
const SCHEDULE: [u8; 3] = [0, 1, 0];

/// Drive the coordinator machine directly through the schedule, probing
/// per-beat admission via the round's `rcvd` bit.
fn machine_decisions(fix: FixLevel) -> Vec<bool> {
    let spec = CoordSpec::new(Variant::Expanding, Params::new(2, 8).unwrap(), 1, fix);
    let mut s = spec.init_state();
    let mut admit = |epoch: u8| {
        s.rcvd[0] = false;
        spec.on_heartbeat(&mut s, 1, Heartbeat::plain().with_epoch(epoch));
        s.rcvd[0]
    };
    SCHEDULE.map(&mut admit).to_vec()
}

/// Produce the same schedule *inside the composed model* — join beats,
/// `Crash`, `Rejoin` and deliveries, no hand-made message — and record
/// for each delivery at `p[0]` whether the beat got past the filter.
fn model_decisions(fix: FixLevel) -> Vec<bool> {
    use HbAction::{Crash, JoinSend, Rejoin, Tick};
    let model = demo_model(&rejoin_demo_plan(fix, 1));
    let run = |mut s: HbState, actions: &[HbAction]| {
        for a in actions {
            s = model.next_state(&s, a).expect("enabled");
        }
        s
    };
    let mut decisions = Vec::new();
    let mut deliver = |s: HbState, epoch: u8| {
        let msg = *s.channel.iter().find(|m| m.hb.epoch == epoch).unwrap();
        let next = run(s.clone(), &[HbAction::Deliver { msg, leave: false }]);
        decisions.push(next.coord.stale_filtered == s.coord.stale_filtered);
        next
    };
    // Incarnation 0 registers; its resend is still in flight when it
    // crashes, and lands after incarnation 1 has registered its own.
    let mut s = run(model.initial_states().remove(0), &[Tick, Tick, JoinSend(1)]);
    s = deliver(s, 0);
    s = run(s, &[Tick, Tick, JoinSend(1), Crash(1), Rejoin(1)]);
    s = run(s, &[Tick, Tick, JoinSend(1)]);
    s = deliver(s, 1);
    deliver(s, 0);
    decisions
}

/// The checker model of a demo plan's protocol: its variant, timing, fix
/// level and group, lossless, with as many rejoins as the plan has
/// revives (one).
fn demo_model(plan: &FaultPlan) -> HbModel {
    let p = &plan.proto;
    HbModel::new(p.variant, p.params, p.n, p.fix)
        .allow_loss(false)
        .rejoin_cap(1)
}

#[test]
fn machine_and_model_agree_per_beat_on_the_crash_revive_schedule() {
    for (fix, admitted) in [
        (FixLevel::Full, [true, true, false]),
        (FixLevel::CorrectedBounds, [true, true, true]),
    ] {
        assert_eq!(machine_decisions(fix), admitted, "{fix}");
        assert_eq!(model_decisions(fix), admitted, "{fix}");
    }
}

#[test]
fn live_loopback_agrees_with_the_model_on_stale_beat_rejection() {
    let naive_plan = rejoin_demo_plan(FixLevel::CorrectedBounds, 1);
    let epoch_plan = rejoin_demo_plan(FixLevel::Full, 1);

    // Live runtime, end to end: the checked-in reorder + crash + revive
    // plan, at both fix levels, on the loopback cluster.
    let naive = run_plan(&naive_plan, Backend::Live);
    let epoch = run_plan(&epoch_plan, Backend::Live);

    // Model, exhaustively, on the same machines and parameters.
    // Agreement, clause by clause. Naive: some schedule gets a stale
    // beat admitted; the live run under the demo's adversary is one.
    let naive_model = demo_model(&naive_plan);
    assert!(
        Checker::new(&naive_model)
            .find_state(|s| s.coord.stale_admitted > 0)
            .is_some(),
        "the model never admits a stale beat below the full fix"
    );
    assert!(
        naive.stale_beats_admitted >= 1,
        "live naive run admitted no stale beat: {naive:?}"
    );
    // Epoch-tagged: no schedule gets one admitted, some get one
    // filtered, and the revived incarnation can re-register and be
    // confirmed; the live run filters them all and re-converges.
    let epoch_model = demo_model(&epoch_plan);
    let never_admits = Checker::new(&epoch_model).check_invariant(|s| s.coord.stale_admitted == 0);
    assert!(never_admits.holds(), "{:?}", never_admits.stats());
    let reachable = |pred: fn(&HbState) -> bool| Checker::new(&epoch_model).find_state(pred);
    assert!(reachable(|s| s.coord.stale_filtered > 0).is_some());
    assert!(reachable(|s| {
        s.coord.status.is_active() && s.coord.min_epoch[0] == 1 && s.resps[0].joined
    })
    .is_some());
    assert_eq!(
        epoch.stale_beats_admitted, 0,
        "live epoch run admitted a stale beat: {epoch:?}"
    );
    assert!(
        epoch.stale_beats_filtered >= 1,
        "live epoch run saw no stale beat to filter: {epoch:?}"
    );
    assert!(
        epoch.reconv_detect.is_some(),
        "live epoch run never re-registered the revived node: {epoch:?}"
    );
    assert!(
        epoch.reconv_stable.is_some(),
        "live epoch run never stabilised the revived node: {epoch:?}"
    );
}

#[test]
fn live_and_sim_agree_on_the_same_schedule() {
    // The two substrates execute the same machines; on the seed-pinned
    // demo schedule their stale-beat verdicts must coincide exactly.
    for fix in [FixLevel::CorrectedBounds, FixLevel::Full] {
        let plan = rejoin_demo_plan(fix, 1);
        let sim = run_plan(&plan, Backend::Sim);
        let live = run_plan(&plan, Backend::Live);
        assert_eq!(
            (sim.stale_beats_admitted > 0, sim.stale_beats_filtered > 0),
            (live.stale_beats_admitted > 0, live.stale_beats_filtered > 0),
            "substrates disagree at {fix:?}: sim {sim:?} vs live {live:?}"
        );
        assert_eq!(
            sim.reconv_detect.is_some(),
            live.reconv_detect.is_some(),
            "re-registration disagrees at {fix:?}"
        );
        assert_eq!(
            sim.reconv_stable.is_some(),
            live.reconv_stable.is_some(),
            "stabilisation disagrees at {fix:?}"
        );
    }
}
