//! The six workloads.
//!
//! A workload is built once per process from the seed: construction
//! draws every random choice (which pid crashes and when, campaign
//! seeds, loss streams) and the crates later receive only the resulting
//! configs and plans. A **round** is a fixed amount of work — a tick
//! horizon, a grid, a cell list, never a time limit — so every round of
//! a run does the same thing and its simulated outputs repeat exactly.
//!
//! Each round times two sections separately: *set-up* (build the
//! fixture and bring it to steady state) and the *run* itself. Rates
//! are computed over the run section only.

use std::time::Instant;

use accelerated_heartbeat::core::{FixLevel, Params, Pid, Variant};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod chaos_campaign;
pub mod live_loopback;
pub mod live_udp;
pub mod mck_scale;
pub mod member_failover;
pub mod nodes;
pub mod sim_steady;

/// One correctness check of a round: a counted operation.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, for the failure report.
    pub detail: String,
}

/// Record a check.
pub fn check(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Check {
    Check {
        name,
        ok,
        detail: if ok { String::new() } else { detail() },
    }
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Seconds spent building and priming the fixture.
    pub setup_s: f64,
    /// Seconds spent in the timed section.
    pub run_s: f64,
    /// Units of work done in the timed section (beats delivered,
    /// campaign runs, states explored): `work / run_s` is `work_per_s`.
    pub work: f64,
    /// Named host-time metrics of this round.
    pub host: Vec<(&'static str, f64)>,
    /// Simulated metrics: must be the same in every round of a run.
    pub simulated: Vec<(&'static str, f64)>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics this round measured as a by-product.
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer operation counts of the timed section, keyed by the
    /// per-layer metric that prices one operation (for
    /// `trace.accounted_share`).
    pub ops: Vec<(&'static str, f64)>,
}

/// A workload: generated inputs plus the code that runs one round.
pub trait Workload {
    /// One untraced round.
    fn round(&self) -> Round;

    /// One round with the decorators of [`crate::decorators`] in place.
    /// The caller has installed a [`crate::trace`] recorder. Simulated
    /// metrics may be omitted.
    fn traced_round(&self) -> Round;
}

/// Build workload `name` from `seed` at `scale` (1.0 = a full round).
pub fn build(name: &str, seed: u64, scale: f64) -> Option<Box<dyn Workload>> {
    let mut rng = rng_for(seed, name);
    Some(match name {
        "sim_steady" => Box::new(sim_steady::SimSteady::generate(&mut rng, scale)),
        "live_loopback" => Box::new(live_loopback::LiveLoopback::generate(&mut rng, scale)),
        "live_udp" => Box::new(live_udp::LiveUdp::generate(&mut rng, scale)),
        "chaos_campaign" => Box::new(chaos_campaign::ChaosCampaign::generate(&mut rng, scale)),
        "member_failover" => Box::new(member_failover::MemberFailover::generate(&mut rng, scale)),
        "mck_scale" => Box::new(mck_scale::MckScale::generate(scale)),
        _ => return None,
    })
}

/// The input generator of one workload: the run seed mixed with the
/// workload's name, so workloads do not share a stream.
fn rng_for(seed: u64, name: &str) -> StdRng {
    // FNV-1a over the name.
    let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ tag)
}

/// `full` scaled down, never below `floor`.
pub fn scaled(full: u64, scale: f64, floor: u64) -> u64 {
    ((full as f64 * scale) as u64).max(floor)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The protocol cell of the steady workloads.
pub fn params() -> Params {
    Params::new(2, 8).expect("tmin 2 <= tmax 8")
}

/// The static, fully fixed cell `sim_steady`, `live_loopback` and
/// `live_udp` share, with its one seeded participant crash.
#[derive(Clone, Copy, Debug)]
pub struct SteadyCell {
    /// Timing parameters.
    pub params: Params,
    /// Participants.
    pub n: usize,
    /// Tick horizon of a round.
    pub horizon: u64,
    /// Ticks run during set-up, before timing starts.
    pub prime: u64,
    /// The participant that crashes.
    pub crash_pid: Pid,
    /// When it crashes: four coordinator bounds before the horizon, less
    /// a seeded phase within the last `tmax`.
    pub crash_at: u64,
    /// Seed handed to the substrate's own delay stream.
    pub substrate_seed: u64,
}

impl SteadyCell {
    /// The protocol variant.
    pub const VARIANT: Variant = Variant::Static;
    /// The fix level.
    pub const FIX: FixLevel = FixLevel::Full;

    /// Draw the cell's crash and seeds.
    pub fn generate(rng: &mut StdRng, n: usize, full_horizon: u64, scale: f64) -> Self {
        let params = params();
        let horizon = scaled(full_horizon, scale, 2_000);
        let bound = u64::from(params.p0_bound_corrected(Self::VARIANT));
        SteadyCell {
            params,
            n,
            horizon,
            prime: horizon / 20,
            crash_pid: rng.gen_range(1..=n),
            crash_at: horizon - 4 * bound - rng.gen_range(0..u64::from(params.tmax())),
            substrate_seed: rng.next_u64(),
        }
    }

    /// The corrected coordinator detection bound (§6.2).
    pub fn bound(&self) -> u64 {
        u64::from(self.params.p0_bound_corrected(Self::VARIANT))
    }

    /// Simulated metrics and correctness checks of one finished run,
    /// from the times the substrate reported. `slack` is the tick
    /// tolerance on the bound (real sockets may deliver one poll late).
    pub fn judge(&self, outcome: &SteadyOutcome, slack: u64, round: &mut Round) {
        let early: Vec<&(Pid, u64)> = outcome
            .nv_inactivations
            .iter()
            .filter(|(_, t)| *t < self.crash_at)
            .collect();
        round.checks.push(check(
            "no inactivation before the injected crash",
            early.is_empty() && outcome.crashes == [(self.crash_pid, self.crash_at)],
            || format!("early {early:?}, crashes {:?}", outcome.crashes),
        ));
        let detect = outcome
            .nv_inactivations
            .iter()
            .find(|(pid, _)| *pid == 0)
            .map(|(_, t)| t.saturating_sub(self.crash_at));
        round.checks.push(check(
            "crash detected within p0_bound_corrected",
            detect.is_some_and(|d| d <= self.bound() + slack),
            || format!("detect {detect:?} > bound {}", self.bound()),
        ));
        let detect = detect.unwrap_or(0) as f64;
        round.simulated.extend([
            ("detect_ticks_mean", detect),
            ("detect_ticks_max", detect),
            (
                "msgs_per_tick",
                outcome.sent as f64 / outcome.duration.max(1) as f64 / self.n as f64,
            ),
        ]);
    }
}

/// What a steady run reported, substrate-independent.
#[derive(Clone, Debug, Default)]
pub struct SteadyOutcome {
    /// Ticks run.
    pub duration: u64,
    /// Frames handed to the medium.
    pub sent: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// `(pid, tick)` of injected crashes that took effect.
    pub crashes: Vec<(Pid, u64)>,
    /// `(pid, tick)` of protocol-driven inactivations.
    pub nv_inactivations: Vec<(Pid, u64)>,
}

impl SteadyOutcome {
    /// Frames delivered after the first `prime` ticks, taking delivery
    /// as uniform over the run (it is: the cell is in steady state from
    /// the first round until the crash).
    pub fn delivered_after(&self, prime: u64) -> f64 {
        let d = self.duration.max(1) as f64;
        self.delivered as f64 * (d - prime as f64) / d
    }

    /// Per-layer operation counts of the `hb-core` machines over
    /// `ticks` ticks of an `n`-participant steady cell.
    pub fn core_ops(&self, n: usize, ticks: f64, tmax: u32, ops: &mut Vec<(&'static str, f64)>) {
        let share = ticks / self.duration.max(1) as f64;
        let delivered = self.delivered as f64 * share;
        ops.extend([
            ("core.coord_timeout_ns", ticks / f64::from(tmax)),
            ("core.coord_heartbeat_ns", delivered / 2.0),
            ("core.resp_beat_ns", delivered / 2.0),
            // core.tick_ns prices ticking all nine machines of an n = 8 cell.
            ("core.tick_ns", ticks * (n + 1) as f64 / 9.0),
        ]);
    }
}
