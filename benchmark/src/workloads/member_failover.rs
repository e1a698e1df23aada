//! `member_failover`: view change, takeover and state transfer.

use std::time::Instant;

use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::member::{
    run_live, run_sim, Engine, FaultKind, LiveMesh, MemberConfig, MemberFault, MemberReport,
    MemberSpec, SimMesh,
};
use accelerated_heartbeat::net::Faults;
use accelerated_heartbeat::sim::{FaultHook, SendFate};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::{check, params, scaled, secs, Round, Workload};
use crate::decorators::{TracedHook, TracedMesh};
use crate::trace::{self, Name};

/// Genesis group size: a coordinator and seven participants.
const GROUP: usize = 8;
/// Ticks per membership run.
const DURATION: u64 = 100_000;
/// Runs per substrate in a full round. The live engine is about half as
/// fast, so it gets fewer: each half takes about a quarter second.
const SIM_RUNS: u64 = 5;
const LIVE_RUNS: u64 = 3;
/// Per-frame loss probability while the lossy window is open.
const LOSS: f64 = 0.02;

/// Bernoulli loss drawn from the benchmark's own seeded stream, until
/// `until`. A member that misses a `ViewChange` frame catches up only
/// on the next view change, so the last scheduled fault — the
/// participant crash — falls after the window: its view change reaches
/// everyone and `MemberReport::agreed()` is a fair check at the horizon.
#[derive(Debug)]
struct SeededLoss {
    rng: StdRng,
    until: u64,
}

impl FaultHook for SeededLoss {
    fn fate(&mut self, now: u64, _src: usize, _dst: usize) -> SendFate {
        if now < self.until && self.rng.gen_bool(LOSS) {
            SendFate::Drop
        } else {
            SendFate::clean()
        }
    }
}

/// One membership run: its config and the seed of its loss stream.
#[derive(Clone, Debug)]
struct Run {
    cfg: MemberConfig,
    loss_seed: u64,
}

impl Run {
    fn hook(&self) -> Box<SeededLoss> {
        Box::new(SeededLoss {
            rng: StdRng::seed_from_u64(self.loss_seed),
            until: self.cfg.duration * 7 / 10,
        })
    }
}

/// `hb_member::run_sim` then `run_live` on `MemberSpec::dynamic_full`:
/// the coordinator crashes and later revives, then one seeded
/// participant crashes.
pub struct MemberFailover {
    /// The sim substrate runs all of these; the live one the first
    /// `live_runs`.
    runs: Vec<Run>,
    live_runs: usize,
}

/// How a round executes one run on each substrate.
struct Exec<S, L> {
    sim: S,
    live: L,
}

/// What a round keeps of its reports once they are judged (the event
/// logs are large; at most two are alive at a time).
#[derive(Default)]
struct Tally {
    sim_s: f64,
    live_s: f64,
    delivered: f64,
    sent_sim: f64,
    unhealthy: Vec<String>,
    diverged: usize,
    crash_detects: Vec<f64>,
    revive_stables: Vec<f64>,
    layers: Vec<(&'static str, f64)>,
}

impl Tally {
    fn report(&mut self, r: &MemberReport) {
        self.delivered += r.stats.delivered as f64;
        let resolved = r
            .reconv
            .iter()
            .all(|s| s.detect.is_some() && s.stable.is_some());
        if !r.agreed() || r.reconv.len() != 3 || !resolved {
            self.unhealthy
                .push(format!("agreed {} reconv {:?}", r.agreed(), r.reconv));
        }
    }

    /// Simulated figures, from the sim substrate's report (the live one
    /// is checked equal to it).
    fn simulated(&mut self, r: &MemberReport) {
        self.sent_sim += r.stats.sent as f64;
        for s in &r.reconv {
            match s.kind {
                FaultKind::Crash => self
                    .crash_detects
                    .extend(s.detect.map(|t| t.saturating_sub(s.at) as f64)),
                FaultKind::Revive => self
                    .revive_stables
                    .extend(s.stable.map(|t| t.saturating_sub(s.at) as f64)),
            }
        }
        if self.layers.is_empty() {
            let count = |pred: fn(&Event) -> bool| {
                r.events.events().iter().filter(|e| pred(e)).count() as f64
            };
            let failover = r.reconv[0];
            self.layers = vec![
                (
                    "member.views_installed",
                    count(|e| matches!(e, Event::ViewChange { .. })),
                ),
                (
                    "member.state_replies",
                    count(|e| matches!(e, Event::StateTransfer { .. })),
                ),
                (
                    "member.failover_ticks",
                    failover
                        .stable
                        .unwrap_or(failover.at)
                        .saturating_sub(failover.at) as f64,
                ),
            ];
        }
    }
}

impl MemberFailover {
    /// Draw each run's fault times, victim and loss stream.
    pub fn generate(rng: &mut StdRng, scale: f64) -> Self {
        let duration = scaled(DURATION, scale, 4_000);
        let sim_runs = scaled(SIM_RUNS, scale, 1);
        let live_runs = scaled(LIVE_RUNS, scale, 1).min(sim_runs);
        let runs = (0..sim_runs)
            .map(|_| {
                let mut cfg = MemberConfig::clean(
                    MemberSpec::dynamic_full(params()),
                    GROUP,
                    rng.next_u64(),
                    duration,
                );
                // Each fault in its own twentieth of the run.
                let mut at = |slot: u64| duration * slot / 20 + rng.gen_range(0..duration / 20);
                let fault = |at, kind, pid| MemberFault { at, kind, pid };
                cfg.faults = vec![
                    fault(at(4), FaultKind::Crash, 0),
                    fault(at(9), FaultKind::Revive, 0),
                    fault(at(15), FaultKind::Crash, rng.gen_range(2..GROUP)),
                ];
                Run {
                    cfg,
                    loss_seed: rng.next_u64(),
                }
            })
            .collect();
        MemberFailover {
            runs,
            live_runs: live_runs as usize,
        }
    }

    /// A short lossless run on each substrate: pages in both engines
    /// before the timed section.
    fn prime(&self) {
        let mut cfg = self.runs[0].cfg.clone();
        cfg.duration /= 10;
        cfg.faults.clear();
        std::hint::black_box(run_sim(cfg.clone(), None, Vec::new()));
        std::hint::black_box(run_live(cfg, None, Vec::new()));
    }

    fn execute<S, L>(&self, exec: Exec<S, L>) -> Round
    where
        S: Fn(&Run) -> MemberReport,
        L: Fn(&Run) -> MemberReport,
    {
        let t0 = Instant::now();
        self.prime();
        let setup_s = secs(t0);

        // A no-op unless a recorder is installed (the traced round).
        trace::enter(Name::Round);
        let mut tally = Tally::default();
        for (i, run) in self.runs.iter().enumerate() {
            let t = Instant::now();
            let sim = (exec.sim)(run);
            tally.sim_s += secs(t);
            tally.report(&sim);
            tally.simulated(&sim);
            if i < self.live_runs {
                let t = Instant::now();
                let live = (exec.live)(run);
                tally.live_s += secs(t);
                tally.report(&live);
                let same = sim.stats == live.stats
                    && sim.views == live.views
                    && sim.events.events() == live.events.events();
                tally.diverged += usize::from(!same);
            }
        }
        trace::exit();

        let duration = self.runs[0].cfg.duration as f64;
        let run_s = tally.sim_s + tally.live_s;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
        let mut layers = vec![
            (
                "member.sim_ticks_per_s",
                duration * self.runs.len() as f64 / tally.sim_s,
            ),
            (
                "member.live_ticks_per_s",
                duration * self.live_runs as f64 / tally.live_s,
            ),
        ];
        layers.append(&mut tally.layers);
        Round {
            setup_s,
            run_s,
            work: tally.delivered,
            host: vec![("beats_per_s", tally.delivered / run_s)],
            simulated: vec![
                ("detect_ticks_mean", mean(&tally.crash_detects)),
                ("detect_ticks_max", max(&tally.crash_detects)),
                (
                    "msgs_per_tick",
                    tally.sent_sim / (duration * self.runs.len() as f64) / (GROUP - 1) as f64,
                ),
                ("reconv_ticks_max", max(&tally.revive_stables)),
            ],
            checks: vec![
                check(
                    "every run agrees on one view and resolves every ReconvSample",
                    tally.unhealthy.is_empty(),
                    || format!("{:?}", tally.unhealthy),
                ),
                check(
                    "sim and live substrates produce the same event stream",
                    tally.diverged == 0,
                    || format!("{} of {} runs diverged", tally.diverged, self.live_runs),
                ),
            ],
            layers,
            ops: Vec::new(),
        }
    }
}

impl Workload for MemberFailover {
    fn round(&self) -> Round {
        self.execute(Exec {
            sim: |r: &Run| run_sim(r.cfg.clone(), Some(r.hook()), Vec::new()),
            live: |r: &Run| run_live(r.cfg.clone(), Some(r.hook()), Vec::new()),
        })
    }

    /// The same runs with the mesh behind `TracedMesh` and the loss
    /// hook behind `TracedHook`; `round` self time is then the engine
    /// and the member nodes proper.
    fn traced_round(&self) -> Round {
        {
            self.execute(Exec {
                sim: |r: &Run| {
                    let c = r.cfg.clone();
                    let mesh = TracedMesh(SimMesh::new(c.group, c.loss, c.seed));
                    Engine::new(c, mesh, Some(Box::new(TracedHook(*r.hook()))), Vec::new()).run()
                },
                live: |r: &Run| {
                    let c = r.cfg.clone();
                    let mesh = TracedMesh(LiveMesh::new(c.group, Faults { loss: c.loss }, c.seed));
                    Engine::new(c, mesh, Some(Box::new(TracedHook(*r.hook()))), Vec::new()).run()
                },
            })
        }
    }
}
