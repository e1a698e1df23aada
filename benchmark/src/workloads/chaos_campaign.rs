//! `chaos_campaign`: the fault-injection path of both substrates.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use accelerated_heartbeat::chaos::campaign::{
    cell_plan, run_campaign, CampaignReport, CampaignSpec, RunKind,
};
use accelerated_heartbeat::chaos::{Backend, ChaosCluster, FaultPipeline, FaultPlan, FaultSpec};
use accelerated_heartbeat::core::events::SharedTap;
use accelerated_heartbeat::core::{FixLevel, Variant};
use accelerated_heartbeat::monitor::MonitorSet;
use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::World;
use rand::rngs::StdRng;
use rand::RngCore;

use super::{check, params, scaled, secs, Round, Workload};
use crate::decorators::{TracedHook, TracedTap};
use crate::trace::{span, Name};

/// Participants of every campaign run.
const N: usize = 4;
/// Ticks per run; the crash lands at half of it. Short on purpose: at
/// `(2, 8)` a lossy static group rarely survives a thousand ticks, and a
/// `false_inact_rate` pinned at "everyone, every run" could not move.
const DURATION: u64 = 400;
/// Seeds per cell of a full round, sized so each half takes about a
/// quarter second: 12 cells x 3 run kinds x seeds.
const SIM_SEEDS: u64 = 240;
const LIVE_SEEDS: u64 = 30;
const RUN_KINDS: [RunKind; 3] = [RunKind::Crash, RunKind::CrashRevive, RunKind::Quiet];

/// `run_campaign` over loss {0, 2 %, 5 %} x burst {1, 4} x partition
/// {0, 20} x {crash, crash+revive, quiet}, monitored, one worker: first
/// on `Backend::Sim`, then on `Backend::Live`.
pub struct ChaosCampaign {
    sim: CampaignSpec,
    live: CampaignSpec,
}

/// What a half reported.
struct Half {
    report: CampaignReport,
    run_s: f64,
}

impl ChaosCampaign {
    /// Draw the campaign seeds.
    pub fn generate(rng: &mut StdRng, scale: f64) -> Self {
        let mut spec = |backend: Backend, full_seeds: u64| CampaignSpec {
            name: format!("bench-{}", backend.name()),
            backend,
            variant: Variant::Static,
            params: params(),
            n: N,
            duration: DURATION,
            fixes: vec![FixLevel::Full],
            loss: vec![0.0, 0.02, 0.05],
            burst: vec![1.0, 4.0],
            drift: vec![(1, 1)],
            partition: vec![0, 20],
            // Plan seeds travel through JSON numbers: keep them exact.
            seeds: (0..scaled(full_seeds, scale, 1))
                .map(|_| rng.next_u64() >> 32)
                .collect(),
            threads: 1,
            monitor: true,
        };
        ChaosCampaign {
            sim: spec(Backend::Sim, SIM_SEEDS),
            live: spec(Backend::Live, LIVE_SEEDS),
        }
    }

    /// Every plan of `spec`, in run order.
    fn plans(spec: &CampaignSpec) -> impl Iterator<Item = FaultPlan> + '_ {
        spec.cells().into_iter().flat_map(move |cell| {
            spec.seeds.iter().flat_map(move |&seed| {
                RUN_KINDS
                    .iter()
                    .map(move |&kind| cell_plan(spec, &cell, seed, kind))
            })
        })
    }

    /// Set-up: write every plan of the round as JSON, parse it back and
    /// validate it — the path a plan file takes into a campaign.
    fn setup(&self) -> Result<usize, String> {
        let mut plans = 0;
        for spec in [&self.sim, &self.live] {
            for plan in Self::plans(spec) {
                let parsed = FaultPlan::from_json(&plan.to_json()).map_err(|e| e.0)?;
                parsed.validate().map_err(|e| e.0)?;
                if parsed != plan {
                    return Err(format!("plan {} does not round-trip", plan.name));
                }
                plans += 1;
            }
        }
        Ok(plans)
    }

    fn half(spec: &CampaignSpec) -> Half {
        let t0 = Instant::now();
        let report = run_campaign(spec);
        // A campaign's product is its JSON report.
        std::hint::black_box(report.to_json());
        Half {
            run_s: secs(t0),
            report,
        }
    }

    /// Checks and simulated metrics over both halves' cell statistics.
    fn judge(&self, halves: [&Half; 2], round: &mut Round) {
        let (mut detected, mut detect_sum, mut detect_max) = (0usize, 0.0, 0u64);
        let (mut rate_sum, mut cells) = (0.0, 0usize);
        let (mut false_inact, mut quiet_lossy, mut reconv_max) = (0u64, 0usize, 0u64);
        for half in halves {
            let backend = half.report.spec.backend.name();
            let stats = &half.report.cells;
            let dirty: Vec<String> = stats
                .iter()
                .filter(|c| c.monitor_clean != c.monitor_runs || c.monitor_runs != 3 * c.runs)
                .map(|c| c.to_json())
                .collect();
            round.checks.push(check(
                "monitors clean on every corrected-bound cell",
                dirty.is_empty(),
                || format!("{backend}: {dirty:?}"),
            ));
            let late: Vec<String> = stats
                .iter()
                .filter(|c| c.cell.loss == 0.0 && c.cell.partition == 0)
                .filter(|c| {
                    c.detected != c.runs || c.violations_corrected > 0 || c.false_suspicions > 0
                })
                .map(|c| c.to_json())
                .collect();
            round.checks.push(check(
                "fault-free cells detect every crash within the corrected bound",
                late.is_empty(),
                || format!("{backend}: {late:?}"),
            ));
            for c in stats {
                detected += c.detected;
                detect_sum += c.detect_mean * c.detected as f64;
                detect_max = detect_max.max(c.detect_max);
                rate_sum += c.msg_per_tick;
                cells += 1;
                reconv_max = reconv_max.max(c.reconv_stable_max);
                // A 20-tick partition outlasts the 16-tick watchdog and
                // always ends the group: that is the partition's doing,
                // so the rate is taken over the connected lossy cells.
                if c.cell.loss > 0.0 && c.cell.partition == 0 {
                    false_inact += c.false_suspicions;
                    quiet_lossy += c.runs;
                }
            }
        }
        round.simulated.extend([
            ("detect_ticks_mean", detect_sum / detected.max(1) as f64),
            ("detect_ticks_max", detect_max as f64),
            ("msgs_per_tick", rate_sum / cells.max(1) as f64 / N as f64),
            (
                "false_inact_rate",
                false_inact as f64 / quiet_lossy.max(1) as f64,
            ),
            ("reconv_ticks_max", reconv_max as f64),
        ]);
    }
}

impl Workload for ChaosCampaign {
    fn round(&self) -> Round {
        let t0 = Instant::now();
        let plans = self.setup();
        let setup_s = secs(t0);

        let sim = Self::half(&self.sim);
        let live = Self::half(&self.live);
        let (sim_runs, live_runs) = (
            sim.report.total_runs() as f64,
            live.report.total_runs() as f64,
        );
        let mut round = Round {
            setup_s,
            run_s: sim.run_s + live.run_s,
            work: sim_runs + live_runs,
            host: vec![
                ("sim_runs_per_s", sim_runs / sim.run_s),
                ("live_runs_per_s", live_runs / live.run_s),
            ],
            ..Round::default()
        };
        round.checks.push(check(
            "every campaign plan round-trips through JSON and validates",
            plans == Ok((sim_runs + live_runs) as usize),
            || format!("{plans:?}"),
        ));
        self.judge([&sim, &live], &mut round);
        round
    }

    /// `run_campaign` builds its worlds, pipelines and monitors itself,
    /// so the traced round runs the same plans one by one with the
    /// pipeline behind a `TracedHook` (sim half) and the monitor behind
    /// a `TracedTap` (both halves). Cell statistics are not rebuilt:
    /// the traced round checks monitor verdicts only.
    fn traced_round(&self) -> Round {
        let t0 = Instant::now();
        let plans = self.setup();
        let setup_s = secs(t0);

        let t1 = Instant::now();
        let (mut runs, mut ticks_sim, mut ticks_live, mut dirty) = (0u64, 0u64, 0u64, Vec::new());
        span(Name::Round, || {
            for plan in Self::plans(&self.sim) {
                let (duration, clean) = span(Name::ChaosRun, || traced_sim_run(&plan));
                ticks_sim += duration;
                runs += 1;
                if !clean {
                    dirty.push(plan.name);
                }
            }
            for plan in Self::plans(&self.live) {
                let (duration, clean) = span(Name::ChaosRun, || traced_live_run(&plan));
                ticks_live += duration;
                runs += 1;
                if !clean {
                    dirty.push(plan.name);
                }
            }
        });
        let run_s = secs(t1);
        Round {
            setup_s,
            run_s,
            work: runs as f64,
            checks: vec![
                check(
                    "every campaign plan round-trips through JSON and validates",
                    plans == Ok(runs as usize),
                    || format!("{plans:?}"),
                ),
                check(
                    "monitors clean on every corrected-bound cell",
                    dirty.is_empty(),
                    || format!("{dirty:?}"),
                ),
            ],
            ops: vec![
                ("sim.step_ns_n8", ticks_sim as f64 * (N + 1) as f64 / 9.0),
                (
                    "net.cluster_step_ns_n8",
                    ticks_live as f64 * (N + 1) as f64 / 9.0,
                ),
            ],
            ..Round::default()
        }
    }
}

type TracedMonitor = TracedTap<MonitorSet>;

fn monitor(plan: &FaultPlan) -> TracedMonitor {
    let p = &plan.proto;
    TracedTap(MonitorSet::new(p.variant, p.params, p.fix, p.n))
}

/// `hb_chaos::sim::run_plan_sim_owned_tap` with the decorators in.
/// Returns the run's length and whether the monitor stayed clean.
fn traced_sim_run(plan: &FaultPlan) -> (u64, bool) {
    let p = &plan.proto;
    let mut world = World::new(
        WorldConfig {
            variant: p.variant,
            params: p.params,
            fix: p.fix,
            n: p.n,
            loss_prob: 0.0,
            log_events: false,
        },
        plan.seed,
    );
    world.attach_owned_tap(Box::new(monitor(plan)));
    world.set_fault_hook(Box::new(TracedHook(FaultPipeline::new(plan))));
    for fault in &plan.faults {
        match *fault {
            FaultSpec::Crash { pid, at } => world.schedule_crash(pid, at),
            FaultSpec::Revive { pid, at } => world.schedule_revive(pid, at),
            _ => {}
        }
    }
    world.run_until(p.duration);
    let tap = world
        .take_owned_taps()
        .pop()
        .expect("the monitor comes back");
    let duration = world.into_report().duration;
    let mut tap = tap
        .into_any()
        .downcast::<TracedMonitor>()
        .expect("the tap is the traced monitor");
    tap.0.finish(duration);
    (duration, tap.0.verdicts().clean())
}

/// `hb_chaos::run_plan_monitored` on the live backend with the monitor
/// behind a `TracedTap` (the cluster owns its pipeline).
fn traced_live_run(plan: &FaultPlan) -> (u64, bool) {
    let shared = Arc::new(Mutex::new(monitor(plan)));
    let tap: SharedTap = shared.clone();
    let mut cluster = ChaosCluster::new(plan.clone());
    cluster.attach_monitor(tap);
    cluster.run_until(plan.proto.duration);
    let duration = cluster.into_summary().duration;
    let mut tap = shared.lock().expect("the driver thread is the only user");
    tap.0.finish(duration);
    (duration, tap.0.verdicts().clean())
}
