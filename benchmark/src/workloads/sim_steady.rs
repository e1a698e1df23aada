//! `sim_steady`: the bare simulator tick path.

use std::time::Instant;

use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::World;
use rand::rngs::StdRng;

use super::{secs, Round, SteadyCell, SteadyOutcome, Workload};
use crate::decorators::{CleanHook, CountingTap, TracedHook, TracedTap};
use crate::trace::{span, Name};

/// Ticks per full round: about 0.4 s of `World::step` at n = 8.
const FULL_HORIZON: u64 = 3_000_000;

/// `hb_sim::World` on the steady cell: no loss, no tap, no event log.
pub struct SimSteady {
    cell: SteadyCell,
}

impl SimSteady {
    /// Draw the round's crash and delay seed.
    pub fn generate(rng: &mut StdRng, scale: f64) -> Self {
        SimSteady {
            cell: SteadyCell::generate(rng, 8, FULL_HORIZON, scale),
        }
    }

    /// The cell, for the layer step's monitor-overhead pair.
    pub fn cell(&self) -> &SteadyCell {
        &self.cell
    }

    /// A world on the cell with the crash scheduled.
    pub fn world(&self) -> World {
        let c = &self.cell;
        let mut world = World::new(
            WorldConfig {
                variant: SteadyCell::VARIANT,
                params: c.params,
                fix: SteadyCell::FIX,
                n: c.n,
                loss_prob: 0.0,
                log_events: false,
            },
            c.substrate_seed,
        );
        world.schedule_crash(c.crash_pid, c.crash_at);
        world
    }

    fn finish(&self, world: World, setup_s: f64, run_s: f64) -> Round {
        let c = &self.cell;
        let report = world.into_report();
        let outcome = SteadyOutcome {
            duration: report.duration,
            sent: report.messages_sent,
            delivered: report.messages_delivered,
            crashes: report.crashes,
            nv_inactivations: report.nv_inactivations,
        };
        let work = outcome.delivered_after(c.prime);
        let mut round = Round {
            setup_s,
            run_s,
            work,
            host: vec![("beats_per_s", work / run_s)],
            ..Round::default()
        };
        c.judge(&outcome, 0, &mut round);
        let ticks = (outcome.duration - c.prime) as f64;
        outcome.core_ops(c.n, ticks, c.params.tmax(), &mut round.ops);
        round.ops.extend([
            ("sim.channel_send_ns", work),
            // One `due_into` sweep per tick, plus one per reply wave.
            ("sim.channel_due_ns", ticks),
        ]);
        round
    }
}

impl Workload for SimSteady {
    fn round(&self) -> Round {
        let t0 = Instant::now();
        let mut world = self.world();
        world.run_until(self.cell.prime);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        world.run_until(self.cell.horizon);
        let run_s = secs(t1);
        self.finish(world, setup_s, run_s)
    }

    /// The only seams a bare world offers are its fault hook and its
    /// event sink, so the traced round installs a pass-through hook and
    /// a counting tap: `tick` self time is then `hb-core` + `hb-sim`
    /// proper, and the hook/tap spans count sends and events.
    fn traced_round(&self) -> Round {
        let t0 = Instant::now();
        let mut world = self.world();
        world.set_fault_hook(Box::new(TracedHook(CleanHook)));
        world.attach_owned_tap(Box::new(TracedTap(CountingTap::default())));
        world.run_until(self.cell.prime);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        span(Name::Round, || {
            while world.now() < self.cell.horizon && !world.all_inactive() {
                span(Name::Tick, || world.step());
            }
        });
        let run_s = secs(t1);
        self.finish(world, setup_s, run_s)
    }
}
