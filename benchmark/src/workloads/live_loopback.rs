//! `live_loopback`: the steady cell on `hb_net::VirtualCluster`.

use std::time::Instant;

use accelerated_heartbeat::net::wire::{Command, Frame};
use accelerated_heartbeat::net::{ClusterConfig, Faults, LoopbackNet, Transport, VirtualCluster};
use rand::rngs::StdRng;

use super::nodes::NodeSet;
use super::{secs, Round, SteadyCell, SteadyOutcome, Workload};
use crate::decorators::TracedTransport;
use crate::trace::{span, Name};

/// Ticks per full round: about 0.4 s of `VirtualCluster::step`.
const FULL_HORIZON: u64 = 400_000;

/// Nine `NodeRuntime<LoopbackEndpoint>` under virtual time.
pub struct LiveLoopback {
    cell: SteadyCell,
}

impl LiveLoopback {
    /// Draw the round's crash and delay seed.
    pub fn generate(rng: &mut StdRng, scale: f64) -> Self {
        LiveLoopback {
            cell: SteadyCell::generate(rng, 8, FULL_HORIZON, scale),
        }
    }

    fn finish(&self, outcome: SteadyOutcome, polls: f64, setup_s: f64, run_s: f64) -> Round {
        let c = &self.cell;
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
        // A poll that finds a frame is priced whole (receive, machine
        // step, reply); what is left is the coordinator's own timeouts
        // and the polls that find nothing.
        round.ops.extend([
            ("net.node_poll_beat_ns", work),
            ("net.node_poll_idle_ns", (polls - work).max(0.0)),
            ("core.coord_timeout_ns", ticks / f64::from(c.params.tmax())),
        ]);
        round
    }
}

impl Workload for LiveLoopback {
    fn round(&self) -> Round {
        let c = &self.cell;
        let t0 = Instant::now();
        let mut cluster = VirtualCluster::new(ClusterConfig {
            variant: SteadyCell::VARIANT,
            params: c.params,
            fix: SteadyCell::FIX,
            n: c.n,
            faults: Faults::none(),
            seed: c.substrate_seed,
            record_events: false,
        });
        cluster.schedule_crash(c.crash_pid, c.crash_at);
        cluster.run_until(c.prime);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        cluster.run_until(c.horizon);
        let run_s = secs(t1);
        let s = cluster.into_report().summary;
        let outcome = SteadyOutcome {
            duration: s.duration,
            sent: s.messages_sent,
            delivered: s.messages_delivered,
            crashes: s.crashes,
            nv_inactivations: s.nv_inactivations,
        };
        // Every node is polled at least once per tick.
        let polls = (outcome.duration - c.prime) as f64 * (c.n + 1) as f64;
        self.finish(outcome, polls, setup_s, run_s)
    }

    /// `VirtualCluster` builds its own endpoints, so the traced round
    /// steps the same nine `NodeRuntime`s by hand — same polling order,
    /// same settle loop — over `TracedTransport<LoopbackEndpoint>`.
    fn traced_round(&self) -> Round {
        let c = &self.cell;
        let t0 = Instant::now();
        let net = LoopbackNet::new(c.n + 2, Faults::none(), c.substrate_seed);
        let mut injector = net.endpoint(c.n + 1);
        let mut nodes = NodeSet::new(c, |pid| TracedTransport(net.endpoint(pid)));
        // One tick; returns how many node polls it took to settle.
        let mut tick = |nodes: &mut NodeSet<_>, now: u64| {
            let mut polls = 0u64;
            if now == c.crash_at {
                let crash = Frame::control(c.n + 1, Command::Crash);
                injector
                    .send(now, c.crash_pid, &crash, 0)
                    .expect("loopback send cannot fail");
            }
            loop {
                nodes.poll_all::<true>(now);
                polls += (c.n + 1) as u64;
                if !net.any_deliverable(now) {
                    break;
                }
            }
            nodes.observe(now);
            polls
        };
        for now in 0..c.prime {
            tick(&mut nodes, now);
        }
        let mut polls = 0u64;
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let mut now = c.prime;
        span(Name::Round, || {
            while now < c.horizon && !nodes.all_inactive() {
                polls += span(Name::Tick, || tick(&mut nodes, now));
                now += 1;
            }
        });
        let run_s = secs(t1);
        let mut outcome = nodes.outcome(now);
        // Beat counters count each frame at both ends.
        outcome.delivered = net.stats().delivered;
        outcome.sent = net.stats().sent;
        self.finish(outcome, polls as f64, setup_s, run_s)
    }
}
