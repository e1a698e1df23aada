//! `live_udp`: the steady cell over real sockets on the host loopback
//! interface, under injected ticks.

use std::time::Instant;

use accelerated_heartbeat::net::wire::{Command, Frame};
use accelerated_heartbeat::net::{Transport, UdpTransport};
use rand::rngs::StdRng;

use super::nodes::NodeSet;
use super::{check, secs, Round, SteadyCell, Workload};
use crate::decorators::TracedTransport;
use crate::trace::{span, Name};

/// Ticks per full round: about 0.4 s of syscalls at n = 4.
const FULL_HORIZON: u64 = 75_000;

/// Five `NodeRuntime<UdpTransport>` on 127.0.0.1, polled round-robin by
/// the one driver thread — coordinator, participants, coordinator again
/// to collect the replies — with the tick number injected, so no wall
/// clock and no sleep is in the measurement.
pub struct LiveUdp {
    cell: SteadyCell,
}

/// The sockets of one round: node transports by pid, then the injector.
struct Sockets {
    nodes: Vec<Option<UdpTransport>>,
    injector: UdpTransport,
}

impl Sockets {
    fn bind(n: usize) -> Sockets {
        let bind = || UdpTransport::bind("127.0.0.1:0").expect("bind an ephemeral localhost port");
        let mut nodes: Vec<UdpTransport> = (0..=n).map(|_| bind()).collect();
        let addrs: Vec<_> = nodes
            .iter()
            .map(|t| t.local_addr().expect("a bound socket has an address"))
            .collect();
        let mut injector = bind();
        for pid in 1..=n {
            nodes[0].add_peer(pid, addrs[pid]);
            nodes[pid].add_peer(0, addrs[0]);
        }
        for (pid, addr) in addrs.iter().enumerate() {
            injector.add_peer(pid, *addr);
        }
        Sockets {
            nodes: nodes.into_iter().map(Some).collect(),
            injector,
        }
    }

    fn take(&mut self, pid: usize) -> UdpTransport {
        self.nodes[pid]
            .take()
            .expect("each transport is taken once")
    }
}

impl LiveUdp {
    /// Draw the round's crash.
    pub fn generate(rng: &mut StdRng, scale: f64) -> Self {
        LiveUdp {
            cell: SteadyCell::generate(rng, 4, FULL_HORIZON, scale),
        }
    }

    fn run<T: Transport, const TRACED: bool>(
        &self,
        t0: Instant,
        mut injector: UdpTransport,
        mut nodes: NodeSet<T>,
    ) -> Round {
        let c = &self.cell;
        let tick = |nodes: &mut NodeSet<T>, now: u64| {
            nodes.poll_all::<TRACED>(now);
            nodes.poll_coord::<TRACED>(now);
            nodes.observe(now);
        };
        for now in 0..c.prime {
            tick(&mut nodes, now);
        }
        let (_, primed) = nodes.beats();
        let setup_s = secs(t0);

        let t1 = Instant::now();
        let mut now = c.prime;
        let mut before_crash = None;
        // A no-op unless a recorder is installed (the traced round).
        span(Name::Round, || {
            while now < c.horizon && !nodes.all_inactive() {
                if now == c.crash_at {
                    before_crash = Some((nodes.coord.counters, nodes.all_active()));
                    let crash = Frame::control(c.n + 1, Command::Crash);
                    injector
                        .send(now, c.crash_pid, &crash, 0)
                        .expect("send the crash control frame");
                }
                if TRACED {
                    span(Name::Tick, || tick(&mut nodes, now));
                } else {
                    tick(&mut nodes, now);
                }
                now += 1;
            }
        });
        let run_s = secs(t1);

        let outcome = nodes.outcome(now);
        let work = (outcome.delivered - primed) as f64;
        let mut round = Round {
            setup_s,
            run_s,
            work,
            host: vec![("beats_per_s", work / run_s)],
            ..Round::default()
        };
        c.judge(&outcome, 1, &mut round);
        round.checks.push(check(
            "coordinator beats_received == beats_sent before the crash",
            before_crash
                .is_some_and(|(k, all_active)| all_active && k.beats_received == k.beats_sent),
            || format!("{before_crash:?}"),
        ));
        let ticks = (now - c.prime) as f64;
        outcome.core_ops(c.n, ticks, c.params.tmax(), &mut round.ops);
        round.ops.extend([
            ("net.udp_sendrecv_ns", work),
            // Every poll ends on a `try_recv` that finds the socket empty.
            ("net.udp_recv_empty_ns", ticks * (c.n + 2) as f64),
        ]);
        round
    }
}

impl Workload for LiveUdp {
    fn round(&self) -> Round {
        let t0 = Instant::now();
        let mut sockets = Sockets::bind(self.cell.n);
        let nodes = NodeSet::new(&self.cell, |pid| sockets.take(pid));
        self.run::<_, false>(t0, sockets.injector, nodes)
    }

    fn traced_round(&self) -> Round {
        let t0 = Instant::now();
        let mut sockets = Sockets::bind(self.cell.n);
        let nodes = NodeSet::new(&self.cell, |pid| TracedTransport(sockets.take(pid)));
        self.run::<_, true>(t0, sockets.injector, nodes)
    }
}
