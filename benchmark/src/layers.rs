//! The `layers` step: every crate priced from outside, one public
//! function at a time.
//!
//! Each `*_ns` / `*_us` figure is the **fastest batch's** mean time per
//! call (see [`Summary`]: this host's slow phases are one-sided), so a
//! timer read costs a fraction of a call and a stalled batch does not
//! move the figure.
//!
//! [`Summary`]: crate::stats::Summary Counts and
//! ratios come from the reports the crates already return. `effort`
//! scales every repetition count: 1.0 is the full step, `--smoke` runs
//! a hundredth of it through the same code.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use accelerated_heartbeat::analyze::{all_machines, dataflow_report, lint_all};
use accelerated_heartbeat::chaos::campaign::{cell_plan, run_campaign, CampaignSpec, RunKind};
use accelerated_heartbeat::chaos::{
    failover_plan, run_plan, run_plan_member, Backend, FaultPipeline, FaultPlan, FaultSpec, Link,
    Window,
};
use accelerated_heartbeat::core::coordinator::CoordSpec;
use accelerated_heartbeat::core::events::{event_json, EventSink};
use accelerated_heartbeat::core::responder::{LeaveDecision, RespSpec};
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Heartbeat, Variant, View};
use accelerated_heartbeat::mck::dfs::Dfs;
use accelerated_heartbeat::mck::packed::{BitReader, BitWriter, PackedChecker, StateCodec};
use accelerated_heartbeat::mck::parallel::ParallelChecker;
use accelerated_heartbeat::mck::{AmpleOracle, Checker, Model};
use accelerated_heartbeat::monitor::{replay, MonitorSet};
use accelerated_heartbeat::net::wire::Frame;
use accelerated_heartbeat::net::{
    ClusterConfig, Faults, LoopbackNet, NodeRuntime, Transport, UdpTransport, VirtualCluster,
};
use accelerated_heartbeat::sim::channel::Channel;
use accelerated_heartbeat::sim::schema::RunSummary;
use accelerated_heartbeat::sim::world::WorldConfig;
use accelerated_heartbeat::sim::World;
use accelerated_heartbeat::verify::requirements::{build_model, error_predicate};
use accelerated_heartbeat::verify::tables::{
    scale_cell, scale_disagreements, Reduction, ScaleLimits,
};
use accelerated_heartbeat::verify::{
    certified_canonical, HbAmpleOracle, HbCodec, HbModel, HbState, Requirement,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::decorators::CountingTap;
use crate::stats::{fastest, tail_percentile};
use crate::trace::{self, Name};
use crate::workloads::sim_steady::SimSteady;
use crate::workloads::{self, mck_scale, params, Workload};

/// The measured per-layer metrics, in measurement order.
pub type Layers = Vec<(&'static str, f64)>;

/// Batches per timed figure.
const BATCHES: usize = 21;

struct Step {
    effort: f64,
    seed: u64,
    out: Layers,
}

impl Step {
    /// `full` repetitions scaled by the effort, at least `floor`.
    fn reps(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.effort) as usize).max(floor)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Median ns per call of `op` over about `calls` calls.
    fn time_ns(&mut self, name: &'static str, calls: usize, op: impl FnMut()) {
        let ns = ns_per_call(self.reps(calls, 2 * BATCHES), op);
        self.put(name, ns);
    }
}

/// The fastest of [`BATCHES`] batches' mean ns per call.
fn ns_per_call(calls: usize, mut op: impl FnMut()) -> f64 {
    let per_batch = (calls / BATCHES).max(1);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    fastest(&batches)
}

/// The fastest of `runs` runs of `op`, in seconds.
fn fastest_secs(runs: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    fastest(&times)
}

/// Run the whole step.
pub fn measure(seed: u64, effort: f64) -> Layers {
    let mut step = Step {
        effort,
        seed,
        out: Vec::new(),
    };
    core(&mut step);
    sim(&mut step);
    wire(&mut step);
    transports(&mut step);
    node_and_cluster(&mut step);
    chaos(&mut step);
    member(&mut step);
    monitor(&mut step);
    mck(&mut step);
    verify(&mut step);
    analyze(&mut step);
    step.out
}

fn core(step: &mut Step) {
    const N: usize = 8;
    let p = params();
    let coord = CoordSpec::new(Variant::Static, p, N, FixLevel::Full);
    let resp = RespSpec::new(Variant::Static, p, FixLevel::Full);

    // A round in which everyone answered: the timeout is due, the new
    // waiting times are all tmax, and the broadcast goes to all eight.
    let mut cs = coord.init_state();
    step.time_ns("core.coord_timeout_ns", 1_000_000, || {
        cs.rcvd.iter_mut().for_each(|r| *r = true);
        cs.elapsed = cs.t;
        black_box(coord.on_timeout(&mut cs));
        black_box(coord.recipients(&cs).count());
    });
    let mut from = 0;
    step.time_ns("core.coord_heartbeat_ns", 2_000_000, || {
        from = from % N + 1;
        black_box(coord.on_heartbeat(&mut cs, from, Heartbeat::plain()));
    });
    let mut rs = resp.init_state();
    step.time_ns("core.resp_beat_ns", 2_000_000, || {
        black_box(resp.on_beat(&mut rs, Heartbeat::plain(), LeaveDecision::Stay));
    });
    // One tick of all nine machines, clocks rewound so nothing is due.
    let mut parts = vec![resp.init_state(); N];
    step.time_ns("core.tick_ns", 2_000_000, || {
        cs.elapsed = 0;
        coord.tick(&mut cs);
        for r in &mut parts {
            r.waiting = 0;
            resp.tick(r);
        }
        black_box(&parts);
    });

    let mut sink = EventSink::disabled();
    sink.attach_owned_tap(Box::new(CountingTap::default()));
    let event = Event::Deliver {
        at: 12_345,
        from: 3,
        to: 0,
        hb: Heartbeat::plain(),
    };
    step.time_ns("core.sink_emit_ns", 2_000_000, || {
        sink.emit(black_box(&event))
    });
    step.time_ns("core.event_json_ns", 1_000_000, || {
        black_box(event_json(black_box(&event)));
    });
}

fn steady_world(n: usize, seed: u64) -> World {
    World::new(
        WorldConfig {
            variant: Variant::Static,
            params: params(),
            fix: FixLevel::Full,
            n,
            loss_prob: 0.0,
            log_events: false,
        },
        seed,
    )
}

fn sim(step: &mut Step) {
    for (name, n, ticks) in [
        ("sim.step_ns_n1", 1, 1_000_000),
        ("sim.step_ns_n8", 8, 1_000_000),
        ("sim.step_ns_n64", 64, 100_000),
    ] {
        let mut world = steady_world(n, step.seed);
        world.run_until(1_000);
        step.time_ns(name, ticks, || world.step());
        assert!(!world.all_inactive(), "{name}: the steady world died");
    }

    // Sixteen frames in, one sweep out: a tick's worth at n = 8.
    const WAVE: u64 = 16;
    let mut rng = StdRng::seed_from_u64(step.seed);
    let mut channel = Channel::new(0.0);
    let mut scratch = Vec::new();
    let mut now = 0;
    let waves = step.reps(100_000, 2 * BATCHES);
    let (mut send_ns, mut due_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let (mut send, mut due) = (0u128, 0u128);
        let per_batch = (waves / BATCHES).max(1);
        for _ in 0..per_batch {
            let t0 = Instant::now();
            for i in 0..WAVE {
                channel.send(
                    &mut rng,
                    now,
                    0,
                    1 + (i % 8) as usize,
                    Heartbeat::plain(),
                    0,
                );
            }
            let t1 = Instant::now();
            scratch.clear();
            channel.due_into(now, &mut scratch);
            due += t1.elapsed().as_nanos();
            send += (t1 - t0).as_nanos();
            assert_eq!(scratch.len() as u64, WAVE);
            now += 1;
        }
        send_ns.push(send as f64 / (per_batch as u64 * WAVE) as f64);
        due_ns.push(due as f64 / per_batch as f64);
    }
    step.put("sim.channel_send_ns", fastest(&send_ns));
    step.put("sim.channel_due_ns", fastest(&due_ns));
}

fn wire(step: &mut Step) {
    let beat = Frame::beat(3, Heartbeat::plain().with_epoch(1));
    let mut buf = Vec::new();
    step.time_ns("net.wire_encode_beat_ns", 4_000_000, || {
        black_box(&beat).encode_into(&mut buf);
        black_box(&buf);
    });
    step.put("net.wire_beat_bytes", buf.len() as f64);
    step.time_ns("net.wire_decode_beat_ns", 4_000_000, || {
        black_box(Frame::decode(black_box(&buf)).expect("a valid beat decodes"));
    });

    let entries: Vec<(usize, u8)> = (0..8).map(|pid| (pid, (pid % 3) as u8)).collect();
    let view = Frame::view_change(1, View::new(7, 1, &entries));
    step.time_ns("net.wire_encode_view_ns", 2_000_000, || {
        black_box(&view).encode_into(&mut buf);
        black_box(&buf);
    });
    step.time_ns("net.wire_decode_view_ns", 2_000_000, || {
        black_box(Frame::decode(black_box(&buf)).expect("a valid view decodes"));
    });

    // A seeded mix of the three ways a buffer is wrong: cut short,
    // stamped with another wire version, or noise.
    let mut rng = StdRng::seed_from_u64(step.seed);
    let good = [beat.encode(), view.encode()];
    let hostile: Vec<Vec<u8>> = (0..256)
        .map(|i| {
            let mut b = good[i % 2].clone();
            match i % 3 {
                0 => b.truncate(rng.gen_range(0..b.len())),
                1 => b[2] = b[2].wrapping_add(rng.gen_range(1..=255u8)),
                _ => {
                    let len = rng.gen_range(1..48usize);
                    b = (0..len).map(|_| rng.next_u64() as u8).collect();
                    // Noise that happens to carry the version byte is
                    // still noise: break it so every buffer is invalid.
                    if b.len() > 2 && b[2] == good[0][2] {
                        b[2] ^= 0x80;
                    }
                }
            }
            b
        })
        .collect();
    let mut accepted = 0u64;
    let mut next = 0;
    step.time_ns("net.wire_reject_ns", 2_000_000, || {
        next = (next + 1) % hostile.len();
        accepted += u64::from(Frame::decode(black_box(&hostile[next])).is_ok());
    });
    step.put("net.wire_reject_accepted", accepted as f64);
}

fn udp_pair() -> (UdpTransport, UdpTransport) {
    let bind = || UdpTransport::bind("127.0.0.1:0").expect("bind an ephemeral localhost port");
    let (mut a, mut b) = (bind(), bind());
    let addr = |t: &UdpTransport| t.local_addr().expect("a bound socket has an address");
    a.add_peer(1, addr(&b));
    b.add_peer(0, addr(&a));
    (a, b)
}

/// Receive one frame, retrying while the kernel hands it over.
fn recv_one(t: &mut UdpTransport) {
    for _ in 0..1_000 {
        if t.try_recv(0).expect("udp recv").is_some() {
            return;
        }
    }
    panic!("a localhost datagram never arrived");
}

fn transports(step: &mut Step) {
    let beat = Frame::beat(0, Heartbeat::plain());
    let net = LoopbackNet::new(2, Faults::none(), step.seed);
    let (mut a, mut b) = (net.endpoint(0), net.endpoint(1));
    step.time_ns("net.loopback_sendrecv_ns", 1_000_000, || {
        a.send(0, 1, &beat, 0).expect("loopback send");
        black_box(b.try_recv(0).expect("loopback recv").expect("sent above"));
    });

    let (mut a, mut b) = udp_pair();
    step.time_ns("net.udp_sendrecv_ns", 100_000, || {
        a.send(0, 1, &beat, 0).expect("udp send");
        recv_one(&mut b);
    });
    step.time_ns("net.udp_recv_empty_ns", 200_000, || {
        black_box(b.try_recv(0).expect("udp recv"));
    });
    let mut soft = a.soft_errors() + b.soft_errors();
    let mut decode = a.decode_errors() + b.decode_errors();

    // One frame to eight peers: the coordinator's broadcast, which
    // encodes once and writes eight datagrams.
    let mut hub = UdpTransport::bind("127.0.0.1:0").expect("bind");
    let mut peers: Vec<UdpTransport> = (1..=8)
        .map(|pid| {
            let peer = UdpTransport::bind("127.0.0.1:0").expect("bind");
            hub.add_peer(pid, peer.local_addr().expect("bound"));
            peer
        })
        .collect();
    step.time_ns("net.udp_broadcast8_ns", 12_000, || {
        for pid in 1..=8 {
            hub.send(0, pid, &beat, 0).expect("udp send");
        }
        peers.iter_mut().for_each(recv_one);
    });
    soft += hub.soft_errors() + peers.iter().map(UdpTransport::soft_errors).sum::<u64>();
    decode += hub.decode_errors() + peers.iter().map(UdpTransport::decode_errors).sum::<u64>();
    step.put("net.udp_soft_errors", soft as f64);
    step.put("net.udp_decode_errors", decode as f64);
}

fn node_and_cluster(step: &mut Step) {
    // A participant that hears one beat every tmax ticks: seven polls in
    // eight find nothing due.
    let p = params();
    let tmax = u64::from(p.tmax());
    let net = LoopbackNet::new(2, Faults::none(), step.seed);
    let mut coord_end = net.endpoint(0);
    let mut node = NodeRuntime::participant(
        1,
        RespSpec::new(Variant::Static, p, FixLevel::Full),
        net.endpoint(1),
    );
    let beat = Frame::beat(0, Heartbeat::plain());
    let rounds = step.reps(150_000, 2 * BATCHES);
    let (mut idle, mut busy) = (Vec::new(), Vec::new());
    let mut now = 0u64;
    for _ in 0..BATCHES {
        let (mut idle_ns, mut busy_ns) = (0u128, 0u128);
        let per_batch = (rounds / BATCHES).max(1);
        for _ in 0..per_batch {
            coord_end.send(now, 1, &beat, 0).expect("loopback send");
            let t0 = Instant::now();
            node.poll(now).expect("loopback poll");
            let t1 = Instant::now();
            for t in now + 1..now + tmax {
                node.poll(t).expect("loopback poll");
            }
            idle_ns += t1.elapsed().as_nanos();
            busy_ns += (t1 - t0).as_nanos();
            now += tmax;
            // Drop the reply so the queue stays empty.
            black_box(coord_end.try_recv(now).expect("loopback recv"));
        }
        idle.push(idle_ns as f64 / (per_batch as u64 * (tmax - 1)) as f64);
        busy.push(busy_ns as f64 / per_batch as f64);
    }
    assert!(node.status().is_active(), "the polled participant died");
    step.put("net.node_poll_idle_ns", fastest(&idle));
    step.put("net.node_poll_beat_ns", fastest(&busy));

    let seed = step.seed;
    let cluster = |n: usize| {
        let mut c = VirtualCluster::new(ClusterConfig {
            variant: Variant::Static,
            params: p,
            fix: FixLevel::Full,
            n,
            faults: Faults::none(),
            seed,
            record_events: false,
        });
        c.run_until(1_000);
        c
    };
    for (name, n, ticks) in [
        ("net.cluster_step_ns_n1", 1, 500_000),
        ("net.cluster_step_ns_n8", 8, 200_000),
        ("net.cluster_step_ns_n64", 64, 12_000),
    ] {
        let mut c = cluster(n);
        step.time_ns(name, ticks, || c.step());
        assert!(!c.all_inactive(), "{name}: the steady cluster died");
    }
    // The tail needs single steps timed one by one.
    let mut c = cluster(8);
    let samples: Vec<f64> = (0..step.reps(100_000, 50))
        .map(|_| {
            let t0 = Instant::now();
            c.step();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let (_, tail) = tail_percentile(&samples).expect("more than ten samples");
    step.put("net.cluster_step_p99_ns", tail);

    // The same cell on both substrates, a tenth of a round each.
    let scale = 0.1 * step.effort;
    let rate = |name: &str| {
        let w = workloads::build(name, seed, scale).expect("a declared workload");
        let secs_per_unit: Vec<f64> = (0..3)
            .map(|_| {
                let r = w.round();
                r.run_s / r.work
            })
            .collect();
        1.0 / fastest(&secs_per_unit)
    };
    let ratio = rate("sim_steady") / rate("live_loopback");
    step.put("net.live_vs_sim_ratio", ratio);
}

/// A plan with every message-level fault active at once.
fn ge_plan(seed: u64) -> FaultPlan {
    let spec = CampaignSpec {
        name: "layers".into(),
        backend: Backend::Sim,
        variant: Variant::Static,
        params: params(),
        n: 4,
        duration: 2_000,
        fixes: vec![FixLevel::Full],
        loss: vec![0.05],
        burst: vec![4.0],
        drift: vec![(1, 1)],
        partition: vec![20],
        seeds: vec![seed],
        threads: 1,
        monitor: true,
    };
    let cell = spec.cells()[0];
    cell_plan(&spec, &cell, seed, RunKind::CrashRevive)
        .with(FaultSpec::Duplicate {
            window: Window::always(),
            link: Link::any(),
            p: 0.05,
        })
        .with(FaultSpec::Reorder {
            window: Window::always(),
            link: Link::any(),
            p: 0.1,
            max_extra: 2,
        })
        .with(FaultSpec::DelaySpike {
            window: Window::between(1_200, 1_300),
            extra: 1,
        })
}

fn chaos(step: &mut Step) {
    let plan = ge_plan(step.seed);
    let json = plan.to_json();
    let us = |ns: f64| ns / 1_000.0;
    let parse = ns_per_call(step.reps(20_000, 2 * BATCHES), || {
        black_box(FaultPlan::from_json(black_box(&json)).expect("the plan parses"));
    });
    step.put("chaos.plan_parse_us", us(parse));
    let validate = ns_per_call(step.reps(200_000, 2 * BATCHES), || {
        black_box(&plan).validate().expect("the plan validates");
    });
    step.put("chaos.plan_validate_us", us(validate));

    let mut clean_plan = plan.clone();
    clean_plan.faults.clear();
    let mut clean = FaultPipeline::new(&clean_plan);
    let mut now = 0u64;
    step.time_ns("chaos.decide_clean_ns", 2_000_000, || {
        now += 1;
        black_box(clean.decide(now / 8, 0, 1 + (now % 4) as usize));
    });
    // Keep the clock inside the plan's windows so every stage stays hot.
    let mut ge = FaultPipeline::new(&plan);
    step.time_ns("chaos.decide_ge_ns", 2_000_000, || {
        now += 1;
        black_box(ge.decide(500 + now % 40, 0, 1 + (now % 4) as usize));
    });
    let stats = ge.stats();
    step.put(
        "chaos.drop_ratio",
        stats.dropped as f64 / stats.decided.max(1) as f64,
    );

    let member_plan = failover_plan(0.05, step.seed);
    // The live backend is an order of magnitude slower: fewer runs.
    for (backend, runs, plain, member) in [
        (
            Backend::Sim,
            step.reps(150, 3),
            "chaos.run_plan_sim_us",
            "chaos.run_plan_member_sim_us",
        ),
        (
            Backend::Live,
            step.reps(50, 3),
            "chaos.run_plan_live_us",
            "chaos.run_plan_member_live_us",
        ),
    ] {
        let secs = fastest_secs(runs, || drop(black_box(run_plan(&plan, backend))));
        step.put(plain, secs * 1e6);
        let secs = fastest_secs(runs, || {
            drop(black_box(run_plan_member(&member_plan, backend)))
        });
        step.put(member, secs * 1e6);
    }

    let summary: RunSummary = run_plan(&plan, Backend::Sim);
    let report = run_campaign(&CampaignSpec {
        name: "layers".into(),
        backend: Backend::Sim,
        variant: Variant::Static,
        params: params(),
        n: 4,
        duration: 400,
        fixes: vec![FixLevel::Full],
        loss: vec![0.0, 0.05],
        burst: vec![1.0],
        drift: vec![(1, 1)],
        partition: vec![0],
        seeds: vec![step.seed],
        threads: 1,
        monitor: true,
    });
    let to_json = ns_per_call(step.reps(100_000, 2 * BATCHES), || {
        black_box(black_box(&summary).to_json());
        black_box(black_box(&report.cells[0]).to_json());
    });
    step.put("chaos.summary_json_us", us(to_json));
}

fn member(step: &mut Step) {
    let w = workloads::member_failover::MemberFailover::generate(
        &mut StdRng::seed_from_u64(step.seed),
        0.2 * step.effort,
    );
    let untraced = w.round();
    trace::install(0);
    let traced = w.traced_round();
    let t = trace::finish();
    let failed: Vec<_> = untraced
        .checks
        .iter()
        .chain(&traced.checks)
        .filter(|c| !c.ok)
        .collect();
    assert!(failed.is_empty(), "member layer run failed: {failed:?}");
    step.out.extend(untraced.layers);
    // A span's own two clock reads land inside its duration: take the
    // duration of an empty span off the means.
    trace::install(0);
    for _ in 0..step.reps(200_000, 100) {
        trace::span(Name::Tick, || ());
    }
    let empty = trace::finish().mean_ns(Name::Tick);
    let net_of_span = |name| (t.mean_ns(name) - empty).max(0.0);
    step.put("member.mesh_send_ns", net_of_span(Name::MemberMeshSend));
    step.put("member.mesh_recv_ns", net_of_span(Name::MemberMeshRecv));
    let round = t.roll(Name::Round);
    step.put(
        "member.engine_self_share",
        round.self_ns as f64 / round.total_ns.max(1) as f64,
    );
}

fn monitor(step: &mut Step) {
    for (name, n) in [("monitor.observe_ns_n1", 1), ("monitor.observe_ns_n8", 8)] {
        // A steady log with one crash near its end, recorded once.
        let ticks = step.reps(40_000, 400) as u64;
        let mut world = World::new(
            WorldConfig {
                variant: Variant::Static,
                params: params(),
                fix: FixLevel::Full,
                n,
                loss_prob: 0.0,
                log_events: true,
            },
            step.seed,
        );
        world.schedule_crash(1, ticks - 100);
        world.run_until(ticks);
        let report = world.into_report();
        let events = report.log.events();
        let mut passes = Vec::new();
        for _ in 0..BATCHES {
            let mut set = MonitorSet::new(Variant::Static, params(), FixLevel::Full, n);
            let t0 = Instant::now();
            for e in events {
                set.observe(e);
            }
            passes.push(t0.elapsed().as_nanos() as f64 / events.len() as f64);
            black_box(set.verdicts());
        }
        step.put(name, fastest(&passes));
        if n == 8 {
            let secs = fastest_secs(BATCHES, || {
                let v = replay(
                    Variant::Static,
                    params(),
                    FixLevel::Full,
                    n,
                    events,
                    report.duration,
                );
                assert!(
                    v.clean(),
                    "replay of a corrected-bound run fired: {}",
                    v.to_json()
                );
            });
            step.put("monitor.replay_events_per_s", events.len() as f64 / secs);
        }
    }

    // The sim_steady cell bare and with an owned MonitorSet tap, in
    // alternation; the overhead is taken between the two fastest runs.
    let cell = SimSteady::generate(&mut StdRng::seed_from_u64(step.seed), 0.1 * step.effort);
    let horizon = cell.cell().horizon;
    let (mut bare, mut tapped, mut violations) = (Vec::new(), Vec::new(), 0u32);
    for _ in 0..7 {
        let mut world = cell.world();
        let t0 = Instant::now();
        world.run_until(horizon);
        bare.push(t0.elapsed().as_secs_f64());

        let mut world = cell.world();
        world.attach_owned_tap(Box::new(MonitorSet::new(
            Variant::Static,
            params(),
            FixLevel::Full,
            8,
        )));
        let t0 = Instant::now();
        world.run_until(horizon);
        tapped.push(t0.elapsed().as_secs_f64());
        let tap = world
            .take_owned_taps()
            .pop()
            .expect("the monitor comes back");
        let mut set = MonitorSet::from_tap(tap).expect("the tap is the monitor");
        set.finish(world.into_report().duration);
        violations += u32::from(!set.verdicts().clean());
    }
    // (bare rate - tapped rate) / bare rate, over the same work.
    step.put(
        "monitor.overhead_pct_n8",
        100.0 * (1.0 - fastest(&bare) / fastest(&tapped)),
    );
    step.put("monitor.violations", f64::from(violations));
}

/// Static R2 at n = 4, full fix, unreduced: 11 169 states at (2, 6).
fn small_model() -> HbModel {
    build_model(
        Variant::Static,
        mck_scale::params(),
        FixLevel::Full,
        4,
        Requirement::R2,
    )
    .stagger_starts(true)
}

fn mck(step: &mut Step) {
    let model = small_model();
    let holds = |s: &HbState| !error_predicate(&model, Requirement::R2)(s);
    let runs = step.reps(5, 1);
    let mut states = 0;
    let secs = fastest_secs(runs, || {
        let out = Checker::new(&model).check_invariant(holds);
        assert!(out.holds());
        states = out.stats().states;
    });
    step.put("mck.bfs_states_per_s", states as f64 / secs);
    let secs = fastest_secs(runs, || {
        let out = Dfs::new(&model).find(|s| !holds(s));
        assert!(out.path().is_none());
        assert_eq!(out.stats().states, states);
    });
    step.put("mck.dfs_states_per_s", states as f64 / secs);
    let secs = fastest_secs(runs, || {
        let out = ParallelChecker::new(&model).check_invariant(holds);
        assert!(out.holds());
    });
    step.put("mck.parallel_states_per_s", states as f64 / secs);
    let mut bytes = 0;
    let secs = fastest_secs(runs, || {
        let run = PackedChecker::new(&model, HbCodec::for_model(&model)).check_invariant(holds);
        assert!(run.outcome.holds());
        bytes = run.mem.arena_bytes;
    });
    step.put("mck.packed_states_per_s", states as f64 / secs);
    step.put("mck.packed_bytes_per_state", bytes as f64 / states as f64);
}

/// The first `limit` states of a breadth-first walk.
fn reachable(model: &HbModel, limit: usize) -> Vec<HbState> {
    let mut seen: HashSet<HbState> = model.initial_states().into_iter().collect();
    let mut order: Vec<HbState> = seen.iter().cloned().collect();
    let mut acts = Vec::new();
    let mut next = 0;
    while next < order.len() && order.len() < limit {
        acts.clear();
        model.actions(&order[next], &mut acts);
        for a in &acts {
            if let Some(s) = model.next_state(&order[next], a) {
                if seen.insert(s.clone()) {
                    order.push(s);
                }
            }
        }
        next += 1;
    }
    order
}

fn verify(step: &mut Step) {
    let p = mck_scale::params();
    let model =
        build_model(Variant::Static, p, FixLevel::Full, 8, Requirement::R2).stagger_starts(true);
    let setup = fastest_secs(step.reps(9, 1), || {
        black_box(certified_canonical(&model).expect("the static machines are certified"));
        black_box(HbCodec::for_model(&model));
    });
    step.put("verify.setup_dataflow_ms", setup * 1e3);

    let states = reachable(&model, step.reps(4_000, 64));
    let canon = certified_canonical(&model).expect("certified above");
    let oracle = HbAmpleOracle::new(&model, Requirement::R2);
    let codec = HbCodec::for_model(&model);
    let mut acts = Vec::new();
    let mut i = 0;
    let mut cycle = || {
        i = (i + 1) % states.len();
        &states[i]
    };
    let next_states = ns_per_call(step.reps(100_000, 2 * BATCHES), || {
        let s = cycle();
        acts.clear();
        model.actions(s, &mut acts);
        for a in &acts {
            black_box(model.next_state(s, a));
        }
    });
    step.put("verify.next_states_ns", next_states);
    let canonical = ns_per_call(step.reps(200_000, 2 * BATCHES), || {
        black_box(canon(cycle()));
    });
    step.put("verify.canonical_ns", canonical);
    let enabled: Vec<Vec<_>> = states
        .iter()
        .map(|s| {
            let mut acts = Vec::new();
            model.actions(s, &mut acts);
            acts
        })
        .collect();
    let mut j = 0;
    let ample = ns_per_call(step.reps(200_000, 2 * BATCHES), || {
        j = (j + 1) % states.len();
        black_box(oracle.ample(&states[j], &enabled[j]));
    });
    step.put("verify.ample_ns", ample);
    let mut w = BitWriter::new();
    let encode = ns_per_call(step.reps(300_000, 2 * BATCHES), || {
        w.clear();
        codec.encode(cycle(), &mut w);
        black_box(w.bytes());
    });
    step.put("verify.codec_encode_ns", encode);
    let packed: Vec<Vec<u8>> = states
        .iter()
        .map(|s| {
            w.clear();
            codec.encode(s, &mut w);
            w.bytes().to_vec()
        })
        .collect();
    let mut k = 0;
    let decode = ns_per_call(step.reps(300_000, 2 * BATCHES), || {
        k = (k + 1) % packed.len();
        let s: HbState = codec.decode(&mut BitReader::new(&packed[k]));
        black_box(s);
    });
    step.put("verify.codec_decode_ns", decode);

    // Exact state counts across the stacks on the small cell.
    let cells: Vec<_> = Reduction::ALL
        .iter()
        .map(|&r| {
            scale_cell(
                Variant::Static,
                p,
                FixLevel::Full,
                Requirement::R2,
                4,
                r,
                ScaleLimits::default(),
            )
        })
        .collect();
    let count = |r: Reduction| {
        cells
            .iter()
            .find(|c| c.reduction == r)
            .map_or(0, |c| c.states) as f64
    };
    step.put(
        "verify.sym_states_ratio",
        count(Reduction::Sym) / count(Reduction::Full),
    );
    step.put(
        "verify.por_states_ratio",
        count(Reduction::SymPor) / count(Reduction::Sym),
    );
    step.put(
        "verify.stack_disagreements",
        scale_disagreements(&cells).len() as f64,
    );
}

fn analyze(step: &mut Step) {
    let machines = all_machines();
    let runs = step.reps(9, 1);
    let secs = fastest_secs(runs, || drop(black_box(lint_all(&machines))));
    step.put("analyze.lint_all_ms", secs * 1e3);
    let secs = fastest_secs(runs, || drop(black_box(dataflow_report())));
    step.put("analyze.dataflow_ms", secs * 1e3);
}
