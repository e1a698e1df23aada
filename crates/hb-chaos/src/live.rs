//! Running a fault plan on the live runtime.
//!
//! [`ChaosTransport`] is a [`Transport`] decorator: every outgoing
//! heartbeat frame is submitted to the shared [`FaultPipeline`] — the
//! same engine the simulator installs as its fault hook — and is dropped,
//! duplicated, or held back accordingly before reaching the wrapped
//! transport (loopback or UDP). Control frames bypass the pipeline, as
//! in the simulator and the loopback network: they are the harness's
//! hand, not protocol traffic.
//!
//! [`ChaosCluster`] is [`hb_net::VirtualCluster`] — the one tick-stepped
//! live harness — instantiated with the [`ChaosSeam`]: the decorator on
//! every endpoint of a lossless loopback, plus the one fault class only
//! a live runtime can express, **per-node clock drift**. Each node is
//! polled at the local tick its own [`SkewedClock`] reads, while the
//! network and the observer stay on true time — a fast node fires
//! watchdogs early, a slow one late, exactly the failure mode the
//! corrected bounds must absorb.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use hb_core::events::SharedTap;
use hb_core::trace::Event;
use hb_core::Pid;
use hb_net::cluster::{ClusterConfig, Seam, VirtualCluster};
use hb_net::loopback::{Faults, LoopbackEndpoint, NetStats};
use hb_net::transport::{Recv, Transport};
use hb_net::wire::Frame;
use hb_net::{SkewedClock, VirtualClock};
use hb_sim::channel::Time;
use hb_sim::schema::RunSummary;
use hb_sim::SendFate;

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};

/// A frame held back by a reorder/delay-spike fate, awaiting release.
#[derive(Clone, Copy, Debug)]
struct Held {
    due: Time,
    dst: Pid,
    frame: Frame,
    budget: u32,
}

/// Pipeline state shared by every [`ChaosTransport`] of one run.
pub struct ChaosNet {
    pipeline: FaultPipeline,
    /// True cluster time, set by the harness each tick. `None` outside a
    /// cluster (standalone decorator use): the caller's own tick is
    /// trusted instead.
    true_now: Option<Time>,
    held: Vec<Held>,
    /// Logical heartbeat sends (one per send call, as in the simulator).
    sent: u64,
    /// Sends the pipeline dropped.
    lost: u64,
    /// Optional event tap told about pipeline drops. Live nodes only see
    /// their own sends and deliveries — the adversary's drop decision is
    /// invisible to them — so the synthetic `lose` event a streaming
    /// monitor needs (the R2/R3 fault-free premise) is emitted here, at
    /// the only place that knows, mirroring the simulator's own `lose`
    /// records.
    tap: Option<SharedTap>,
}

impl std::fmt::Debug for ChaosNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosNet")
            .field("pipeline", &self.pipeline)
            .field("true_now", &self.true_now)
            .field("held", &self.held.len())
            .field("sent", &self.sent)
            .field("lost", &self.lost)
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

impl ChaosNet {
    /// Shared pipeline state for one plan run.
    pub fn new(pipeline: FaultPipeline) -> Arc<Mutex<ChaosNet>> {
        Arc::new(Mutex::new(ChaosNet {
            pipeline,
            true_now: None,
            held: Vec::new(),
            sent: 0,
            lost: 0,
            tap: None,
        }))
    }
}

/// A fault-injecting [`Transport`] decorator (one per node, sharing the
/// run's [`ChaosNet`]).
pub struct ChaosTransport<T> {
    inner: T,
    shared: Arc<Mutex<ChaosNet>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner`, injecting faults from the shared pipeline.
    pub fn new(inner: T, shared: Arc<Mutex<ChaosNet>>) -> Self {
        ChaosTransport { inner, shared }
    }

    /// Release every held frame due at `now` into the wrapped transport.
    fn flush(&mut self, now: Time, st: &mut ChaosNet) -> io::Result<()> {
        let mut i = 0;
        while i < st.held.len() {
            if st.held[i].due <= now {
                let h = st.held.swap_remove(i);
                self.inner.send(now, h.dst, &h.frame, h.budget)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.lock().expect("chaos state poisoned");
        // Nodes may live on drifted local clocks; faults act on true time.
        let now = st.true_now.unwrap_or(now);
        self.flush(now, &mut st)?;
        if matches!(frame, Frame::Control { .. }) {
            return self.inner.send(now, dst, frame, budget);
        }
        st.sent += 1;
        match st.pipeline.decide(now, frame.src(), dst) {
            SendFate::Drop => {
                st.lost += 1;
                if let Some(tap) = &st.tap {
                    if let Ok(mut t) = tap.lock() {
                        t.on_event(&Event::Lose {
                            at: now,
                            from: frame.src(),
                            to: dst,
                        });
                    }
                }
                Ok(())
            }
            SendFate::Deliver {
                copies,
                extra_delay,
            } => {
                for _ in 0..copies {
                    if extra_delay == 0 {
                        self.inner.send(now, dst, frame, budget)?;
                    } else {
                        st.held.push(Held {
                            due: now + Time::from(extra_delay),
                            dst,
                            frame: *frame,
                            budget: budget.saturating_sub(extra_delay),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.lock().expect("chaos state poisoned");
        let now = st.true_now.unwrap_or(now);
        self.flush(now, &mut st)?;
        drop(st);
        self.inner.try_recv(now)
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.inner.wait(timeout)
    }
}

/// The [`Seam`] that turns [`VirtualCluster`] into the chaos harness:
/// every endpoint is wrapped in a [`ChaosTransport`] over the run's
/// shared [`ChaosNet`], each node is polled at its own (possibly drifted)
/// local tick, and the pipeline's drop site gets the cluster's tap.
/// Held-back frames need no hook: every node's poll makes at least one
/// transport call, and the first one of a tick releases all that are due.
pub struct ChaosSeam {
    shared: Arc<Mutex<ChaosNet>>,
    /// Per-pid local clock (identity skew unless the plan drifts it);
    /// only [`SkewedClock::map`] is used — the cluster supplies true time.
    local: Vec<SkewedClock<VirtualClock>>,
}

impl ChaosSeam {
    fn net(&self) -> MutexGuard<'_, ChaosNet> {
        self.shared.lock().expect("chaos state poisoned")
    }
}

impl Seam for ChaosSeam {
    type Transport = ChaosTransport<LoopbackEndpoint>;

    fn wrap(&self, _pid: Pid, endpoint: LoopbackEndpoint) -> Self::Transport {
        ChaosTransport::new(endpoint, Arc::clone(&self.shared))
    }

    fn local_tick(&self, pid: Pid, now: Time) -> Time {
        self.local[pid].map(now)
    }

    fn begin_tick(&mut self, now: Time) {
        self.net().true_now = Some(now);
    }

    fn attach_tap(&mut self, tap: &SharedTap) {
        self.net().tap = Some(tap.clone());
    }

    /// Sends are logical (one per send call, as in the simulator, however
    /// many copies the pipeline made) and the pipeline's drops count as
    /// losses; deliveries are the loopback's.
    fn traffic(&self, net: NetStats) -> NetStats {
        let st = self.net();
        NetStats {
            sent: st.sent,
            delivered: net.delivered,
            lost: st.lost + net.lost,
        }
    }
}

/// A live cluster running one [`FaultPlan`]: [`VirtualCluster`] over a
/// lossless loopback, instantiated with the [`ChaosSeam`] and the plan's
/// crash / start / leave / revive schedule.
pub struct ChaosCluster(VirtualCluster<ChaosSeam>);

impl ChaosCluster {
    /// Build a cluster for `plan`; nothing runs until [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        let proto = plan.proto;
        let mut local = vec![SkewedClock::new(VirtualClock::new(), 0, 1, 1); proto.n + 1];
        for fault in &plan.faults {
            if let FaultSpec::Drift {
                pid,
                offset,
                num,
                den,
            } = *fault
            {
                local[pid] = SkewedClock::new(VirtualClock::new(), offset, num, den);
            }
        }
        let seam = ChaosSeam {
            shared: ChaosNet::new(FaultPipeline::new(&plan)),
            local,
        };
        let cfg = ClusterConfig {
            variant: proto.variant,
            params: proto.params,
            fix: proto.fix,
            n: proto.n,
            // The loopback itself is lossless: the pipeline is the sole
            // drop authority, exactly as when it is the simulator's hook.
            faults: Faults::none(),
            seed: plan.seed,
            record_events: false,
        };
        let mut cluster = VirtualCluster::with_seam(cfg, seam);
        for fault in &plan.faults {
            match *fault {
                FaultSpec::Crash { pid, at } => cluster.schedule_crash(pid, at),
                FaultSpec::Leave { pid, at } => cluster.schedule_leave(pid, at),
                FaultSpec::Revive { pid, at } => cluster.schedule_revive(pid, at),
                FaultSpec::Start { pid, at } => cluster.schedule_start(pid, at),
                _ => {}
            }
        }
        ChaosCluster(cluster)
    }

    /// Attach a live event tap — e.g. a streaming requirement monitor
    /// (`hb_monitor::MonitorSet::shared`) — to every node's event sink
    /// (late joiners included) and to the fault pipeline's drop site, so
    /// the tap sees the same event stream the simulator would emit:
    /// sends, deliveries, lifecycle transitions, and losses.
    pub fn attach_monitor(&mut self, tap: SharedTap) {
        self.0.attach_tap(tap);
    }

    /// Current true tick.
    pub fn now(&self) -> Time {
        self.0.now()
    }

    /// Whether the coordinator and every started, not-left participant
    /// are inactive.
    pub fn all_inactive(&self) -> bool {
        self.0.all_inactive()
    }

    /// Advance by one true tick (see [`VirtualCluster::step`]).
    pub fn step(&mut self) {
        self.0.step();
    }

    /// Run until true tick `t` or until everything is inactive (a pending
    /// revive keeps the run alive — a crashed node is coming back).
    pub fn run_until(&mut self, t: Time) {
        self.0.run_until(t);
    }

    /// Finish the run and produce the shared summary (`source: "live"`).
    pub fn into_summary(self) -> RunSummary {
        self.0.into_report().summary
    }
}

/// Run `plan` on the live loopback runtime under virtual time and produce
/// the shared summary schema (`source: "live"`). Deterministic: the same
/// plan yields a byte-identical `to_json()`.
pub fn run_plan_live(plan: &FaultPlan) -> RunSummary {
    let mut cluster = ChaosCluster::new(plan.clone());
    cluster.run_until(plan.proto.duration);
    cluster.into_summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use hb_core::{FixLevel, Params, Variant};
    use hb_net::UdpTransport;

    fn proto(fix: FixLevel) -> ProtoSpec {
        ProtoSpec {
            variant: Variant::Binary,
            params: Params::new(2, 8).unwrap(),
            fix,
            n: 1,
            duration: 2_000,
            membership: false,
        }
    }

    #[test]
    fn duplication_inflates_delivery_and_reorder_holds_frames_back() {
        let plan = FaultPlan::new("shape", 4, proto(FixLevel::Full))
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 1.0,
            })
            .with(FaultSpec::Reorder {
                window: Window::always(),
                link: Link::any(),
                p: 0.5,
                max_extra: 2,
            });
        let s = run_plan_live(&plan);
        assert!(
            s.messages_delivered > s.messages_sent,
            "{} delivered vs {} sent",
            s.messages_delivered,
            s.messages_sent
        );
        assert_eq!(s.false_inactivations, 0, "bounded shaping is harmless");
    }

    #[test]
    fn fast_clock_drift_fires_watchdogs_early() {
        // The participant's clock runs 25% fast with no compensating
        // traffic changes: its corrected watchdog (2·tmax = 16 local
        // ticks) fires after only ~12.8 true ticks of silence. A long
        // enough burst starves it past the early deadline while a
        // true-time node would have survived; eventually drift alone makes
        // the run strictly worse than the same plan without drift.
        let mk = |drift: bool| {
            let mut plan =
                FaultPlan::new("drift", 21, proto(FixLevel::Full)).with(FaultSpec::Loss {
                    window: Window::always(),
                    link: Link::any(),
                    model: crate::pipeline::burst_model(0.25, 12.0),
                });
            if drift {
                plan = plan.with(FaultSpec::Drift {
                    pid: 1,
                    offset: 0,
                    num: 5,
                    den: 4,
                });
            }
            run_plan_live(&plan)
        };
        let drifted = mk(true);
        let straight = mk(false);
        assert!(
            drifted.false_inactivations >= straight.false_inactivations,
            "drift cannot help: {} vs {}",
            drifted.false_inactivations,
            straight.false_inactivations
        );
        // The drifted node observes a different local schedule, so the
        // runs must genuinely differ.
        assert_ne!(drifted.to_json(), straight.to_json());
    }

    #[test]
    fn decorator_shapes_traffic_over_real_udp_sockets() {
        // The decorator is substrate-agnostic: wrap two UDP endpoints in
        // the same pipeline (duplicate every frame) and watch one beat
        // arrive twice through real sockets.
        let plan = FaultPlan::new("udp", 3, proto(FixLevel::Full)).with(FaultSpec::Duplicate {
            window: Window::always(),
            link: Link::any(),
            p: 1.0,
        });
        let shared = ChaosNet::new(FaultPipeline::new(&plan));
        let mut a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let b = UdpTransport::bind("127.0.0.1:0").unwrap();
        a.add_peer(1, b.local_addr().unwrap());
        let mut a = ChaosTransport::new(a, Arc::clone(&shared));
        let mut b = ChaosTransport::new(b, shared);
        let frame = Frame::beat(0, hb_core::Heartbeat::plain());
        a.send(0, 1, &frame, 2).unwrap();
        let mut got = 0;
        for _ in 0..100 {
            b.wait(Duration::from_millis(20)).unwrap();
            while let Some(r) = b.try_recv(0).unwrap() {
                assert_eq!(r.frame, frame);
                got += 1;
            }
            if got >= 2 {
                break;
            }
        }
        assert_eq!(got, 2, "one send, two datagrams");
    }
}
