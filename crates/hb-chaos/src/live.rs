//! Running a fault plan on the live runtime.
//!
//! [`ChaosCluster`] is [`hb_net::VirtualCluster`] — the one tick-stepped
//! live harness — set up from a [`FaultPlan`]: the plan's
//! [`FaultPipeline`] installed as the network's fault hook (the same
//! engine, at the same place, as in the simulator: every heartbeat is
//! dropped, duplicated or delayed as it enters the queue, and control
//! frames — the harness's hand, not protocol traffic — never see it),
//! its crash / start / leave / revive schedule, and the one fault class
//! only a live runtime can express, **per-node clock drift**. Each
//! drifted node is polled at the local tick its own skewed clock reads,
//! while the network and the observer stay on true time — a fast node
//! fires watchdogs early, a slow one late, exactly the failure mode the
//! corrected bounds must absorb. The cluster is a `Substrate` of the
//! one runner, which forks it at a campaign seed's crash tick as it
//! forks the simulator's world.

use hb_core::events::{OwnedTap, SharedTap};
use hb_core::fault::Time;
use hb_core::schema::RunSummary;
use hb_net::cluster::{ClusterConfig, VirtualCluster};
use hb_net::loopback::Faults;

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};
use crate::runner::Substrate;

/// A live cluster running one [`FaultPlan`] (see the module docs).
pub struct ChaosCluster(VirtualCluster);

impl ChaosCluster {
    /// Build a cluster for `plan`; nothing runs until
    /// [`run_until`](Self::run_until).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Self {
        #[expect(clippy::expect_used, reason = "new's contract is a valid plan")]
        plan.validate().expect("invalid fault plan");
        let mut cluster = Self::unscheduled(&plan);
        for fault in &plan.faults {
            cluster.schedule(fault);
        }
        cluster
    }

    /// Attach a live event tap — e.g. a streaming requirement monitor
    /// (`hb_monitor::MonitorSet::shared`) — to the cluster's one tap
    /// site, which every node (late joiners included) and the network's
    /// drop site feed in emission order, so the tap sees the same event
    /// stream the simulator would emit: sends, deliveries, lifecycle
    /// transitions, and losses. One thread steps the cluster; the tap
    /// takes its lock per event, for a caller that keeps a handle to
    /// read it mid-run.
    pub fn attach_monitor(&mut self, tap: SharedTap) {
        self.0.attach_tap(tap);
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

impl Substrate for ChaosCluster {
    fn unscheduled(plan: &FaultPlan) -> Self {
        let proto = plan.proto;
        let mut cluster = VirtualCluster::new(ClusterConfig {
            variant: proto.variant,
            params: proto.params,
            fix: proto.fix,
            n: proto.n,
            // The loopback itself is lossless: the pipeline is the sole
            // drop authority, exactly as when it is the simulator's hook.
            faults: Faults::none(),
            seed: plan.seed,
            record_events: false,
        });
        cluster.set_fault_hook(Box::new(FaultPipeline::new(plan)));
        ChaosCluster(cluster)
    }

    fn attach(&mut self, tap: OwnedTap) {
        self.0.attach_owned_tap(tap);
    }

    fn schedule(&mut self, fault: &FaultSpec) {
        let cluster = &mut self.0;
        match *fault {
            FaultSpec::Crash { pid, at } => cluster.schedule_crash(pid, at),
            FaultSpec::Leave { pid, at } => cluster.schedule_leave(pid, at),
            FaultSpec::Revive { pid, at } => cluster.schedule_revive(pid, at),
            FaultSpec::Start { pid, at } => cluster.schedule_start(pid, at),
            FaultSpec::Drift {
                pid,
                offset,
                num,
                den,
            } => cluster.skew_clock(pid, offset, num, den),
            _ => {}
        }
    }

    fn run_until(&mut self, t: Time) {
        self.0.run_until(t);
    }

    fn fork(&self) -> Option<Self> {
        self.0.fork().map(ChaosCluster)
    }

    fn finish(mut self) -> (RunSummary, Vec<OwnedTap>) {
        let taps = self.0.take_owned_taps();
        (self.into_summary(), taps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use crate::{run_plan, Backend};
    use hb_core::{FixLevel, Params, Variant};

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
        let s = run_plan(&plan, Backend::Live);
        assert!(
            s.messages_delivered > s.messages_sent,
            "{} delivered vs {} sent",
            s.messages_delivered,
            s.messages_sent
        );
        assert_eq!(s.false_inactivations, 0, "bounded shaping is harmless");
    }

    /// `run_until` against its liveness condition around `step()` with the
    /// real pipeline as the hook: a delay spike past the round-trip
    /// budget, duplication, reordering and burst loss over a crash and a
    /// revive. The merged event stream every node and the network feed a
    /// tap is the comparison, next to the summary.
    #[test]
    fn run_until_equals_stepping_every_tick_under_the_pipeline() {
        struct Recorder(Vec<hb_core::trace::Event>);
        impl hb_core::events::EventTap for Recorder {
            fn on_event(&mut self, e: &hb_core::trace::Event) {
                self.0.push(*e);
            }
        }
        for (variant, n) in [(Variant::Static, 3), (Variant::Dynamic, 3)] {
            for seed in 0..4u64 {
                // Back before the group notices, or long after it went down.
                let revive_at = if seed.is_multiple_of(2) { 306 } else { 380 };
                let plan = FaultPlan::new(
                    "jump",
                    seed,
                    ProtoSpec {
                        variant,
                        n,
                        duration: 1_200,
                        ..proto(FixLevel::Full)
                    },
                )
                .with(FaultSpec::DelaySpike {
                    window: Window::between(100, 106),
                    extra: 5,
                })
                .with(FaultSpec::Duplicate {
                    window: Window::always(),
                    link: Link::any(),
                    p: 0.3,
                })
                .with(FaultSpec::Reorder {
                    window: Window::always(),
                    link: Link::any(),
                    p: 0.5,
                    max_extra: 3,
                })
                .with(FaultSpec::Loss {
                    window: Window::between(500, 900),
                    link: Link::any(),
                    model: crate::pipeline::burst_model(0.1, 3.0),
                })
                .with(FaultSpec::Crash { pid: 2, at: 300 })
                .with(FaultSpec::Revive {
                    pid: 2,
                    at: revive_at,
                });
                let run = |stepwise: bool| {
                    let mut cl = ChaosCluster::new(plan.clone());
                    let tap = std::sync::Arc::new(std::sync::Mutex::new(Recorder(Vec::new())));
                    cl.attach_monitor(tap.clone());
                    for leg in [333, plan.proto.duration] {
                        if stepwise {
                            while cl.0.now() < leg
                                && (!cl.0.all_inactive() || cl.0.now() <= revive_at)
                            {
                                cl.0.step();
                            }
                        } else {
                            cl.run_until(leg);
                        }
                    }
                    let now = cl.0.now();
                    let events = std::mem::take(&mut tap.lock().unwrap().0);
                    (now, cl.into_summary().to_json(), events)
                };
                let (stepped, ran) = (run(true), run(false));
                assert!(stepped.2.len() > 200, "{variant} seed {seed}: a real run");
                assert_eq!(stepped, ran, "{variant} seed {seed}");
            }
        }
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
            run_plan(&plan, Backend::Live)
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
}
