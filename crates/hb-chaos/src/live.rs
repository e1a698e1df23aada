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
//! corrected bounds must absorb.

use hb_core::events::SharedTap;
use hb_net::cluster::{ClusterConfig, VirtualCluster};
use hb_net::loopback::Faults;
use hb_sim::channel::Time;
use hb_sim::schema::RunSummary;

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec};

/// A live cluster running one [`FaultPlan`] (see the module docs).
pub struct ChaosCluster(VirtualCluster);

impl ChaosCluster {
    /// Build a cluster for `plan`; nothing runs until [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    #[expect(clippy::expect_used, reason = "new's contract is a valid plan")]
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
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
        cluster.set_fault_hook(Box::new(FaultPipeline::new(&plan)));
        for fault in &plan.faults {
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
        ChaosCluster(cluster)
    }

    /// Attach a live event tap — e.g. a streaming requirement monitor
    /// (`hb_monitor::MonitorSet::shared`) — to every node's event sink
    /// (late joiners included) and to the network's drop site, so
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
                            while cl.now() < leg && (!cl.all_inactive() || cl.now() <= revive_at) {
                                cl.step();
                            }
                        } else {
                            cl.run_until(leg);
                        }
                    }
                    let now = cl.now();
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
}
