//! Group membership over the accelerated-heartbeat failure detector.
//!
//! GM98's protocols *detect* failure: the coordinator accelerates its
//! heartbeat toward a silent participant and, when the rate bottoms out
//! below `tmin`, the whole group inactivates. This crate reinterprets
//! those verdicts as *membership* transitions and adds the three things
//! a detector lacks:
//!
//! 1. **Views** ([`hb_core::View`]) — a monotone view number, a
//!    coordinator, a member set, and per-member §7 epoch bars, installed
//!    group-wide via wire-v3 `ViewChange` frames and ordered by
//!    [`View::supersedes`](hb_core::View::supersedes).
//! 2. **Coordinator failover** — a participant whose watchdog fires on
//!    the coordinator does not inactivate; the successor of rank `r`
//!    (lowest live pid first) claims the seat on its `r + 1`-th fire and
//!    broadcasts the next view. A deposed coordinator that was merely
//!    slow is demoted by the superseding view, not split off.
//! 3. **State transfer** — a joiner (or a revived crash victim on its
//!    next §7 incarnation) broadcasts a `StateRequest`; the coordinator
//!    admits it with its epoch as the min-epoch bar and replies with the
//!    full view in a `StateReply`.
//!
//! The machine itself ([`MemberNode`]) is sans-IO; the [`Engine`] drives
//! a whole group over a [`Mesh`] substrate — simulated
//! ([`sim::SimMesh`], which is the `hb-net` loopback core driven without
//! its lock) or the live `hb-net` loopback ([`live::LiveMesh`], the same
//! core behind it) — with identical semantics, emitting the same
//! [`hb_core::trace::Event`] stream the plain runtimes emit (plus
//! `ViewChange`/`StateTransfer`), so `hb-monitor` taps work unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod describe;
pub mod engine;
pub mod live;
pub mod node;
pub mod sim;

pub use describe::member_concretization;
pub use engine::{Engine, FaultKind, MemberConfig, MemberFault, MemberReport, Mesh, ReconvSample};
pub use live::{run_live, LiveMesh};
pub use node::{MemberNode, MemberSpec, Outbound, RoleKind};
pub use sim::{run_sim, SimMesh};

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::fault::LossModel;
    use hb_core::Params;

    fn cfg(seed: u64, duration: u64) -> MemberConfig {
        MemberConfig::clean(
            MemberSpec::dynamic_full(Params::new(2, 8).unwrap()),
            4,
            seed,
            duration,
        )
    }

    #[test]
    fn a_clean_run_stays_in_the_genesis_view() {
        let report = run_sim(cfg(11, 300), None, Vec::new());
        assert!(report.agreed());
        assert!(report.views.iter().all(|v| v.view_no == 0));
        assert!(report.roles.iter().enumerate().all(|(pid, r)| {
            *r == if pid == 0 {
                RoleKind::Coordinator
            } else {
                RoleKind::Participant
            }
        }));
        assert!(report.stats.sent > 0);
        assert_eq!(report.stats.lost, 0);
    }

    #[test]
    fn coordinator_crash_fails_over_and_reconverges() {
        let mut c = cfg(12, 600);
        c.faults.push(MemberFault {
            at: 100,
            kind: FaultKind::Crash,
            pid: 0,
        });
        let report = run_sim(c, None, Vec::new());
        // Pid 1 (lowest live) coordinates a view excluding pid 0...
        assert_eq!(report.roles[1], RoleKind::Coordinator);
        assert_eq!(report.views[1].coordinator, 1);
        assert!(!report.views[1].contains(0));
        // ...every survivor agrees...
        assert!(report.agreed());
        // ...and the sample is two-sided: detection then stability.
        let s = report.reconv[0];
        let detect = s.detect.expect("failover detected");
        let stable = s.stable.expect("new view stabilised");
        assert!(detect >= 100 && stable >= detect);
    }

    #[test]
    fn crashed_coordinator_revives_demoted_not_split() {
        let mut c = cfg(13, 900);
        c.faults.push(MemberFault {
            at: 100,
            kind: FaultKind::Crash,
            pid: 0,
        });
        c.faults.push(MemberFault {
            at: 400,
            kind: FaultKind::Revive,
            pid: 0,
        });
        let report = run_sim(c, None, Vec::new());
        // The ex-coordinator is back as a *participant* of pid 1's group.
        assert_eq!(report.roles[0], RoleKind::Participant);
        assert_eq!(report.views[0].coordinator, 1);
        assert!(report.agreed(), "one view, no split");
        // Its bar is the revived epoch, so stale incarnation beats stay
        // filtered.
        assert_eq!(report.views[1].bar_of(0), Some(1));
        // Both samples resolved.
        assert!(report.reconv[0].stable.is_some());
        assert!(report.reconv[1].stable.is_some());
        // The state transfer is on the record.
        assert!(report.events.events().iter().any(|e| matches!(
            e,
            hb_core::trace::Event::StateTransfer { from: 1, to: 0, .. }
        )));
    }

    #[test]
    fn sim_and_live_event_streams_are_byte_identical() {
        let mut c = cfg(14, 700);
        c.loss = LossModel::Bernoulli(0.05);
        c.faults.push(MemberFault {
            at: 120,
            kind: FaultKind::Crash,
            pid: 0,
        });
        c.faults.push(MemberFault {
            at: 420,
            kind: FaultKind::Revive,
            pid: 0,
        });
        let sim = run_sim(c.clone(), None, Vec::new());
        let live = run_live(c, None, Vec::new());
        let render = |r: &MemberReport| {
            r.events
                .events()
                .iter()
                .map(|e| format!("{e}\n"))
                .collect::<String>()
        };
        assert_eq!(render(&sim), render(&live));
        assert_eq!(sim.stats, live.stats);
        assert_eq!(sim.reconv, live.reconv);
    }

    /// The simulated mesh, except that the first `ViewChange` bound for
    /// `victim` is lost.
    struct LoseOneViewChange {
        mesh: SimMesh,
        victim: hb_core::Pid,
        lost: bool,
    }

    impl Mesh for LoseOneViewChange {
        fn send(&mut self, now: u64, dst: hb_core::Pid, frame: &hb_net::Frame, budget: u32) {
            if !self.lost && dst == self.victim && matches!(frame, hb_net::Frame::ViewChange { .. })
            {
                self.lost = true;
                return;
            }
            self.mesh.send(now, dst, frame, budget);
        }

        fn recv_due(&mut self, now: u64, dst: hb_core::Pid) -> Option<(hb_net::Frame, u32)> {
            self.mesh.recv_due(now, dst)
        }

        fn any_due(&self, now: u64) -> bool {
            self.mesh.any_due(now)
        }

        fn stats(&self) -> hb_core::schema::NetStats {
            self.mesh.stats()
        }
    }

    /// Today's behaviour, pinned: a member that misses the one
    /// `ViewChange` evicting a crashed participant, and sees no further
    /// fault, ends the run a view behind. The coordinator it follows is
    /// unchanged, so its beats raise no objection and nothing re-sends
    /// the view. ROADMAP item 5's fix (anti-entropy on the beat: a member
    /// that sees a beat stamped with a newer view asks for state) should
    /// turn this test around.
    #[test]
    fn a_member_that_misses_one_view_change_ends_a_view_behind() {
        let mut c = cfg(15, 2_000);
        c.faults.push(MemberFault {
            at: 100,
            kind: FaultKind::Crash,
            pid: 2,
        });
        let mesh = LoseOneViewChange {
            mesh: SimMesh::new(c.group, c.loss, c.seed),
            victim: 3,
            lost: false,
        };
        let report = Engine::new(c, mesh, None, Vec::new()).run();
        assert_eq!(report.roles[2], RoleKind::Down);
        for pid in [0, 1] {
            assert_eq!(report.views[pid].view_no, 1, "p[{pid}]");
            assert!(!report.views[pid].contains(2), "p[{pid}]");
        }
        // The laggard still follows p[0] in the genesis view, which lists
        // the crashed p[2] as a member.
        assert_eq!(report.roles[3], RoleKind::Participant);
        assert_eq!(report.views[3].view_no, 0);
        assert!(report.views[3].contains(2));
        assert!(!report.agreed());
        assert_eq!(report.reconv[0].stable, None, "never group-wide");
    }

    #[test]
    fn lossy_run_survives_false_suspicion_without_split() {
        // Heavy bursts depose live coordinators over and over; the group
        // must keep healing — demotion by superseding view, state
        // transfer for the evicted — instead of splitting or
        // fragmenting into silent singletons.
        let mut c = cfg(13, 1500);
        c.loss = LossModel::GilbertElliott {
            to_bad: 0.05,
            to_good: 0.3,
            good_loss: 0.01,
            bad_loss: 0.9,
        };
        let report = run_sim(c, None, Vec::new());
        let churn = report.views.iter().map(|v| v.view_no).max().unwrap();
        assert!(churn > 0, "bursts must actually depose somebody");
        assert!(report.agreed(), "one view at the end, no split");
        assert!(
            report
                .roles
                .iter()
                .all(|r| matches!(r, RoleKind::Coordinator | RoleKind::Participant)),
            "nobody left stranded solo or joining: {:?}",
            report.roles
        );
    }
}
