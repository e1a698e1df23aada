//! The simulated mesh: the loopback core, driven without the lock.
//!
//! [`SimMesh`] *is* [`hb_net::loopback::LoopbackCore`] — the queue, loss
//! and delay-draw implementation the live [`LoopbackNet`] keeps behind
//! its mutex — so an [`Engine`] run over `SimMesh` and one over
//! [`LiveMesh`](crate::live::LiveMesh) with the same seed consume
//! fault randomness identically and produce byte-identical event streams
//! by construction.
//!
//! [`LoopbackNet`]: hb_net::loopback::LoopbackNet

use hb_core::events::SharedTap;
use hb_core::Pid;
use hb_net::loopback::{LoopbackCore, NetStats};
use hb_net::wire::Frame;
use hb_sim::channel::FaultHook;

use crate::engine::{Engine, MemberConfig, MemberReport, Mesh};

/// The simulated substrate (see module docs).
pub type SimMesh = LoopbackCore;

impl Mesh for LoopbackCore {
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) {
        LoopbackCore::send(self, now, dst, frame, budget);
    }

    fn recv_due(&mut self, now: u64, dst: Pid) -> Option<(Frame, u32)> {
        self.recv(now, dst).map(|r| (r.frame, r.reply_budget))
    }

    fn any_due(&self, now: u64) -> bool {
        self.any_deliverable(now)
    }

    fn stats(&self) -> NetStats {
        LoopbackCore::stats(self)
    }
}

/// Run a membership group on the simulated substrate.
pub fn run_sim(
    cfg: MemberConfig,
    hook: Option<Box<dyn FaultHook>>,
    taps: Vec<SharedTap>,
) -> MemberReport {
    let mesh = SimMesh::new(cfg.group, cfg.loss, cfg.seed);
    Engine::new(cfg, mesh, hook, taps).run()
}
