//! The live mesh: the membership engine over the real `hb-net` loopback
//! transport.
//!
//! [`LiveMesh`] adapts a [`LoopbackNet`] and its per-pid endpoints to
//! the engine's [`Mesh`] seam. The loopback net is the same
//! [`LoopbackCore`](hb_net::loopback::LoopbackCore) that
//! [`SimMesh`](crate::sim::SimMesh) is, behind its lock, so the same seed
//! yields byte-identical event streams across the two substrates.
//!
//! Unlike the plain live runtime there is no injector endpoint: process
//! faults are the engine's hand, applied directly to the nodes.

use hb_core::events::SharedTap;
use hb_core::fault::FaultHook;
use hb_core::Pid;
use hb_net::loopback::{Faults, LoopbackEndpoint, LoopbackNet};
use hb_net::transport::Transport;
use hb_net::wire::Frame;

use crate::engine::{Engine, MemberConfig, MemberReport, Mesh};

/// The live substrate (see module docs).
pub struct LiveMesh {
    net: LoopbackNet,
    endpoints: Vec<LoopbackEndpoint>,
}

impl LiveMesh {
    /// A loopback network for pids `0..group`.
    pub fn new(group: usize, faults: Faults, seed: u64) -> Self {
        let net = LoopbackNet::new(group, faults, seed);
        let endpoints = (0..group).map(|pid| net.endpoint(pid)).collect();
        LiveMesh { net, endpoints }
    }
}

impl Mesh for LiveMesh {
    #[expect(
        clippy::expect_used,
        reason = "a loopback send fails only for a pid past the net, and the engine addresses 0..group"
    )]
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) {
        let src = frame.src();
        self.endpoints[src]
            .send(now, dst, frame, budget)
            .expect("loopback send to a known endpoint");
    }

    #[expect(clippy::expect_used, reason = "a loopback receive cannot fail")]
    fn recv_due(&mut self, now: u64, dst: Pid) -> Option<(Frame, u32)> {
        self.endpoints[dst]
            .try_recv(now)
            .expect("loopback recv")
            .map(|r| (r.frame, r.reply_budget))
    }

    fn any_due(&self, now: u64) -> bool {
        self.net.any_deliverable(now)
    }

    fn may_be_due(&self, now: u64, dst: Pid) -> bool {
        self.net.next_due(dst) <= now
    }

    fn stats(&self) -> hb_core::schema::NetStats {
        self.net.stats()
    }
}

/// Run a membership group on the live loopback substrate.
pub fn run_live(
    cfg: MemberConfig,
    hook: Option<Box<dyn FaultHook>>,
    taps: Vec<SharedTap>,
) -> MemberReport {
    let mesh = LiveMesh::new(cfg.group, Faults { loss: cfg.loss }, cfg.seed);
    Engine::new(cfg, mesh, hook, taps).run()
}
