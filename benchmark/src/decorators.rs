//! Bench-owned decorators over the crates' public seams.
//!
//! Each wrapper forwards to the wrapped value inside a
//! [`trace`](crate::trace) span, so the traced run sees every call that
//! crosses a layer boundary — `hb_net::Transport`, `hb_member::Mesh`,
//! `hb_sim::FaultHook`, `hb_core::events::EventTap`, `mck::Model`,
//! `mck::AmpleOracle`, `mck::packed::StateCodec` — without a line
//! changing inside the crates. The untraced run uses none of them.

use std::io;
use std::time::Duration;

use accelerated_heartbeat::core::events::EventTap;
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::Pid;
use accelerated_heartbeat::mck::packed::{BitReader, BitWriter, StateCodec};
use accelerated_heartbeat::mck::{AmpleOracle, Model};
use accelerated_heartbeat::member::Mesh;
use accelerated_heartbeat::net::loopback::NetStats;
use accelerated_heartbeat::net::wire::Frame;
use accelerated_heartbeat::net::{Recv, Transport};
use accelerated_heartbeat::sim::{FaultHook, SendFate};

use crate::trace::{span, Name};

/// A [`Transport`] whose sends and receives are spans.
pub struct TracedTransport<T>(pub T);

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        span(Name::NetTransportSend, || {
            self.0.send(now, dst, frame, budget)
        })
    }

    fn try_recv(&mut self, now: u64) -> io::Result<Option<Recv>> {
        span(Name::NetTransportRecv, || self.0.try_recv(now))
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.0.wait(timeout)
    }
}

/// A [`Mesh`] whose sends and receives are spans.
pub struct TracedMesh<M>(pub M);

impl<M: Mesh> Mesh for TracedMesh<M> {
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) {
        span(Name::MemberMeshSend, || {
            self.0.send(now, dst, frame, budget)
        })
    }

    fn recv_due(&mut self, now: u64, dst: Pid) -> Option<(Frame, u32)> {
        span(Name::MemberMeshRecv, || self.0.recv_due(now, dst))
    }

    fn any_due(&self, now: u64) -> bool {
        self.0.any_due(now)
    }

    fn stats(&self) -> NetStats {
        self.0.stats()
    }
}

/// A [`FaultHook`] whose verdicts are spans.
#[derive(Debug)]
pub struct TracedHook<H>(pub H);

impl<H: FaultHook> FaultHook for TracedHook<H> {
    fn fate(&mut self, now: u64, src: Pid, dst: Pid) -> SendFate {
        span(Name::ChaosDecide, || self.0.fate(now, src, dst))
    }
}

/// The fault-free hook: every message is delivered once, on time.
#[derive(Debug)]
pub struct CleanHook;

impl FaultHook for CleanHook {
    fn fate(&mut self, _now: u64, _src: Pid, _dst: Pid) -> SendFate {
        SendFate::clean()
    }
}

/// An [`EventTap`] whose observations are spans.
pub struct TracedTap<T>(pub T);

impl<T: EventTap + 'static> EventTap for TracedTap<T> {
    fn on_event(&mut self, e: &Event) {
        span(Name::MonitorObserve, || self.0.on_event(e));
    }
}

/// A tap that counts events and does nothing else.
#[derive(Debug, Default)]
pub struct CountingTap {
    /// Events seen so far.
    pub events: u64,
}

impl EventTap for CountingTap {
    fn on_event(&mut self, _e: &Event) {
        self.events += 1;
    }
}

/// A [`Model`] whose expansions are spans.
pub struct TracedModel<'a, M>(pub &'a M);

impl<M: Model> Model for TracedModel<'_, M> {
    type State = M::State;
    type Action = M::Action;

    fn initial_states(&self) -> Vec<Self::State> {
        self.0.initial_states()
    }

    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        span(Name::VerifyActions, || self.0.actions(state, out));
    }

    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        span(Name::VerifyNextState, || self.0.next_state(state, action))
    }
}

/// An [`AmpleOracle`] whose choices are spans. The oracle is written
/// against the undecorated model `M`; the wrapper serves the traced one.
pub struct TracedOracle<O>(pub O);

impl<'a, M: Model, O: AmpleOracle<M>> AmpleOracle<TracedModel<'a, M>> for TracedOracle<O> {
    fn ample(&self, state: &M::State, enabled: &[M::Action]) -> Option<Vec<usize>> {
        span(Name::VerifyAmple, || self.0.ample(state, enabled))
    }
}

/// A [`StateCodec`] whose encodes and decodes are spans.
pub struct TracedCodec<C>(pub C);

impl<S, C: StateCodec<S>> StateCodec<S> for TracedCodec<C> {
    fn encode(&self, state: &S, w: &mut BitWriter) {
        span(Name::VerifyCodecEncode, || self.0.encode(state, w));
    }

    fn decode(&self, r: &mut BitReader) -> S {
        span(Name::VerifyCodecDecode, || self.0.decode(r))
    }
}

/// Wrap a canonicalization function so every call is a span.
pub fn traced_canonical<S>(canon: impl Fn(&S) -> S) -> impl Fn(&S) -> S {
    move |s| span(Name::VerifyCanonical, || canon(s))
}
