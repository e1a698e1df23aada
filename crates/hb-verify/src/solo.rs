//! Isolated-process transition systems (the paper's Figures 1 and 2).
//!
//! The paper presents the "reduced transition system" of `p[0]` (Figure 1,
//! for `tmax = 2, tmin = 1`) and the transition system of `p[1]`
//! (Figure 2) — each process composed with its stopwatch, with a *free*
//! environment (heartbeats may arrive at any time) and internal clock
//! bookkeeping hidden, reduced modulo weak-trace equivalence.
//!
//! This module rebuilds those systems from the machines every runtime
//! executes — [`CoordSpec`] and [`RespSpec`] at `Binary`, `Original`,
//! `n = 1` — and exposes them as [`mck::lts::Lts`] values so the reduction
//! pipeline (`hide → determinize_weak → minimize_traces`) regenerates the
//! figures' shapes. The figures show as separate committed steps what the
//! machines do atomically (`timeout`, then the beat or the inactivation;
//! `from p0`, then the reply, then the stopwatch reset): each model takes
//! the machine's step at once and holds the result as `pending` until
//! the figure's last action for it has been shown.

use hb_core::coordinator::{CoordSpec, CoordState};
use hb_core::react::{self, Discard};
use hb_core::responder::{LeaveDecision, RespSpec, RespState};
use hb_core::{FixLevel, Heartbeat, Params, Variant};
use mck::graph::StateGraph;
use mck::lts::Lts;
use mck::Model;

/// Action labels of the isolated `p[0]` (the mCRL2 names of Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P0Label {
    /// Clock tick.
    Tick,
    /// A heartbeat from `p[1]` arrives (free environment).
    FromP1,
    /// Voluntary inactivation.
    InactivateV,
    /// The round timeout fires.
    Timeout,
    /// The heartbeat to `p[1]` goes out.
    ForP1,
    /// Non-voluntary inactivation (acceleration bottomed out).
    InactivateNv,
}

impl P0Label {
    /// The mCRL2 action name used in the paper's figure.
    pub fn name(self) -> &'static str {
        match self {
            P0Label::Tick => "tick p0",
            P0Label::FromP1 => "from p1(hb1)",
            P0Label::InactivateV => "inactivate v p0",
            P0Label::Timeout => "timeout at P0",
            P0Label::ForP1 => "for p1(hb0)",
            P0Label::InactivateNv => "inactivate nv p0",
        }
    }
}

/// State of the isolated `p[0]`: the coordinator machine's, plus — in the
/// committed location between a timeout and the action that shows its
/// outcome — the state `on_timeout` has already produced.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct P0SoloState {
    now: CoordState,
    pending: Option<CoordState>,
}

/// The isolated coordinator of the binary protocol with a free
/// environment: the mCRL2 process `P0` of the paper §3.2.
#[derive(Clone, Copy, Debug)]
pub struct P0Solo {
    spec: CoordSpec,
}

impl P0Solo {
    /// Isolated `p[0]` with the given timing parameters.
    pub fn new(params: Params) -> Self {
        Self {
            spec: CoordSpec::new(Variant::Binary, params, 1, FixLevel::Original),
        }
    }
}

impl Model for P0Solo {
    type State = P0SoloState;
    type Action = P0Label;

    fn initial_states(&self) -> Vec<P0SoloState> {
        vec![P0SoloState {
            now: self.spec.init_state(),
            pending: None,
        }]
    }

    fn actions(&self, s: &P0SoloState, out: &mut Vec<P0Label>) {
        if let Some(p) = &s.pending {
            // Committed location: resolve the timeout outcome first.
            out.push(if p.status.is_active() {
                P0Label::ForP1
            } else {
                P0Label::InactivateNv
            });
            return;
        }
        let timeout_due = self.spec.timeout_due(&s.now);
        if !timeout_due {
            out.push(P0Label::Tick);
        }
        out.push(P0Label::FromP1);
        if s.now.status.is_active() {
            out.push(P0Label::InactivateV);
            if timeout_due {
                out.push(P0Label::Timeout);
            }
        }
    }

    fn next_state(&self, s: &P0SoloState, a: &P0Label) -> Option<P0SoloState> {
        let mut n = s.clone();
        match (a, n.pending.take()) {
            (P0Label::ForP1, Some(p)) if p.status.is_active() => n.now = p,
            (P0Label::InactivateNv, Some(p)) if !p.status.is_active() => n.now = p,
            (_, Some(_)) => return None,
            (P0Label::Tick, None) if self.spec.may_tick(&n.now) => self.spec.tick(&mut n.now),
            (P0Label::FromP1, None) => {
                // Inactive: the message is consumed, with no effect.
                self.spec.on_heartbeat(&mut n.now, 1, Heartbeat::plain());
            }
            (P0Label::InactivateV, None) if n.now.status.is_active() => {
                react::crash(&mut n.now.status, 0, 0, &mut Discard);
            }
            (P0Label::Timeout, None) if self.spec.timeout_due(&n.now) => {
                let mut p = n.now.clone();
                self.spec.on_timeout(&mut p);
                n.pending = Some(p);
            }
            _ => return None,
        }
        Some(n)
    }

    fn format_action(&self, a: &P0Label) -> String {
        a.name().to_string()
    }
}

/// Action labels of the isolated `p[1]` (Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P1Label {
    /// Clock tick.
    Tick,
    /// A heartbeat from `p[0]` arrives.
    FromP0,
    /// The reply heartbeat goes out.
    ForP0,
    /// The stopwatch reset message (internal; hidden in the reduction).
    SndResetSw,
    /// Voluntary inactivation.
    InactivateV,
    /// The `3·tmax − tmin` timeout fires.
    Timeout,
    /// Non-voluntary inactivation.
    InactivateNv,
}

impl P1Label {
    /// The mCRL2 action name used in the paper's figure.
    pub fn name(self) -> &'static str {
        match self {
            P1Label::Tick => "tick p1",
            P1Label::FromP0 => "from p0(hb0)",
            P1Label::ForP0 => "for p0(hb1)",
            P1Label::SndResetSw => "snd reset sw p1",
            P1Label::InactivateV => "inactivate v p1",
            P1Label::Timeout => "timeout at P1",
            P1Label::InactivateNv => "inactivate nv p1",
        }
    }
}

/// State of the isolated `p[1]`: the responder machine's, plus — in the
/// committed locations after a beat or a timeout — the state `on_beat` /
/// `on_watchdog` has already produced, and whether the reply the beat
/// owes has gone out (the stopwatch reset is then what is left).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct P1SoloState {
    now: RespState,
    pending: Option<RespState>,
    replied: bool,
}

/// The isolated responder of the binary protocol with a free environment:
/// the mCRL2 process `P1` of the paper §3.2.
#[derive(Clone, Copy, Debug)]
pub struct P1Solo {
    spec: RespSpec,
}

impl P1Solo {
    /// Isolated `p[1]` with the given timing parameters.
    pub fn new(params: Params) -> Self {
        Self {
            spec: RespSpec::new(Variant::Binary, params, FixLevel::Original),
        }
    }
}

impl Model for P1Solo {
    type State = P1SoloState;
    type Action = P1Label;

    fn initial_states(&self) -> Vec<P1SoloState> {
        vec![P1SoloState {
            now: self.spec.init_state(),
            pending: None,
            replied: false,
        }]
    }

    fn actions(&self, s: &P1SoloState, out: &mut Vec<P1Label>) {
        if let Some(p) = &s.pending {
            out.push(if !p.status.is_active() {
                P1Label::InactivateNv
            } else if s.replied {
                P1Label::SndResetSw
            } else {
                P1Label::ForP0
            });
            return;
        }
        let timeout_due = self.spec.watchdog_due(&s.now);
        if !timeout_due {
            out.push(P1Label::Tick);
        }
        out.push(P1Label::FromP0);
        if s.now.status.is_active() {
            out.push(P1Label::InactivateV);
            if timeout_due {
                out.push(P1Label::Timeout);
            }
        }
    }

    fn next_state(&self, s: &P1SoloState, a: &P1Label) -> Option<P1SoloState> {
        let mut n = s.clone();
        match (a, n.pending.take()) {
            (P1Label::ForP0, Some(p)) if p.status.is_active() && !s.replied => {
                n.pending = Some(p);
                n.replied = true;
            }
            (P1Label::SndResetSw, Some(p)) if s.replied => {
                n.now = p;
                n.replied = false;
            }
            (P1Label::InactivateNv, Some(p)) if !p.status.is_active() => n.now = p,
            (_, Some(_)) => return None,
            (P1Label::Tick, None) if self.spec.may_tick(&n.now) => self.spec.tick(&mut n.now),
            (P1Label::FromP0, None) => {
                // Inactive: the message is consumed, with no effect.
                let mut p = n.now.clone();
                let beat = Heartbeat::plain();
                if self
                    .spec
                    .on_beat(&mut p, beat, LeaveDecision::Stay)
                    .is_some()
                {
                    n.pending = Some(p);
                }
            }
            (P1Label::InactivateV, None) if n.now.status.is_active() => {
                react::crash(&mut n.now.status, 0, 1, &mut Discard);
            }
            (P1Label::Timeout, None) if self.spec.watchdog_due(&n.now) => {
                let mut p = n.now.clone();
                self.spec.on_watchdog(&mut p);
                n.pending = Some(p);
            }
            _ => return None,
        }
        Some(n)
    }

    fn format_action(&self, a: &P1Label) -> String {
        a.name().to_string()
    }
}

/// The raw (unreduced) LTS of the isolated `p[0]`.
pub fn p0_raw_lts(params: Params) -> Lts {
    let graph = StateGraph::explore(&P0Solo::new(params), 1 << 20);
    Lts::from_graph(&graph, |a| a.name().to_string())
}

/// The raw (unreduced) LTS of the isolated `p[1]`.
pub fn p1_raw_lts(params: Params) -> Lts {
    let graph = StateGraph::explore(&P1Solo::new(params), 1 << 20);
    Lts::from_graph(&graph, |a| a.name().to_string())
}

/// Build the reduced LTS of the isolated `p[0]` as in Figure 1: explore,
/// hide ticks (the paper hides the internal `send ticking time`; ticks are
/// the equivalent clock bookkeeping here), determinize modulo weak traces
/// and minimize.
pub fn p0_reduced_lts(params: Params) -> Lts {
    let lts = p0_raw_lts(params).hide(&["tick p0"]);
    lts.determinize_weak().minimize_traces()
}

/// Build the reduced LTS of the isolated `p[1]` as in Figure 2 (the
/// stopwatch-reset message and ticks are hidden).
pub fn p1_reduced_lts(params: Params) -> Lts {
    let lts = p1_raw_lts(params).hide(&["tick p1", "snd reset sw p1"]);
    lts.determinize_weak().minimize_traces()
}

/// The figure-faithful reduction of `p[0]`: the paper's Figure 1 keeps
/// clock ticks *visible* (only the internal stopwatch communication was
/// hidden, and our encoding has no separate stopwatch process), so this
/// reduces modulo weak traces without hiding anything.
pub fn p0_figure_lts(params: Params) -> Lts {
    p0_raw_lts(params).determinize_weak().minimize_traces()
}

/// The figure-faithful reduction of `p[1]` (Figure 2): ticks stay
/// visible; only the stopwatch-reset message is hidden.
pub fn p1_figure_lts(params: Params) -> Lts {
    p1_raw_lts(params)
        .hide(&["snd reset sw p1"])
        .determinize_weak()
        .minimize_traces()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig_params() -> Params {
        Params::new(1, 2).unwrap() // the figures use tmax = 2, tmin = 1
    }

    #[test]
    fn p0_alphabet_matches_figure1() {
        let lts = p0_reduced_lts(fig_params());
        let alphabet = lts.alphabet();
        for name in [
            "from p1(hb1)",
            "inactivate v p0",
            "timeout at P0",
            "for p1(hb0)",
            "inactivate nv p0",
        ] {
            assert!(alphabet.contains(name), "missing {name}: {alphabet:?}");
        }
        assert!(!alphabet.contains("tick p0"), "ticks must be hidden");
    }

    #[test]
    fn p0_reduced_is_small_and_deterministic() {
        let lts = p0_reduced_lts(fig_params());
        // Figure 1 is a single-digit-state diagram; our reduction must land
        // in the same regime.
        assert!(lts.num_states <= 16, "too large: {}", lts.num_states);
        assert!(lts.num_states >= 4);
        // deterministic: no duplicate (src, label) pairs
        let mut seen = std::collections::HashSet::new();
        for (s, l, _) in &lts.transitions {
            assert!(
                seen.insert((*s, l.clone())),
                "nondeterminism after subset construction"
            );
        }
    }

    #[test]
    fn p0_admits_the_paper_traces() {
        let lts = p0_reduced_lts(fig_params());
        // Steady-state round: timeout, beat out, receive reply, repeat.
        assert!(lts.accepts_weak_trace(&[
            "timeout at P0",
            "for p1(hb0)",
            "from p1(hb1)",
            "timeout at P0",
            "for p1(hb0)",
        ]));
        // Silent decay to non-voluntary inactivation (tmax=2: one halving).
        assert!(lts.accepts_weak_trace(&[
            "timeout at P0",
            "for p1(hb0)",
            "timeout at P0",
            "for p1(hb0)",
            "timeout at P0",
            "inactivate nv p0",
        ]));
        // Voluntary inactivation is always available while active.
        assert!(lts.accepts_weak_trace(&["inactivate v p0"]));
        // But no beat can follow non-voluntary inactivation.
        assert!(!lts.accepts_weak_trace(&[
            "timeout at P0",
            "for p1(hb0)",
            "timeout at P0",
            "for p1(hb0)",
            "timeout at P0",
            "inactivate nv p0",
            "for p1(hb0)",
        ]));
    }

    #[test]
    fn p1_alphabet_matches_figure2() {
        let lts = p1_reduced_lts(fig_params());
        let alphabet = lts.alphabet();
        for name in [
            "from p0(hb0)",
            "for p0(hb1)",
            "inactivate v p1",
            "timeout at P1",
            "inactivate nv p1",
        ] {
            assert!(alphabet.contains(name), "missing {name}: {alphabet:?}");
        }
    }

    #[test]
    fn p1_replies_then_can_time_out() {
        let lts = p1_reduced_lts(fig_params());
        assert!(lts.accepts_weak_trace(&["from p0(hb0)", "for p0(hb1)"]));
        assert!(lts.accepts_weak_trace(&["timeout at P1", "inactivate nv p1"]));
        // After non-voluntary inactivation p1 never replies again.
        assert!(!lts.accepts_weak_trace(&[
            "timeout at P1",
            "inactivate nv p1",
            "from p0(hb0)",
            "for p0(hb1)",
        ]));
    }

    #[test]
    fn figure_faithful_reductions_keep_ticks() {
        let p0 = p0_figure_lts(fig_params());
        assert!(p0.alphabet().contains("tick p0"));
        // Figure 1 is a small diagram; the tick-visible reduction must
        // stay in the same single-digit regime.
        assert!(p0.num_states <= 24, "{}", p0.num_states);
        // the timed steady-state loop of Figure 1: wait two ticks, beat,
        // receive the reply, wait again
        assert!(p0.accepts_weak_trace(&[
            "tick p0",
            "tick p0",
            "timeout at P0",
            "for p1(hb0)",
            "from p1(hb1)",
            "tick p0",
        ]));
        let p1 = p1_figure_lts(fig_params());
        assert!(p1.alphabet().contains("tick p1"));
        assert!(!p1.alphabet().contains("snd reset sw p1"));
    }

    #[test]
    fn raw_systems_are_finite_and_larger_than_reduced() {
        let raw = p0_raw_lts(fig_params());
        let red = p0_reduced_lts(fig_params());
        assert!(raw.num_states > red.num_states);
        let raw1 = p1_raw_lts(fig_params());
        let red1 = p1_reduced_lts(fig_params());
        assert!(raw1.num_states > red1.num_states);
    }
}
