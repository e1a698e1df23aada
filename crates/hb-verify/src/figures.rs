//! Regeneration of the paper's counter-example figures (Figures 10–13).
//!
//! Each figure in the paper is one concrete violating schedule. We
//! regenerate them in two complementary ways:
//!
//! 1. **Replay** — the figure's exact schedule is written down as a script
//!    of model actions and replayed step-by-step against the composed
//!    model; every step must be an enabled transition, and the run must
//!    pass through the requirement's error state. This proves our model
//!    admits the *paper's* trace, not merely some violation.
//! 2. **Search** — BFS on the same configuration independently finds a
//!    shortest counterexample, whose length is reported alongside.
//!
//! | Figure | Scenario | Configuration |
//! |--------|----------|---------------|
//! | 10(a)  | R1 broken by reply-then-crash + halving chain | binary, `tmin=4, tmax=10` |
//! | 10(b)  | R1, the simple `2·tmin ≤ tmax` variant        | binary, `tmin=5, tmax=10` |
//! | 11     | R2 broken by beat/watchdog tie                | binary, `tmin=tmax=10` |
//! | 12     | R3 broken by reply/timeout tie                | binary, `tmin=tmax=10` |
//! | 13     | R2 broken by the join-phase window            | expanding, `tmin=5, tmax=10` |

use hb_core::trace::EventLog;
use hb_core::{FixLevel, Params, Pid, Variant};
use mck::{Checker, Model, Path};

use crate::model::{HbAction, HbModel, HbState};
use crate::render::path_to_log;
use crate::requirements::{build_model, error_predicate, Requirement};

/// The outcome of regenerating one figure.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// Figure name, e.g. `"Figure 10(a)"`.
    pub name: &'static str,
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// The requirement the figure violates.
    pub requirement: Requirement,
    /// Whether every scripted step was an enabled transition.
    pub replay_valid: bool,
    /// Whether the replay passed through the requirement's error state.
    pub error_reached: bool,
    /// The replayed trace as an event log.
    pub log: EventLog,
    /// Length (transitions) of the shortest counterexample found by BFS on
    /// the same configuration.
    pub shortest_ce_len: Option<usize>,
}

impl FigureReport {
    /// Whether the figure fully regenerated (valid replay reaching the
    /// error, and BFS agrees the cell is violated).
    pub fn reproduced(&self) -> bool {
        self.replay_valid && self.error_reached && self.shortest_ce_len.is_some()
    }

    /// Render the report with the sequence chart.
    pub fn render(&self) -> String {
        format!(
            "{} — {} {} vs {}: replay {}, error {}, shortest BFS CE: {}\n{}",
            self.name,
            self.variant,
            self.params,
            self.requirement,
            if self.replay_valid {
                "valid"
            } else {
                "INVALID"
            },
            if self.error_reached {
                "reached"
            } else {
                "NOT reached"
            },
            self.shortest_ce_len
                .map(|n| n.to_string())
                .unwrap_or_else(|| "none (cell holds?)".into()),
            self.log.render_chart(1)
        )
    }
}

/// Step-by-step script runner against a composed model.
struct Runner<'a> {
    model: &'a HbModel,
    state: HbState,
    path: Path<HbModel>,
    ok: bool,
}

impl<'a> Runner<'a> {
    fn new(model: &'a HbModel) -> Self {
        let init = model.initial_states().remove(0);
        Self {
            model,
            state: init.clone(),
            path: Path::new(init),
            ok: true,
        }
    }

    /// Apply `action` if it is currently enabled; otherwise mark the replay
    /// invalid (and stop applying further steps).
    fn step(&mut self, action: HbAction) {
        if !self.ok {
            return;
        }
        let mut acts = Vec::new();
        self.model.actions(&self.state, &mut acts);
        if !acts.contains(&action) {
            self.ok = false;
            return;
        }
        match self.model.next_state(&self.state, &action) {
            Some(next) => {
                self.path.push(action, next.clone());
                self.state = next;
            }
            None => self.ok = false,
        }
    }

    fn tick(&mut self, n: u32) {
        for _ in 0..n {
            self.step(HbAction::Tick);
        }
    }

    /// Deliver the oldest (lowest remaining budget) in-flight message from
    /// `src`.
    fn deliver_from(&mut self, src: Pid) {
        if !self.ok {
            return;
        }
        let msg = self
            .state
            .channel
            .iter()
            .filter(|m| m.src == src)
            .min_by_key(|m| m.budget)
            .copied();
        let Some(msg) = msg else {
            self.ok = false;
            return;
        };
        self.step(HbAction::Deliver { msg, leave: false });
    }

    fn passed_error(&self, req: Requirement) -> bool {
        let pred = error_predicate(self.model, req);
        self.path.states().iter().any(pred)
    }
}

fn finish(
    name: &'static str,
    variant: Variant,
    params: Params,
    req: Requirement,
    runner: Runner<'_>,
    model: &HbModel,
) -> FigureReport {
    let shortest = Checker::new(model)
        .find_state(|s| error_predicate(model, req)(s))
        .map(|p| p.len());
    FigureReport {
        name,
        variant,
        params,
        requirement: req,
        replay_valid: runner.ok,
        error_reached: runner.ok && runner.passed_error(req),
        log: path_to_log(model, &runner.path),
        shortest_ce_len: shortest,
    }
}

/// Shared script for Figures 10(a)/10(b): `p[1]` replies once, crashes,
/// and `p[0]`'s halving chain stretches past the claimed `2·tmax` bound.
fn figure10(name: &'static str, tmin: u32) -> FigureReport {
    let params = Params::new(tmin, 10).expect("valid");
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R1,
    );
    let mut r = Runner::new(&model);
    r.tick(10);
    r.step(HbAction::CoordTimeout); // beat 1 out at t=10
    r.deliver_from(0); // delivered instantly; p[1] replies
    r.step(HbAction::Crash(1)); // p[1] crashes right after replying
    r.deliver_from(1); // reply reaches p[0] at t=10 (monitor resets here)
    r.tick(10);
    r.step(HbAction::CoordTimeout); // t=20: reply was received -> t stays tmax
    r.deliver_from(0); // beat to the crashed p[1]: consumed silently
    r.tick(10);
    r.step(HbAction::CoordTimeout); // t=30: silent round -> t = tmax/2 = 5
    r.deliver_from(0);
    r.tick(1); // t=31: since-last = 21 > 2*tmax = 20 -> monitor error
    r.tick(4);
    r.step(HbAction::CoordTimeout); // t=35: halve(5) < tmin -> p[0] NV-inactivates
    finish(name, Variant::Binary, params, Requirement::R1, r, &model)
}

/// Figure 10(a): R1 counter-example for `2·tmin < tmax` (`tmin = 4`).
pub fn figure10a() -> FigureReport {
    figure10("Figure 10(a)", 4)
}

/// Figure 10(b): R1 counter-example for `2·tmin = tmax` (`tmin = 5`).
pub fn figure10b() -> FigureReport {
    figure10("Figure 10(b)", 5)
}

/// Figure 11: R2 counter-example at `tmin = tmax` — `p[0]`'s first beat
/// consumes the whole delay budget and lands exactly on `p[1]`'s
/// `3·tmax − tmin` watchdog; the timeout wins the tie.
pub fn figure11() -> FigureReport {
    let params = Params::new(10, 10).expect("valid");
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R2,
    );
    let mut r = Runner::new(&model);
    r.tick(10);
    r.step(HbAction::CoordTimeout); // beat out at t=10 with budget tmin=10
    r.tick(10); // in flight for the full budget: arrives due at t=20
    r.step(HbAction::RespWatchdog(1)); // tie resolved against p[1]
    finish(
        "Figure 11",
        Variant::Binary,
        params,
        Requirement::R2,
        r,
        &model,
    )
}

/// Figure 12: R3 counter-example at `tmin = tmax` — `p[1]` replies on
/// time, but the reply consumes the whole budget and lands exactly on
/// `p[0]`'s timeout; the timeout wins the tie and the halving bottoms out.
pub fn figure12() -> FigureReport {
    let params = Params::new(10, 10).expect("valid");
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R3,
    );
    let mut r = Runner::new(&model);
    r.tick(10);
    r.step(HbAction::CoordTimeout); // beat out at t=10
    r.deliver_from(0); // delivered instantly; reply inherits budget 10
    r.tick(10); // reply rides its full budget: due at t=20
    r.step(HbAction::CoordTimeout); // tie: timeout first -> silent round -> 5 < 10
    finish(
        "Figure 12",
        Variant::Binary,
        params,
        Requirement::R3,
        r,
        &model,
    )
}

/// Figure 13: R2 counter-example for the expanding protocol when
/// `2·tmin ≥ tmax` — the join beat lands just after `p[0]`'s round
/// timeout, so the joining process only hears back after `2·tmax + tmin`,
/// past its `3·tmax − tmin` inactivation bound.
pub fn figure13() -> FigureReport {
    let params = Params::new(5, 10).expect("valid");
    let model = build_model(
        Variant::Expanding,
        params,
        FixLevel::Original,
        1,
        Requirement::R2,
    );
    let mut r = Runner::new(&model);
    r.tick(5);
    r.step(HbAction::JoinSend(1)); // join beat #1 at t=5, budget 5
    r.tick(5); // rides the full budget: due exactly at p[0]'s timeout t=10
    r.step(HbAction::CoordTimeout); // tie: timeout first — nobody joined yet
    r.step(HbAction::JoinSend(1)); // join beat #2 (resend cadence tmin)
    r.deliver_from(1); // now beat #1 lands: p[1] is joined — too late
    r.tick(5);
    r.deliver_from(1); // beat #2 lands at t=15
    r.step(HbAction::JoinSend(1)); // resend #3 at t=15
    r.tick(5);
    r.step(HbAction::CoordTimeout); // t=20: p[0] finally broadcasts to p[1]
    r.step(HbAction::JoinSend(1)); // resend #4 at t=20
    r.deliver_from(1); // beat #3 lands
    r.tick(5); // p[0]'s beat rides its full budget to t=25
    r.step(HbAction::RespWatchdog(1)); // 25 = 3*tmax - tmin: p[1] gives up
    finish(
        "Figure 13",
        Variant::Expanding,
        params,
        Requirement::R2,
        r,
        &model,
    )
}

/// All five counter-example figures.
pub fn all_figures() -> Vec<FigureReport> {
    vec![figure10a(), figure10b(), figure11(), figure12(), figure13()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_reproduces() {
        let f = figure11();
        assert!(f.replay_valid, "paper schedule must be a valid trace");
        assert!(f.error_reached);
        assert!(f.reproduced());
        // BFS can find nothing shorter than the direct starvation race:
        // 10 ticks, timeout, 10 ticks, watchdog = 22 transitions.
        assert_eq!(f.shortest_ce_len, Some(22));
    }

    #[test]
    fn figure12_reproduces() {
        let f = figure12();
        assert!(f.reproduced(), "{}", f.render());
        let text = f.log.to_string();
        assert!(text.contains("p[0] inactivated NON-VOLUNTARILY"));
        assert!(!text.contains("crash"));
    }

    #[test]
    fn figure13_reproduces() {
        let f = figure13();
        assert!(f.reproduced(), "{}", f.render());
        let text = f.log.to_string();
        assert!(text.contains("p[1] inactivated NON-VOLUNTARILY"));
    }

    #[test]
    fn figures_fail_on_fixed_protocols() {
        // Sanity: the same cells hold under the full fix, so no BFS CE.
        let params = Params::new(10, 10).unwrap();
        let model = build_model(Variant::Binary, params, FixLevel::Full, 1, Requirement::R2);
        let ce = Checker::new(&model).find_state(|s| error_predicate(&model, Requirement::R2)(s));
        assert!(ce.is_none());
    }
}
