//! Conversion of model-checker paths into protocol event logs.
//!
//! Counterexamples come out of the checker as sequences of
//! [`crate::model::HbAction`] values. Each step is replayed through the
//! model with its events logged, so a chart shows the events the shared
//! reactions ([`hb_core::react`]) make, in the order the simulator and
//! the live node make them; timestamps count the `Tick`s. The result is
//! an [`hb_core::trace::EventLog`] rendering as the paper-style sequence
//! charts.

use hb_core::trace::EventLog;
use mck::Path;

use crate::model::{HbAction, HbModel};

/// Convert a checker path of `model` into a timestamped event log.
/// Panics if a step of `path` is not a transition of `model`.
pub fn path_to_log(model: &HbModel, path: &Path<HbModel>) -> EventLog {
    let (mut log, mut now) = (EventLog::new(), 0);
    let mut state = path.initial_state().clone();
    for (action, _) in path.steps() {
        now += u64::from(*action == HbAction::Tick);
        state = model
            .step(&state, action, Some((&mut log, now)))
            .unwrap_or_else(|| panic!("{action:?} is not a step of the model"));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::{build_model, error_predicate, Requirement};
    use hb_core::trace::Event;
    use hb_core::{FixLevel, Heartbeat, Params, Variant};
    use mck::Checker;

    #[test]
    fn fig12_style_counterexample_renders() {
        // R3 on the original binary protocol at tmin=tmax: the CE must show
        // p[0] NV-inactivating while p[1] never crashed.
        let params = Params::new(3, 3).unwrap();
        let model = build_model(
            Variant::Binary,
            params,
            FixLevel::Original,
            1,
            Requirement::R3,
        );
        let path = Checker::new(&model)
            .find_state(|s| error_predicate(&model, Requirement::R3)(s))
            .expect("R3 violated at tmin=tmax");
        let log = path_to_log(&model, &path);
        assert!(!log.is_empty());
        let text = log.to_string();
        assert!(text.contains("timeout at p[0]"));
        assert!(text.contains("p[0] inactivated NON-VOLUNTARILY"));
        assert!(!text.contains("crash"), "premise excludes crashes: {text}");
        assert!(!text.contains("loses"), "premise excludes loss: {text}");
        // The chart renders one line per event plus two header lines.
        let chart = log.render_chart(1);
        assert_eq!(chart.lines().count(), log.len() + 2);
    }

    #[test]
    fn timestamps_count_ticks() {
        let params = Params::new(2, 2).unwrap();
        let model = build_model(
            Variant::Binary,
            params,
            FixLevel::Original,
            1,
            Requirement::R3,
        );
        let path = Checker::new(&model)
            .find_state(|s| error_predicate(&model, Requirement::R3)(s))
            .expect("violated");
        let log = path_to_log(&model, &path);
        let last_at = log.events().last().unwrap().at();
        let ticks = path.actions().into_iter().filter(|a| *a == HbAction::Tick);
        assert_eq!(last_at, ticks.count() as u64);
        // Events are time-ordered.
        assert!(log.events().windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn sends_are_logged_as_the_reactions_make_them() {
        let params = Params::new(2, 4).unwrap();
        let model = build_model(
            Variant::Binary,
            params,
            FixLevel::Original,
            1,
            Requirement::R2,
        );
        let path = Checker::new(&model)
            .find_state(|s| !s.channel.is_empty())
            .expect("some message is sent");
        let log = path_to_log(&model, &path);
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, Event::Send { from: 0, to: 1, .. })));
    }

    /// A dynamic participant's leave: the leave comes before the reply
    /// that carries it, then the coordinator's ack, as at runtime.
    #[test]
    fn a_leave_renders_in_the_runtime_order() {
        use HbAction::{CoordTimeout, Deliver, JoinSend, Tick};
        let model = HbModel::new(
            Variant::Dynamic,
            Params::new(2, 4).unwrap(),
            1,
            FixLevel::Full,
        );
        let mut path = Path::new(mck::Model::initial_states(&model).remove(0));
        let deliver_only = |path: &Path<HbModel>, leave| Deliver {
            msg: path.last_state().channel[0],
            leave,
        };
        for step in 0..10 {
            let action = match step {
                0 | 1 | 4 | 5 => Tick,
                2 => JoinSend(1),
                6 => CoordTimeout,
                // The participant answers the beat with its leave.
                7 => deliver_only(&path, true),
                _ => deliver_only(&path, false),
            };
            let next = mck::Model::next_state(&model, path.last_state(), &action).unwrap();
            path.push(action, next);
        }
        let log = path_to_log(&model, &path);
        let (beat, leave) = (Heartbeat::plain(), Heartbeat::leave());
        let at = 4;
        assert_eq!(
            log.events()[log.len() - 6..],
            [
                Event::Deliver {
                    at,
                    from: 0,
                    to: 1,
                    hb: beat
                },
                Event::Leave { at, pid: 1 },
                Event::Send {
                    at,
                    from: 1,
                    to: 0,
                    hb: leave
                },
                Event::Deliver {
                    at,
                    from: 1,
                    to: 0,
                    hb: leave
                },
                Event::Send {
                    at,
                    from: 0,
                    to: 1,
                    hb: leave
                },
                Event::Deliver {
                    at,
                    from: 0,
                    to: 1,
                    hb: leave
                },
            ]
        );
    }
}
