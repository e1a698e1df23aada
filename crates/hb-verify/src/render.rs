//! Conversion of model-checker paths into protocol event logs.
//!
//! Counterexamples come out of the checker as sequences of
//! [`crate::model::HbAction`] values; this module reconstructs
//! wall-clock timestamps (by counting `Tick`s) and message sends (by
//! diffing channel contents across steps) to produce an
//! [`hb_core::trace::EventLog`] rendering as the paper-style
//! sequence charts.

use hb_core::trace::{Event, EventLog};
use hb_core::Status;
use mck::Path;

use crate::model::{HbAction, HbModel, HbState, Msg};

/// Messages present in `after` but not in `before` (multiset difference;
/// both are sorted).
fn added_msgs(before: &[Msg], after: &[Msg]) -> Vec<Msg> {
    let mut remaining = before.to_vec();
    let mut added = Vec::new();
    for m in after {
        if let Some(pos) = remaining.iter().position(|x| x == m) {
            remaining.remove(pos);
        } else {
            added.push(*m);
        }
    }
    added
}

/// Convert a checker path into a timestamped event log.
pub fn path_to_log(path: &Path<HbModel>) -> EventLog {
    let mut log = EventLog::new();
    let mut now: u64 = 0;
    let mut prev: &HbState = path.initial_state();
    for (action, state) in path.steps() {
        match action {
            HbAction::Tick => now += 1,
            HbAction::CoordTimeout => {
                log.push(Event::Timeout { at: now, pid: 0 });
                if state.coord.status == Status::NvInactive {
                    log.push(Event::NvInactivate { at: now, pid: 0 });
                } else {
                    for m in added_msgs(&prev.channel, &state.channel) {
                        log.push(Event::Send {
                            at: now,
                            from: 0,
                            to: m.dst,
                            hb: m.hb,
                        });
                    }
                }
            }
            HbAction::RespWatchdog(pid) => {
                log.push(Event::NvInactivate { at: now, pid: *pid });
            }
            HbAction::JoinSend(pid) => {
                log.push(Event::Send {
                    at: now,
                    from: *pid,
                    to: 0,
                    hb: hb_core::Heartbeat::plain().with_epoch(state.resps[pid - 1].epoch),
                });
            }
            HbAction::Deliver { msg, leave } => {
                log.push(Event::Deliver {
                    at: now,
                    from: msg.src,
                    to: msg.dst,
                    hb: msg.hb,
                });
                for m in added_msgs(&prev.channel, &state.channel) {
                    log.push(Event::Send {
                        at: now,
                        from: m.src,
                        to: m.dst,
                        hb: m.hb,
                    });
                }
                if *leave {
                    log.push(Event::Leave {
                        at: now,
                        pid: msg.dst,
                    });
                }
            }
            HbAction::Lose(msg) => {
                log.push(Event::Lose {
                    at: now,
                    from: msg.src,
                    to: msg.dst,
                });
            }
            HbAction::Crash(pid) => {
                log.push(Event::Crash { at: now, pid: *pid });
            }
            HbAction::Rejoin(pid) => {
                log.push(Event::Revive { at: now, pid: *pid });
            }
        }
        prev = state;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::{build_model, error_predicate, Requirement};
    use hb_core::{FixLevel, Params, Variant};
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
        let log = path_to_log(&path);
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
        let log = path_to_log(&path);
        let last_at = log.events().last().unwrap().at();
        let ticks = path.actions().into_iter().filter(|a| *a == HbAction::Tick);
        assert_eq!(last_at, ticks.count() as u64);
        // Events are time-ordered.
        assert!(log.events().windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn sends_are_reconstructed_from_channel_diffs() {
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
        let log = path_to_log(&path);
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, Event::Send { from: 0, to: 1, .. })));
    }
}
