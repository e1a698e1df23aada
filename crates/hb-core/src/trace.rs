//! Protocol event logs and ASCII sequence charts.
//!
//! Both the simulator and the verification layer record what happened as a
//! sequence of [`Event`]s; [`EventLog::render_chart`] draws them as a
//! message sequence chart in the style of the paper's counter-example
//! figures (Figures 10–13).

use std::fmt;

use crate::msg::{Heartbeat, Pid};

/// One observable protocol event, stamped with the (discrete) time at
/// which it occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `from` put a heartbeat on the channel towards `to`.
    Send {
        /// Time of occurrence.
        at: u64,
        /// Sending process.
        from: Pid,
        /// Destination process.
        to: Pid,
        /// The message.
        hb: Heartbeat,
    },
    /// The channel delivered a heartbeat to `to`.
    Deliver {
        /// Time of occurrence.
        at: u64,
        /// Original sender.
        from: Pid,
        /// Receiving process.
        to: Pid,
        /// The message.
        hb: Heartbeat,
    },
    /// The channel lost a heartbeat addressed to `to`.
    Lose {
        /// Time of occurrence.
        at: u64,
        /// Original sender.
        from: Pid,
        /// Intended destination.
        to: Pid,
    },
    /// A round timeout fired at `pid`.
    Timeout {
        /// Time of occurrence.
        at: u64,
        /// Process whose timer fired.
        pid: Pid,
    },
    /// `pid` crashed (voluntary inactivation).
    Crash {
        /// Time of occurrence.
        at: u64,
        /// Crashing process.
        pid: Pid,
    },
    /// `pid` was inactivated non-voluntarily by the protocol.
    NvInactivate {
        /// Time of occurrence.
        at: u64,
        /// Inactivated process.
        pid: Pid,
    },
    /// `pid` left the protocol (dynamic variant).
    Leave {
        /// Time of occurrence.
        at: u64,
        /// Leaving process.
        pid: Pid,
    },
    /// `pid` restarted after a crash with a fresh epoch (§7 rejoin).
    Revive {
        /// Time of occurrence.
        at: u64,
        /// Revived process.
        pid: Pid,
    },
    /// `pid` installed a membership view (hb-member layer).
    ViewChange {
        /// Time of occurrence.
        at: u64,
        /// Process installing the view.
        pid: Pid,
        /// Monotone view number.
        view_no: u32,
        /// Coordinator of the installed view.
        coordinator: Pid,
    },
    /// Coordinator `from` shipped its current view to `to` (state transfer).
    StateTransfer {
        /// Time of occurrence.
        at: u64,
        /// The replying coordinator.
        from: Pid,
        /// The joiner (or demoted ex-coordinator) receiving the view.
        to: Pid,
        /// View number of the transferred view.
        view_no: u32,
    },
}

impl Event {
    /// The timestamp of the event.
    pub fn at(&self) -> u64 {
        match *self {
            Event::Send { at, .. }
            | Event::Deliver { at, .. }
            | Event::Lose { at, .. }
            | Event::Timeout { at, .. }
            | Event::Crash { at, .. }
            | Event::NvInactivate { at, .. }
            | Event::Leave { at, .. }
            | Event::Revive { at, .. }
            | Event::ViewChange { at, .. }
            | Event::StateTransfer { at, .. } => at,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Send { at, from, to, hb } => {
                write!(f, "t={at:>4}  p[{from}] sends {hb} to p[{to}]")
            }
            Event::Deliver { at, from, to, hb } => {
                write!(f, "t={at:>4}  {hb} from p[{from}] delivered to p[{to}]")
            }
            Event::Lose { at, from, to } => {
                write!(f, "t={at:>4}  channel loses beat p[{from}] -> p[{to}]")
            }
            Event::Timeout { at, pid } => write!(f, "t={at:>4}  timeout at p[{pid}]"),
            Event::Crash { at, pid } => write!(f, "t={at:>4}  p[{pid}] crashes (voluntary)"),
            Event::NvInactivate { at, pid } => {
                write!(f, "t={at:>4}  p[{pid}] inactivated NON-VOLUNTARILY")
            }
            Event::Leave { at, pid } => write!(f, "t={at:>4}  p[{pid}] leaves the protocol"),
            Event::Revive { at, pid } => {
                write!(f, "t={at:>4}  p[{pid}] revives with a fresh epoch")
            }
            Event::ViewChange {
                at,
                pid,
                view_no,
                coordinator,
            } => {
                write!(
                    f,
                    "t={at:>4}  p[{pid}] installs view {view_no} (coordinator p[{coordinator}])"
                )
            }
            Event::StateTransfer {
                at,
                from,
                to,
                view_no,
            } => {
                write!(
                    f,
                    "t={at:>4}  p[{from}] transfers view {view_no} state to p[{to}]"
                )
            }
        }
    }
}

/// An append-only log of protocol events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// All recorded events, in order of occurrence.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of a given process (sender for sends, receiver for
    /// deliveries/losses).
    pub fn of_process(&self, pid: Pid) -> Vec<Event> {
        self.events
            .iter()
            .copied()
            .filter(|e| match *e {
                Event::Send { from, .. } => from == pid,
                Event::Deliver { to, .. } | Event::Lose { to, .. } => to == pid,
                Event::Timeout { pid: p, .. }
                | Event::Crash { pid: p, .. }
                | Event::NvInactivate { pid: p, .. }
                | Event::Leave { pid: p, .. }
                | Event::Revive { pid: p, .. }
                | Event::ViewChange { pid: p, .. } => p == pid,
                Event::StateTransfer { to, .. } => to == pid,
            })
            .collect()
    }

    /// Render a message-sequence chart with one column per process
    /// (`0..=n`), one row per event, in the style of the paper's
    /// counter-example figures.
    pub fn render_chart(&self, n: usize) -> String {
        const COL: usize = 14;
        let mut out = String::new();
        // header
        out.push_str("  time  ");
        for p in 0..=n {
            out.push_str(&format!("{:^width$}", format!("p[{p}]"), width = COL));
        }
        out.push('\n');
        out.push_str(&"-".repeat(8 + COL * (n + 1)));
        out.push('\n');
        for e in &self.events {
            let mut cells = vec![" ".repeat(COL); n + 1];
            let mark = |cells: &mut Vec<String>, pid: usize, text: &str| {
                if pid <= n {
                    cells[pid] = format!("{:^width$}", text, width = COL);
                }
            };
            match *e {
                Event::Send { from, to, hb, .. } => {
                    let arrow = if from < to { "beat ->" } else { "<- beat" };
                    let label = if hb.flag {
                        arrow.to_string()
                    } else {
                        format!("{arrow} (F)")
                    };
                    mark(&mut cells, from, &label);
                }
                Event::Deliver { to, hb, .. } => {
                    let label = if hb.flag { "recv beat" } else { "recv beat(F)" };
                    mark(&mut cells, to, label);
                }
                Event::Lose { to, .. } => mark(&mut cells, to, "~~lost~~"),
                Event::Timeout { pid, .. } => mark(&mut cells, pid, "timeout"),
                Event::Crash { pid, .. } => mark(&mut cells, pid, "CRASH"),
                Event::NvInactivate { pid, .. } => mark(&mut cells, pid, "NV-INACTIVE"),
                Event::Leave { pid, .. } => mark(&mut cells, pid, "leave"),
                Event::Revive { pid, .. } => mark(&mut cells, pid, "REVIVE"),
                Event::ViewChange { pid, view_no, .. } => {
                    mark(&mut cells, pid, &format!("VIEW {view_no}"))
                }
                Event::StateTransfer { to, .. } => mark(&mut cells, to, "xfer view"),
            }
            out.push_str(&format!("  {:>4}  ", e.at()));
            for c in cells {
                out.push_str(&c);
            }
            // trim trailing spaces
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromIterator<Event> for EventLog {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        EventLog {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for EventLog {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.push(Event::Timeout { at: 10, pid: 0 });
        log.push(Event::Send {
            at: 10,
            from: 0,
            to: 1,
            hb: Heartbeat::plain(),
        });
        log.push(Event::Deliver {
            at: 12,
            from: 0,
            to: 1,
            hb: Heartbeat::plain(),
        });
        log.push(Event::Send {
            at: 12,
            from: 1,
            to: 0,
            hb: Heartbeat::plain(),
        });
        log.push(Event::Crash { at: 12, pid: 1 });
        log.push(Event::NvInactivate { at: 38, pid: 0 });
        log
    }

    #[test]
    fn log_accumulates_in_order() {
        let log = sample_log();
        assert_eq!(log.len(), 6);
        assert!(!log.is_empty());
        assert_eq!(log.events()[0].at(), 10);
        assert_eq!(log.events().last().unwrap().at(), 38);
    }

    #[test]
    fn of_process_filters() {
        let log = sample_log();
        let p1 = log.of_process(1);
        assert_eq!(p1.len(), 3); // deliver to 1, send from 1, crash of 1
        let p0 = log.of_process(0);
        assert_eq!(p0.len(), 3); // timeout, send from 0, nv-inactivate
    }

    #[test]
    fn chart_has_header_and_rows() {
        let log = sample_log();
        let chart = log.render_chart(1);
        assert!(chart.contains("p[0]"));
        assert!(chart.contains("p[1]"));
        assert!(chart.contains("CRASH"));
        assert!(chart.contains("NV-INACTIVE"));
        assert_eq!(chart.lines().count(), 2 + log.len());
    }

    #[test]
    fn display_lists_all_events() {
        let log = sample_log();
        let text = log.to_string();
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("p[1] crashes"));
    }

    #[test]
    fn from_iterator_roundtrip() {
        let log = sample_log();
        let rebuilt: EventLog = log.events().iter().copied().collect();
        assert_eq!(rebuilt.len(), log.len());
    }

    #[test]
    fn revive_renders_in_chart_and_listing() {
        let mut log = EventLog::new();
        log.push(Event::Crash { at: 4, pid: 1 });
        log.push(Event::Revive { at: 9, pid: 1 });
        assert_eq!(log.of_process(1).len(), 2);
        let chart = log.render_chart(1);
        assert!(chart.contains("REVIVE"));
        assert!(log.to_string().contains("revives with a fresh epoch"));
    }

    #[test]
    fn view_change_and_state_transfer_render() {
        let mut log = EventLog::new();
        log.push(Event::ViewChange {
            at: 40,
            pid: 1,
            view_no: 1,
            coordinator: 1,
        });
        log.push(Event::StateTransfer {
            at: 44,
            from: 1,
            to: 0,
            view_no: 1,
        });
        assert_eq!(log.of_process(1).len(), 1);
        assert_eq!(log.of_process(0).len(), 1); // transfer filed under the receiver
        let chart = log.render_chart(1);
        assert!(chart.contains("VIEW 1"));
        assert!(chart.contains("xfer view"));
        let text = log.to_string();
        assert!(text.contains("installs view 1 (coordinator p[1])"));
        assert!(text.contains("transfers view 1 state to p[0]"));
    }

    #[test]
    fn leave_and_lose_render() {
        let mut log = EventLog::new();
        log.push(Event::Lose {
            at: 3,
            from: 0,
            to: 1,
        });
        log.push(Event::Leave { at: 5, pid: 1 });
        let chart = log.render_chart(1);
        assert!(chart.contains("~~lost~~"));
        assert!(chart.contains("leave"));
        assert!(log.to_string().contains("channel loses"));
    }
}
