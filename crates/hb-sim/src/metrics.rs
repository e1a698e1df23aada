//! Run metrics and reports.

use hb_core::trace::EventLog;
use hb_core::{Pid, Status};

use crate::channel::Time;
use crate::schema::RunSummary;

/// Everything measured over one simulation run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Total simulated time.
    pub duration: Time,
    /// Messages handed to the channel (including lost ones).
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages lost by the channel.
    pub messages_lost: u64,
    /// `(pid, time)` of every voluntary crash (injected).
    pub crashes: Vec<(Pid, Time)>,
    /// `(pid, time)` of every non-voluntary (protocol-driven)
    /// inactivation.
    pub nv_inactivations: Vec<(Pid, Time)>,
    /// `(pid, time)` of every leave (dynamic protocol).
    pub leaves: Vec<(Pid, Time)>,
    /// `(pid, time)` of every post-crash revive (§7 rejoin).
    pub revives: Vec<(Pid, Time)>,
    /// Worst observed re-convergence *detection* delay: ticks from a
    /// revive until the coordinator registered the fresh epoch (`None`
    /// if no revive was ever detected).
    pub reconv_detect: Option<Time>,
    /// Worst observed re-convergence *stabilisation* delay: ticks from a
    /// revive until, additionally, the revived participant was an
    /// active, joined member of the round again (`None` if no revive
    /// ever stabilised).
    pub reconv_stable: Option<Time>,
    /// Beats from superseded incarnations the coordinator accepted as if
    /// fresh (naive rejoin only).
    pub stale_beats_admitted: u32,
    /// Beats from superseded incarnations the coordinator filtered
    /// behind the epoch bar (§7 rejoin only).
    pub stale_beats_filtered: u32,
    /// Time from the first injected crash until every process was
    /// inactive, if both happened.
    pub detection_delay: Option<Time>,
    /// Non-voluntary inactivations in a run with **no** injected crash —
    /// the protocol shut something down spuriously (loss-induced).
    pub false_inactivations: u32,
    /// Final status of every process (`index 0` = coordinator).
    pub final_status: Vec<Status>,
    /// Full event log (empty unless logging was enabled).
    pub log: EventLog,
}

impl Report {
    /// A run summary plus the run's event log.
    pub fn from_summary(s: RunSummary, log: EventLog) -> Self {
        Report {
            duration: s.duration,
            messages_sent: s.messages_sent,
            messages_delivered: s.messages_delivered,
            messages_lost: s.messages_lost,
            crashes: s.crashes,
            nv_inactivations: s.nv_inactivations,
            leaves: s.leaves,
            revives: s.revives,
            reconv_detect: s.reconv_detect,
            reconv_stable: s.reconv_stable,
            stale_beats_admitted: s.stale_beats_admitted,
            stale_beats_filtered: s.stale_beats_filtered,
            detection_delay: s.detection_delay,
            false_inactivations: s.false_inactivations,
            final_status: s.final_status,
            log,
        }
    }

    /// Steady-state message rate: messages per time unit.
    ///
    /// For a healthy accelerated protocol with one participant this is
    /// ≈ `2/tmax` (one beat and one reply per round).
    pub fn message_rate(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.messages_sent as f64 / self.duration as f64
    }

    /// Whether every process ended inactive.
    pub fn all_inactive(&self) -> bool {
        self.final_status.iter().all(|s| s.is_inactive())
    }

    /// Observed message-loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            return 0.0;
        }
        self.messages_lost as f64 / self.messages_sent as f64
    }

    /// First non-voluntary inactivation time of a given process.
    pub fn nv_time_of(&self, pid: Pid) -> Option<Time> {
        self.nv_inactivations
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, t)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            duration: 100,
            messages_sent: 25,
            messages_delivered: 20,
            messages_lost: 5,
            crashes: vec![(1, 40)],
            nv_inactivations: vec![(0, 60)],
            leaves: vec![],
            revives: vec![],
            reconv_detect: None,
            reconv_stable: None,
            stale_beats_admitted: 0,
            stale_beats_filtered: 0,
            detection_delay: Some(20),
            false_inactivations: 0,
            final_status: vec![Status::NvInactive, Status::Crashed],
            log: EventLog::new(),
        }
    }

    #[test]
    fn rates() {
        let r = report();
        assert!((r.message_rate() - 0.25).abs() < 1e-12);
        assert!((r.loss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn all_inactive_detects_terminal_runs() {
        let r = report();
        assert!(r.all_inactive());
    }

    #[test]
    fn nv_lookup() {
        let r = report();
        assert_eq!(r.nv_time_of(0), Some(60));
        assert_eq!(r.nv_time_of(1), None);
    }

    #[test]
    fn zero_duration_is_safe() {
        let mut r = report();
        r.duration = 0;
        r.messages_sent = 0;
        assert_eq!(r.message_rate(), 0.0);
        assert_eq!(r.loss_ratio(), 0.0);
    }
}
