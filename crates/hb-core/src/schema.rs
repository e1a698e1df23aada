//! The record of a finished run, shared by the simulator and the live
//! runtime (`hb-net`): the [`RunSummary`] both substrates return and
//! write as one JSON-lines object, the [`RunLedger`] they fill to build
//! it, and the [`NetStats`] message counters it carries. A live run and a
//! simulated run of the same scenario can be diffed line by line; the
//! per-event records are [`event_json`](crate::events::event_json)'s, and
//! both go through [`json`], the workspace's one JSON module.

use crate::events::MonitorVerdicts;
use crate::fault::Time;
use crate::json::{self, ToJson};
use crate::trace::EventLog;
use crate::{Pid, Status};

/// The record of one finished run, shared by the simulator (`World`,
/// `NaiveWorld`) and the live runtime's cluster report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Which substrate produced the run: `"sim"` or `"live"`.
    pub source: &'static str,
    /// Total (discrete) run time.
    pub duration: Time,
    /// Messages handed to the channel (including lost ones).
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages lost.
    pub messages_lost: u64,
    /// `(pid, time)` of every voluntary crash.
    pub crashes: Vec<(Pid, Time)>,
    /// `(pid, time)` of every non-voluntary inactivation.
    pub nv_inactivations: Vec<(Pid, Time)>,
    /// `(pid, time)` of every graceful leave.
    pub leaves: Vec<(Pid, Time)>,
    /// `(pid, time)` of every post-crash revive (§7 rejoin).
    pub revives: Vec<(Pid, Time)>,
    /// Worst observed revive-to-detection delay (coordinator registered
    /// the fresh epoch), if any revive was detected.
    pub reconv_detect: Option<Time>,
    /// Worst observed revive-to-stability delay (the revived participant
    /// active and joined again on top of detection), if any revive
    /// stabilised.
    pub reconv_stable: Option<Time>,
    /// Stale (superseded-epoch) beats the coordinator admitted as fresh.
    pub stale_beats_admitted: u32,
    /// Stale beats the coordinator filtered behind the epoch bar.
    pub stale_beats_filtered: u32,
    /// Time from the first crash until every process was inactive.
    pub detection_delay: Option<Time>,
    /// Non-voluntary inactivations with no crash injected.
    pub false_inactivations: u32,
    /// Streaming R1–R3 monitor verdicts, when a [`MonitorSet`] was
    /// attached to the run (`None` = run was not monitored).
    ///
    /// [`MonitorSet`]: https://docs.rs/hb-monitor
    pub monitor: Option<MonitorVerdicts>,
    /// Final status per process (index 0 = coordinator).
    pub final_status: Vec<Status>,
    /// The run's event log: empty unless the simulator recorded events
    /// (`WorldConfig::log_events`); the live cluster keeps its logs per
    /// node. Not part of the JSON record: [`to_json`](Self::to_json)
    /// omits it.
    pub log: EventLog,
}

/// Message counters of one run (heartbeat frames only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the network (including lost ones).
    pub sent: u64,
    /// Frames delivered (or purged into a not-yet-started node).
    pub delivered: u64,
    /// Frames dropped by the loss model.
    pub lost: u64,
}

/// The lifecycle bookkeeping of one run, shared by every substrate:
/// crash / inactivation / leave / revive times, the two-sided §7
/// re-convergence resolver, the cluster-wide detection time, and the
/// assembly of the [`RunSummary`]. The simulator feeds it where the
/// transitions happen; the live harness feeds it from its status diff.
#[derive(Clone, Debug, Default)]
pub struct RunLedger {
    crashes: Vec<(Pid, Time)>,
    nv_inactivations: Vec<(Pid, Time)>,
    leaves: Vec<(Pid, Time)>,
    revives: Vec<(Pid, Time)>,
    pending_reconv: Vec<Reconv>,
    reconv_detect: Option<Time>,
    reconv_stable: Option<Time>,
    all_inactive_at: Option<Time>,
}

/// A revived participant still re-converging.
#[derive(Clone, Copy, Debug)]
struct Reconv {
    pid: Pid,
    epoch: u8,
    revived_at: Time,
    detected: bool,
}

impl RunLedger {
    /// `pid` crashed at `at`.
    pub fn crash(&mut self, pid: Pid, at: Time) {
        self.crashes.push((pid, at));
    }

    /// `pid` inactivated non-voluntarily at `at`.
    pub fn nv_inactivation(&mut self, pid: Pid, at: Time) {
        self.nv_inactivations.push((pid, at));
    }

    /// `pid` left gracefully at `at`.
    pub fn leave(&mut self, pid: Pid, at: Time) {
        self.leaves.push((pid, at));
    }

    /// `pid` came back from a crash at `at` as incarnation `epoch`: the
    /// run is no longer all-inactive, and a re-convergence sample opens.
    pub fn revive(&mut self, pid: Pid, epoch: u8, at: Time) {
        self.revives.push((pid, at));
        self.pending_reconv.push(Reconv {
            pid,
            epoch,
            revived_at: at,
            detected: false,
        });
        self.all_inactive_at = None;
    }

    /// Resolve pending re-convergences at the end of tick `now`.
    /// Detection: the coordinator's epoch bar for the revived pid
    /// (`bar_of`, `None` while unknown) has caught up with the fresh
    /// incarnation in RFC 1982 serial order. Stability: on top of that,
    /// `rejoined(pid, epoch)` — the revived participant is an active,
    /// joined member at that incarnation again (for join variants the
    /// completed §5 handshake; variants without a join phase are joined
    /// from the start, so stability coincides with detection).
    pub fn resolve_reconv(
        &mut self,
        now: Time,
        bar_of: impl Fn(Pid) -> Option<u8>,
        rejoined: impl Fn(Pid, u8) -> bool,
    ) {
        let worst = |slot: &mut Option<Time>, d: Time| *slot = Some(slot.map_or(d, |w| w.max(d)));
        let (detect, stable) = (&mut self.reconv_detect, &mut self.reconv_stable);
        self.pending_reconv.retain_mut(|r| {
            let caught_up = |bar| crate::serial::serial_ge(bar, r.epoch);
            if !r.detected && bar_of(r.pid).is_some_and(caught_up) {
                r.detected = true;
                worst(detect, now - r.revived_at);
            }
            let is_stable = r.detected && rejoined(r.pid, r.epoch);
            if is_stable {
                worst(stable, now - r.revived_at);
            }
            !is_stable
        });
    }

    /// Record the first tick at which the whole run was inactive.
    pub fn note_all_inactive(&mut self, now: Time, all_inactive: bool) {
        if all_inactive && self.all_inactive_at.is_none() {
            self.all_inactive_at = Some(now);
        }
    }

    /// Close the ledger into the shared summary record.
    pub fn into_summary(
        self,
        source: &'static str,
        duration: Time,
        traffic: NetStats,
        (stale_beats_admitted, stale_beats_filtered): (u32, u32),
        final_status: Vec<Status>,
    ) -> RunSummary {
        let first_crash = self.crashes.iter().map(|&(_, t)| t).min();
        let detection_delay = match (first_crash, self.all_inactive_at) {
            (Some(c), Some(d)) => Some(d.saturating_sub(c)),
            _ => None,
        };
        let false_inactivations = if self.crashes.is_empty() {
            self.nv_inactivations.len() as u32
        } else {
            0
        };
        RunSummary {
            source,
            duration,
            messages_sent: traffic.sent,
            messages_delivered: traffic.delivered,
            messages_lost: traffic.lost,
            crashes: self.crashes,
            nv_inactivations: self.nv_inactivations,
            leaves: self.leaves,
            revives: self.revives,
            reconv_detect: self.reconv_detect,
            reconv_stable: self.reconv_stable,
            stale_beats_admitted,
            stale_beats_filtered,
            detection_delay,
            false_inactivations,
            monitor: None,
            final_status,
            log: EventLog::new(),
        }
    }
}

impl RunSummary {
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

    /// The summary as a single-line JSON object.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for RunSummary {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("record", "run_summary")
                .field("source", self.source)
                .field("duration", self.duration)
                .field("messages_sent", self.messages_sent)
                .field("messages_delivered", self.messages_delivered)
                .field("messages_lost", self.messages_lost)
                .field("crashes", &self.crashes)
                .field("nv_inactivations", &self.nv_inactivations)
                .field("leaves", &self.leaves)
                .field("revives", &self.revives)
                .field("reconv_detect", self.reconv_detect)
                .field("reconv_stable", self.reconv_stable)
                .field("stale_beats_admitted", self.stale_beats_admitted)
                .field("stale_beats_filtered", self.stale_beats_filtered)
                .field("detection_delay", self.detection_delay)
                .field("false_inactivations", self.false_inactivations)
                .field("monitor", self.monitor)
                .field("final_status", &self.final_status);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::event_json;
    use crate::trace::Event;
    use crate::Heartbeat;

    #[test]
    fn event_records_are_flat_json() {
        let e = Event::Send {
            at: 10,
            from: 0,
            to: 1,
            hb: Heartbeat::plain(),
        };
        assert_eq!(
            event_json(&e),
            "{\"t\":10,\"ev\":\"send\",\"from\":0,\"to\":1,\"flag\":true}"
        );
        let e = Event::NvInactivate { at: 38, pid: 0 };
        assert_eq!(
            event_json(&e),
            "{\"t\":38,\"ev\":\"nv_inactivate\",\"pid\":0}"
        );
    }

    fn summary() -> RunSummary {
        RunSummary {
            source: "sim",
            duration: 100,
            messages_sent: 25,
            messages_delivered: 20,
            messages_lost: 5,
            crashes: vec![(1, 40)],
            nv_inactivations: vec![(0, 60)],
            leaves: vec![],
            revives: vec![(1, 55)],
            reconv_detect: Some(6),
            reconv_stable: Some(11),
            stale_beats_admitted: 2,
            stale_beats_filtered: 0,
            detection_delay: Some(20),
            false_inactivations: 0,
            monitor: None,
            final_status: vec![Status::NvInactive, Status::Crashed],
            log: EventLog::new(),
        }
    }

    #[test]
    fn summary_json_carries_every_field_but_the_log() {
        let mut s = summary();
        s.log.push(Event::NvInactivate { at: 60, pid: 0 });
        let json = s.to_json();
        assert!(json.contains("\"crashes\":[[1,40]]"), "{json}");
        assert!(json.contains("\"detection_delay\":20"), "{json}");
        assert!(json.contains("\"revives\":[[1,55]]"), "{json}");
        assert!(json.contains("\"reconv_detect\":6"), "{json}");
        assert!(json.contains("\"reconv_stable\":11"), "{json}");
        assert!(json.contains("\"stale_beats_admitted\":2"), "{json}");
        assert!(json.contains("\"monitor\":null"), "{json}");
        assert!(json.contains("\"final_status\":[\"nv-inactive\",\"crashed\"]"));
        assert_eq!(json, summary().to_json(), "the log stays out of the record");
    }

    #[test]
    fn missing_detection_is_null() {
        let s = RunSummary {
            source: "live",
            duration: 0,
            messages_sent: 0,
            messages_delivered: 0,
            messages_lost: 0,
            crashes: vec![],
            nv_inactivations: vec![],
            leaves: vec![],
            revives: vec![],
            reconv_detect: None,
            reconv_stable: None,
            stale_beats_admitted: 0,
            stale_beats_filtered: 0,
            detection_delay: None,
            false_inactivations: 0,
            monitor: None,
            final_status: vec![],
            log: EventLog::new(),
        };
        assert!(s.to_json().contains("\"detection_delay\":null"));
        assert!(s.to_json().contains("\"reconv_detect\":null"));
        assert!(s.to_json().contains("\"reconv_stable\":null"));
    }

    #[test]
    fn rates() {
        let s = summary();
        assert!((s.message_rate() - 0.25).abs() < 1e-12);
        assert!((s.loss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn all_inactive_detects_terminal_runs() {
        assert!(summary().all_inactive());
    }

    #[test]
    fn nv_lookup() {
        let s = summary();
        assert_eq!(s.nv_time_of(0), Some(60));
        assert_eq!(s.nv_time_of(1), None);
    }

    #[test]
    fn zero_duration_is_safe() {
        let mut s = summary();
        s.duration = 0;
        s.messages_sent = 0;
        assert_eq!(s.message_rate(), 0.0);
        assert_eq!(s.loss_ratio(), 0.0);
    }

    fn close(ledger: RunLedger) -> RunSummary {
        ledger.into_summary("sim", 100, NetStats::default(), (0, 0), vec![])
    }

    #[test]
    fn ledger_resolves_detection_then_stability_on_the_serial_circle() {
        let mut l = RunLedger::default();
        // Incarnation 0 follows 255: a bar still at 255 has not caught up.
        l.revive(1, 0, 10);
        l.revive(2, 7, 12);
        l.resolve_reconv(11, |_| None, |_, _| true);
        l.resolve_reconv(13, |_| Some(255), |_, _| true);
        // The bar reaches both epochs; only pid 2 is an active member yet.
        l.resolve_reconv(15, |pid| Some([0, 0, 7][pid]), |pid, _| pid == 2);
        l.resolve_reconv(20, |_| None, |pid, epoch| (pid, epoch) == (1, 0));
        let s = close(l);
        assert_eq!(s.revives, vec![(1, 10), (2, 12)]);
        assert_eq!(s.reconv_detect, Some(5), "worst of 15-10 and 15-12");
        assert_eq!(s.reconv_stable, Some(10), "worst of 20-10 and 15-12");

        let mut never = RunLedger::default();
        never.revive(1, 3, 10);
        never.resolve_reconv(50, |_| Some(2), |_, _| true);
        let s = close(never);
        assert_eq!((s.reconv_detect, s.reconv_stable), (None, None));
    }

    #[test]
    fn ledger_times_detection_from_the_first_crash() {
        // No crash: every inactivation is a false one, nothing to detect.
        let mut l = RunLedger::default();
        l.nv_inactivation(1, 30);
        l.nv_inactivation(0, 31);
        l.note_all_inactive(31, true);
        let s = close(l);
        assert_eq!((s.detection_delay, s.false_inactivations), (None, 2));

        // With crashes the clock runs from the earliest to the first
        // all-inactive tick; a revive re-opens the run.
        let mut l = RunLedger::default();
        l.crash(2, 50);
        l.crash(1, 40);
        l.nv_inactivation(0, 60);
        l.note_all_inactive(59, false);
        l.note_all_inactive(60, true);
        l.note_all_inactive(61, true);
        assert_eq!(close(l.clone()).detection_delay, Some(20));
        assert_eq!(close(l.clone()).false_inactivations, 0);
        l.revive(1, 1, 70);
        assert_eq!(close(l.clone()).detection_delay, None);
        l.note_all_inactive(90, true);
        assert_eq!(close(l).detection_delay, Some(50));
    }

    #[test]
    fn epoch_tagged_events_carry_the_epoch_field() {
        let plain = Event::Send {
            at: 1,
            from: 1,
            to: 0,
            hb: Heartbeat::plain(),
        };
        assert!(!event_json(&plain).contains("epoch"));
        let tagged = Event::Deliver {
            at: 2,
            from: 1,
            to: 0,
            hb: Heartbeat::plain().with_epoch(3),
        };
        assert_eq!(
            event_json(&tagged),
            "{\"t\":2,\"ev\":\"deliver\",\"from\":1,\"to\":0,\"flag\":true,\"epoch\":3}"
        );
        assert_eq!(
            event_json(&Event::Revive { at: 7, pid: 1 }),
            "{\"t\":7,\"ev\":\"revive\",\"pid\":1}"
        );
    }
}
