//! The naive fixed-period heartbeat baseline.
//!
//! This is the comparator the accelerated protocols are measured against:
//! the coordinator sends a beat every `period` and declares a participant
//! dead after `tolerance` consecutive silent periods; participants declare
//! the coordinator dead after `(tolerance + 1) · period + delay_bound`
//! without a beat.
//!
//! The fundamental trade-off the accelerated protocols escape: for the
//! naive protocol, overhead (`2/period`), worst-case detection delay
//! (`≈ (tolerance + 1) · period`) and loss tolerance (`tolerance`
//! consecutive losses) are all coupled through the same two knobs — you
//! cannot have low overhead *and* fast detection *and* high loss
//! tolerance. The accelerated protocol sends at `2/tmax` in steady state,
//! detects within `3·tmax − tmin` and tolerates
//! `⌊log₂(tmax/tmin)⌋` losses, because it speeds up *only while
//! suspicious*.

use hb_core::fault::Time;
use hb_core::schema::{RunLedger, RunSummary};
use hb_core::{Heartbeat, Pid, Status};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::Channel;

/// Configuration of the naive heartbeat protocol.
#[derive(Clone, Copy, Debug)]
pub struct NaiveConfig {
    /// Beat period (the only rate knob).
    pub period: u32,
    /// Consecutive silent periods before the coordinator declares a
    /// participant dead.
    pub tolerance: u32,
    /// One-way channel delay bound (counterpart of the accelerated
    /// protocols' `tmin` round-trip bound).
    pub delay_bound: u32,
    /// Number of participants.
    pub n: usize,
    /// Per-message loss probability.
    pub loss_prob: f64,
}

impl NaiveConfig {
    /// Worst-case detection delay of a participant crash at the
    /// coordinator.
    pub fn detection_bound(&self) -> u32 {
        (self.tolerance + 1) * self.period + 2 * self.delay_bound
    }

    /// Steady-state message rate (beat + reply per participant per
    /// period).
    pub fn message_rate(&self) -> f64 {
        2.0 * self.n as f64 / f64::from(self.period)
    }

    /// The participant-side watchdog.
    fn responder_bound(&self) -> u32 {
        (self.tolerance + 1) * self.period + 2 * self.delay_bound
    }
}

/// A running naive-heartbeat simulation (same channel and metric plumbing
/// as [`World`](crate::world::World)).
#[derive(Debug)]
pub struct NaiveWorld {
    cfg: NaiveConfig,
    coord_status: Status,
    /// Consecutive silent periods per participant.
    silent: Vec<u32>,
    /// Replies seen in the current period.
    replied: Vec<bool>,
    resp_status: Vec<Status>,
    /// Per-participant time since last coordinator beat.
    waiting: Vec<u32>,
    elapsed: u32,
    channel: Channel,
    rng: StdRng,
    now: Time,
    scheduled_crashes: Vec<(Pid, Time)>,
    ledger: RunLedger,
}

impl NaiveWorld {
    /// Create a naive-protocol world.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `n == 0`.
    pub fn new(cfg: NaiveConfig, seed: u64) -> Self {
        assert!(cfg.period > 0, "period must be positive");
        assert!(cfg.n > 0, "need at least one participant");
        NaiveWorld {
            coord_status: Status::Active,
            silent: vec![0; cfg.n],
            replied: vec![true; cfg.n],
            resp_status: vec![Status::Active; cfg.n],
            waiting: vec![0; cfg.n],
            elapsed: 0,
            channel: Channel::new(cfg.loss_prob),
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            scheduled_crashes: Vec::new(),
            ledger: RunLedger::default(),
            cfg,
        }
    }

    /// Schedule a crash of `pid` at `t`.
    pub fn schedule_crash(&mut self, pid: Pid, t: Time) {
        assert!(pid <= self.cfg.n);
        self.scheduled_crashes.push((pid, t));
    }

    /// Whether everything is inactive.
    pub fn all_inactive(&self) -> bool {
        self.coord_status.is_inactive() && self.resp_status.iter().all(|s| s.is_inactive())
    }

    /// One tick.
    pub fn step(&mut self) {
        // injected crashes
        let now = self.now;
        let mut crashes = std::mem::take(&mut self.scheduled_crashes);
        crashes.retain(|&(pid, t)| {
            if t != now {
                return true;
            }
            let status = if pid == 0 {
                &mut self.coord_status
            } else {
                &mut self.resp_status[pid - 1]
            };
            if status.is_active() {
                *status = Status::Crashed;
                self.ledger.crash(pid, now);
            }
            false
        });
        self.scheduled_crashes = crashes;

        // deliveries
        let mut due = Vec::new();
        self.channel.due_into(now, &mut due);
        for m in due {
            self.channel.delivered += 1;
            if m.dst == 0 {
                if self.coord_status.is_active() {
                    self.replied[m.src - 1] = true;
                }
            } else if self.resp_status[m.dst - 1].is_active() {
                self.waiting[m.dst - 1] = 0;
                let bound = self.cfg.delay_bound;
                self.channel
                    .send(&mut self.rng, now, m.dst, 0, Heartbeat::plain(), bound);
            }
        }

        // coordinator period boundary
        if self.coord_status.is_active() && self.elapsed >= self.cfg.period {
            self.elapsed = 0;
            for i in 0..self.cfg.n {
                if self.replied[i] {
                    self.silent[i] = 0;
                } else {
                    self.silent[i] += 1;
                }
                self.replied[i] = false;
            }
            if self.silent.iter().any(|&s| s > self.cfg.tolerance) {
                self.coord_status = Status::NvInactive;
                self.ledger.nv_inactivation(0, now);
            } else {
                for i in 0..self.cfg.n {
                    let bound = self.cfg.delay_bound;
                    self.channel
                        .send(&mut self.rng, now, 0, i + 1, Heartbeat::plain(), bound);
                }
            }
        }

        // participant watchdogs
        for i in 0..self.cfg.n {
            if self.resp_status[i].is_active() && self.waiting[i] >= self.cfg.responder_bound() {
                self.resp_status[i] = Status::NvInactive;
                self.ledger.nv_inactivation(i + 1, now);
            }
        }

        self.ledger.note_all_inactive(now, self.all_inactive());

        if self.coord_status.is_active() {
            self.elapsed += 1;
        }
        for i in 0..self.cfg.n {
            if self.resp_status[i].is_active() {
                self.waiting[i] += 1;
            }
        }
        self.now += 1;
    }

    /// Run until `t` or total inactivation.
    pub fn run_until(&mut self, t: Time) {
        while self.now < t && !self.all_inactive() {
            self.step();
        }
    }

    /// Finish the run and produce its record (`source: "sim"`, no log).
    pub fn into_report(self) -> RunSummary {
        let mut final_status = vec![self.coord_status];
        final_status.extend(&self.resp_status);
        let traffic = self.channel.stats();
        self.ledger
            .into_summary("sim", self.now, traffic, (0, 0), final_status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(period: u32, tolerance: u32) -> NaiveConfig {
        NaiveConfig {
            period,
            tolerance,
            delay_bound: 2,
            n: 1,
            loss_prob: 0.0,
        }
    }

    #[test]
    fn lossless_naive_runs_forever() {
        let mut w = NaiveWorld::new(cfg(8, 1), 1);
        w.run_until(5_000);
        let r = w.into_report();
        assert_eq!(r.false_inactivations, 0);
        assert!((r.message_rate() - 2.0 / 8.0).abs() < 0.02);
    }

    #[test]
    fn participant_crash_detected_within_bound() {
        for seed in 0..10 {
            let mut w = NaiveWorld::new(cfg(8, 1), seed);
            w.schedule_crash(1, 100);
            w.run_until(10_000);
            let r = w.into_report();
            let d = r.detection_delay.expect("detected");
            assert!(
                d <= u64::from(cfg(8, 1).detection_bound()) + 8,
                "seed {seed}: {d}"
            );
        }
    }

    #[test]
    fn single_loss_kills_zero_tolerance_naive() {
        // With tolerance 0, one lost beat in either direction inactivates —
        // this is the reliability weakness the accelerated protocol fixes.
        let mut any = 0;
        for seed in 0..20 {
            let mut w = NaiveWorld::new(
                NaiveConfig {
                    loss_prob: 0.05,
                    ..cfg(8, 0)
                },
                seed,
            );
            w.run_until(10_000);
            any += w.into_report().false_inactivations;
        }
        assert!(any > 0, "5% loss must kill a tolerance-0 naive protocol");
    }

    #[test]
    fn tolerance_buys_reliability_at_detection_cost() {
        let frail = cfg(8, 0);
        let sturdy = cfg(8, 3);
        assert!(sturdy.detection_bound() > frail.detection_bound());
        assert_eq!(frail.message_rate(), sturdy.message_rate());
    }

    #[test]
    fn coordinator_crash_detected_by_participant() {
        let mut w = NaiveWorld::new(cfg(8, 1), 3);
        w.schedule_crash(0, 50);
        w.run_until(10_000);
        let r = w.into_report();
        assert!(r.all_inactive());
    }

    #[test]
    fn multi_participant_rate_scales() {
        let c = NaiveConfig { n: 4, ..cfg(10, 1) };
        assert!((c.message_rate() - 0.8).abs() < 1e-12);
        let mut w = NaiveWorld::new(c, 9);
        w.run_until(5_000);
        let r = w.into_report();
        assert!(
            (r.message_rate() - 0.8).abs() < 0.05,
            "{}",
            r.message_rate()
        );
    }
}
