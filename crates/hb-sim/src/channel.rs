//! Lossy bounded-delay channels for the simulator.

use hb_core::fault::{draw_delivery, LossModel, SendFate, Time};
use hb_core::schema::NetStats;
use hb_core::{Heartbeat, Pid};
use rand::Rng;

/// A message in flight, scheduled for delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Delivery time.
    pub deliver_at: Time,
    /// Sender.
    pub src: Pid,
    /// Destination.
    pub dst: Pid,
    /// Payload.
    pub hb: Heartbeat,
    /// Round-trip budget left *at delivery* — an instant reply may take at
    /// most this much additional delay.
    pub budget_left: u32,
}

/// Panics unless every probability of `model` is in `[0, 1]`.
fn validate(model: &LossModel) {
    let probs: Vec<f64> = match *model {
        LossModel::Bernoulli(p) => vec![p],
        LossModel::GilbertElliott {
            to_bad,
            to_good,
            good_loss,
            bad_loss,
        } => vec![to_bad, to_good, good_loss, bad_loss],
    };
    for p in probs {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1], got {p}"
        );
    }
}

/// A lossy channel that assigns each message a random delay within its
/// budget and drops it according to a [`LossModel`], optionally with a
/// total outage window (all messages in `[from, to)` are dropped —
/// modelling GM98's "communication medium is down").
#[derive(Clone, Debug)]
pub struct Channel {
    model: LossModel,
    ge_bad: bool,
    outage: Option<(Time, Time)>,
    in_flight: Vec<InFlight>,
    /// Total messages accepted for transmission.
    pub sent: u64,
    /// Messages dropped.
    pub lost: u64,
    /// Messages delivered.
    pub delivered: u64,
}

impl Channel {
    /// A channel dropping each message independently with `loss_prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss_prob <= 1.0`.
    pub fn new(loss_prob: f64) -> Self {
        Self::with_model(LossModel::Bernoulli(loss_prob))
    }

    /// A channel with an arbitrary loss model.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn with_model(model: LossModel) -> Self {
        validate(&model);
        Self {
            model,
            ge_bad: false,
            outage: None,
            in_flight: Vec::new(),
            sent: 0,
            lost: 0,
            delivered: 0,
        }
    }

    /// Drop everything sent in the half-open window `[from, to)`.
    pub fn set_outage(&mut self, from: Time, to: Time) {
        assert!(from <= to, "outage window must be ordered");
        self.outage = Some((from, to));
    }

    /// Send a message at time `now` with a delay drawn uniformly from
    /// `0..=budget`, unless the outage window or the loss model drops it
    /// (the loss draw comes first, then the delay draw). Returns `true` if
    /// the message was accepted (not lost).
    pub fn send<R: Rng>(
        &mut self,
        rng: &mut R,
        now: Time,
        src: Pid,
        dst: Pid,
        hb: Heartbeat,
        budget: u32,
    ) -> bool {
        let in_outage = self
            .outage
            .is_some_and(|(from, to)| (from..to).contains(&now));
        let fate = if in_outage || self.model.drops(&mut self.ge_bad, rng) {
            SendFate::Drop
        } else {
            SendFate::clean()
        };
        self.send_shaped(rng, now, (src, dst), hb, budget, fate)
    }

    /// Send a message over the `(src, dst)` link whose drop/duplicate/delay
    /// fate an external [`FaultHook`](hb_core::fault::FaultHook) already
    /// decided. The channel's own loss model and outage window are
    /// bypassed; only the uniform in-budget delay draw remains local.
    /// Returns `true` if at least one copy was scheduled.
    pub fn send_shaped<R: Rng>(
        &mut self,
        rng: &mut R,
        now: Time,
        (src, dst): (Pid, Pid),
        hb: Heartbeat,
        budget: u32,
        fate: SendFate,
    ) -> bool {
        self.sent += 1;
        let SendFate::Deliver {
            copies: copies @ 1..,
            extra_delay,
        } = fate
        else {
            self.lost += 1;
            return false;
        };
        for _ in 0..copies {
            let (deliver_at, budget_left) = draw_delivery(rng, now, budget, extra_delay);
            self.in_flight.push(InFlight {
                deliver_at,
                src,
                dst,
                hb,
                budget_left,
            });
        }
        true
    }

    /// Remove every message due at `now`, appending it to `out` (a
    /// scratch buffer callers reuse across ticks) in the order of a
    /// swap-remove sweep, which seed-deterministic runs depend on.
    pub fn due_into(&mut self, now: Time, out: &mut Vec<InFlight>) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deliver_at <= now {
                out.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// The earliest delivery time in flight (a scan of ≤ 2n frames).
    pub(crate) fn next_due(&self) -> Option<Time> {
        self.in_flight.iter().map(|m| m.deliver_at).min()
    }

    /// The message counters so far.
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.sent,
            delivered: self.delivered,
            lost: self.lost,
        }
    }

    /// Messages currently in flight.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_channel_delivers_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = Channel::new(0.0);
        for i in 0..100 {
            assert!(ch.send(&mut rng, i, 0, 1, Heartbeat::plain(), 5));
        }
        assert_eq!(ch.sent, 100);
        assert_eq!(ch.lost, 0);
        let mut got = Vec::new();
        for t in 0..200 {
            ch.due_into(t, &mut got);
        }
        assert_eq!(got.len(), 100);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn delays_respect_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ch = Channel::new(0.0);
        for _ in 0..1000 {
            ch.send(&mut rng, 10, 0, 1, Heartbeat::plain(), 3);
        }
        for m in &ch.in_flight {
            assert!(m.deliver_at >= 10 && m.deliver_at <= 13);
            assert_eq!(u64::from(3 - m.budget_left), m.deliver_at - 10);
        }
    }

    #[test]
    fn total_loss_channel_drops_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ch = Channel::new(1.0);
        for _ in 0..50 {
            assert!(!ch.send(&mut rng, 0, 0, 1, Heartbeat::plain(), 5));
        }
        assert_eq!(ch.lost, 50);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn loss_rate_is_roughly_bernoulli() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ch = Channel::new(0.3);
        for _ in 0..10_000 {
            ch.send(&mut rng, 0, 0, 1, Heartbeat::plain(), 5);
        }
        let rate = ch.lost as f64 / ch.sent as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
    }

    #[test]
    fn due_returns_only_ripe_messages() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch = Channel::new(0.0);
        ch.send(&mut rng, 0, 0, 1, Heartbeat::plain(), 0); // due at 0
        ch.send(&mut rng, 5, 0, 1, Heartbeat::plain(), 0); // due at 5
        let mut due = Vec::new();
        ch.due_into(0, &mut due);
        assert_eq!(due.len(), 1);
        ch.due_into(4, &mut due);
        assert_eq!(due.len(), 1, "nothing ripe at 4");
        ch.due_into(5, &mut due);
        assert_eq!(due.len(), 2);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        Channel::new(1.5);
    }

    #[test]
    fn gilbert_elliott_average_matches_stationary() {
        let model = LossModel::GilbertElliott {
            to_bad: 0.1,
            to_good: 0.4,
            good_loss: 0.0,
            bad_loss: 1.0,
        };
        // pi_bad = 0.1 / 0.5 = 0.2
        assert!((model.average_loss() - 0.2).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(9);
        let mut ch = Channel::with_model(model);
        for _ in 0..50_000 {
            ch.send(&mut rng, 0, 0, 1, Heartbeat::plain(), 2);
        }
        let rate = ch.lost as f64 / ch.sent as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the longest run of consecutive losses under GE vs a
        // Bernoulli channel with the same average loss.
        let run_len = |mut ch: Channel| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut longest = 0u32;
            let mut current = 0u32;
            for _ in 0..20_000 {
                let before = ch.lost;
                ch.send(&mut rng, 0, 0, 1, Heartbeat::plain(), 2);
                if ch.lost > before {
                    current += 1;
                    longest = longest.max(current);
                } else {
                    current = 0;
                }
            }
            longest
        };
        let ge = LossModel::GilbertElliott {
            to_bad: 0.02,
            to_good: 0.2,
            good_loss: 0.0,
            bad_loss: 1.0,
        };
        let bursty = run_len(Channel::with_model(ge));
        let smooth = run_len(Channel::new(ge.average_loss()));
        assert!(
            bursty > 2 * smooth.max(1),
            "GE runs ({bursty}) should dwarf Bernoulli runs ({smooth})"
        );
    }

    #[test]
    fn shaped_sends_follow_the_dictated_fate() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ch = Channel::new(0.0);
        assert!(!ch.send_shaped(&mut rng, 0, (0, 1), Heartbeat::plain(), 2, SendFate::Drop));
        assert_eq!((ch.sent, ch.lost, ch.pending()), (1, 1, 0));
        // Zero copies behaves as a drop.
        let gone = SendFate::Deliver {
            copies: 0,
            extra_delay: 0,
        };
        assert!(!ch.send_shaped(&mut rng, 0, (0, 1), Heartbeat::plain(), 2, gone));
        assert_eq!((ch.sent, ch.lost), (2, 2));
        // Duplication schedules every copy; extra delay may exceed the
        // budget, which zeroes the remaining reply budget.
        let dup = SendFate::Deliver {
            copies: 3,
            extra_delay: 5,
        };
        assert!(ch.send_shaped(&mut rng, 10, (0, 1), Heartbeat::plain(), 2, dup));
        assert_eq!(ch.pending(), 3);
        for m in &ch.in_flight {
            assert!(m.deliver_at >= 15 && m.deliver_at <= 17);
            assert_eq!(m.budget_left, 0);
        }
    }

    #[test]
    fn outage_drops_everything_in_window() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch = Channel::new(0.0);
        ch.set_outage(10, 20);
        assert!(ch.send(&mut rng, 9, 0, 1, Heartbeat::plain(), 2));
        assert!(!ch.send(&mut rng, 10, 0, 1, Heartbeat::plain(), 2));
        assert!(!ch.send(&mut rng, 19, 0, 1, Heartbeat::plain(), 2));
        assert!(ch.send(&mut rng, 20, 0, 1, Heartbeat::plain(), 2));
        assert_eq!(ch.lost, 2);
    }
}
