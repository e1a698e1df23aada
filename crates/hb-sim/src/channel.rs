//! Lossy bounded-delay channels for the simulator.

use hb_core::{Heartbeat, Pid};
use rand::Rng;

use crate::schema::NetStats;

/// Discrete simulation time.
pub type Time = u64;

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

/// What an external fault engine decided for one message: drop it, or
/// deliver some number of copies with extra delay beyond the uniform
/// in-budget draw. `Deliver { copies: 1, extra_delay: 0 }` is a plain
/// faultless send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFate {
    /// The message is lost.
    Drop,
    /// The message is delivered, possibly duplicated and/or late.
    Deliver {
        /// Number of copies injected into the channel (0 behaves as a
        /// drop that still reports the send as accepted).
        copies: u32,
        /// Additional delay ticks on top of the uniform `0..=budget`
        /// draw. May exceed the round-trip budget — that is the point of
        /// a delay-spike adversary.
        extra_delay: u32,
    },
}

impl SendFate {
    /// The fate of a message on a healthy channel.
    pub fn clean() -> Self {
        SendFate::Deliver {
            copies: 1,
            extra_delay: 0,
        }
    }
}

/// An external adversary consulted for every message the world sends.
///
/// Installing a hook (`World::set_fault_hook`) **replaces** the channel's
/// own [`LossModel`] as the drop authority: the hook owns all fault
/// randomness (so fault schedules are reproducible independently of the
/// world's delay stream) while the channel keeps drawing in-budget
/// delays.
pub trait FaultHook: Send + std::fmt::Debug {
    /// Decide the fate of a message from `src` to `dst` sent at `now`.
    fn fate(&mut self, now: Time, src: Pid, dst: Pid) -> SendFate;

    /// A copy for a forked world: asked what the original is asked next,
    /// it answers as the original does. `None` (the default): the state
    /// cannot be copied, and a world holding the hook cannot fork.
    fn fork(&self) -> Option<Box<dyn FaultHook>> {
        None
    }
}

/// The one delay rule, for every queue a message can sit in (this
/// channel, the loopback core and through it both membership meshes): a
/// uniform in-budget draw plus whatever a [`FaultHook`] added, decided
/// when the message is sent. Returns the delivery tick and the round-trip
/// budget left at delivery — none once the total delay has used it up.
pub fn draw_delivery<R: Rng>(rng: &mut R, now: Time, budget: u32, extra_delay: u32) -> (Time, u32) {
    let delay = rng.gen_range(0..=budget).saturating_add(extra_delay);
    (now + Time::from(delay), budget.saturating_sub(delay))
}

/// How the channel decides to drop messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// Independent per-message loss with this probability.
    Bernoulli(f64),
    /// A two-state Gilbert–Elliott burst-loss chain: the channel moves
    /// between a *good* and a *bad* state (one step per message) and
    /// drops with a state-dependent probability. Bursty loss is the
    /// adversary of the accelerated protocols' "k consecutive losses"
    /// defense.
    GilbertElliott {
        /// P(good → bad) per message.
        to_bad: f64,
        /// P(bad → good) per message.
        to_good: f64,
        /// Loss probability in the good state.
        good_loss: f64,
        /// Loss probability in the bad state.
        bad_loss: f64,
    },
}

impl LossModel {
    /// The long-run average loss probability of the model.
    pub fn average_loss(&self) -> f64 {
        match *self {
            LossModel::Bernoulli(p) => p,
            LossModel::GilbertElliott {
                to_bad,
                to_good,
                good_loss,
                bad_loss,
            } => {
                // stationary distribution of the two-state chain
                let pi_bad = to_bad / (to_bad + to_good);
                (1.0 - pi_bad) * good_loss + pi_bad * bad_loss
            }
        }
    }

    /// One loss decision: step the burst chain (one step per message,
    /// its state in `ge_bad`) and draw. Every consumer of a loss model —
    /// the simulator's channel, the loopback core, the fault pipeline —
    /// draws through here, so they consume randomness identically.
    pub fn drops<R: Rng>(&self, ge_bad: &mut bool, rng: &mut R) -> bool {
        match *self {
            LossModel::Bernoulli(p) => rng.gen_bool(p),
            LossModel::GilbertElliott {
                to_bad,
                to_good,
                good_loss,
                bad_loss,
            } => {
                if *ge_bad {
                    if rng.gen_bool(to_good) {
                        *ge_bad = false;
                    }
                } else if rng.gen_bool(to_bad) {
                    *ge_bad = true;
                }
                rng.gen_bool(if *ge_bad { bad_loss } else { good_loss })
            }
        }
    }

    fn validate(&self) {
        let probs: Vec<f64> = match *self {
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
        model.validate();
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
    /// fate was already decided by an external [`FaultHook`]. The channel's
    /// own loss model and outage window are bypassed; only the uniform
    /// in-budget delay draw remains local. Returns `true` if at least one
    /// copy was scheduled.
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

    /// Remove and return every message due at `now` (unordered).
    pub fn due(&mut self, now: Time) -> Vec<InFlight> {
        let mut due = Vec::new();
        self.due_into(now, &mut due);
        due
    }

    /// Remove every message due at `now`, appending it to `out` — the
    /// allocation-free form of [`due`](Self::due) for callers reusing a
    /// scratch buffer across ticks. Extraction order is identical to
    /// `due` (the swap-remove sweep), so the two are drop-in equivalent
    /// for seed-deterministic runs.
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
        let mut got = 0;
        for t in 0..200 {
            got += ch.due(t).len();
        }
        assert_eq!(got, 100);
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
        assert_eq!(ch.due(0).len(), 1);
        assert_eq!(ch.due(4).len(), 0);
        assert_eq!(ch.due(5).len(), 1);
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
