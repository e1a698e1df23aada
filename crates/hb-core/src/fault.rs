//! The adversary seam every message queue shares: the fate a fault
//! engine decides for one message ([`SendFate`], asked of a [`FaultHook`]),
//! a queue's own [`LossModel`], and the one delay rule ([`draw_delivery`]).

use rand::Rng;

use crate::Pid;

/// Discrete protocol time, in ticks (the unit of [`Params`](crate::Params)).
pub type Time = u64;

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
/// Installing a hook (`hb_sim::World::set_fault_hook`) **replaces** the
/// channel's own [`LossModel`] as the drop authority: the hook owns all
/// fault randomness (so fault schedules are reproducible independently
/// of the world's delay stream) while the channel keeps drawing
/// in-budget delays.
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

/// The one delay rule, for every queue a message can sit in (the
/// simulator's channel, the loopback core and both membership meshes): a
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
}
