//! Time: mapping the protocols' discrete ticks onto real or virtual
//! time.
//!
//! The `hb-core` machines count in abstract unit ticks (the same unit as
//! [`Params`](hb_core::Params)). [`WallClock`] pins tick 0 to a real
//! instant and advances with wall time (the digital-clock semantics of the
//! verification models, run live). Deterministic harnesses read no clock:
//! they hand each node its tick, through a [`SkewedClock`] where a node's
//! clock drifts.

use std::time::{Duration, Instant};

/// Discrete protocol time, in ticks. Identical to the simulator's
/// [`hb_sim::channel::Time`].
pub type Time = u64;

/// A wall-clock time source: tick `t` begins `t × tick` after creation.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    tick: Duration,
}

impl WallClock {
    /// Start counting ticks of length `tick` from now.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick length must be positive");
        WallClock {
            start: Instant::now(),
            tick,
        }
    }

    /// The tick length.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// The current tick.
    pub fn now(&self) -> Time {
        (self.start.elapsed().as_nanos() / self.tick.as_nanos()) as Time
    }

    /// Real-time duration from now until tick `t` begins (zero if `t` is
    /// already past).
    pub fn until(&self, t: Time) -> Duration {
        let deadline = self.start + self.tick.saturating_mul(t.min(u64::from(u32::MAX)) as u32);
        deadline.saturating_duration_since(Instant::now())
    }
}

/// A clock running at a rational multiple of true time, plus a fixed
/// offset: local tick = `offset + t·num/den`. This is how per-node clock
/// drift and skew are injected into the live runtime — a node polled at
/// its `SkewedClock` reading observes deadlines early (fast clock,
/// `num > den`) or late (slow clock), while the rest of the cluster keeps
/// true time.
#[derive(Clone, Copy, Debug)]
pub struct SkewedClock {
    offset: Time,
    num: u64,
    den: u64,
}

impl SkewedClock {
    /// A clock `offset` ticks ahead, running at `num/den` of true time.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero (a stopped clock hangs a node).
    pub fn new(offset: Time, num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "skew rate must be positive");
        SkewedClock { offset, num, den }
    }

    /// Map a true tick onto this clock's local tick.
    pub fn map(&self, t: Time) -> Time {
        self.offset + t.saturating_mul(self.num) / self.den
    }

    /// The inverse of [`map`](Self::map): the least true tick whose local
    /// reading is `local` or later (0 if the offset alone gets there).
    /// `map` floors `t·num/den`, so this is the ceiling of
    /// `(local − offset)·den/num`.
    pub fn first_reaching(&self, local: Time) -> Time {
        let ahead = u128::from(local.saturating_sub(self.offset));
        let (num, den) = (u128::from(self.num), u128::from(self.den));
        Time::try_from((ahead * den).div_ceil(num)).unwrap_or(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances_with_real_time() {
        let c = WallClock::new(Duration::from_millis(1));
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(10));
        assert!(c.now() >= t0 + 5, "clock must have advanced several ticks");
        // A far-future tick is a positive wait; a past tick is zero.
        assert!(c.until(1_000_000) > Duration::ZERO);
        assert_eq!(c.until(0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_is_rejected() {
        WallClock::new(Duration::ZERO);
    }

    #[test]
    fn skewed_clock_runs_fast_slow_and_offset() {
        assert_eq!(SkewedClock::new(0, 3, 2).map(100), 150);
        assert_eq!(SkewedClock::new(0, 1, 2).map(100), 50);
        assert_eq!(SkewedClock::new(10, 1, 1).map(100), 110);
    }

    /// Every clock with an offset up to 5 and a rate of `num/den` up to
    /// 8 in either part, at every local tick up to 64: the tick the
    /// inverse names reaches it, and the tick before does not.
    #[test]
    fn first_reaching_is_the_least_tick_that_reaches() {
        for offset in 0..=5 {
            for num in 1..=8 {
                for den in 1..=8 {
                    let clock = SkewedClock::new(offset, num, den);
                    for local in 0..=64 {
                        let t = clock.first_reaching(local);
                        let cell = format!("{offset} + t·{num}/{den} reaching {local}");
                        assert!(clock.map(t) >= local, "{cell}: {t} does not");
                        assert!(t == 0 || clock.map(t - 1) < local, "{cell}: {t} is late");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "skew rate")]
    fn zero_skew_rate_is_rejected() {
        SkewedClock::new(0, 0, 1);
    }
}
