//! Timing parameters of the protocols and the derived detection bounds.

use std::error::Error;
use std::fmt;

use crate::variant::Variant;

/// The two timing constants every accelerated heartbeat protocol is
/// parameterized by.
///
/// * `tmax` — the steady-state waiting time between coordinator rounds.
/// * `tmin` — both the lower bound on round length (a round shorter than
///   `tmin` inactivates the coordinator) *and* the upper bound on the
///   round-trip channel delay between `p[0]` and any `p[i]`.
///
/// The only constraint stated in the paper is `0 < tmin ≤ tmax`.
///
/// # Example
///
/// ```
/// use hb_core::Params;
/// let p = Params::new(1, 10)?;
/// assert_eq!(p.tmin(), 1);
/// assert_eq!(p.tmax(), 10);
/// assert!(Params::new(0, 10).is_err());
/// assert!(Params::new(11, 10).is_err());
/// # Ok::<(), hb_core::params::ParamsError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Params {
    tmin: u32,
    tmax: u32,
}

/// Error constructing [`Params`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// `tmin` must be strictly positive.
    ZeroTmin,
    /// `tmin` must not exceed `tmax`.
    TminAboveTmax {
        /// The offending `tmin`.
        tmin: u32,
        /// The offending `tmax`.
        tmax: u32,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::ZeroTmin => write!(f, "tmin must be strictly positive"),
            ParamsError::TminAboveTmax { tmin, tmax } => {
                write!(f, "tmin ({tmin}) must not exceed tmax ({tmax})")
            }
        }
    }
}

impl Error for ParamsError {}

impl Params {
    /// Validate and construct timing parameters.
    ///
    /// `tmin == tmax` is legal — the paper requires only
    /// `0 < tmin ≤ tmax`. The degenerate point (no acceleration: the
    /// halving chain is a single round) is exactly where the original
    /// protocols violate R2/R3 (Fig 12), so generators and regression
    /// seeds deliberately include it; see
    /// `tests/cross_validation.proptest-regressions` and the promoted
    /// `regression_tmin_eq_tmax_*` tests.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] unless `0 < tmin <= tmax`.
    pub fn new(tmin: u32, tmax: u32) -> Result<Self, ParamsError> {
        if tmin == 0 {
            return Err(ParamsError::ZeroTmin);
        }
        if tmin > tmax {
            return Err(ParamsError::TminAboveTmax { tmin, tmax });
        }
        Ok(Self { tmin, tmax })
    }

    /// Lower bound on round length / upper bound on round-trip delay.
    pub fn tmin(&self) -> u32 {
        self.tmin
    }

    /// Steady-state round length.
    pub fn tmax(&self) -> u32 {
        self.tmax
    }

    /// The acceleration step: integer halving, as in the paper's
    /// `t div 2`.
    pub fn halve(t: u32) -> u32 {
        t / 2
    }

    /// Number of *consecutive* silent rounds after which the coordinator
    /// inactivates, starting from a `tmax` round: the length of the chain
    /// `tmax, tmax/2, …` truncated at the first value `< tmin`
    /// (`⌊log₂(tmax/tmin)⌋ + 1` up to integer-division effects).
    ///
    /// This is also the number of consecutive *lost* heartbeats needed for
    /// a false inactivation, i.e. the protocol's reliability exponent.
    pub fn silent_rounds_to_inactivation(&self) -> u32 {
        let mut t = self.tmax;
        let mut rounds = 0;
        loop {
            rounds += 1;
            t = Self::halve(t);
            if t < self.tmin {
                return rounds;
            }
        }
    }

    /// Total time spent in the halving chain `tmax + tmax/2 + …` down to
    /// (excluding) the first value `< tmin`.
    pub fn halving_chain_duration(&self) -> u32 {
        let mut t = self.tmax;
        let mut total = 0;
        loop {
            total += t;
            t = Self::halve(t);
            if t < self.tmin {
                return total;
            }
        }
    }

    /// The detection bound for the coordinator **claimed** by the original
    /// paper: `p[0]` becomes inactive within `2·tmax` of the last heartbeat
    /// it receives. Model checking (requirement R1) shows this claim false
    /// whenever `2·tmin ≤ tmax`.
    pub fn p0_bound_claimed(&self) -> u32 {
        2 * self.tmax
    }

    /// The **corrected** coordinator detection bound of Atif & Mousavi
    /// §6.2, per variant:
    ///
    /// * halving variants: `2·tmax` if `2·tmin > tmax`, else
    ///   `3·tmax − tmin`;
    /// * two-phase: `2·tmax` if `2·tmin > tmax`, else `2·tmax + tmin`
    ///   (the silent chain is `tmax` then `tmin`).
    pub fn p0_bound_corrected(&self, variant: Variant) -> u32 {
        if 2 * self.tmin > self.tmax {
            return 2 * self.tmax;
        }
        match variant {
            Variant::TwoPhase => 2 * self.tmax + self.tmin,
            _ => 3 * self.tmax - self.tmin,
        }
    }

    /// The participant (`p[i]`) inactivation timeout of the **original**
    /// protocols: `3·tmax − tmin` without heartbeats from `p[0]`.
    pub fn responder_bound_original(&self) -> u32 {
        3 * self.tmax - self.tmin
    }

    /// The **corrected** participant timeout of Atif & Mousavi §6.2:
    ///
    /// * binary / revised / two-phase / static: `2·tmax` — a *tighter*
    ///   (earlier-detecting) bound that is still never reached without a
    ///   fault;
    /// * expanding / dynamic: `max(2·tmax + tmin, tmax + 3·tmin)` — the
    ///   original `3·tmax − tmin` is *incorrect* (too small) whenever
    ///   `2·tmin ≥ tmax` because of the join phase.
    ///
    /// AM09's `2·tmax + tmin` assumes every participant starts together
    /// with the coordinator, phase-aligned with its first round. A late
    /// start or a §7 rejoin can begin at any phase of the coordinator's
    /// round, and the worst case grows: the first join beat goes out
    /// `tmin` after the join starts, may ride the channel for `tmin`,
    /// land just after a round timeout, wait up to `tmax` for the next
    /// broadcast, which rides for another `tmin` — `tmax + 3·tmin` in
    /// total, which exceeds `2·tmax + tmin` exactly when `2·tmin > tmax`.
    /// Model checking confirms the maximum is both sufficient and
    /// necessary (`hb-verify`'s `rejoin_cell` tests).
    pub fn responder_bound_corrected(&self, variant: Variant) -> u32 {
        if variant.has_join_phase() {
            (2 * self.tmax + self.tmin).max(self.tmax + 3 * self.tmin)
        } else {
            2 * self.tmax
        }
    }

    /// `tmax/tmin` as a float — the acceleration ratio, i.e. the overhead
    /// advantage over a naive heartbeat with the same worst-case detection.
    pub fn acceleration_ratio(&self) -> f64 {
        f64::from(self.tmax) / f64::from(self.tmin)
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(tmin={}, tmax={})", self.tmin, self.tmax)
    }
}

/// The five data sets of the paper's verification campaign:
/// `tmin ∈ {1, 4, 5, 9, 10}`, `tmax = 10`.
pub const PAPER_DATASETS: [(u32, u32); 5] = [(1, 10), (4, 10), (5, 10), (9, 10), (10, 10)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Params::new(1, 1).is_ok());
        assert_eq!(Params::new(0, 5), Err(ParamsError::ZeroTmin));
        assert_eq!(
            Params::new(6, 5),
            Err(ParamsError::TminAboveTmax { tmin: 6, tmax: 5 })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            Params::new(0, 5).unwrap_err().to_string(),
            "tmin must be strictly positive"
        );
        assert!(Params::new(6, 5)
            .unwrap_err()
            .to_string()
            .contains("must not exceed"));
    }

    #[test]
    fn halving_is_integer_division() {
        assert_eq!(Params::halve(10), 5);
        assert_eq!(Params::halve(5), 2);
        assert_eq!(Params::halve(1), 0);
    }

    #[test]
    fn silent_rounds_matches_log2() {
        // tmax=10, tmin=1: chain 10,5,2,1 -> halve(1)=0 < 1 => 4 rounds.
        assert_eq!(
            Params::new(1, 10).unwrap().silent_rounds_to_inactivation(),
            4
        );
        // tmax=10, tmin=4: chain 10,5 -> halve(5)=2 < 4 => 2 rounds.
        assert_eq!(
            Params::new(4, 10).unwrap().silent_rounds_to_inactivation(),
            2
        );
        // tmin=9: 10 -> 5 < 9 => 1 round.
        assert_eq!(
            Params::new(9, 10).unwrap().silent_rounds_to_inactivation(),
            1
        );
        // tmin=tmax: 1 round.
        assert_eq!(
            Params::new(10, 10).unwrap().silent_rounds_to_inactivation(),
            1
        );
    }

    #[test]
    fn halving_chain_duration_examples() {
        assert_eq!(Params::new(1, 10).unwrap().halving_chain_duration(), 18); // 10+5+2+1
        assert_eq!(Params::new(5, 10).unwrap().halving_chain_duration(), 15); // 10+5
        assert_eq!(Params::new(9, 10).unwrap().halving_chain_duration(), 10);
    }

    #[test]
    fn corrected_p0_bounds() {
        let p = Params::new(1, 10).unwrap();
        assert_eq!(p.p0_bound_corrected(Variant::Binary), 29); // 3*10-1
        assert_eq!(p.p0_bound_corrected(Variant::TwoPhase), 21); // 2*10+1
        let p = Params::new(9, 10).unwrap(); // 2tmin > tmax
        assert_eq!(p.p0_bound_corrected(Variant::Binary), 20);
        assert_eq!(p.p0_bound_corrected(Variant::TwoPhase), 20);
        // boundary 2tmin == tmax counts as the "slow" case
        let p = Params::new(5, 10).unwrap();
        assert_eq!(p.p0_bound_corrected(Variant::Binary), 25);
    }

    #[test]
    fn responder_bounds() {
        let p = Params::new(4, 10).unwrap();
        assert_eq!(p.responder_bound_original(), 26);
        assert_eq!(p.responder_bound_corrected(Variant::Binary), 20);
        assert_eq!(p.responder_bound_corrected(Variant::Expanding), 24);
        assert_eq!(p.responder_bound_corrected(Variant::Dynamic), 24);
        // 2·tmin > tmax: the arbitrary-phase join term takes over.
        let p = Params::new(2, 2).unwrap();
        assert_eq!(p.responder_bound_corrected(Variant::Expanding), 8);
        assert_eq!(p.responder_bound_corrected(Variant::Static), 4);
        let p = Params::new(6, 10).unwrap();
        assert_eq!(p.responder_bound_corrected(Variant::Dynamic), 28);
    }

    #[test]
    fn acceleration_ratio() {
        let p = Params::new(2, 16).unwrap();
        assert!((p.acceleration_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        assert_eq!(Params::new(1, 10).unwrap().to_string(), "(tmin=1, tmax=10)");
    }

    #[test]
    fn paper_datasets_all_valid() {
        for (tmin, tmax) in PAPER_DATASETS {
            assert!(Params::new(tmin, tmax).is_ok());
        }
    }
}
