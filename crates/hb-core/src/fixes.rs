//! The protocol corrections proposed after model checking (Atif & Mousavi
//! §6).
//!
//! Model checking the original protocols finds every natural requirement
//! violated somewhere in the parameter space (the paper's Tables 1 and 2).
//! Two orthogonal corrections repair them:
//!
//! 1. **Receive priority** (§6.1): when a heartbeat delivery and a timeout
//!    are enabled at the same instant, the delivery must be processed
//!    first. Without this, a process can inactivate itself at the exact
//!    moment an on-time heartbeat arrives (the paper's Figures 11/12).
//! 2. **Corrected time bounds** (§6.2): the coordinator's detection bound
//!    claimed by the original paper (`2·tmax`) is wrong when
//!    `2·tmin ≤ tmax`, and the participants' `3·tmax − tmin` timeout is
//!    wrong (too short) for the expanding/dynamic join phase and
//!    needlessly loose for binary/static. See
//!    [`Params`](crate::Params) for the corrected formulas.

use std::fmt;

/// Which of the §6 corrections are applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FixLevel {
    /// The protocols exactly as published in 1998/2004.
    Original,
    /// Only the §6.1 receive-over-timeout priority.
    ReceivePriority,
    /// Only the §6.2 corrected time bounds.
    CorrectedBounds,
    /// Both corrections — the fully repaired protocols, which satisfy all
    /// requirements on every data set.
    Full,
}

impl FixLevel {
    /// All fix levels, in increasing order of repair.
    pub const ALL: [FixLevel; 4] = [
        FixLevel::Original,
        FixLevel::ReceivePriority,
        FixLevel::CorrectedBounds,
        FixLevel::Full,
    ];

    /// Whether message deliveries take priority over simultaneous
    /// timeouts.
    pub fn receive_priority(self) -> bool {
        matches!(self, FixLevel::ReceivePriority | FixLevel::Full)
    }

    /// Whether the corrected inactivation bounds are used.
    pub fn corrected_bounds(self) -> bool {
        matches!(self, FixLevel::CorrectedBounds | FixLevel::Full)
    }

    /// Whether the §7 epoch-tagged rejoin protocol is active in the
    /// runtimes: the coordinator filters beats from superseded
    /// incarnations behind a per-participant epoch bar, and participants
    /// re-enter the join phase with a fresh epoch after a restart.
    ///
    /// Rejoin presupposes *both* §6 corrections (its watchdog-bound
    /// analysis assumes receive priority and the corrected bounds), so it
    /// rides on [`FixLevel::Full`] only; every other level keeps the
    /// naive behaviour where stale beats are admitted as if fresh.
    pub fn epoch_rejoin(self) -> bool {
        matches!(self, FixLevel::Full)
    }

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FixLevel::Original => "original",
            FixLevel::ReceivePriority => "receive-priority",
            FixLevel::CorrectedBounds => "corrected-bounds",
            FixLevel::Full => "full-fix",
        }
    }

    /// The fix level with this [`name`](Self::name); the error lists the
    /// names there are.
    pub fn from_name(s: &str) -> Result<FixLevel, String> {
        Self::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let known = Self::ALL.map(Self::name).join(", ");
                format!("unknown fix level \"{s}\" (one of: {known})")
            })
    }
}

impl fmt::Display for FixLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_per_level() {
        assert!(!FixLevel::Original.receive_priority());
        assert!(!FixLevel::Original.corrected_bounds());
        assert!(FixLevel::ReceivePriority.receive_priority());
        assert!(!FixLevel::ReceivePriority.corrected_bounds());
        assert!(!FixLevel::CorrectedBounds.receive_priority());
        assert!(FixLevel::CorrectedBounds.corrected_bounds());
        assert!(FixLevel::Full.receive_priority());
        assert!(FixLevel::Full.corrected_bounds());
        // §7 rejoin requires both §6 corrections.
        for f in FixLevel::ALL {
            assert_eq!(
                f.epoch_rejoin(),
                f.receive_priority() && f.corrected_bounds(),
                "{f}"
            );
        }
    }

    #[test]
    fn all_levels_distinct_names() {
        let names: std::collections::HashSet<_> = FixLevel::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn names_parse_back_and_unknown_ones_list_the_table() {
        for f in FixLevel::ALL {
            assert_eq!(FixLevel::from_name(f.name()), Ok(f));
        }
        let e = FixLevel::from_name("full").unwrap_err();
        assert!(
            e.contains("fix level \"full\"") && e.contains("full-fix"),
            "{e}"
        );
    }
}
