//! The six protocol variants and their structural properties.

use std::fmt;

/// Which accelerated heartbeat protocol is being run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// Two processes `p[0]`, `p[1]`; `p[0]` waits a full initial round
    /// before its first beat (Gouda & McGuire '98 §2.1).
    Binary,
    /// Binary, but `p[0]` sends its first heartbeat immediately at start
    /// (McGuire & Gouda, *The Austin Protocol Compiler*, 2004).
    RevisedBinary,
    /// Binary, but a silent round drops the waiting time straight to
    /// `tmin` instead of halving ('98 §2.1).
    ///
    /// The original paper does not specify the coordinator's inactivation
    /// condition for this variant; following Atif & Mousavi (who report
    /// verdicts identical to the binary protocol) we keep the binary
    /// condition — inactivate when `t/2 < tmin` — and jump to `tmin`
    /// otherwise.
    TwoPhase,
    /// A fixed, a-priori-known set of `n` participants, each running the
    /// binary exchange with `p[0]`; `p[0]`'s round length is the minimum
    /// of the per-participant waiting times ('98 §2.2).
    Static,
    /// Participants may join at runtime by sending heartbeats every `tmin`
    /// until `p[0]`'s beat confirms the join ('98 §2.3).
    Expanding,
    /// Participants may join and permanently leave; heartbeats carry a
    /// boolean join/leave flag ('98 §2.4).
    Dynamic,
}

impl Variant {
    /// All variants, in presentation order.
    pub const ALL: [Variant; 6] = [
        Variant::Binary,
        Variant::RevisedBinary,
        Variant::TwoPhase,
        Variant::Static,
        Variant::Expanding,
        Variant::Dynamic,
    ];

    /// The variants covered by the paper's Table 1 (identical verdicts).
    pub const TABLE1: [Variant; 4] = [
        Variant::Binary,
        Variant::RevisedBinary,
        Variant::TwoPhase,
        Variant::Static,
    ];

    /// The variants covered by the paper's Table 2.
    pub const TABLE2: [Variant; 2] = [Variant::Expanding, Variant::Dynamic];

    /// Whether the coordinator's first beat goes out immediately at start
    /// rather than after an initial `tmax` wait.
    pub fn initial_send_immediate(self) -> bool {
        matches!(self, Variant::RevisedBinary)
    }

    /// Whether participants start outside the protocol and must join by
    /// sending heartbeats (expanding and dynamic).
    pub fn has_join_phase(self) -> bool {
        matches!(self, Variant::Expanding | Variant::Dynamic)
    }

    /// Whether participants may leave (dynamic only).
    pub fn supports_leave(self) -> bool {
        matches!(self, Variant::Dynamic)
    }

    /// Whether a silent round jumps straight to `tmin` (two-phase) rather
    /// than halving.
    pub fn two_phase_step(self) -> bool {
        matches!(self, Variant::TwoPhase)
    }

    /// Whether the variant is one of the two-process shapes, pinned to a
    /// single participant (`CoordSpec::new` asserts `n == 1` for these).
    pub fn is_two_process(self) -> bool {
        matches!(
            self,
            Variant::Binary | Variant::RevisedBinary | Variant::TwoPhase
        )
    }

    /// A short lowercase name (used in reports and bench output).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Binary => "binary",
            Variant::RevisedBinary => "revised-binary",
            Variant::TwoPhase => "two-phase",
            Variant::Static => "static",
            Variant::Expanding => "expanding",
            Variant::Dynamic => "dynamic",
        }
    }

    /// The variant with this [`name`](Self::name); the error lists the
    /// names there are.
    pub fn from_name(s: &str) -> Result<Variant, String> {
        Self::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| {
                let known = Self::ALL.map(Self::name).join(", ");
                format!("unknown variant \"{s}\" (one of: {known})")
            })
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_properties() {
        assert!(Variant::RevisedBinary.initial_send_immediate());
        assert!(!Variant::Binary.initial_send_immediate());
        assert!(Variant::Expanding.has_join_phase());
        assert!(Variant::Dynamic.has_join_phase());
        assert!(!Variant::Static.has_join_phase());
        assert!(Variant::Dynamic.supports_leave());
        assert!(!Variant::Expanding.supports_leave());
        assert!(Variant::TwoPhase.two_phase_step());
        assert!(!Variant::Binary.two_phase_step());
    }

    #[test]
    fn table_partitions_cover_all() {
        let mut all: Vec<Variant> = Variant::TABLE1.to_vec();
        all.extend(Variant::TABLE2);
        assert_eq!(all.len(), Variant::ALL.len());
        for v in Variant::ALL {
            assert!(all.contains(&v));
        }
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), Variant::ALL.len());
    }

    #[test]
    fn names_parse_back_and_unknown_ones_list_the_table() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Ok(v));
        }
        let e = Variant::from_name("bin").unwrap_err();
        assert!(
            e.contains("variant \"bin\"") && e.contains("revised-binary"),
            "{e}"
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Variant::TwoPhase.to_string(), "two-phase");
    }
}
