//! Message and process-status primitives shared by all protocol variants.

use std::fmt;

use crate::json::ToJson;

/// Process identifier. `0` is always the coordinator `p[0]`; participants
/// are `1..=n`.
pub type Pid = usize;

/// A heartbeat message.
///
/// All variants except the dynamic protocol send plain heartbeats
/// (`flag = true`). The dynamic protocol overloads the flag: `true` means
/// *join / remain in the protocol*, `false` means *leave* (from a
/// participant) or *leave acknowledged* (from the coordinator).
///
/// The §7 rejoin extension additionally tags every message with the
/// sender's incarnation `epoch`: a participant bumps its epoch on every
/// (re)join, and an epoch-aware coordinator uses the tag to tell a fresh
/// incarnation's beats from stale ones still in flight from a crashed
/// predecessor. The base 1998/2004 protocols ignore the field and always
/// send epoch `0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Heartbeat {
    /// Dynamic-protocol payload; `true` for every other variant.
    pub flag: bool,
    /// Sender incarnation (§7 rejoin); `0` for the base protocols.
    pub epoch: u8,
}

impl Heartbeat {
    /// A plain heartbeat (also the dynamic join/stay beat), epoch 0.
    pub const fn plain() -> Self {
        Heartbeat {
            flag: true,
            epoch: 0,
        }
    }

    /// A dynamic-protocol leave beat / leave acknowledgement, epoch 0.
    pub const fn leave() -> Self {
        Heartbeat {
            flag: false,
            epoch: 0,
        }
    }

    /// The same message re-tagged with `epoch`.
    #[must_use]
    pub const fn with_epoch(self, epoch: u8) -> Self {
        Heartbeat {
            flag: self.flag,
            epoch,
        }
    }
}

impl Default for Heartbeat {
    fn default() -> Self {
        Self::plain()
    }
}

impl fmt::Display for Heartbeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.flag {
            write!(f, "hb")?;
        } else {
            write!(f, "hb(leave)")?;
        }
        if self.epoch > 0 {
            write!(f, "@e{}", self.epoch)?;
        }
        Ok(())
    }
}

/// The liveness status of a process.
///
/// The paper distinguishes *voluntary* inactivation (a crash: a process
/// "chooses to become inactive") from *non-voluntary* inactivation (the
/// protocol shutting a process down after missing heartbeats). Neither is
/// recoverable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Status {
    /// Running the protocol.
    #[default]
    Active,
    /// Voluntarily inactive (crashed). Crashed processes still *receive*
    /// messages (per the paper's channel assumptions) but never react.
    Crashed,
    /// Non-voluntarily inactivated by the protocol itself.
    NvInactive,
}

impl Status {
    /// Whether the process is still running the protocol.
    pub fn is_active(self) -> bool {
        matches!(self, Status::Active)
    }

    /// Whether the process is inactive for any reason.
    pub fn is_inactive(self) -> bool {
        !self.is_active()
    }

    /// Stable lowercase name (run summaries, reports).
    pub fn name(self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::Crashed => "crashed",
            Status::NvInactive => "nv-inactive",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for Status {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_constructors() {
        assert!(Heartbeat::plain().flag);
        assert!(!Heartbeat::leave().flag);
        assert_eq!(Heartbeat::plain().epoch, 0);
        assert_eq!(Heartbeat::leave().epoch, 0);
        assert_eq!(Heartbeat::default(), Heartbeat::plain());
    }

    #[test]
    fn with_epoch_retags_without_touching_the_flag() {
        let hb = Heartbeat::plain().with_epoch(3);
        assert!(hb.flag);
        assert_eq!(hb.epoch, 3);
        let lv = Heartbeat::leave().with_epoch(255);
        assert!(!lv.flag);
        assert_eq!(lv.epoch, 255);
    }

    #[test]
    fn heartbeat_display() {
        assert_eq!(Heartbeat::plain().to_string(), "hb");
        assert_eq!(Heartbeat::leave().to_string(), "hb(leave)");
        assert_eq!(Heartbeat::plain().with_epoch(2).to_string(), "hb@e2");
        assert_eq!(Heartbeat::leave().with_epoch(1).to_string(), "hb(leave)@e1");
    }

    #[test]
    fn status_predicates() {
        assert!(Status::Active.is_active());
        assert!(Status::Crashed.is_inactive());
        assert!(Status::NvInactive.is_inactive());
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::Active.to_string(), "active");
        assert_eq!(Status::Crashed.to_string(), "crashed");
        assert_eq!(Status::NvInactive.to_string(), "nv-inactive");
    }
}
