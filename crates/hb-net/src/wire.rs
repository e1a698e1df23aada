//! The length-prefixed wire format for heartbeat frames.
//!
//! Every frame starts with a `len` prefix (u16 LE, counting everything
//! after the two length bytes), a version byte and a kind byte; the rest
//! of the body depends on the kind:
//!
//! ```text
//! beat / control (6 bytes):
//! +---------+---------+------+----------+---------+-------+
//! | len u16 | version | kind | src u16  | payload | epoch |
//! |  (LE)   |  (= 3)  | u8   |  (LE)    |  u8     |  u8   |
//! +---------+---------+------+----------+---------+-------+
//!
//! view / state-reply (11 + 3·count bytes):
//! +---------+---------+------+---------+-------------+-----------+-------+------------------------+
//! | len u16 | version | kind | src u16 | view_no u32 | coord u16 | count | (pid u16, bar u8) × n  |
//! +---------+---------+------+---------+-------------+-----------+-------+------------------------+
//!
//! state-request (9 bytes):
//! +---------+---------+------+---------+-------+-------------+
//! | len u16 | version | kind | src u16 | epoch | view_no u32 |
//! +---------+---------+------+---------+-------+-------------+
//! ```
//!
//! Version 2 appended the epoch byte for the §7 rejoin protocol; version
//! 3 added the membership kinds (view change, state request, state reply)
//! for the `hb-member` layer. Version-1 and version-2 frames are rejected
//! with [`DecodeError::Version`] rather than misparsed — the version byte
//! is checked before anything else in the body. The same encoding is used
//! for UDP datagrams (exactly one frame per datagram) and would frame a
//! byte stream unchanged; [`Frame::decode`] returns the number of bytes
//! consumed for that purpose.
//!
//! Decoding is total: any byte sequence produces either a frame or a
//! [`DecodeError`] — never a panic and never an out-of-bounds read. Frames
//! claiming more than [`MAX_FRAME`] bytes are rejected before any
//! allocation, so a hostile peer cannot make a receiver buffer unbounded
//! data. View frames are canonical: members strictly ascending, count
//! within [`MAX_VIEW_MEMBERS`](hb_core::MAX_VIEW_MEMBERS), coordinator a
//! member — one frame, one byte string.

use std::fmt;

use hb_core::view::{View, MAX_VIEW_MEMBERS};
use hb_core::{Heartbeat, Pid};

/// Current wire-format version, carried in every frame. Version 2 added
/// the trailing epoch byte; version 3 the membership kinds.
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on the `len` field. Beat frames are 6 bytes and a
/// full-capacity view frame is `11 + 3·16 = 59`; the cap bounds what a
/// decoder will accept.
pub const MAX_FRAME: usize = 64;

const KIND_BEAT: u8 = 0;
const KIND_CONTROL: u8 = 1;
const KIND_VIEW: u8 = 2;
const KIND_STATE_REQ: u8 = 3;
const KIND_STATE_REPLY: u8 = 4;

/// Byte length of the body (everything after the length prefix) of a
/// beat or control frame.
const BODY_LEN: usize = 6;
/// Body length of a state-request frame.
const STATE_REQ_LEN: usize = 9;
/// Body length of a view / state-reply frame naming `count` members.
const fn view_len(count: usize) -> usize {
    11 + 3 * count
}

/// Out-of-band commands for fault injection and lifecycle control.
///
/// Control frames share the heartbeat wire format so the same codec, the
/// same sockets and the same fuzz-resistance arguments cover them, but
/// they are *not* protocol messages: loopback transports deliver them
/// instantly and losslessly, and they bypass the message counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// Voluntarily inactivate the receiving process (fault injection).
    Crash,
    /// Ask a dynamic-protocol participant to leave at the next beat.
    Leave,
    /// Stop the receiving node's run loop.
    Shutdown,
    /// Restart a crashed participant with a fresh epoch (§7 rejoin).
    Revive,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Command::Crash => "crash",
            Command::Leave => "leave",
            Command::Shutdown => "shutdown",
            Command::Revive => "revive",
        })
    }
}

/// One wire frame: a protocol heartbeat or a control command, stamped
/// with the sender's pid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Frame {
    /// A protocol heartbeat from `src`.
    Beat {
        /// Sending process.
        src: Pid,
        /// The heartbeat payload.
        hb: Heartbeat,
    },
    /// An out-of-band control command from `src`.
    Control {
        /// Sending process (by convention an out-of-band injector pid).
        src: Pid,
        /// The command.
        cmd: Command,
    },
    /// A membership view announcement (install or re-assert) from `src`.
    ViewChange {
        /// Announcing process (the view's coordinator, normally).
        src: Pid,
        /// The view being announced.
        view: View,
    },
    /// A joiner (or demoted ex-coordinator) asking the coordinator for
    /// the current view.
    StateRequest {
        /// Requesting process.
        src: Pid,
        /// The requester's incarnation epoch (becomes its bar on admit).
        epoch: u8,
        /// The requester's last known view number, so a coordinator can
        /// tell a cold joiner from a stale straggler.
        view_no: u32,
    },
    /// The coordinator's state-transfer reply carrying the current view.
    StateReply {
        /// Replying coordinator.
        src: Pid,
        /// The current view.
        view: View,
    },
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the length prefix promises (or no prefix at all).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown wire-format version.
    Version(u8),
    /// Unknown frame kind.
    Kind(u8),
    /// A payload byte outside its valid range.
    Payload,
    /// The length prefix promises more bytes than the frame kind defines.
    Trailing,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::Oversized(n) => write!(f, "frame length {n} exceeds cap {MAX_FRAME}"),
            DecodeError::Version(v) => write!(f, "unknown wire version {v}"),
            DecodeError::Kind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Payload => write!(f, "invalid payload byte"),
            DecodeError::Trailing => write!(f, "trailing bytes inside frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Frame {
    /// A heartbeat frame.
    pub fn beat(src: Pid, hb: Heartbeat) -> Self {
        Frame::Beat { src, hb }
    }

    /// A control frame.
    pub fn control(src: Pid, cmd: Command) -> Self {
        Frame::Control { src, cmd }
    }

    /// A view-change frame.
    pub fn view_change(src: Pid, view: View) -> Self {
        Frame::ViewChange { src, view }
    }

    /// A state-request frame.
    pub fn state_request(src: Pid, epoch: u8, view_no: u32) -> Self {
        Frame::StateRequest {
            src,
            epoch,
            view_no,
        }
    }

    /// A state-reply frame.
    pub fn state_reply(src: Pid, view: View) -> Self {
        Frame::StateReply { src, view }
    }

    /// The sending process.
    pub fn src(&self) -> Pid {
        match *self {
            Frame::Beat { src, .. }
            | Frame::Control { src, .. }
            | Frame::ViewChange { src, .. }
            | Frame::StateRequest { src, .. }
            | Frame::StateReply { src, .. } => src,
        }
    }

    /// Encode into a fresh buffer (length prefix included).
    ///
    /// Hot paths should prefer [`encode_into`](Self::encode_into), which
    /// reuses a caller-owned buffer instead of allocating per frame.
    ///
    /// # Panics
    ///
    /// Panics if a pid the frame names does not fit in a `u16` — the wire
    /// format caps a cluster at 65535 participants.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + view_len(MAX_VIEW_MEMBERS));
        self.encode_into(&mut out);
        out
    }

    /// Encode into `out`, clearing it first (length prefix included).
    ///
    /// The buffer is caller-owned scratch: any previous contents are
    /// discarded, and after the call `out` holds exactly the encoded
    /// frame — byte-for-byte what [`encode`](Self::encode) returns. A
    /// sender broadcasting one frame to many peers encodes once and
    /// writes the same buffer to each.
    ///
    /// # Panics
    ///
    /// Panics if a pid the frame names does not fit in a `u16` — the wire
    /// format caps a cluster at 65535 participants.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        #[expect(
            clippy::expect_used,
            reason = "the documented panic; UdpTransport::send, where a config's pid reaches the wire, refuses it with InvalidInput first"
        )]
        self.try_encode_into(out)
            .expect("pid must fit the u16 wire field");
    }

    /// [`encode_into`](Self::encode_into), or the first pid too wide for
    /// the u16 wire field, leaving `out` untouched.
    pub(crate) fn try_encode_into(&self, out: &mut Vec<u8>) -> Result<(), Pid> {
        let wire_pid = |pid: Pid| u16::try_from(pid).map(u16::to_le_bytes).map_err(|_| pid);
        // The first write: a frame's other pids are checked before it runs.
        let header = |out: &mut Vec<u8>, body_len: usize, kind: u8, src: Pid| -> Result<(), Pid> {
            let src = wire_pid(src)?;
            out.clear();
            out.extend_from_slice(&(body_len as u16).to_le_bytes());
            out.push(WIRE_VERSION);
            out.push(kind);
            out.extend_from_slice(&src);
            Ok(())
        };
        let view_body = |out: &mut Vec<u8>, kind: u8, src: Pid, view: &View| -> Result<(), Pid> {
            let coordinator = wire_pid(view.coordinator)?;
            header(out, view_len(view.len()), kind, src)?;
            out.extend_from_slice(&view.view_no.to_le_bytes());
            out.extend_from_slice(&coordinator);
            out.push(view.len() as u8);
            for (pid, bar) in view.entries() {
                // A view stores its members as `u16`: the cast is lossless.
                out.extend_from_slice(&(pid as u16).to_le_bytes());
                out.push(bar);
            }
            Ok(())
        };
        match *self {
            Frame::Beat { src, hb } => {
                header(out, BODY_LEN, KIND_BEAT, src)?;
                out.push(u8::from(hb.flag));
                out.push(hb.epoch);
            }
            Frame::Control { src, cmd } => {
                header(out, BODY_LEN, KIND_CONTROL, src)?;
                out.push(match cmd {
                    Command::Crash => 0,
                    Command::Leave => 1,
                    Command::Shutdown => 2,
                    Command::Revive => 3,
                });
                out.push(0);
            }
            Frame::ViewChange { src, ref view } => view_body(out, KIND_VIEW, src, view)?,
            Frame::StateReply { src, ref view } => view_body(out, KIND_STATE_REPLY, src, view)?,
            Frame::StateRequest {
                src,
                epoch,
                view_no,
            } => {
                header(out, STATE_REQ_LEN, KIND_STATE_REQ, src)?;
                out.push(epoch);
                out.extend_from_slice(&view_no.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Decode one frame from the front of `buf`; on success also returns
    /// the total number of bytes consumed (prefix included), so a stream
    /// reader can advance past the frame.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
        let Some(prefix) = buf.get(..2) else {
            return Err(DecodeError::Truncated);
        };
        let len = usize::from(u16::from_le_bytes([prefix[0], prefix[1]]));
        if len > MAX_FRAME {
            return Err(DecodeError::Oversized(len));
        }
        let Some(body) = buf.get(2..2 + len) else {
            return Err(DecodeError::Truncated);
        };
        // The version byte is authoritative before any layout assumption:
        // a version-1 frame is shorter than BODY_LEN and must surface as a
        // version mismatch, not as a truncation artefact.
        match body.first() {
            None => return Err(DecodeError::Truncated),
            Some(&v) if v != WIRE_VERSION => return Err(DecodeError::Version(v)),
            Some(_) => {}
        }
        if len < 4 {
            return Err(DecodeError::Truncated);
        }
        let kind = body[1];
        let src = Pid::from(u16::from_le_bytes([body[2], body[3]]));
        // Body length is per-kind: too few bytes is a truncation, too
        // many is trailing garbage inside the frame.
        let fixed = |want: usize| match len {
            l if l < want => Err(DecodeError::Truncated),
            l if l > want => Err(DecodeError::Trailing),
            _ => Ok(()),
        };
        let decode_view = || -> Result<View, DecodeError> {
            if len < view_len(0) {
                return Err(DecodeError::Truncated);
            }
            let view_no = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
            let coordinator = Pid::from(u16::from_le_bytes([body[8], body[9]]));
            let count = usize::from(body[10]);
            if count > MAX_VIEW_MEMBERS {
                return Err(DecodeError::Payload);
            }
            fixed(view_len(count))?;
            let mut entries = Vec::with_capacity(count);
            for i in 0..count {
                let off = view_len(i);
                let pid = Pid::from(u16::from_le_bytes([body[off], body[off + 1]]));
                let bar = body[off + 2];
                // Canonical encoding: strictly ascending member pids.
                if let Some(&(prev, _)) = entries.last() {
                    if pid <= prev {
                        return Err(DecodeError::Payload);
                    }
                }
                entries.push((pid, bar));
            }
            if !entries.iter().any(|&(p, _)| p == coordinator) {
                return Err(DecodeError::Payload);
            }
            Ok(View::new(view_no, coordinator, &entries))
        };
        let frame = match kind {
            KIND_BEAT => {
                fixed(BODY_LEN)?;
                Frame::Beat {
                    src,
                    hb: match body[4] {
                        0 => Heartbeat::leave().with_epoch(body[5]),
                        1 => Heartbeat::plain().with_epoch(body[5]),
                        _ => return Err(DecodeError::Payload),
                    },
                }
            }
            KIND_CONTROL => {
                fixed(BODY_LEN)?;
                if body[5] != 0 {
                    // Control frames carry no epoch; a nonzero byte keeps
                    // the encoding canonical (one frame, one byte string).
                    return Err(DecodeError::Payload);
                }
                Frame::Control {
                    src,
                    cmd: match body[4] {
                        0 => Command::Crash,
                        1 => Command::Leave,
                        2 => Command::Shutdown,
                        3 => Command::Revive,
                        _ => return Err(DecodeError::Payload),
                    },
                }
            }
            KIND_VIEW => Frame::ViewChange {
                src,
                view: decode_view()?,
            },
            KIND_STATE_REPLY => Frame::StateReply {
                src,
                view: decode_view()?,
            },
            KIND_STATE_REQ => {
                fixed(STATE_REQ_LEN)?;
                Frame::StateRequest {
                    src,
                    epoch: body[4],
                    view_no: u32::from_le_bytes([body[5], body[6], body[7], body[8]]),
                }
            }
            k => return Err(DecodeError::Kind(k)),
        };
        Ok((frame, 2 + len))
    }

    /// Decode a datagram that must contain exactly one frame — trailing
    /// bytes after the frame are rejected.
    pub fn decode_datagram(buf: &[u8]) -> Result<Frame, DecodeError> {
        let (frame, consumed) = Frame::decode(buf)?;
        if consumed != buf.len() {
            return Err(DecodeError::Trailing);
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_variant() {
        let frames = [
            Frame::beat(0, Heartbeat::plain()),
            Frame::beat(7, Heartbeat::leave()),
            Frame::beat(usize::from(u16::MAX), Heartbeat::plain()),
            Frame::beat(4, Heartbeat::plain().with_epoch(1)),
            Frame::beat(4, Heartbeat::leave().with_epoch(u8::MAX)),
            Frame::control(3, Command::Crash),
            Frame::control(0, Command::Leave),
            Frame::control(9, Command::Shutdown),
            Frame::control(9, Command::Revive),
            Frame::view_change(1, View::genesis(3)),
            Frame::view_change(2, View::new(7, 2, &[(2, 1), (5, 0), (9, 3)])),
            Frame::state_request(4, 2, 7),
            Frame::state_reply(0, View::new(u32::MAX, 0, &[(0, 0)])),
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(Frame::decode_datagram(&bytes), Ok(f), "{f:?}");
            assert_eq!(Frame::decode(&bytes), Ok((f, bytes.len())));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = Frame::beat(1, Heartbeat::plain()).encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_reading() {
        let mut bytes = vec![0u8; 4];
        bytes[..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::Oversized(usize::from(u16::MAX)))
        );
    }

    #[test]
    fn bad_version_kind_and_payload_are_rejected() {
        let good = Frame::beat(1, Heartbeat::plain()).encode();
        let mut v = good.clone();
        v[2] = 99;
        assert_eq!(Frame::decode(&v), Err(DecodeError::Version(99)));
        let mut k = good.clone();
        k[3] = 42;
        assert_eq!(Frame::decode(&k), Err(DecodeError::Kind(42)));
        let mut p = good.clone();
        p[6] = 2;
        assert_eq!(Frame::decode(&p), Err(DecodeError::Payload));
    }

    #[test]
    fn trailing_bytes_rejected_in_datagrams() {
        let mut bytes = Frame::beat(1, Heartbeat::plain()).encode();
        bytes.push(0);
        assert_eq!(Frame::decode_datagram(&bytes), Err(DecodeError::Trailing));
        // Stream decoding, by contrast, just reports the consumed length.
        let (f, n) = Frame::decode(&bytes).unwrap();
        assert_eq!(f, Frame::beat(1, Heartbeat::plain()));
        assert_eq!(n, bytes.len() - 1);
    }

    #[test]
    fn inflated_length_prefix_is_trailing() {
        let mut bytes = Frame::beat(1, Heartbeat::plain()).encode();
        bytes[..2].copy_from_slice(&7u16.to_le_bytes());
        bytes.push(0); // make the promised bytes available
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::Trailing));
    }

    #[test]
    fn view_frames_round_trip_at_full_capacity() {
        let entries: Vec<(Pid, u8)> = (0..MAX_VIEW_MEMBERS).map(|p| (p, p as u8)).collect();
        let f = Frame::view_change(0, View::new(3, 0, &entries));
        let bytes = f.encode();
        assert!(bytes.len() <= 2 + MAX_FRAME, "full view fits the cap");
        assert_eq!(Frame::decode_datagram(&bytes), Ok(f));
    }

    #[test]
    fn non_canonical_view_frames_are_rejected() {
        let base = Frame::view_change(1, View::new(2, 1, &[(1, 0), (3, 0)])).encode();
        // Unsorted members: swap the two member pid fields.
        let mut unsorted = base.clone();
        unsorted[13..15].copy_from_slice(&3u16.to_le_bytes());
        unsorted[16..18].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(Frame::decode(&unsorted), Err(DecodeError::Payload));
        // Coordinator outside the member list.
        let mut orphan = base.clone();
        orphan[10..12].copy_from_slice(&9u16.to_le_bytes());
        assert_eq!(Frame::decode(&orphan), Err(DecodeError::Payload));
        // Member count over the capacity cap.
        let mut oversize = base.clone();
        oversize[12] = MAX_VIEW_MEMBERS as u8 + 1;
        assert_eq!(Frame::decode(&oversize), Err(DecodeError::Payload));
        // Count that disagrees with the length prefix.
        let mut short = base;
        short[12] = 1;
        assert_eq!(Frame::decode(&short), Err(DecodeError::Trailing));
    }

    #[test]
    fn version_one_frames_are_rejected_as_version_not_truncated() {
        // A well-formed v1 frame: 5-byte body, no epoch.
        let v1 = [5u8, 0, 1, KIND_BEAT, 1, 0, 1];
        assert_eq!(Frame::decode(&v1), Err(DecodeError::Version(1)));
        // Even a v1 *control* frame fails on version before anything else.
        let v1c = [5u8, 0, 1, KIND_CONTROL, 9, 0, 2];
        assert_eq!(Frame::decode(&v1c), Err(DecodeError::Version(1)));
    }

    #[test]
    fn version_two_frames_are_rejected_as_version() {
        // A well-formed pre-membership v2 beat frame (6-byte body).
        let v2 = [6u8, 0, 2, KIND_BEAT, 1, 0, 1, 0];
        assert_eq!(Frame::decode(&v2), Err(DecodeError::Version(2)));
    }

    #[test]
    fn epoch_survives_the_round_trip() {
        for epoch in [0u8, 1, 7, 255] {
            let f = Frame::beat(2, Heartbeat::plain().with_epoch(epoch));
            let bytes = f.encode();
            let (decoded, _) = Frame::decode(&bytes).unwrap();
            match decoded {
                Frame::Beat { hb, .. } => assert_eq!(hb.epoch, epoch),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn control_frames_with_nonzero_epoch_byte_are_rejected() {
        let mut bytes = Frame::control(3, Command::Revive).encode();
        *bytes.last_mut().unwrap() = 1;
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::Payload));
    }

    #[test]
    fn a_too_wide_pid_is_refused_and_the_buffer_kept() {
        let wide = usize::from(u16::MAX) + 1;
        let mut view = View::genesis(3);
        view.coordinator = wide;
        let mut out = Frame::beat(1, Heartbeat::plain()).encode();
        let kept = out.clone();
        for f in [
            Frame::beat(wide, Heartbeat::plain()),
            Frame::state_request(wide, 0, 1),
            Frame::view_change(1, view),
            Frame::state_reply(1, view),
        ] {
            assert_eq!(f.try_encode_into(&mut out), Err(wide), "{f:?}");
            assert_eq!(out, kept, "{f:?}");
        }
    }

    #[test]
    #[should_panic(expected = "u16 wire field")]
    fn oversized_pid_panics_on_encode() {
        Frame::beat(usize::from(u16::MAX) + 1, Heartbeat::plain()).encode();
    }
}
