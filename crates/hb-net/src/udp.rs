//! A UDP transport over `std::net::UdpSocket` (no async runtime).
//!
//! One socket per node, one frame per datagram. Peers are addressed by
//! pid through a routing table that can be pre-configured and is also
//! learned from incoming traffic (a frame carries its sender's pid, so
//! the first join beat teaches the coordinator where a participant
//! lives — no registration step needed for the expanding/dynamic
//! variants).
//!
//! Receiving is fuzz-resistant: datagrams that fail to decode are counted
//! and dropped, never propagated as errors — a hostile or confused sender
//! cannot crash a node.
//!
//! **One syscall per question.** A node asks its socket two things: is a
//! frame there ([`Transport::try_recv`], non-blocking), and wake me when
//! one may be or at the deadline ([`Transport::wait`], blocking under a
//! read timeout). The transport remembers the socket's mode and switches
//! it only when a question needs the other one. `try_recv` returns the
//! first datagram that decodes rather than draining the socket, so an
//! empty `try_recv` is one `recv_from` and a poll that reads k frames is
//! k + 1. `wait` peeks rather than receives, so the kernel's bounded
//! socket buffer is the only queue: the transport holds no frame, and a
//! flood cannot grow one inside it.
//!
//! [`NodeRuntime::run`](crate::node::NodeRuntime::run) still switches the
//! mode twice per lap (poll non-blocking, sleep blocking): std has no
//! per-call non-blocking receive. A `try_clone`d blocking handle does not
//! help, because `O_NONBLOCK` lives on the open file description that
//! `dup` shares; one blocking mode with a short read timeout would make
//! every `try_recv` sleep for at least a jiffy; and `MSG_DONTWAIT` needs
//! `libc` and `unsafe`.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use hb_core::Pid;

use crate::time::Time;
use crate::transport::{Recv, Transport};
use crate::wire::Frame;

/// Maximum datagram size accepted. Frames are 8 bytes; anything larger
/// than this is hostile by definition and dropped at the socket.
const MAX_DATAGRAM: usize = 512;

/// A [`Transport`] over one UDP socket.
pub struct UdpTransport {
    socket: UdpSocket,
    /// Dense pid-indexed routing table: `peers[pid]` is the address of
    /// `pid`, growing on demand. Pids are small and contiguous (slot
    /// numbers), so a flat table beats hashing on the per-beat path.
    peers: Vec<Option<SocketAddr>>,
    /// Whether `socket` is non-blocking (`try_recv`'s mode) rather than
    /// blocking (`wait`'s). A freshly bound socket blocks.
    nonblocking: bool,
    decode_errors: u64,
    soft_errors: u64,
    buf: [u8; MAX_DATAGRAM],
    /// Scratch the outgoing frame is encoded into — reused across sends.
    send_buf: Vec<u8>,
    /// The frame currently sitting encoded in `send_buf`. A coordinator
    /// broadcasting one beat to `n` peers hits this cache `n - 1` times
    /// and encodes once.
    encoded: Option<Frame>,
}

/// Whether an I/O error is a transient localhost condition the transport
/// absorbs rather than surfaces: a full send buffer behaves like a lossy
/// network, and `ECONNREFUSED`/`ECONNRESET` are ICMP echoes of an earlier
/// datagram that bounced off a dead peer — exactly the message loss the
/// protocols are built to tolerate.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
    )
}

impl UdpTransport {
    /// Bind a socket (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        Ok(UdpTransport {
            socket,
            peers: Vec::new(),
            nonblocking: false,
            decode_errors: 0,
            soft_errors: 0,
            buf: [0; MAX_DATAGRAM],
            send_buf: Vec::new(),
            encoded: None,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Route `pid` to `addr`.
    pub fn add_peer(&mut self, pid: Pid, addr: SocketAddr) {
        if pid >= self.peers.len() {
            self.peers.resize(pid + 1, None);
        }
        self.peers[pid] = Some(addr);
    }

    /// The known address of `pid`, if any.
    pub fn peer(&self, pid: Pid) -> Option<SocketAddr> {
        self.peers.get(pid).copied().flatten()
    }

    /// Datagrams that failed to decode so far.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Transient socket errors absorbed so far (full buffers, ICMP
    /// connection-refused echoes, interrupted syscalls).
    pub fn soft_errors(&self) -> u64 {
        self.soft_errors
    }

    /// Switch the socket's mode, unless it is in that mode already.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        if self.nonblocking != nonblocking {
            self.socket.set_nonblocking(nonblocking)?;
            self.nonblocking = nonblocking;
        }
        Ok(())
    }

    /// Decode one received datagram; on success learn the sender's
    /// address and hand the frame back.
    fn accept(&mut self, len: usize, from: SocketAddr) -> Option<Recv> {
        match Frame::decode_datagram(&self.buf[..len]) {
            Ok(frame) => {
                // Control frames come from out-of-band injectors; don't
                // let them overwrite protocol routes.
                if matches!(frame, Frame::Beat { .. }) && self.peer(frame.src()).is_none() {
                    self.add_peer(frame.src(), from);
                }
                Some(Recv {
                    frame,
                    reply_budget: 0,
                })
            }
            Err(_) => {
                self.decode_errors += 1;
                None
            }
        }
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, _now: Time, dst: Pid, frame: &Frame, _budget: u32) -> io::Result<()> {
        let Some(addr) = self.peer(dst) else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no route to pid {dst}"),
            ));
        };
        if self.encoded != Some(*frame) {
            frame.try_encode_into(&mut self.send_buf).map_err(|pid| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("pid {pid} does not fit the u16 wire field"),
                )
            })?;
            self.encoded = Some(*frame);
        }
        loop {
            match self.socket.send_to(&self.send_buf, addr) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_transient(&e) => {
                    // The datagram is gone, as if the network ate it —
                    // which the heartbeat protocols tolerate by design.
                    self.soft_errors += 1;
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv(&mut self, _now: Time) -> io::Result<Option<Recv>> {
        self.set_nonblocking(true)?;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, from)) => {
                    if let Some(r) = self.accept(len, from) {
                        return Ok(Some(r));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_transient(&e) => {
                    // ICMP echo of an own datagram that bounced; the
                    // socket is still healthy — keep reading.
                    self.soft_errors += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.socket
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        // Peek: the datagram stays queued for the next `try_recv`, which
        // decodes it (and counts it if it is garbage).
        match self.socket.peek_from(&mut self.buf) {
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_transient(&e) => {
                // A transient error is a spurious wakeup; callers re-poll.
                self.soft_errors += 1;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::Heartbeat;
    use std::time::Instant;

    fn pair() -> (UdpTransport, UdpTransport) {
        let mut a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let mut b = UdpTransport::bind("127.0.0.1:0").unwrap();
        let (aa, ba) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        a.add_peer(1, ba);
        b.add_peer(0, aa);
        (a, b)
    }

    fn recv_with_retry(t: &mut UdpTransport) -> Option<Recv> {
        for _ in 0..100 {
            t.wait(Duration::from_millis(20)).unwrap();
            if let Some(r) = t.try_recv(0).unwrap() {
                return Some(r);
            }
        }
        None
    }

    #[test]
    fn frames_cross_localhost() {
        let (mut a, mut b) = pair();
        let f = Frame::beat(0, Heartbeat::plain());
        a.send(0, 1, &f, 2).unwrap();
        let r = recv_with_retry(&mut b).expect("datagram must arrive");
        assert_eq!(r.frame, f);
        assert_eq!(r.reply_budget, 0);
    }

    #[test]
    fn sender_address_is_learned_from_beats() {
        let (mut a, mut b) = pair();
        // b only knows a; a learns nothing about pid 5 until it beats.
        assert_eq!(a.peer(5), None);
        b.send(0, 0, &Frame::beat(5, Heartbeat::plain()), 0)
            .unwrap();
        recv_with_retry(&mut a).unwrap();
        assert_eq!(a.peer(5), Some(b.local_addr().unwrap()));
    }

    #[test]
    fn garbage_datagrams_are_counted_not_fatal() {
        let (mut a, mut b) = pair();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(&[0xFF; 16], b.local_addr().unwrap()).unwrap();
        raw.send_to(&[], b.local_addr().unwrap()).unwrap();
        a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
            .unwrap();
        let r = recv_with_retry(&mut b).expect("the good frame still arrives");
        assert_eq!(r.frame, Frame::beat(0, Heartbeat::plain()));
        assert!(b.decode_errors() >= 1);
    }

    #[test]
    fn frames_leave_in_send_order_past_interleaved_garbage() {
        // One raw socket sends everything, so the socket sees exactly
        // this order: garbage before every frame, none after the last.
        let mut b = UdpTransport::bind("127.0.0.1:0").unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = b.local_addr().unwrap();
        let garbage: [&[u8]; 4] = [&[0xFF; 16], &[], &[6, 0, 3], &[6, 0, 2, 0, 1, 0, 1, 0]];
        let sent: Vec<Frame> = (0..8u8)
            .map(|e| Frame::beat(0, Heartbeat::plain().with_epoch(e)))
            .collect();
        for (i, f) in sent.iter().enumerate() {
            raw.send_to(garbage[i % garbage.len()], to).unwrap();
            raw.send_to(&f.encode(), to).unwrap();
        }
        let got: Vec<Frame> = sent
            .iter()
            .map(|_| recv_with_retry(&mut b).expect("every frame arrives").frame)
            .collect();
        assert_eq!(got, sent, "frames leave in send order");
        assert_eq!(
            b.decode_errors(),
            sent.len() as u64,
            "each garbage datagram counted once"
        );
        assert!(b.try_recv(0).unwrap().is_none());
    }

    #[test]
    fn a_frame_caught_by_wait_is_handed_out_before_a_later_one() {
        let (mut a, mut b) = pair();
        let first = Frame::beat(0, Heartbeat::plain().with_epoch(1));
        let second = Frame::beat(0, Heartbeat::plain().with_epoch(2));
        a.send(0, 1, &first, 0).unwrap();
        let t = Instant::now();
        b.wait(Duration::from_secs(2)).unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "wait woke for the frame, not the timeout"
        );
        a.send(0, 1, &second, 0).unwrap();
        assert_eq!(b.try_recv(0).unwrap().map(|r| r.frame), Some(first));
        assert_eq!(recv_with_retry(&mut b).map(|r| r.frame), Some(second));
    }

    #[test]
    fn try_recv_never_blocks_and_wait_always_does_across_mode_switches() {
        let (_a, mut b) = pair();
        // Timeouts that change, then repeat (the second 100 and 60).
        for ms in [100, 60, 100, 100, 60, 60] {
            let t = Instant::now();
            assert!(b.try_recv(0).unwrap().is_none());
            assert!(t.elapsed() < Duration::from_millis(50), "try_recv blocked");
            let t = Instant::now();
            b.wait(Duration::from_millis(ms)).unwrap();
            assert!(
                t.elapsed() >= Duration::from_millis(ms / 2),
                "wait({ms} ms) returned after {:?}",
                t.elapsed()
            );
        }
    }

    #[test]
    fn empty_polls_set_the_mode_once() {
        let (_a, mut b) = pair();
        assert!(!b.nonblocking, "a fresh socket blocks");
        for _ in 0..100 {
            assert!(b.try_recv(0).unwrap().is_none());
            assert!(b.nonblocking);
        }
        // The polls trust the field: switch the socket to blocking behind
        // the transport's back, and the next poll blocks for the timeout.
        b.socket.set_nonblocking(false).unwrap();
        b.socket
            .set_read_timeout(Some(Duration::from_millis(40)))
            .unwrap();
        let t = Instant::now();
        assert!(b.try_recv(0).unwrap().is_none());
        assert!(
            t.elapsed() >= Duration::from_millis(20),
            "try_recv set the mode again"
        );
    }

    #[test]
    fn dead_peer_is_survived_as_loss() {
        // Send repeatedly to a port whose socket is gone: the kernel may
        // echo ICMP connection-refused on any later call, and none of it
        // may surface as a fatal transport error.
        let mut a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let dead = {
            let victim = UdpSocket::bind("127.0.0.1:0").unwrap();
            victim.local_addr().unwrap()
        }; // victim dropped: port closed
        a.add_peer(1, dead);
        for _ in 0..20 {
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .expect("send to a dead peer must not be fatal");
            assert!(
                a.try_recv(0)
                    .expect("recv after bounce must not be fatal")
                    .is_none(),
                "nothing real can arrive"
            );
            a.wait(Duration::from_millis(1))
                .expect("wait after bounce must not be fatal");
        }
    }

    #[test]
    fn peer_socket_closed_mid_run_is_survived() {
        // Regression: a peer that exchanges traffic and *then* dies
        // (its socket closed mid-run, as a crash/revive plan does over
        // UDP) leaves ICMP connection-refused echoes queued on our
        // socket. `try_recv` must absorb them as transient loss and
        // keep draining — not surface an error mid-run.
        let (mut a, b) = pair();
        let b_addr = b.local_addr().unwrap();
        {
            let mut b = b;
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .unwrap();
            recv_with_retry(&mut b).expect("peer alive: frame arrives");
        } // b dropped here: the socket closes mid-run
        for _ in 0..20 {
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .expect("send after peer close must not be fatal");
            assert!(a
                .try_recv(0)
                .expect("try_recv after peer close must not be fatal")
                .is_none());
            a.wait(Duration::from_millis(1))
                .expect("wait after peer close must not be fatal");
        }
        // The route is still in place for a revived peer on the same
        // address (the rebind re-teaches it on the first join beat).
        assert_eq!(a.peer(1), Some(b_addr));
    }

    #[test]
    fn transient_error_kinds_are_classified() {
        for kind in [
            io::ErrorKind::WouldBlock,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
        ] {
            assert!(is_transient(&io::Error::from(kind)), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::NotConnected,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::AddrInUse,
        ] {
            assert!(!is_transient(&io::Error::from(kind)), "{kind:?}");
        }
    }

    #[test]
    fn a_pid_too_wide_for_the_wire_is_refused_not_fatal() {
        let (mut a, mut b) = pair();
        let wide = Frame::beat(usize::from(u16::MAX) + 1, Heartbeat::plain());
        let err = a.send(0, 1, &wide, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The encode cache was left alone: the next frame goes out intact.
        let f = Frame::beat(0, Heartbeat::plain());
        a.send(0, 1, &f, 0).unwrap();
        assert_eq!(recv_with_retry(&mut b).map(|r| r.frame), Some(f));
    }

    #[test]
    fn unroutable_destination_errors() {
        let (mut a, _b) = pair();
        assert!(a
            .send(0, 9, &Frame::beat(0, Heartbeat::plain()), 0)
            .is_err());
    }
}
