//! Wire formats: UDP probe packets and framed TCP control messages.
//!
//! Everything is hand-encoded little-endian — the formats are tiny and a
//! serialization framework would be the heaviest dependency in the crate.

use std::io::{self, Read, Write};

/// Magic tag identifying our UDP probe packets.
pub const PROBE_MAGIC: u32 = 0x534C_6F50; // "SLoP"

/// Wire protocol version, carried in the `Hello` frame and in every probe
/// packet. Version 2 added session multiplexing: the receiver mints a
/// session token at `Hello` and every probe packet carries it, so one
/// receiver (one control port, one UDP socket) serves many concurrent
/// senders. Endpoints reject a peer speaking a different version — the
/// formats are not compatible across versions.
pub const PROTO_VERSION: u8 = 2;

/// Fixed UDP probe header length (the rest of the packet is padding).
pub const PROBE_HEADER_LEN: usize = 32;

/// Kind byte of a probe packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Packet of a periodic stream.
    Stream,
    /// Packet of a back-to-back train.
    Train,
}

/// A decoded UDP probe packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbePacket {
    /// The sender's session token, minted by the receiver at `Hello`.
    /// The receiver demuxes its one shared UDP socket on this field.
    pub session: u64,
    /// Stream or train kind.
    pub kind: ProbeKind,
    /// Stream/train id.
    pub id: u32,
    /// Packet index within the stream/train.
    pub idx: u32,
    /// Sender clock at transmission (sender epoch, nanoseconds).
    pub send_ns: u64,
}

impl ProbePacket {
    /// Encode into `buf` (must be at least [`PROBE_HEADER_LEN`] long; the
    /// bytes beyond the header are left untouched as padding).
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= PROBE_HEADER_LEN);
        buf[0..4].copy_from_slice(&PROBE_MAGIC.to_le_bytes());
        buf[4] = match self.kind {
            ProbeKind::Stream => 0,
            ProbeKind::Train => 1,
        };
        buf[5] = PROTO_VERSION;
        buf[6..8].fill(0);
        buf[8..12].copy_from_slice(&self.id.to_le_bytes());
        buf[12..16].copy_from_slice(&self.idx.to_le_bytes());
        buf[16..24].copy_from_slice(&self.send_ns.to_le_bytes());
        buf[24..32].copy_from_slice(&self.session.to_le_bytes());
    }

    /// Decode from a received datagram; `None` if it is not ours (wrong
    /// magic, wrong version, unknown kind, or too short).
    pub fn decode(buf: &[u8]) -> Option<ProbePacket> {
        if buf.len() < PROBE_HEADER_LEN {
            return None;
        }
        if u32::from_le_bytes(buf[0..4].try_into().unwrap()) != PROBE_MAGIC {
            return None;
        }
        let kind = match buf[4] {
            0 => ProbeKind::Stream,
            1 => ProbeKind::Train,
            _ => return None,
        };
        if buf[5] != PROTO_VERSION {
            return None;
        }
        Some(ProbePacket {
            session: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            kind,
            id: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            idx: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            send_ns: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        })
    }
}

/// One receiver-side observation of a stream packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleWire {
    /// Packet index.
    pub idx: u32,
    /// Sender timestamp from the packet (sender epoch).
    pub send_ns: u64,
    /// Receiver arrival timestamp (receiver epoch).
    pub recv_ns: u64,
}

/// Control-channel messages (TCP, length-prefixed frames).
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Receiver → sender on connect: protocol version, the UDP port to
    /// probe, and the session token minted for this control connection.
    Hello {
        /// The receiver's [`PROTO_VERSION`]; the sender disconnects on a
        /// mismatch instead of mis-parsing probe reports.
        version: u8,
        /// Receiver's (shared) UDP port.
        udp_port: u16,
        /// Session token the sender must stamp into every probe packet;
        /// the receiver routes shared-socket datagrams by this token.
        session: u64,
    },
    /// Sender → receiver: a stream is about to start.
    StreamAnnounce {
        /// Stream id.
        id: u32,
        /// Number of packets.
        count: u32,
        /// Packet period in nanoseconds.
        period_ns: u64,
        /// Packet size in bytes.
        size: u32,
    },
    /// Receiver → sender: armed and ready for the announced stream.
    Ready {
        /// Echoed stream/train id.
        id: u32,
    },
    /// Receiver → sender: per-packet records of a finished stream.
    StreamReport {
        /// Stream id.
        id: u32,
        /// Observations, in arrival order.
        samples: Vec<SampleWire>,
    },
    /// Sender → receiver: a back-to-back train is about to start.
    TrainAnnounce {
        /// Train id.
        id: u32,
        /// Number of packets.
        count: u32,
        /// Packet size in bytes.
        size: u32,
    },
    /// Receiver → sender: train observations.
    TrainReport {
        /// Train id.
        id: u32,
        /// Packets received.
        received: u32,
        /// First arrival (receiver epoch, ns).
        first_ns: u64,
        /// Last arrival (receiver epoch, ns).
        last_ns: u64,
    },
    /// RTT probe (either direction bounces it back).
    Echo {
        /// Opaque payload echoed verbatim.
        token: u64,
    },
    /// Session end.
    Bye,
    /// Receiver → sender **instead of** `Hello`: the connection is
    /// refused. Versioned like `Hello` so a sender can always tell a
    /// policy refusal (e.g. [`DENY_AT_CAPACITY`]) apart from a protocol
    /// mismatch, and knows which protocol the refusing receiver speaks.
    Deny {
        /// The receiver's [`PROTO_VERSION`].
        version: u8,
        /// Why the session was refused (a `DENY_*` constant).
        code: u8,
    },
}

/// [`CtrlMsg::Deny`] code: the receiver is at its concurrent-session
/// capacity; retry later or point the path at another receiver.
pub const DENY_AT_CAPACITY: u8 = 1;

/// Write as much of `wbuf` as a non-blocking writer accepts, draining
/// what went out. `Ok` with bytes left means back-pressure: wait for
/// writability.
pub(crate) fn flush_nonblocking<W: Write>(w: &mut W, wbuf: &mut Vec<u8>) -> io::Result<()> {
    while !wbuf.is_empty() {
        match w.write(wbuf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "write returned 0",
                ))
            }
            Ok(n) => {
                wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Append whatever a non-blocking reader has ready to `rbuf`.
/// `Ok(false)` on a clean EOF.
pub(crate) fn fill_nonblocking<R: Read>(r: &mut R, rbuf: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match r.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                // `read` contracts n <= chunk.len(); `get` keeps the
                // defensive bound out of the panic path.
                if let Some(read) = chunk.get(..n) {
                    rbuf.extend_from_slice(read);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

impl CtrlMsg {
    fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => 1,
            CtrlMsg::StreamAnnounce { .. } => 2,
            CtrlMsg::Ready { .. } => 3,
            CtrlMsg::StreamReport { .. } => 4,
            CtrlMsg::TrainAnnounce { .. } => 5,
            CtrlMsg::TrainReport { .. } => 6,
            CtrlMsg::Echo { .. } => 7,
            CtrlMsg::Bye => 8,
            CtrlMsg::Deny { .. } => 9,
        }
    }

    /// Queue the message as one length-prefixed frame onto `out`.
    ///
    /// Infallible counterpart of [`CtrlMsg::write_to`] for the evented
    /// shapes, whose write buffers are plain byte queues: `Vec<u8>`'s
    /// `io::Write` impl never errors, so queueing a frame has no error
    /// path and the datapath stays panic-free.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        // Vec<u8> as io::Write cannot fail; discard the impossible Err.
        let _ = self.write_to(out);
    }

    /// Pop one complete length-prefixed frame off the front of `rbuf`,
    /// if the whole frame is there yet: the read side of the evented
    /// shapes, whose read buffers collect whatever a non-blocking socket
    /// had ready (see [`fill_nonblocking`]).
    pub(crate) fn take_from(rbuf: &mut Vec<u8>) -> io::Result<Option<CtrlMsg>> {
        let Some(&header) = rbuf.first_chunk::<4>() else {
            return Ok(None); // length prefix not complete yet
        };
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > 16 * 1024 * 1024 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad control frame length",
            ));
        }
        let Some(mut frame) = rbuf.get(..4 + len) else {
            return Ok(None); // body not complete yet
        };
        let msg = CtrlMsg::read_from(&mut frame)?;
        rbuf.drain(..4 + len);
        Ok(Some(msg))
    }

    /// Write the message as one length-prefixed frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut body = Vec::with_capacity(32);
        body.push(self.tag());
        match self {
            CtrlMsg::Hello {
                version,
                udp_port,
                session,
            } => {
                body.push(*version);
                body.extend_from_slice(&udp_port.to_le_bytes());
                body.extend_from_slice(&session.to_le_bytes());
            }
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size,
            } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&count.to_le_bytes());
                body.extend_from_slice(&period_ns.to_le_bytes());
                body.extend_from_slice(&size.to_le_bytes());
            }
            CtrlMsg::Ready { id } => body.extend_from_slice(&id.to_le_bytes()),
            CtrlMsg::StreamReport { id, samples } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&(samples.len() as u32).to_le_bytes());
                for s in samples {
                    body.extend_from_slice(&s.idx.to_le_bytes());
                    body.extend_from_slice(&s.send_ns.to_le_bytes());
                    body.extend_from_slice(&s.recv_ns.to_le_bytes());
                }
            }
            CtrlMsg::TrainAnnounce { id, count, size } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&count.to_le_bytes());
                body.extend_from_slice(&size.to_le_bytes());
            }
            CtrlMsg::TrainReport {
                id,
                received,
                first_ns,
                last_ns,
            } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&received.to_le_bytes());
                body.extend_from_slice(&first_ns.to_le_bytes());
                body.extend_from_slice(&last_ns.to_le_bytes());
            }
            CtrlMsg::Echo { token } => body.extend_from_slice(&token.to_le_bytes()),
            CtrlMsg::Bye => {}
            CtrlMsg::Deny { version, code } => {
                body.push(*version);
                body.push(*code);
            }
        }
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(&body)
    }

    /// Read one length-prefixed frame.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<CtrlMsg> {
        let mut len4 = [0u8; 4];
        r.read_exact(&mut len4)?;
        let len = u32::from_le_bytes(len4) as usize;
        if len == 0 || len > 16 * 1024 * 1024 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame length",
            ));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        let tag = body[0];
        let mut cur = &body[1..];
        let mut take = |n: usize| -> io::Result<&[u8]> {
            if cur.len() < n {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "short frame"));
            }
            let (head, rest) = cur.split_at(n);
            cur = rest;
            Ok(head)
        };
        let msg = match tag {
            1 => CtrlMsg::Hello {
                version: take(1)?[0],
                udp_port: u16::from_le_bytes(take(2)?.try_into().unwrap()),
                session: u64::from_le_bytes(take(8)?.try_into().unwrap()),
            },
            2 => CtrlMsg::StreamAnnounce {
                id: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                count: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                period_ns: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                size: u32::from_le_bytes(take(4)?.try_into().unwrap()),
            },
            3 => CtrlMsg::Ready {
                id: u32::from_le_bytes(take(4)?.try_into().unwrap()),
            },
            4 => {
                let id = u32::from_le_bytes(take(4)?.try_into().unwrap());
                let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                let mut samples = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    samples.push(SampleWire {
                        idx: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                        send_ns: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                        recv_ns: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                    });
                }
                CtrlMsg::StreamReport { id, samples }
            }
            5 => CtrlMsg::TrainAnnounce {
                id: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                count: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                size: u32::from_le_bytes(take(4)?.try_into().unwrap()),
            },
            6 => CtrlMsg::TrainReport {
                id: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                received: u32::from_le_bytes(take(4)?.try_into().unwrap()),
                first_ns: u64::from_le_bytes(take(8)?.try_into().unwrap()),
                last_ns: u64::from_le_bytes(take(8)?.try_into().unwrap()),
            },
            7 => CtrlMsg::Echo {
                token: u64::from_le_bytes(take(8)?.try_into().unwrap()),
            },
            8 => CtrlMsg::Bye,
            9 => CtrlMsg::Deny {
                version: take(1)?[0],
                code: take(1)?[0],
            },
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "unknown tag")),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_packet_round_trip() {
        let p = ProbePacket {
            session: 0xDEAD_BEEF_0042,
            kind: ProbeKind::Stream,
            id: 42,
            idx: 7,
            send_ns: 123_456_789_012,
        };
        let mut buf = vec![0u8; 200];
        p.encode(&mut buf);
        assert_eq!(ProbePacket::decode(&buf), Some(p));
    }

    #[test]
    fn probe_packet_rejects_garbage() {
        assert_eq!(ProbePacket::decode(&[0u8; 10]), None);
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(ProbePacket::decode(&buf), None);
        let p = ProbePacket {
            session: 9,
            kind: ProbeKind::Train,
            id: 1,
            idx: 2,
            send_ns: 3,
        };
        let mut buf = vec![0u8; 64];
        p.encode(&mut buf);
        buf[4] = 99; // invalid kind
        assert_eq!(ProbePacket::decode(&buf), None);
    }

    #[test]
    fn probe_packet_rejects_other_versions() {
        let p = ProbePacket {
            session: 1,
            kind: ProbeKind::Stream,
            id: 1,
            idx: 0,
            send_ns: 2,
        };
        let mut buf = vec![0u8; 64];
        p.encode(&mut buf);
        buf[5] = PROTO_VERSION + 1;
        assert_eq!(ProbePacket::decode(&buf), None);
        buf[5] = 0; // pre-versioning layout
        assert_eq!(ProbePacket::decode(&buf), None);
    }

    fn round_trip(msg: CtrlMsg) {
        let mut buf = Vec::new();
        msg.write_to(&mut buf).unwrap();
        let got = CtrlMsg::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn ctrl_messages_round_trip() {
        round_trip(CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 9999,
            session: u64::MAX - 3,
        });
        round_trip(CtrlMsg::StreamAnnounce {
            id: 5,
            count: 100,
            period_ns: 100_000,
            size: 300,
        });
        round_trip(CtrlMsg::Ready { id: 5 });
        round_trip(CtrlMsg::StreamReport {
            id: 5,
            samples: vec![
                SampleWire {
                    idx: 0,
                    send_ns: 10,
                    recv_ns: 20,
                },
                SampleWire {
                    idx: 1,
                    send_ns: 30,
                    recv_ns: 45,
                },
            ],
        });
        round_trip(CtrlMsg::TrainAnnounce {
            id: 9,
            count: 48,
            size: 1500,
        });
        round_trip(CtrlMsg::TrainReport {
            id: 9,
            received: 48,
            first_ns: 1,
            last_ns: 2,
        });
        round_trip(CtrlMsg::Echo { token: u64::MAX });
        round_trip(CtrlMsg::Bye);
        round_trip(CtrlMsg::Deny {
            version: PROTO_VERSION,
            code: DENY_AT_CAPACITY,
        });
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 1,
            session: 7,
        }
        .write_to(&mut buf)
        .unwrap();
        buf.truncate(buf.len() - 1);
        assert!(CtrlMsg::read_from(&mut buf.as_slice()).is_err());
    }
}
