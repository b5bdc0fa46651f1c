//! Length-prefixed, checksummed wire codec for the socket transports.
//!
//! Every frame that crosses a socket is encoded as a fixed 72-byte
//! header followed by the payload (complex values as
//! little-endian `f64` pairs). The header carries a magic/version
//! prefix, the frame kind, routing metadata (src/dst/tag/seq), the
//! sender's supervision *generation*, the payload length, a payload
//! checksum, and finally an FNV-1a checksum over the header bytes
//! themselves — so a corrupted length prefix is detected *before* the
//! decoder trusts it, and a corrupted payload is detected before the
//! message is surfaced to the rank.
//!
//! The codec is pure (bytes in, [`Frame`] out) and shared by the mesh
//! links and the process control links; the streaming helpers
//! [`write_frame`] / [`read_frame`] layer it over `std::io`.

use std::io::{self, Read, Write};

use soifft_num::{c64, fnv1a};

use crate::resilience::checksum;

/// Magic prefix of every frame (`b"SOIF"` little-endian).
pub const MAGIC: u32 = 0x4649_4F53;
/// Wire protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Encoded header size in bytes (fixed): magic(4) + version(1) +
/// kind(1) + reserved(2) + src(4) + dst(4) + tag(8) + seq(8) +
/// message checksum(8) + generation(8) + payload checksum(8) +
/// payload length(8) + header checksum(8).
pub const HEADER_LEN: usize = 72;
/// Ceiling on the element count a frame may claim. A corrupted length
/// prefix that survives the header checksum (or a hostile peer) is
/// rejected with [`WireError::LengthOverflow`] instead of driving a
/// multi-gigabyte allocation.
pub const MAX_PAYLOAD_ELEMS: u64 = 1 << 28;

/// What a frame is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Application payload: a tagged rank-to-rank message.
    Data = 0,
    /// Dialer's handshake: "rank `src` of generation `generation`
    /// reporting for duty" (a process rank's control-link Hello carries
    /// its mesh port in `tag`).
    Hello = 1,
    /// Handshake acknowledgement (generation echoed back; a process
    /// supervisor's Welcome lists every rank's mesh port in the payload).
    Welcome = 2,
    /// Liveness beacon on an idle link (the failure detectors' input).
    Heartbeat = 3,
    /// Failure notice: rank `src` is dead. `tag` carries
    /// the detection reason ([`Frame::PEER_DOWN_EXIT`] /
    /// [`Frame::PEER_DOWN_HEARTBEAT`]).
    PeerDown = 4,
    /// Barrier entry to rank 0 (seq = the entrant's barrier ordinal).
    BarrierEnter = 5,
    /// Rank 0's barrier release; `tag` 0 = success, `r + 1` = rank
    /// `r` died while the barrier was pending.
    BarrierRelease = 6,
    /// Orderly teardown of the connection.
    Shutdown = 7,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::Hello,
            2 => FrameKind::Welcome,
            3 => FrameKind::Heartbeat,
            4 => FrameKind::PeerDown,
            5 => FrameKind::BarrierEnter,
            6 => FrameKind::BarrierRelease,
            7 => FrameKind::Shutdown,
            _ => return None,
        })
    }
}

/// A decoded wire frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the frame is for.
    pub kind: FrameKind,
    /// Sending rank (for [`FrameKind::PeerDown`], the rank that died).
    pub src: u32,
    /// Destination rank ([`FrameKind::Data`] only; 0 otherwise).
    pub dst: u32,
    /// Message tag (kind-specific side-channel for control frames).
    pub tag: u64,
    /// Per-sender sequence number.
    pub seq: u64,
    /// The *message-level* checksum stamped by the link layer (0 when
    /// link verification is off). Carried opaquely; the wire layer has
    /// its own payload checksum in the header.
    pub checksum: u64,
    /// Supervision generation of the sending incarnation.
    pub generation: u64,
    /// Payload elements.
    pub payload: Vec<c64>,
}

impl Frame {
    /// [`FrameKind::PeerDown`] reason: the process exited (or its
    /// connection broke).
    pub const PEER_DOWN_EXIT: u64 = 0;
    /// [`FrameKind::PeerDown`] reason: heartbeats went stale while the
    /// process was still nominally alive.
    pub const PEER_DOWN_HEARTBEAT: u64 = 1;
    /// [`FrameKind::PeerDown`] reason: an outbound connection stayed
    /// broken past the staleness budget (a network partition, not a
    /// process death).
    pub const PEER_DOWN_PARTITION: u64 = 2;

    /// A payload-free control frame of `kind` from `src` in `generation`.
    pub fn control(kind: FrameKind, src: u32, generation: u64) -> Frame {
        Frame {
            kind,
            src,
            dst: 0,
            tag: 0,
            seq: 0,
            checksum: 0,
            generation,
            payload: Vec::new(),
        }
    }

    /// True when the frame belongs to supervision epoch `generation`.
    /// Transports drop cross-epoch frames at ingestion — a respawned
    /// epoch must never consume traffic a dead incarnation left in
    /// flight.
    pub fn is_for_generation(&self, generation: u64) -> bool {
        self.generation == generation
    }

    /// Bytes this frame occupies on the wire once encoded.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() * 16
    }
}

/// Lifts a received data frame into the link-layer [`Message`] the
/// resilience stack consumes (shared by every wire-speaking backend).
pub(crate) fn frame_to_message(f: Frame) -> crate::Message {
    crate::Message {
        src: f.src as usize,
        tag: f.tag,
        seq: f.seq,
        checksum: f.checksum,
        generation: f.generation,
        data: f.payload,
    }
}

/// Lowers an outbound [`Message`] for `dst` onto a data frame.
pub(crate) fn message_to_frame(dst: usize, m: crate::Message) -> Frame {
    Frame {
        kind: FrameKind::Data,
        src: m.src as u32,
        dst: dst as u32,
        tag: m.tag,
        seq: m.seq,
        checksum: m.checksum,
        generation: m.generation,
        payload: m.data,
    }
}

/// Why a byte sequence failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`] — the stream is not
    /// frame-aligned (or not ours).
    BadMagic,
    /// The frame claims a protocol version this build does not speak.
    BadVersion(u8),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the complete frame needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix claims more than [`MAX_PAYLOAD_ELEMS`] elements.
    LengthOverflow(u64),
    /// The header bytes fail their own checksum (covers the length
    /// prefix and all routing metadata).
    HeaderCorrupt,
    /// The payload bytes fail the header's payload checksum.
    PayloadCorrupt,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::LengthOverflow(n) => {
                write!(
                    f,
                    "length prefix claims {n} elements (cap {MAX_PAYLOAD_ELEMS})"
                )
            }
            WireError::HeaderCorrupt => write!(f, "frame header fails its checksum"),
            WireError::PayloadCorrupt => write!(f, "frame payload fails its checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `frame` into a self-contained byte buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len() * 16);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.kind as u8);
    out.extend_from_slice(&[0u8; 2]); // reserved
    out.extend_from_slice(&frame.src.to_le_bytes());
    out.extend_from_slice(&frame.dst.to_le_bytes());
    out.extend_from_slice(&frame.tag.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.checksum.to_le_bytes());
    out.extend_from_slice(&frame.generation.to_le_bytes());
    out.extend_from_slice(&checksum(&frame.payload).to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u64).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN - 8);
    out.extend_from_slice(&fnv1a(&out).to_le_bytes());
    for z in &frame.payload {
        out.extend_from_slice(&z.re.to_le_bytes());
        out.extend_from_slice(&z.im.to_le_bytes());
    }
    out
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("slice is 4 bytes"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("slice is 8 bytes"))
}

/// Decoded header: everything but the payload, plus the payload's
/// expected element count and checksum.
struct Header {
    kind: FrameKind,
    src: u32,
    dst: u32,
    tag: u64,
    seq: u64,
    checksum: u64,
    generation: u64,
    payload_checksum: u64,
    payload_len: usize,
}

fn decode_header(bytes: &[u8]) -> Result<Header, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if read_u32(bytes, 0) != MAGIC {
        return Err(WireError::BadMagic);
    }
    // The header checksum vouches for every field after the magic —
    // verify it before trusting the version, kind, or length prefix.
    let stored = read_u64(bytes, HEADER_LEN - 8);
    if fnv1a(&bytes[..HEADER_LEN - 8]) != stored {
        return Err(WireError::HeaderCorrupt);
    }
    if bytes[4] != VERSION {
        return Err(WireError::BadVersion(bytes[4]));
    }
    let kind = FrameKind::from_u8(bytes[5]).ok_or(WireError::BadKind(bytes[5]))?;
    let payload_len = read_u64(bytes, 56);
    if payload_len > MAX_PAYLOAD_ELEMS {
        return Err(WireError::LengthOverflow(payload_len));
    }
    Ok(Header {
        kind,
        src: read_u32(bytes, 8),
        dst: read_u32(bytes, 12),
        tag: read_u64(bytes, 16),
        seq: read_u64(bytes, 24),
        checksum: read_u64(bytes, 32),
        generation: read_u64(bytes, 40),
        payload_checksum: read_u64(bytes, 48),
        payload_len: payload_len as usize,
    })
}

/// Decodes one frame from the front of `bytes`, returning it together
/// with the number of bytes consumed.
///
/// # Errors
/// Any [`WireError`]; [`WireError::Truncated`] in particular means "feed
/// me more bytes" to a streaming caller accumulating from a socket.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    let h = decode_header(bytes)?;
    let total = HEADER_LEN + h.payload_len * 16;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let mut payload = Vec::with_capacity(h.payload_len);
    let body = &bytes[HEADER_LEN..total];
    for pair in body.chunks_exact(16) {
        let re = f64::from_le_bytes(pair[..8].try_into().expect("slice is 8 bytes"));
        let im = f64::from_le_bytes(pair[8..].try_into().expect("slice is 8 bytes"));
        payload.push(c64::new(re, im));
    }
    if checksum(&payload) != h.payload_checksum {
        return Err(WireError::PayloadCorrupt);
    }
    Ok((
        Frame {
            kind: h.kind,
            src: h.src,
            dst: h.dst,
            tag: h.tag,
            seq: h.seq,
            checksum: h.checksum,
            generation: h.generation,
            payload,
        },
        total,
    ))
}

/// Writes one encoded frame to `w` (a socket): a single `write_all` of
/// the encoded bytes, so concurrent writers serialized by a lock never
/// interleave partial frames.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Reads one frame from `r` (a socket), blocking until it is complete.
///
/// # Errors
/// * `Ok(Err(_))` — the bytes arrived but fail to decode (corruption).
/// * `Err(_)` — the underlying stream failed or closed mid-frame
///   (`UnexpectedEof` on orderly close between frames).
pub fn read_frame(r: &mut impl Read) -> io::Result<Result<Frame, WireError>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let h = match decode_header(&header) {
        Ok(h) => h,
        Err(e) => return Ok(Err(e)),
    };
    let mut body = vec![0u8; h.payload_len * 16];
    r.read_exact(&mut body)?;
    let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(&body);
    Ok(decode_frame(&buf).map(|(f, _)| f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(len: usize) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 2,
            dst: 5,
            tag: 77,
            seq: 12,
            checksum: 0xDEAD_BEEF,
            generation: 3,
            payload: (0..len).map(|i| c64::new(i as f64, -(i as f64))).collect(),
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        for len in [0usize, 1, 2, 7, 64, 1023] {
            let f = data_frame(len);
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame(&bytes).expect("clean frame decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncated_header_and_body_report_needed_bytes() {
        let bytes = encode_frame(&data_frame(4));
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_length_prefix_is_caught_by_header_checksum() {
        let mut bytes = encode_frame(&data_frame(4));
        bytes[56] ^= 0xFF; // low byte of the length prefix
        assert_eq!(decode_frame(&bytes), Err(WireError::HeaderCorrupt));
    }

    #[test]
    fn overflowing_length_prefix_is_rejected_even_with_fixed_checksum() {
        let f = Frame {
            payload: Vec::new(),
            ..data_frame(0)
        };
        let mut bytes = encode_frame(&f);
        bytes[56..64].copy_from_slice(&(MAX_PAYLOAD_ELEMS + 1).to_le_bytes());
        let sum = fnv1a(&bytes[..HEADER_LEN - 8]).to_le_bytes();
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::LengthOverflow(MAX_PAYLOAD_ELEMS + 1))
        );
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = encode_frame(&data_frame(8));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(decode_frame(&bytes), Err(WireError::PayloadCorrupt));
    }

    #[test]
    fn streaming_read_matches_slice_decode() {
        let f = data_frame(33);
        let bytes = encode_frame(&f);
        let mut cursor = std::io::Cursor::new(bytes);
        let got = read_frame(&mut cursor).expect("io ok").expect("decodes");
        assert_eq!(got, f);
    }
}
