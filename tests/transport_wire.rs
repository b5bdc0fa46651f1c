//! Property-based tests for the multi-process transport's wire codec
//! (PR 7 satellite): round trips across payload sizes including empty
//! and larger-than-ring frames, truncation always reads as "feed me
//! more", corrupted length prefixes never drive an allocation, and
//! cross-epoch frames are identifiable for rejection. The PR 8 TCP
//! backend adds adversarial stream segmentation: frames must survive a
//! socket that returns one byte at a time, splits reads at the
//! header/payload boundary, or coalesces several frames into one read.

use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use soifft::cluster::transport::shm::{shm_dir, ShmRing};
use soifft::cluster::transport::wire::{
    decode_frame, encode_frame, read_frame, Frame, FrameKind, WireError, HEADER_LEN,
    MAX_PAYLOAD_ELEMS,
};
use soifft::num::{c64, fnv1a};

/// A `Read` whose returns follow a script of chunk sizes — an
/// adversarial TCP socket that segments the stream however it likes
/// (after the script runs out, it serves whatever remains).
struct ScriptedRead {
    bytes: Vec<u8>,
    pos: usize,
    script: Vec<usize>,
    step: usize,
}

impl ScriptedRead {
    fn new(bytes: Vec<u8>, script: Vec<usize>) -> Self {
        ScriptedRead {
            bytes,
            pos: 0,
            script,
            step: 0,
        }
    }
}

impl Read for ScriptedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.bytes.len() - self.pos;
        let scripted = match self.script.get(self.step) {
            Some(&n) => n,
            None => remaining,
        };
        self.step += 1;
        let n = scripted.min(remaining).min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn data_frame(len: usize, seed: u64, seq: u64) -> Frame {
    Frame {
        kind: FrameKind::Data,
        src: 1,
        dst: 0,
        tag: 42,
        seq,
        checksum: 0,
        generation: 5,
        payload: payload(len, seed),
    }
}

#[test]
fn frame_survives_one_byte_at_a_time_delivery() {
    let frame = data_frame(17, 0x00A1_1CE5, 3);
    let bytes = encode_frame(&frame);
    let script = vec![1; bytes.len()];
    let mut r = ScriptedRead::new(bytes, script);
    let got = read_frame(&mut r)
        .expect("stream stays healthy")
        .expect("frame decodes");
    assert_eq!(got, frame);
}

#[test]
fn frame_survives_a_split_at_the_header_payload_boundary() {
    let frame = data_frame(9, 0xB0B, 8);
    let bytes = encode_frame(&frame);
    // Exactly the header in the first read, a lone byte next, then the
    // rest — the boundary every framing bug lives on.
    let script = vec![HEADER_LEN, 1, bytes.len()];
    let mut r = ScriptedRead::new(bytes, script);
    let got = read_frame(&mut r)
        .expect("stream stays healthy")
        .expect("frame decodes");
    assert_eq!(got, frame);
}

#[test]
fn two_coalesced_frames_come_out_as_two_frames() {
    let a = data_frame(5, 0xF00D, 1);
    let b = data_frame(31, 0xBEEF, 2);
    let mut bytes = encode_frame(&a);
    bytes.extend_from_slice(&encode_frame(&b));
    // One read delivers everything at once, as a coalescing kernel
    // buffer would; the reader must stop at the first frame boundary
    // and leave the second frame intact for the next call.
    let total = bytes.len();
    let mut r = ScriptedRead::new(bytes, vec![total]);
    let first = read_frame(&mut r)
        .expect("stream stays healthy")
        .expect("first frame decodes");
    assert_eq!(first, a);
    let second = read_frame(&mut r)
        .expect("stream stays healthy")
        .expect("second frame decodes");
    assert_eq!(second, b);
}

fn payload(len: usize, seed: u64) -> Vec<c64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..len).map(|_| c64::new(next(), next())).collect()
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        (
            prop::sample::select(vec![
                FrameKind::Data,
                FrameKind::Hello,
                FrameKind::Heartbeat,
                FrameKind::PeerDown,
                FrameKind::BarrierEnter,
            ]),
            0u32..64,
            0u32..64,
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            0u64..16,
            // Payload sizes from empty through well past the test ring's
            // capacity (96 elems = 1536 payload bytes ≫ 256-byte ring).
            prop::sample::select(vec![0usize, 1, 2, 7, 15, 16, 17, 63, 96]),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((kind, src, dst, tag, seq), (checksum, generation, len, seed))| Frame {
                kind,
                src,
                dst,
                tag,
                seq,
                checksum,
                generation,
                payload: payload(len, seed),
            },
        )
}

proptest! {
    /// Encode → decode is the identity on every field, and the decoder
    /// reports exactly the encoded length as consumed.
    #[test]
    fn round_trip_preserves_frame(frame in frame_strategy()) {
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("clean frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Any prefix of a valid frame decodes to `Truncated` with an honest
    /// byte count — the streaming contract ring consumers rely on.
    #[test]
    fn every_truncation_asks_for_more_bytes(
        frame in frame_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_frame(&frame);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        match decode_frame(&bytes[..cut]) {
            Err(WireError::Truncated { needed, have }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(needed > cut);
                prop_assert!(needed <= bytes.len());
            }
            other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
        }
    }

    /// Flipping any single bit of the header is detected before the
    /// decoder trusts anything — a corrupted length prefix in particular
    /// can never drive an allocation or a mis-framed read.
    #[test]
    fn any_header_bit_flip_is_rejected(
        frame in frame_strategy(),
        byte in 0usize..HEADER_LEN,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_frame(&frame);
        bytes[byte] ^= 1 << bit;
        let got = decode_frame(&bytes);
        match byte {
            0..=3 => prop_assert_eq!(got, Err(WireError::BadMagic)),
            56..=63 => prop_assert_eq!(got, Err(WireError::HeaderCorrupt)),
            _ => prop_assert!(
                matches!(got, Err(WireError::HeaderCorrupt)),
                "byte {byte}: got {got:?}"
            ),
        }
    }

    /// A length prefix re-stamped with a fresh header checksum (the
    /// hostile-peer case) is still capped at [`MAX_PAYLOAD_ELEMS`].
    #[test]
    fn oversized_length_claims_are_capped(extra in 1u64..1 << 20) {
        let frame = Frame::control(FrameKind::Data, 0, 1);
        let mut bytes = encode_frame(&frame);
        let claim = MAX_PAYLOAD_ELEMS + extra;
        bytes[56..64].copy_from_slice(&claim.to_le_bytes());
        // Recompute the header FNV so only the overflow check can object.
        let sum = fnv1a(&bytes[..HEADER_LEN - 8]).to_le_bytes();
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum);
        prop_assert_eq!(decode_frame(&bytes), Err(WireError::LengthOverflow(claim)));
    }

    /// Generation tagging: a frame identifies with exactly its own
    /// supervision epoch, so ingestion can drop a dead incarnation's
    /// leftover traffic.
    #[test]
    fn cross_epoch_frames_are_identifiable(frame in frame_strategy(), delta in 1u64..1 << 32) {
        let bytes = encode_frame(&frame);
        let (back, _) = decode_frame(&bytes).expect("clean frame decodes");
        prop_assert!(back.is_for_generation(frame.generation));
        prop_assert!(!back.is_for_generation(frame.generation.wrapping_add(delta)));
        prop_assert!(!back.is_for_generation(frame.generation.wrapping_sub(delta)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames stream bit-identically through a shared-memory ring far
    /// smaller than the frame — the producer's partial pushes and the
    /// consumer's `Truncated`-driven reassembly compose to the identity.
    #[test]
    fn round_trip_through_undersized_ring(frame in frame_strategy()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = shm_dir().join(format!(
            "soifft-wiretest-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let producer = ShmRing::create(&path, 256).expect("create ring");
        let consumer = ShmRing::open(&path).expect("open ring");
        let bytes = encode_frame(&frame);
        let mut pushed = 0usize;
        let mut acc: Vec<u8> = Vec::new();
        let mut buf = [0u8; 128];
        let mut spins = 0u32;
        let decoded = loop {
            spins += 1;
            prop_assert!(spins < 100_000, "ring transfer made no progress");
            if pushed < bytes.len() {
                pushed += producer.try_push(&bytes[pushed..]).expect("push");
            }
            let n = consumer.try_pop(&mut buf).expect("pop");
            acc.extend_from_slice(&buf[..n]);
            match decode_frame(&acc) {
                Ok((f, used)) => {
                    prop_assert_eq!(used, bytes.len());
                    break f;
                }
                Err(WireError::Truncated { .. }) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("ring corrupted frame: {e}"))),
            }
        };
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(decoded, frame);
    }
}

/// The header checksum is `soifft_num::fnv1a` over the first 64 header
/// bytes, and its value for a fixed frame is pinned: a change to the hash
/// would make frames from other builds unreadable, so it must fail here.
#[test]
fn header_checksum_is_the_shared_fnv1a_and_unchanged() {
    let frame = Frame {
        kind: FrameKind::Data,
        src: 3,
        dst: 1,
        tag: 0x1_0005,
        seq: 42,
        checksum: 0xDEAD_BEEF,
        generation: 7,
        payload: vec![c64::new(1.5, -2.0), c64::new(0.25, 8.0)],
    };
    let bytes = encode_frame(&frame);
    let stored = u64::from_le_bytes(bytes[HEADER_LEN - 8..HEADER_LEN].try_into().unwrap());
    assert_eq!(stored, fnv1a(&bytes[..HEADER_LEN - 8]));
    assert_eq!(stored, 0xf5b3_374e_d9cb_2960);
}
