//! Seeded malformed-input suite for the ack-channel decoder.
//!
//! `AckChanMsg::decode_each` parses bytes a peer put on the wire, so it
//! must never panic and must accept exactly the two well-formed frames:
//!
//! - `0xA1 | pair` — one 20-byte `(connection, SEQ, ACK)` pair;
//! - `0xA2 | n | n × pair` with `n ≥ 1`.
//!
//! Every other input — truncations, trailing bytes, counts that disagree
//! with the length, zero counts, unknown tags, random bytes — must be an
//! `Err` that applied no pair. For accepted frames the callback must run
//! once per pair, the return value must be that count, and re-encoding the
//! decoded pairs must reproduce the input bytes.

use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::rng::SimRng;
use hydranet_tcp::ft::{AckChanMsg, ACK_CHAN_MAX_PAIRS, ACK_CHAN_PAIR_LEN};
use hydranet_tcp::segment::SockAddr;
use hydranet_tcp::seq::SeqNum;

const FRAMES: usize = 20_000;

/// The specification, written independently of the decoder: the pair
/// count of a well-formed frame, `None` for anything else.
fn well_formed_pairs(bytes: &[u8]) -> Option<usize> {
    match bytes {
        [0xA1, pairs @ ..] if pairs.len() == ACK_CHAN_PAIR_LEN => Some(1),
        [0xA2, n, pairs @ ..] if *n >= 1 && pairs.len() == usize::from(*n) * ACK_CHAN_PAIR_LEN => {
            Some(usize::from(*n))
        }
        _ => None,
    }
}

fn random_msg(rng: &mut SimRng) -> AckChanMsg {
    let mut word = || rng.next_u64();
    AckChanMsg {
        client: SockAddr::new(IpAddr::from_bits(word() as u32), word() as u16),
        service: SockAddr::new(IpAddr::from_bits(word() as u32), word() as u16),
        seq: SeqNum::new(word() as u32),
        ack: SeqNum::new(word() as u32),
    }
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A well-formed frame: a single-pair frame or a batch, mostly small.
fn valid_frame(rng: &mut SimRng) -> Vec<u8> {
    if rng.chance(0.3) {
        return random_msg(rng).encode();
    }
    let n = if rng.chance(0.9) {
        rng.range(1, 9)
    } else {
        rng.range(1, ACK_CHAN_MAX_PAIRS as u64 + 1)
    };
    let msgs: Vec<AckChanMsg> = (0..n).map(|_| random_msg(rng)).collect();
    let mut out = Vec::new();
    AckChanMsg::encode_batch_into(&msgs, &mut out);
    out
}

/// One fuzz input: a valid frame, a valid frame with one defect, or noise.
fn frame(rng: &mut SimRng) -> Vec<u8> {
    let mut f = valid_frame(rng);
    match rng.range(0, 8) {
        0 => f,
        // Truncation, anywhere from empty to one byte short.
        1 => {
            let keep = rng.range(0, f.len() as u64) as usize;
            f.truncate(keep);
            f
        }
        // Trailing bytes.
        2 => {
            let extra = rng.range(1, 2 * ACK_CHAN_PAIR_LEN as u64 + 1) as usize;
            f.extend(random_bytes(rng, extra));
            f
        }
        // Batch count that may disagree with the length.
        3 => {
            if f[0] == 0xA2 {
                f[1] = rng.next_u64() as u8;
            }
            f
        }
        // Zero count.
        4 => {
            if f[0] == 0xA2 {
                f[1] = 0;
            }
            f
        }
        // Random tag.
        5 => {
            f[0] = rng.next_u64() as u8;
            f
        }
        // Random bytes behind a real tag.
        6 => {
            let len = rng.range(0, 3 * ACK_CHAN_PAIR_LEN as u64) as usize;
            let mut noise = random_bytes(rng, len);
            if let Some(b) = noise.first_mut() {
                *b = if rng.chance(0.5) { 0xA1 } else { 0xA2 };
            }
            noise
        }
        // Pure noise.
        _ => {
            let len = rng.range(0, 3 * ACK_CHAN_PAIR_LEN as u64) as usize;
            random_bytes(rng, len)
        }
    }
}

#[test]
fn decode_each_accepts_exactly_the_well_formed_frames() {
    let mut rng = SimRng::seed_from(0xAC4_C4A7);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for i in 0..FRAMES {
        let bytes = frame(&mut rng);
        let mut seen = Vec::new();
        let got = AckChanMsg::decode_each(&bytes, |m| seen.push(m));
        match well_formed_pairs(&bytes) {
            Some(n) => {
                accepted += 1;
                assert_eq!(got, Ok(n), "frame {i}: {bytes:02x?}");
                assert_eq!(seen.len(), n, "frame {i}: callback count");
                let mut again = Vec::new();
                if bytes[0] == 0xA1 {
                    again = seen[0].encode();
                } else {
                    AckChanMsg::encode_batch_into(&seen, &mut again);
                }
                assert_eq!(again, bytes, "frame {i}: decode/encode round trip");
            }
            None => {
                rejected += 1;
                assert!(got.is_err(), "frame {i} accepted: {bytes:02x?}");
                assert!(seen.is_empty(), "frame {i}: rejected frame applied pairs");
            }
        }
    }
    // Both sides of the specification were exercised in earnest.
    assert!(accepted > FRAMES / 10, "accepted {accepted}");
    assert!(rejected > FRAMES / 2, "rejected {rejected}");
}
