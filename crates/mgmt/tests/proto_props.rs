//! Randomized-sweep tests for the management protocol's wire format and
//! the chain role computation (formerly proptest properties; now driven by
//! the in-tree deterministic [`SimRng`]).

use std::collections::BTreeSet;

use hydranet_mgmt::chain::assignments;
use hydranet_mgmt::proto::{Envelope, MgmtMsg};
use hydranet_mgmt::reliable::ReliableEndpoint;
use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::rng::SimRng;
use hydranet_netsim::time::SimTime;
use hydranet_tcp::segment::SockAddr;

fn arb_addr(rng: &mut SimRng) -> IpAddr {
    IpAddr::from_bits(rng.next_u64() as u32)
}

fn arb_sockaddr(rng: &mut SimRng) -> SockAddr {
    SockAddr::new(arb_addr(rng), rng.next_u64() as u16)
}

fn arb_chain(rng: &mut SimRng) -> Vec<IpAddr> {
    (0..rng.range(0, 5)).map(|_| arb_addr(rng)).collect()
}

fn arb_msg(rng: &mut SimRng) -> MgmtMsg {
    match rng.range(0, 9) {
        0 => MgmtMsg::RegisterReplica {
            service: arb_sockaddr(rng),
            host: arb_addr(rng),
        },
        1 => MgmtMsg::Deregister {
            service: arb_sockaddr(rng),
            host: arb_addr(rng),
        },
        2 => MgmtMsg::FailureReport {
            service: arb_sockaddr(rng),
            reporter: arb_addr(rng),
            observed: rng.next_u64(),
        },
        3 => MgmtMsg::SetRole {
            service: arb_sockaddr(rng),
            index: rng.next_u64() as u32,
            predecessor: if rng.chance(0.5) {
                Some(arb_addr(rng))
            } else {
                None
            },
            has_successor: rng.chance(0.5),
        },
        4 => MgmtMsg::Probe {
            nonce: rng.next_u64(),
        },
        5 => MgmtMsg::ProbeAck {
            nonce: rng.next_u64(),
        },
        6 => MgmtMsg::TableReplicate {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
            service: arb_sockaddr(rng),
            chain: arb_chain(rng),
        },
        7 => MgmtMsg::TableSnapshot {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
            entries: (0..rng.range(0, 4))
                .map(|_| (arb_sockaddr(rng), arb_chain(rng)))
                .collect(),
        },
        _ => MgmtMsg::EpochReject {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
        },
    }
}

fn arb_envelope(rng: &mut SimRng) -> Envelope {
    if rng.chance(0.1) {
        Envelope::Ack { of: rng.next_u64() }
    } else {
        Envelope::Payload {
            id: rng.next_u64(),
            needs_ack: rng.chance(0.5),
            msg: arb_msg(rng),
        }
    }
}

/// Every message round-trips through the envelope wire format.
#[test]
fn envelope_roundtrip() {
    let mut rng = SimRng::seed_from(1);
    for _ in 0..512 {
        let env = Envelope::Payload {
            id: rng.next_u64(),
            needs_ack: rng.chance(0.5),
            msg: arb_msg(&mut rng),
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }
}

/// Acks round-trip too.
#[test]
fn ack_roundtrip() {
    let mut rng = SimRng::seed_from(2);
    for _ in 0..128 {
        let env = Envelope::Ack { of: rng.next_u64() };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }
}

/// Decoding arbitrary bytes never panics.
#[test]
fn decode_never_panics() {
    let mut rng = SimRng::seed_from(3);
    for _ in 0..512 {
        let len = rng.range(0, 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Envelope::decode(&bytes);
    }
}

/// Malformed datagrams: valid envelopes with a random byte overwritten,
/// trailing bytes appended, or a truncated tail, plus random bytes. Decoding
/// never panics, every accepted frame re-encodes to exactly its input (so a
/// non-0/1 flag or presence byte and trailing bytes are rejected), and the
/// reliable endpoint counts each rejected frame as malformed without
/// delivering or acking it.
#[test]
fn malformed_frames_are_rejected_and_counted() {
    let mut rng = SimRng::seed_from(6);
    let mut ep = ReliableEndpoint::new();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..12_000u64 {
        let mut bytes = arb_envelope(&mut rng).encode();
        match rng.range(0, 4) {
            0 => {
                let at = rng.range(0, bytes.len() as u64) as usize;
                bytes[at] = rng.next_u64() as u8;
            }
            1 => {
                for _ in 0..rng.range(1, 4) {
                    bytes.push(rng.next_u64() as u8);
                }
            }
            2 => bytes.truncate(rng.range(0, bytes.len() as u64) as usize),
            _ => {
                let len = rng.range(0, 48) as usize;
                bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
        }
        let peer = IpAddr::from_bits(i as u32);
        let (msg, acks) = ep.on_datagram(peer, &bytes, SimTime::ZERO);
        match Envelope::decode(&bytes) {
            Ok(env) => {
                accepted += 1;
                assert_eq!(env.encode(), bytes, "accepted frame {i} does not re-encode");
            }
            Err(_) => {
                rejected += 1;
                assert!(msg.is_none() && acks.is_empty(), "frame {i} acted on");
            }
        }
        assert_eq!(ep.malformed(), rejected, "frame {i}");
    }
    // Both outcomes are exercised: overwrites that keep a valid value
    // (an id or nonce byte) are accepted.
    assert!(
        accepted > 1_000 && rejected > 5_000,
        "{accepted} / {rejected}"
    );
}

/// Truncating a valid envelope anywhere yields an error, not garbage.
#[test]
fn truncation_is_detected() {
    let mut rng = SimRng::seed_from(4);
    for _ in 0..256 {
        let bytes = Envelope::Payload {
            id: rng.next_u64(),
            needs_ack: true,
            msg: arb_msg(&mut rng),
        }
        .encode();
        let cut = rng.range(1, 20) as usize;
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut];
            assert!(Envelope::decode(truncated).is_err());
        }
    }
}

/// Chain role computation invariants, for any chain of distinct hosts:
/// indices are sequential, the head is the ungated-predecessor primary,
/// exactly the tail lacks a successor, and each predecessor is the
/// previous chain member.
#[test]
fn chain_assignment_invariants() {
    let mut rng = SimRng::seed_from(5);
    for _ in 0..256 {
        let n = rng.range(1, 8) as usize;
        let mut raw = BTreeSet::new();
        while raw.len() < n {
            raw.insert(rng.next_u64() as u32);
        }
        let chain: Vec<IpAddr> = raw.into_iter().map(IpAddr::from_bits).collect();
        let roles = assignments(&chain);
        assert_eq!(roles.len(), chain.len());
        for (i, role) in roles.iter().enumerate() {
            assert_eq!(role.host, chain[i]);
            assert_eq!(role.index as usize, i);
            assert_eq!(
                role.predecessor,
                if i == 0 { None } else { Some(chain[i - 1]) }
            );
            assert_eq!(role.has_successor, i + 1 < chain.len());
        }
        // Exactly one primary; exactly one tail.
        assert_eq!(roles.iter().filter(|r| r.index == 0).count(), 1);
        assert_eq!(roles.iter().filter(|r| !r.has_successor).count(), 1);
    }
}
