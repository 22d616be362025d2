//! `faults`: eight ranks in a ring of seeded 256 B `sendrecv`
//! exchanges on one SCI network whose seeded, survivable fault plan
//! drops messages and acknowledgements. It is the only workload that
//! drives madeleine's reliable-delivery sublayer (retransmits,
//! duplicate suppression, backoff timers).

use std::time::Instant;

use madeleine::FaultCounters;
use mpich::Placement;
use simnet::{FaultPlan, NetworkId, Protocol, Topology};

use super::{assemble, Checked, Workload, World};
use crate::harness::{run_world, Call};
use crate::stats;

pub const RANKS: usize = 8;
pub const ROUNDS: usize = 64;
pub const MSG: usize = 256;
/// Drop and ack-loss fates are drawn per (message sequence number,
/// size), and every connection numbers its messages alike, so a world
/// draws about `ROUNDS` distinct fates of each kind. At 0.2 a world
/// without a drop or without a duplicate has odds of 0.8^64 ≈ 6e-7.
pub const LOSS: f64 = 0.2;
pub const ACK_LOSS: f64 = 0.2;
const TAG: i32 = 3;

/// The message `src` sends its successor in exchange `i`.
pub fn payload(seed: u64, src: usize, i: usize) -> Vec<u8> {
    stats::bytes(seed, &[0x4654, src as u64, i as u64], MSG)
}

pub fn topology(seed: u64) -> Topology {
    let mut t = Topology::single_network(RANKS, Protocol::Sisci);
    let plan = FaultPlan::new(stats::hash(seed, &[0x504C]))
        .with_loss(LOSS)
        .with_ack_loss(ACK_LOSS);
    assert!(
        plan.is_survivable(),
        "the faults workload must be survivable"
    );
    t.set_fault(NetworkId(0), plan);
    t
}

/// Exchanges rank `me` got wrong: it must receive its predecessor's
/// `ROUNDS` messages exactly once, in order and intact (`digests[i]`
/// is the digest of the i-th message received), and nothing after.
pub fn check_rank(seed: u64, me: usize, digests: &[u64], leftover: bool) -> (u64, Vec<String>) {
    let prev = (me + RANKS - 1) % RANKS;
    let mut problems = Vec::new();
    let mut bad = (0..ROUNDS)
        .filter(|&i| digests.get(i) != Some(&stats::fnv(&payload(seed, prev, i))))
        .count() as u64;
    if bad > 0 {
        problems.push(format!(
            "rank {me}: {bad} exchanges missing, late or corrupt"
        ));
    }
    if digests.len() > ROUNDS || leftover {
        bad += 1;
        problems.push(format!("rank {me}: a message arrived more than once"));
    }
    (bad, problems)
}

/// The reliable-delivery sublayer must have had work to do, and every
/// drop must have been repaired by a retransmit.
pub fn check_counters(c: &FaultCounters) -> Result<(), String> {
    if c.drops == 0 || c.duplicates == 0 || c.retransmits < c.drops {
        return Err(format!(
            "fault counters out of bounds: drops {} duplicates {} retransmits {}",
            c.drops, c.duplicates, c.retransmits
        ));
    }
    Ok(())
}

pub struct Faults {
    seed: u64,
}

impl Faults {
    pub fn new(seed: u64) -> Self {
        Faults { seed }
    }
}

impl Workload for Faults {
    fn world(&self, epoch: Instant, traced: bool) -> World {
        let seed = self.seed;
        let (outcome, host) = run_world(
            epoch,
            traced,
            RANKS,
            move || topology(seed),
            Placement::OneRankPerNode,
            move |comm, rank| {
                let (me, n) = (comm.rank(), comm.size());
                let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                let ep = comm.endpoint();
                let mut digests = Vec::with_capacity(ROUNDS);
                for i in 0..ROUNDS {
                    let data = payload(seed, me, i);
                    let got = rank.call(Call::Sendrecv, || {
                        ep.sendrecv::<_, Vec<u8>>(&data[..], next, TAG, MSG, Some(prev), Some(TAG))
                    });
                    if let Ok((data, _)) = got {
                        digests.push(stats::fnv(&data));
                    }
                }
                let leftover = !matches!(ep.iprobe(None, None), Ok(None));
                (digests, leftover, marcel::now())
            },
        );
        let ops = (RANKS * ROUNDS) as u64;
        assemble(outcome, host, ops, traced, |results, _, session| {
            let mut checked = Checked {
                payload_bytes: ops * MSG as u64,
                ..Checked::default()
            };
            for (me, (digests, leftover, end)) in results.iter().enumerate() {
                let (bad, problems) = check_rank(seed, me, digests, *leftover);
                checked.failed += bad;
                checked.problems.extend(problems);
                checked.fingerprint = stats::hash(checked.fingerprint, &[end.0]);
                checked.fingerprint = stats::hash(checked.fingerprint, digests);
            }
            let counters = session.fault_counters();
            if let Err(problem) = check_counters(&counters) {
                checked.failed = ops;
                checked.problems.push(problem);
            }
            checked.fingerprint = stats::hash(
                checked.fingerprint,
                &[counters.drops, counters.duplicates, counters.retransmits],
            );
            checked
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbox(seed: u64, me: usize) -> Vec<u64> {
        let prev = (me + RANKS - 1) % RANKS;
        (0..ROUNDS)
            .map(|i| stats::fnv(&payload(seed, prev, i)))
            .collect()
    }

    #[test]
    fn an_intact_ordered_inbox_passes() {
        assert_eq!(check_rank(9, 0, &inbox(9, 0), false).0, 0);
    }

    #[test]
    fn a_flipped_byte_fails() {
        let mut digests = inbox(9, 2);
        let mut data = payload(9, 1, 5);
        data[200] ^= 0x80;
        digests[5] = stats::fnv(&data);
        assert_eq!(check_rank(9, 2, &digests, false).0, 1);
    }

    #[test]
    fn dropped_reordered_or_repeated_messages_fail() {
        let mut dropped = inbox(9, 2);
        dropped.pop();
        assert_eq!(check_rank(9, 2, &dropped, false).0, 1);
        let mut swapped = inbox(9, 2);
        swapped.swap(3, 4);
        assert_eq!(check_rank(9, 2, &swapped, false).0, 2);
        assert_eq!(check_rank(9, 2, &inbox(9, 2), true).0, 1);
    }

    #[test]
    fn counters_must_show_repaired_loss() {
        let ok = FaultCounters {
            retransmits: 12,
            drops: 10,
            duplicates: 2,
            ..FaultCounters::default()
        };
        assert!(check_counters(&ok).is_ok());
        for bad in [
            FaultCounters { drops: 0, ..ok },
            FaultCounters {
                duplicates: 0,
                ..ok
            },
            FaultCounters {
                retransmits: 9,
                ..ok
            },
        ] {
            assert!(check_counters(&bad).is_err());
        }
    }

    #[test]
    fn the_fault_plan_is_survivable_and_seeded() {
        let a = topology(1).networks()[0].fault.clone();
        assert!(a.is_some());
        assert_ne!(
            a.map(|p| p.fingerprint()),
            topology(2).networks()[0]
                .fault
                .clone()
                .map(|p| p.fingerprint())
        );
    }
}
