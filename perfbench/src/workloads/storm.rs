//! `storm`: eight ranks on one SCI network. Every rank bursts small
//! tagged eager messages to every peer, then drains them in reverse
//! order into `Bytes`, so each match is dug out of a deep unexpected
//! queue. No rendezvous, no faults.

use std::time::Instant;

use mpich::Placement;
use simnet::{Protocol, Topology};

use super::{assemble, Checked, Workload, World};
use crate::harness::{run_world, Call};
use crate::stats;

pub const RANKS: usize = 8;
pub const ROUNDS: usize = 16;
pub const MSG: usize = 16;

/// The content of the message `src` sends `dst` in `round`.
pub fn payload(seed: u64, src: usize, dst: usize, round: usize) -> [u8; MSG] {
    let a = stats::hash(seed, &[0x5354, src as u64, dst as u64, round as u64]);
    let mut out = [0u8; MSG];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&stats::mix(a).to_le_bytes());
    out
}

/// What a rank received: `(src, round, digest of the content)`.
pub type Received = (usize, usize, u64);

/// Messages a rank failed to receive intact: each (src, round) pair
/// must arrive exactly once with the seeded content.
pub fn check_rank(seed: u64, me: usize, records: &[Received]) -> (u64, Vec<String>) {
    let mut seen = [false; RANKS * ROUNDS];
    let mut problems = Vec::new();
    let mut bad = 0u64;
    for &(src, round, digest) in records {
        if src >= RANKS || src == me || round >= ROUNDS || seen[src * ROUNDS + round] {
            bad += 1;
            problems.push(format!("rank {me}: unexpected message ({src}, {round})"));
            continue;
        }
        seen[src * ROUNDS + round] = true;
        if digest != stats::fnv(&payload(seed, src, me, round)) {
            bad += 1;
            problems.push(format!("rank {me}: corrupt message ({src}, {round})"));
        }
    }
    let missing = (0..RANKS)
        .filter(|&src| src != me)
        .flat_map(|src| (0..ROUNDS).map(move |round| (src, round)))
        .filter(|&(src, round)| !seen[src * ROUNDS + round])
        .count() as u64;
    if missing > 0 {
        problems.push(format!("rank {me}: {missing} messages missing"));
    }
    (bad + missing, problems)
}

pub struct Storm {
    seed: u64,
}

impl Storm {
    pub fn new(seed: u64) -> Self {
        Storm { seed }
    }
}

impl Workload for Storm {
    fn world(&self, epoch: Instant, traced: bool) -> World {
        let seed = self.seed;
        let (outcome, host) = run_world(
            epoch,
            traced,
            RANKS,
            || Topology::single_network(RANKS, Protocol::Sisci),
            Placement::OneRankPerNode,
            move |comm, rank| {
                let (me, n) = (comm.rank(), comm.size());
                let ep = comm.endpoint();
                let mut failed_sends = 0u64;
                for round in 0..ROUNDS {
                    for step in 1..n {
                        let dst = (me + step) % n;
                        let data = payload(seed, me, dst, round);
                        let sent = rank.call(Call::Send, || ep.send(&data[..], dst, round as i32));
                        failed_sends += u64::from(sent.is_err());
                    }
                }
                let mut records = Vec::with_capacity((n - 1) * ROUNDS);
                for round in (0..ROUNDS).rev() {
                    for step in (1..n).rev() {
                        let src = (me + n - step) % n;
                        let got = rank.call(Call::Recv, || {
                            ep.recv::<bytes::Bytes>(MSG, Some(src), Some(round as i32))
                        });
                        if let Ok((data, _)) = got {
                            records.push((src, round, stats::fnv(&data)));
                        }
                    }
                }
                (records, failed_sends, marcel::now())
            },
        );
        let ops = (RANKS * (RANKS - 1) * ROUNDS) as u64;
        assemble(outcome, host, ops, traced, |results, _, _| {
            let mut checked = Checked {
                payload_bytes: ops * MSG as u64,
                ..Checked::default()
            };
            for (me, (records, failed_sends, end)) in results.iter().enumerate() {
                let (bad, problems) = check_rank(seed, me, records);
                checked.failed += bad.max(*failed_sends);
                checked.problems.extend(problems);
                checked.fingerprint = stats::hash(checked.fingerprint, &[end.0]);
            }
            checked
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbox(seed: u64, me: usize) -> Vec<Received> {
        (0..RANKS)
            .filter(|&src| src != me)
            .flat_map(|src| (0..ROUNDS).map(move |round| (src, round)))
            .map(|(src, round)| (src, round, stats::fnv(&payload(seed, src, me, round))))
            .collect()
    }

    #[test]
    fn a_complete_inbox_passes() {
        assert_eq!(check_rank(5, 3, &inbox(5, 3)).0, 0);
    }

    #[test]
    fn a_flipped_byte_fails() {
        let mut records = inbox(5, 3);
        let (src, round, _) = records[17];
        let mut data = payload(5, src, 3, round);
        data[4] ^= 1;
        records[17].2 = stats::fnv(&data);
        assert_eq!(check_rank(5, 3, &records).0, 1);
    }

    #[test]
    fn a_dropped_or_doubled_message_fails() {
        let mut records = inbox(5, 3);
        records.remove(40);
        assert_eq!(check_rank(5, 3, &records).0, 1);
        let mut records = inbox(5, 3);
        records.push(records[0]);
        assert_eq!(check_rank(5, 3, &records).0, 1);
    }

    #[test]
    fn content_from_another_seed_fails() {
        assert_eq!(check_rank(6, 3, &inbox(5, 3)).0, inbox(5, 3).len() as u64);
    }
}
