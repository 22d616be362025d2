//! `collectives`: sixteen ranks on the paper's meta-cluster (an SCI
//! cluster and a Myrinet cluster of four dual-CPU nodes each, all on
//! TCP), one rank per CPU, running a seeded mix of allreduce, bcast,
//! allgather and alltoall under the default collective policy. It
//! crosses smp_plug and ch_mad over SCI, BIP and TCP.

use std::time::Instant;

use mpich::{Placement, ReduceOp};
use simnet::Topology;

use super::{assemble, Checked, Workload, World};
use crate::harness::{run_world, Call};
use crate::stats;

pub const RANKS: usize = 16;
/// Steps of each kind per world; the seed sets their order, roots and
/// contents, never their number or sizes. One alltoall (16 ranks, a
/// worker thread per outgoing part) costs about as much host time as
/// all the other steps together.
pub const MIX: [(Kind, usize); 4] = [
    (Kind::Allreduce, 3),
    (Kind::Bcast, 3),
    (Kind::Allgather, 3),
    (Kind::Alltoall, 1),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Allreduce,
    Bcast,
    Allgather,
    Alltoall,
}

impl Kind {
    /// Elements (`i64`) per contribution, block or part.
    pub fn len(self) -> usize {
        match self {
            Kind::Allreduce => 64,
            Kind::Bcast => 256,
            Kind::Allgather => 32,
            Kind::Alltoall => 8,
        }
    }

    /// User payload bytes the whole world receives in one such step;
    /// a rank's own block does not count as delivered.
    pub fn delivered_bytes(self) -> u64 {
        let (n, b) = (RANKS as u64, 8 * self.len() as u64);
        match self {
            Kind::Allreduce => n * b,
            Kind::Bcast => (n - 1) * b,
            Kind::Allgather | Kind::Alltoall => n * (n - 1) * b,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub kind: Kind,
    pub root: usize,
    pub salt: u64,
}

/// The world's steps: the [`MIX`], shuffled by the seed, except that
/// the alltoall never comes first. Its `sendrecv` rounds spawn a worker
/// thread per part, and as a first step they could start before the
/// last rank body has, which would change `os_threads_peak` with the
/// seed.
pub fn schedule(seed: u64) -> Vec<Step> {
    let kinds = MIX
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count));
    let mut steps: Vec<Step> = kinds
        .enumerate()
        .map(|(i, kind)| Step {
            kind,
            root: (stats::hash(seed, &[0x524F, i as u64]) % RANKS as u64) as usize,
            salt: stats::hash(seed, &[0x5341, i as u64]),
        })
        .collect();
    for i in (1..steps.len()).rev() {
        let j = (stats::hash(seed, &[0x5348, i as u64]) % (i as u64 + 1)) as usize;
        steps.swap(i, j);
    }
    if steps[0].kind == Kind::Alltoall {
        let last = steps.len() - 1;
        steps.swap(0, last);
    }
    steps
}

fn word(salt: u64, coords: &[u64]) -> i64 {
    stats::hash(salt, coords) as i64
}

/// Allreduce contribution of `rank`: `a[k] + rank * b[k]`, small enough
/// that the sum over ranks cannot overflow.
pub fn contribution(step: &Step, rank: usize) -> Vec<i64> {
    (0..step.kind.len() as u64)
        .map(|k| {
            let a = stats::hash(step.salt, &[1, k]) % (1 << 30);
            let b = stats::hash(step.salt, &[2, k]) % (1 << 20);
            (a + rank as u64 * b) as i64
        })
        .collect()
}

/// The allreduce sum in closed form: `n * a[k] + b[k] * n(n-1)/2`.
pub fn closed_form_sum(step: &Step) -> Vec<i64> {
    let n = RANKS as u64;
    (0..step.kind.len() as u64)
        .map(|k| {
            let a = stats::hash(step.salt, &[1, k]) % (1 << 30);
            let b = stats::hash(step.salt, &[2, k]) % (1 << 20);
            (n * a + b * n * (n - 1) / 2) as i64
        })
        .collect()
}

/// The block `rank` broadcasts (as root) or contributes to an allgather.
pub fn block(step: &Step, rank: usize) -> Vec<i64> {
    (0..step.kind.len() as u64)
        .map(|k| word(step.salt, &[3, rank as u64, k]))
        .collect()
}

/// The part `src` sends `dst` in an alltoall.
pub fn part(step: &Step, src: usize, dst: usize) -> Vec<i64> {
    (0..step.kind.len() as u64)
        .map(|k| word(step.salt, &[4, src as u64, dst as u64, k]))
        .collect()
}

/// What one rank got back from one step.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    One(Vec<i64>),
    PerRank(Vec<Vec<i64>>),
}

/// Whether `out` is what rank `me` must get from `step`.
pub fn check(step: &Step, me: usize, out: &Output) -> bool {
    match (step.kind, out) {
        (Kind::Allreduce, Output::One(v)) => *v == closed_form_sum(step),
        (Kind::Bcast, Output::One(v)) => *v == block(step, step.root),
        (Kind::Allgather, Output::PerRank(vs)) => {
            vs.len() == RANKS && vs.iter().enumerate().all(|(r, v)| *v == block(step, r))
        }
        (Kind::Alltoall, Output::PerRank(vs)) => {
            vs.len() == RANKS
                && vs
                    .iter()
                    .enumerate()
                    .all(|(src, v)| *v == part(step, src, me))
        }
        _ => false,
    }
}

fn digest(out: &Output) -> u64 {
    let flat: Vec<u8> = match out {
        Output::One(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        Output::PerRank(vs) => vs.iter().flatten().flat_map(|x| x.to_le_bytes()).collect(),
    };
    stats::fnv(&flat)
}

pub struct Collectives {
    seed: u64,
}

impl Collectives {
    pub fn new(seed: u64) -> Self {
        Collectives { seed }
    }
}

impl Workload for Collectives {
    fn world(&self, epoch: Instant, traced: bool) -> World {
        let steps = schedule(self.seed);
        let body_steps = steps.clone();
        let (outcome, host) = run_world(
            epoch,
            traced,
            RANKS,
            || Topology::meta_cluster(RANKS / 4),
            Placement::OneRankPerCpu,
            move |comm, rank| {
                let me = comm.rank();
                let mut verdicts = Vec::with_capacity(body_steps.len());
                for step in &body_steps {
                    // Inputs are made outside the call, so the call's
                    // span covers the collective alone.
                    let out = match step.kind {
                        Kind::Allreduce => {
                            let mine = contribution(step, me);
                            let sum =
                                rank.call(Call::Allreduce, || comm.allreduce(&mine, ReduceOp::Sum));
                            Ok(Output::One(sum))
                        }
                        Kind::Bcast => {
                            let mine = (me == step.root).then(|| block(step, me));
                            rank.call(Call::Bcast, || comm.bcast(step.root, mine))
                                .map(Output::One)
                        }
                        Kind::Allgather => {
                            let mine = block(step, me);
                            Ok(Output::PerRank(
                                rank.call(Call::Allgather, || comm.allgather(&mine)),
                            ))
                        }
                        Kind::Alltoall => {
                            let parts = (0..comm.size()).map(|dst| part(step, me, dst)).collect();
                            rank.call(Call::Alltoall, || comm.alltoall(parts))
                                .map(Output::PerRank)
                        }
                    };
                    verdicts.push(match out {
                        Ok(out) => (check(step, me, &out), digest(&out)),
                        Err(_) => (false, 0),
                    });
                }
                (verdicts, marcel::now())
            },
        );
        let ops = steps.len() as u64;
        assemble(outcome, host, ops, traced, |results, _, _| {
            let mut checked = Checked {
                payload_bytes: steps.iter().map(|s| s.kind.delivered_bytes()).sum(),
                ..Checked::default()
            };
            for (i, step) in steps.iter().enumerate() {
                let bad: Vec<usize> = (0..results.len())
                    .filter(|&r| !results[r].0.get(i).is_some_and(|v| v.0))
                    .collect();
                if !bad.is_empty() {
                    checked.failed += 1;
                    checked.problems.push(format!(
                        "step {i} ({:?}): wrong result on ranks {bad:?}",
                        step.kind
                    ));
                }
            }
            for (verdicts, end) in results {
                let digests: Vec<u64> = verdicts.iter().map(|v| v.1).collect();
                checked.fingerprint = stats::hash(checked.fingerprint, &[end.0]);
                checked.fingerprint = stats::hash(checked.fingerprint, &digests);
            }
            checked
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(kind: Kind) -> Step {
        Step {
            kind,
            root: 5,
            salt: 0xABCD,
        }
    }

    #[test]
    fn schedule_is_a_seeded_shuffle_of_fixed_counts() {
        let a = schedule(1);
        assert_eq!(a, schedule(1));
        assert_ne!(a, schedule(2));
        for (kind, count) in MIX {
            assert_eq!(a.iter().filter(|s| s.kind == kind).count(), count);
        }
        for seed in 0..64 {
            assert_ne!(schedule(seed)[0].kind, Kind::Alltoall);
        }
    }

    #[test]
    fn closed_form_matches_the_summed_contributions() {
        let s = step(Kind::Allreduce);
        let mut sum = vec![0i64; s.kind.len()];
        for r in 0..RANKS {
            for (acc, x) in sum.iter_mut().zip(contribution(&s, r)) {
                *acc += x;
            }
        }
        assert_eq!(sum, closed_form_sum(&s));
        assert!(check(&s, 0, &Output::One(sum.clone())));
        sum[3] += 1;
        assert!(!check(&s, 0, &Output::One(sum)), "an off-by-one sum passed");
    }

    #[test]
    fn gathered_and_exchanged_blocks_must_sit_in_rank_order() {
        let s = step(Kind::Allgather);
        let mut good: Vec<Vec<i64>> = (0..RANKS).map(|r| block(&s, r)).collect();
        assert!(check(&s, 2, &Output::PerRank(good.clone())));
        good.swap(0, 1);
        assert!(!check(&s, 2, &Output::PerRank(good)));

        let s = step(Kind::Alltoall);
        let mut got: Vec<Vec<i64>> = (0..RANKS).map(|src| part(&s, src, 7)).collect();
        assert!(check(&s, 7, &Output::PerRank(got.clone())));
        assert!(!check(&s, 6, &Output::PerRank(got.clone())));
        got[9][0] ^= 1;
        assert!(!check(&s, 7, &Output::PerRank(got)));
    }

    #[test]
    fn bcast_must_deliver_the_roots_block() {
        let s = step(Kind::Bcast);
        assert!(check(&s, 1, &Output::One(block(&s, 5))));
        assert!(!check(&s, 1, &Output::One(block(&s, 4))));
    }
}
