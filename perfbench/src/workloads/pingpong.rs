//! `pingpong`: the paper's mpptest ping-pong between two ranks on the
//! Figure 9 pair (SCI, plus a TCP channel that is polled but idle),
//! sweeping small sizes for per-message cost and large ones for
//! per-byte cost, with typed `&[u8]` / `Vec<u8>` payloads.

use std::time::Instant;

use mpich::Placement;
use simnet::{Protocol, Topology};

use super::{assemble, Checked, Workload, World};
use crate::harness::{run_world, Call};
use crate::stats;

/// Small legs: per-message cost (marcel handoffs, ch_mad handling).
pub const SMALL: [(usize, usize); 4] = [(4, 400), (64, 400), (1024, 400), (4096, 400)];
/// Large legs: per-byte cost (typed conversion, rendezvous copies).
pub const LARGE: [(usize, usize); 2] = [(1 << 20, 6), (8 << 20, 3)];
const TAG: i32 = 9;
/// Table 2's SCI 8 MB bandwidth, MB/s with 1 MB = 2^20 bytes.
pub const PAPER_SCI_MB_S: f64 = 82.5;

/// One size's timed exchanges, seen from rank 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Leg {
    pub size: usize,
    pub iters: usize,
    pub host_ns: u64,
    /// Virtual time of the timed round trips.
    pub virtual_ns: u64,
}

impl Leg {
    pub fn oneway_ns(&self) -> f64 {
        self.virtual_ns as f64 / (2 * self.iters) as f64
    }
}

/// The Figure 9 pair: two dual-CPU nodes on SCI, optionally also on TCP.
pub fn fig9_pair(with_tcp: bool) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    t.add_network(Protocol::Sisci, [a, b]);
    if with_tcp {
        t.add_network(Protocol::Tcp, [a, b]);
    }
    t
}

/// The payload every exchange of one size carries.
pub fn payload(seed: u64, size: usize) -> Vec<u8> {
    stats::bytes(seed, &[0x5050, size as u64], size)
}

/// Messages one world exchanges: each leg has one untimed warm-up
/// round trip, and a round trip is two messages.
pub fn ops(legs: &[(usize, usize)]) -> u64 {
    legs.iter().map(|&(_, iters)| 2 * (iters as u64 + 1)).sum()
}

/// Virtual one-way latency must never decrease with message size.
pub fn check_monotone(legs: &[Leg]) -> Result<(), String> {
    for pair in legs.windows(2) {
        if pair[1].oneway_ns() < pair[0].oneway_ns() {
            return Err(format!(
                "one-way latency fell from {:.1} ns at {} B to {:.1} ns at {} B",
                pair[0].oneway_ns(),
                pair[0].size,
                pair[1].oneway_ns(),
                pair[1].size
            ));
        }
    }
    Ok(())
}

/// Figure 9: over the same timed 4 B round trips, the idle TCP channel
/// adds exactly one TCP poll to each of the two detections per trip.
pub fn check_fig9_tax(with_tcp: &Leg, sci_only: &Leg, poll_cost_ns: u64) -> Result<(), String> {
    let expected = 2 * with_tcp.iters as u64 * poll_cost_ns;
    let tax = with_tcp.virtual_ns.checked_sub(sci_only.virtual_ns);
    if with_tcp.iters != sci_only.iters || tax != Some(expected) {
        return Err(format!(
            "4 B Figure 9 tax over {} round trips is {tax:?} ns, expected {expected} ns",
            with_tcp.iters
        ));
    }
    Ok(())
}

/// The 8 MB virtual bandwidth must lie within 5% of Table 2's SCI figure.
pub fn check_bandwidth(leg: &Leg) -> Result<(), String> {
    let mb_s = leg.size as f64 / (1 << 20) as f64 / (leg.oneway_ns() * 1e-9);
    if (mb_s / PAPER_SCI_MB_S - 1.0).abs() > 0.05 {
        return Err(format!(
            "{} B virtual bandwidth {mb_s:.2} MB/s is not within 5% of {PAPER_SCI_MB_S} MB/s",
            leg.size
        ));
    }
    Ok(())
}

pub struct Pingpong {
    seed: u64,
    /// The SCI-only 4 B leg the Figure 9 check compares against.
    sci_only: Option<Leg>,
}

impl Pingpong {
    pub fn new(seed: u64) -> Self {
        Pingpong {
            seed,
            sci_only: None,
        }
    }

    fn run(
        &self,
        epoch: Instant,
        traced: bool,
        with_tcp: bool,
        legs: &'static [(usize, usize)],
    ) -> (World, Vec<Leg>) {
        let seed = self.seed;
        let (outcome, host) = run_world(
            epoch,
            traced,
            2,
            move || fig9_pair(with_tcp),
            Placement::OneRankPerNode,
            move |comm, rank| {
                let ep = comm.endpoint();
                // Messages this rank received that differ from the seeded
                // payload: rank 1 checks every ping, rank 0 every echo.
                let mut bad = 0u64;
                let mut timed = Vec::new();
                for &(size, iters) in legs {
                    let data = payload(seed, size);
                    let (mut h0, mut v0) = (Instant::now(), marcel::now());
                    // Trip 0 is the untimed warm-up.
                    for trip in 0..=iters {
                        if trip == 1 {
                            (h0, v0) = (Instant::now(), marcel::now());
                        }
                        if comm.rank() == 0 {
                            let sent = rank.call(Call::Send, || ep.send(&data[..], 1, TAG));
                            let back = rank
                                .call(Call::Recv, || ep.recv::<Vec<u8>>(size, Some(1), Some(TAG)));
                            bad += u64::from(
                                !matches!((sent, back), (Ok(()), Ok((b, _))) if b == data),
                            );
                        } else {
                            let ping = rank
                                .call(Call::Recv, || ep.recv::<Vec<u8>>(size, Some(0), Some(TAG)))
                                .map(|(ping, _)| ping)
                                .unwrap_or_default();
                            bad += u64::from(ping != data);
                            // Echo what arrived, so that a corruption on the
                            // way back also shows on rank 0.
                            let _ = rank.call(Call::Send, || ep.send(&ping[..], 0, TAG));
                        }
                    }
                    timed.push(Leg {
                        size,
                        iters,
                        host_ns: h0.elapsed().as_nanos() as u64,
                        virtual_ns: (marcel::now() - v0).as_nanos(),
                    });
                }
                (timed, bad)
            },
        );
        let payload_bytes = delivered_bytes(legs);
        let mut legs_out = Vec::new();
        let world = assemble(outcome, host, ops(legs), traced, |results, _, _| {
            let legs = results[0].0.clone();
            let failed = results.iter().map(|r| r.1).sum();
            let problems = results
                .iter()
                .enumerate()
                .filter(|(_, r)| r.1 > 0)
                .map(|(me, r)| {
                    format!("rank {me}: {} messages differ from the seeded payload", r.1)
                })
                .collect();
            let timed = |which: &[(usize, usize)], per: &dyn Fn(&Leg) -> u64| {
                let of = |l: &&Leg| which.iter().any(|&(s, _)| s == l.size);
                let work: u64 = legs.iter().filter(of).map(per).sum();
                let ns: u64 = legs.iter().filter(of).map(|l| l.host_ns).sum();
                work as f64 / (ns as f64 * 1e-9)
            };
            let ops_per_s = timed(&SMALL, &|l| 2 * l.iters as u64);
            let bytes_per_s = timed(&LARGE, &|l| 2 * (l.iters * l.size) as u64);
            let fingerprint = legs.iter().fold(stats::hash(0, &[failed]), |h, l| {
                stats::hash(h, &[l.size as u64, l.virtual_ns])
            });
            legs_out = legs;
            Checked {
                failed,
                problems,
                fingerprint,
                payload_bytes,
                rates: Some((ops_per_s, bytes_per_s)),
            }
        });
        (world, legs_out)
    }
}

/// Payload bytes one world delivers, warm-up trips included.
fn delivered_bytes(legs: &[(usize, usize)]) -> u64 {
    legs.iter()
        .map(|&(size, iters)| 2 * (iters as u64 + 1) * size as u64)
        .sum()
}

/// Every leg of the measured world: small sizes first, then large.
static ALL_LEGS: [(usize, usize); 6] = [SMALL[0], SMALL[1], SMALL[2], SMALL[3], LARGE[0], LARGE[1]];
/// The SCI-only reference world runs just the 4 B leg.
static TAX_LEG: [(usize, usize); 1] = [SMALL[0]];

impl Workload for Pingpong {
    fn prepare(&mut self, epoch: Instant) -> Result<(), String> {
        let (world, legs) = self.run(epoch, false, false, &TAX_LEG);
        if world.failed > 0 || legs.len() != 1 {
            return Err(format!(
                "SCI-only reference world failed: {:?}",
                world.problems
            ));
        }
        self.sci_only = legs.into_iter().next();
        Ok(())
    }

    fn world(&self, epoch: Instant, traced: bool) -> World {
        let (mut world, legs) = self.run(epoch, traced, true, &ALL_LEGS);
        if world.failed == world.ops {
            return world;
        }
        let poll_cost = Protocol::Tcp.model().poll_cost.as_nanos();
        let tax = match &self.sci_only {
            Some(reference) => check_fig9_tax(&legs[0], reference, poll_cost),
            None => Err("no SCI-only reference leg".into()),
        };
        let checks = [
            check_monotone(&legs),
            tax,
            check_bandwidth(&legs[legs.len() - 1]),
        ];
        for problem in checks.into_iter().filter_map(Result::err) {
            world.problems.push(problem);
            world.failed = world.ops;
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(size: usize, iters: usize, virtual_ns: u64) -> Leg {
        Leg {
            size,
            iters,
            host_ns: 1,
            virtual_ns,
        }
    }

    #[test]
    fn monotone_latency_rejects_a_shifted_time() {
        let legs = vec![
            leg(4, 10, 20_000),
            leg(64, 10, 21_000),
            leg(1024, 10, 40_000),
        ];
        assert!(check_monotone(&legs).is_ok());
        let mut shifted = legs.clone();
        shifted[1].virtual_ns = 19_999;
        assert!(check_monotone(&shifted).is_err());
    }

    #[test]
    fn fig9_tax_must_be_exactly_one_poll_per_detection() {
        let sci = leg(4, 10, 100_000);
        let tcp = leg(4, 10, 100_000 + 2 * 10 * 6_000);
        assert!(check_fig9_tax(&tcp, &sci, 6_000).is_ok());
        let shifted = leg(4, 10, tcp.virtual_ns + 1);
        assert!(check_fig9_tax(&shifted, &sci, 6_000).is_err());
        assert!(check_fig9_tax(&sci, &tcp, 6_000).is_err());
    }

    #[test]
    fn bandwidth_must_be_near_table_2() {
        // 8 MiB one way in 8/82.5 s is exactly the paper's figure.
        let exact = (8.0 / PAPER_SCI_MB_S * 1e9) as u64;
        assert!(check_bandwidth(&leg(8 << 20, 1, 2 * exact)).is_ok());
        assert!(check_bandwidth(&leg(8 << 20, 1, 2 * exact * 11 / 10)).is_err());
    }
}
