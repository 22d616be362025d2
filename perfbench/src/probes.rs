//! Layer probes the traced mode runs after its worlds: each isolates
//! one layer's cost through that crate's public functions.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use madeleine::{ReceiveMode, SendMode, Session};
use marcel::{CostModel, Kernel, Semaphore};
use mpich::{Placement, ReduceOp};
use simnet::{Protocol, Topology};

use crate::harness::{run_world, Call};
use crate::stats;
use crate::workloads::{assemble, Checked, World};

/// Host ns per marcel handoff: two threads of a bare kernel trade a
/// semaphore `rounds` times (two handoffs per round) while `idle`
/// further threads stay parked on another semaphore.
pub fn handoff_ns(idle: usize, rounds: usize) -> Result<f64, String> {
    let kernel = Kernel::new(CostModel::calibrated());
    let park = Semaphore::new(&kernel, 0);
    for i in 0..idle {
        let park = park.clone();
        // Spawned first, so they run first and park before the timing.
        kernel.spawn(format!("idle{i}"), move || park.acquire());
    }
    let ping = Semaphore::new(&kernel, 0);
    let pong = Semaphore::new(&kernel, 0);
    let (p, q) = (ping.clone(), pong.clone());
    const WARM: usize = 16;
    let timer = kernel.spawn("a", move || {
        for _ in 0..WARM {
            q.release();
            p.acquire();
        }
        let t = Instant::now();
        for _ in 0..rounds {
            q.release();
            p.acquire();
        }
        let ns = t.elapsed().as_nanos() as f64;
        for _ in 0..idle {
            park.release();
        }
        ns
    });
    kernel.spawn("b", move || {
        for _ in 0..WARM + rounds {
            pong.acquire();
            ping.release();
        }
    });
    kernel.run().map_err(|e| format!("handoff probe: {e}"))?;
    let ns = timer.join_outcome().ok_or("handoff probe: no timing")?;
    Ok(ns / (2 * rounds) as f64)
}

/// Raw Madeleine ping-pong of `size` bytes on a two-rank SCI session:
/// host ns per round trip and payload bytes per host second.
pub fn raw_madeleine(size: usize, iters: usize) -> Result<(f64, f64), String> {
    let kernel = Kernel::new(CostModel::calibrated());
    let session = Session::single_network(&kernel, 2, Protocol::Sisci);
    let channel = session.channels()[0].clone();
    let e0 = channel.endpoint(0).map_err(|e| e.to_string())?;
    let e1 = channel.endpoint(1).map_err(|e| e.to_string())?;
    let payload = Bytes::from(stats::bytes(1, &[size as u64], size));
    let expect = payload.clone();
    let timer = kernel.spawn("rank0", move || {
        let trip = || {
            let mut out = e0.begin_packing(1).ok()?;
            out.pack_bytes(payload.clone(), SendMode::Cheaper, ReceiveMode::Cheaper);
            out.end_packing().ok()?;
            let mut back = e0.begin_unpacking()?;
            let data = back.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
            back.end_unpacking();
            (data == expect).then_some(())
        };
        trip()?;
        let t = Instant::now();
        for _ in 0..iters {
            trip()?;
        }
        Some(t.elapsed().as_nanos() as f64)
    });
    kernel.spawn("rank1", move || {
        for _ in 0..=iters {
            let Some(mut conn) = e1.begin_unpacking() else {
                return;
            };
            let data = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_unpacking();
            let Ok(mut conn) = e1.begin_packing(0) else {
                return;
            };
            conn.pack_bytes(data, SendMode::Cheaper, ReceiveMode::Cheaper);
            if conn.end_packing().is_err() {
                return;
            }
        }
    });
    kernel
        .run()
        .map_err(|e| format!("raw Madeleine probe: {e}"))?;
    let ns = timer
        .join_outcome()
        .flatten()
        .ok_or("raw Madeleine probe: a round trip failed")?;
    let per_trip = ns / iters as f64;
    Ok((per_trip, 2.0 * size as f64 / (per_trip * 1e-9)))
}

/// Host ns per byte of the typed conversion a `&[u8]` send and a
/// `Vec<u8>` receive pay: `to_bytes` then `from_bytes`, median of `reps`.
pub fn convert_ns_per_byte(size: usize, reps: usize) -> Result<f64, String> {
    let data = stats::bytes(2, &[size as u64], size);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let wire = mpich::to_bytes(black_box(&data[..]));
        let back: Vec<u8> = mpich::from_bytes(black_box(&wire));
        let ns = t.elapsed().as_nanos() as f64;
        if back != data {
            return Err("typed conversion did not round-trip".into());
        }
        samples.push(ns / size as f64);
    }
    stats::median(&mut samples).ok_or_else(|| "no conversion samples".into())
}

/// A small traced world that makes every kind of MPI call the
/// workloads make, for the per-call metrics of calls a workload's own
/// worlds do not make.
pub fn calls(epoch: Instant) -> World {
    const RANKS: usize = 4;
    const REPS: usize = 24;
    const LEN: usize = 8;
    let (outcome, host) = run_world(
        epoch,
        true,
        RANKS,
        || Topology::single_network(RANKS, Protocol::Sisci),
        Placement::OneRankPerNode,
        |comm, rank| {
            let (me, n) = (comm.rank(), comm.size());
            let ep = comm.endpoint();
            let data: Vec<i64> = (0..LEN as i64).map(|k| k + me as i64).collect();
            let mut ok = true;
            for _ in 0..REPS {
                if me < 2 {
                    let peer = 1 - me;
                    if me == 0 {
                        ok &= rank
                            .call(Call::Send, || ep.send(&data[..], peer, 1))
                            .is_ok();
                    }
                    let got = rank.call(Call::Recv, || {
                        ep.recv::<Vec<i64>>(8 * LEN, Some(peer), Some(1))
                    });
                    ok &= got.is_ok();
                    if me == 1 {
                        ok &= rank
                            .call(Call::Send, || ep.send(&data[..], peer, 1))
                            .is_ok();
                    }
                }
                let got = rank.call(Call::Sendrecv, || {
                    ep.sendrecv::<_, Vec<i64>>(
                        &data[..],
                        (me + 1) % n,
                        2,
                        8 * LEN,
                        Some((me + n - 1) % n),
                        Some(2),
                    )
                });
                ok &= got.is_ok_and(|(v, _)| v[0] == ((me + n - 1) % n) as i64);
                let sum = rank.call(Call::Allreduce, || comm.allreduce(&data, ReduceOp::Sum));
                ok &= sum[0] == (n * (n - 1) / 2) as i64;
                let b = rank.call(Call::Bcast, || {
                    comm.bcast(0, (me == 0).then(|| data.clone()))
                });
                ok &= b.is_ok_and(|v| v[0] == 0);
                let all = rank.call(Call::Allgather, || comm.allgather(&data));
                ok &= all.len() == n;
                let parts = (0..n).map(|_| data.clone()).collect();
                let x = rank.call(Call::Alltoall, || comm.alltoall(parts));
                ok &= x.is_ok_and(|v| v.len() == n);
            }
            ok
        },
    );
    assemble(
        outcome,
        host,
        (RANKS * REPS) as u64,
        true,
        |results, _, _| {
            let bad = results.iter().filter(|ok| !**ok).count() as u64;
            Checked {
                failed: bad * REPS as u64,
                problems: (bad > 0)
                    .then(|| "call probe world returned wrong results".to_string())
                    .into_iter()
                    .collect(),
                ..Checked::default()
            }
        },
    )
}
