//! The traced mode's spans: kept in memory while the run measures,
//! written out as JSON lines when it ends, and folded into each
//! layer's self time.
//!
//! Spans come from the benchmark's own code only: a world (call to
//! return), its topology build, each rank body, each MPI call a body
//! makes, and each layer probe. Only one simulated thread runs at a
//! time, so a rank body's time outside its calls is user code that runs
//! alone; time inside some call while no body runs user code belongs to
//! the stack below the MPI API (mpich, ch_mad, madeleine, marcel,
//! simnet), which these outside spans cannot split further.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::{Call, Host};

/// A world's host time split into disjoint parts, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Split {
    /// Building the topology, before the entry point is called.
    pub topology: u64,
    /// Entry point → last rank body started, outside any body's work.
    pub spawn: u64,
    /// Rank-body code outside MPI calls: payload generation, checks.
    pub user: u64,
    /// Inside MPI calls while no body runs user code.
    pub mpi: u64,
    /// Last rank body ended → the entry point returned.
    pub teardown: u64,
    /// Covered by no span.
    pub uncovered: u64,
}

impl Split {
    #[cfg(test)]
    pub fn total(&self) -> u64 {
        self.topology + self.spawn + self.user + self.mpi + self.teardown + self.uncovered
    }
}

/// Sweep a traced world's spans into a [`Split`]. Where parts overlap,
/// user code wins over MPI calls, which win over spawn and teardown.
pub fn split(host: &Host) -> Split {
    // (time, user delta, call delta)
    let mut events: Vec<(u64, i64, i64)> = Vec::new();
    for rank in &host.spans {
        let mut cursor = rank.start;
        for c in &rank.calls {
            if c.start > cursor {
                events.push((cursor, 1, 0));
                events.push((c.start, -1, 0));
            }
            events.push((c.start, 0, 1));
            events.push((c.end, 0, -1));
            cursor = cursor.max(c.end);
        }
        if rank.end > cursor {
            events.push((cursor, 1, 0));
            events.push((rank.end, -1, 0));
        }
    }
    for t in [0, host.topology, host.last_start, host.last_end, host.wall] {
        events.push((t, 0, 0));
    }
    events.sort_unstable();
    let mut out = Split::default();
    let (mut user, mut call) = (0i64, 0i64);
    for (i, &(t, du, dc)) in events.iter().enumerate() {
        user += du;
        call += dc;
        let Some(&(next, _, _)) = events.get(i + 1) else {
            break;
        };
        let span = next.min(host.wall).saturating_sub(t);
        let part = if user > 0 {
            &mut out.user
        } else if call > 0 {
            &mut out.mpi
        } else if t < host.topology {
            &mut out.topology
        } else if t < host.last_start {
            &mut out.spawn
        } else if t >= host.last_end {
            &mut out.teardown
        } else {
            &mut out.uncovered
        };
        *part += span;
    }
    out
}

/// Durations of every traced call, by kind, in ns.
pub fn call_durations(host: &Host, into: &mut BTreeMap<Call, Vec<f64>>) {
    for rank in &host.spans {
        for c in &rank.calls {
            into.entry(c.call)
                .or_default()
                .push((c.end - c.start) as f64);
        }
    }
}

/// Spans recorded during the run, as JSON lines.
#[derive(Default)]
pub struct SpanLog {
    out: String,
    next_id: u64,
    next_world: u64,
}

impl SpanLog {
    /// Record a span (times in ns since the run's epoch) and return its id.
    fn push(&mut self, world: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            self.out,
            "{{\"world\":{world},\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
        );
        id
    }

    /// Record a world's spans: the world, its topology build, each rank
    /// body and each call.
    pub fn push_world(&mut self, host: &Host) {
        let world = self.next_world;
        self.next_world += 1;
        let at = host.epoch_offset;
        let root = self.push(world, None, "world", at, at + host.wall);
        self.push(world, Some(root), "topology", at, at + host.topology);
        for rank in &host.spans {
            let name = format!("rank{}", rank.rank);
            let body = self.push(world, Some(root), &name, at + rank.start, at + rank.end);
            for c in &rank.calls {
                self.push(world, Some(body), c.call.name(), at + c.start, at + c.end);
            }
        }
    }

    /// Record a layer probe, which builds its own bare world.
    pub fn push_probe(&mut self, name: &str, start: u64, end: u64) {
        let world = self.next_world;
        self.next_world += 1;
        self.push(world, None, name, start, end);
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{CallSpan, RankSpans};

    #[test]
    fn split_partitions_the_world_by_priority() {
        // Two ranks: rank 0 computes 10..20 then sends 20..60; rank 1
        // starts at 30, computes 30..40 and receives 40..70.
        let host = Host {
            wall: 100,
            topology: 5,
            first_start: 10,
            last_start: 30,
            last_end: 70,
            spans: vec![
                RankSpans {
                    rank: 0,
                    start: 10,
                    end: 60,
                    calls: vec![CallSpan {
                        call: Call::Send,
                        start: 20,
                        end: 60,
                    }],
                },
                RankSpans {
                    rank: 1,
                    start: 30,
                    end: 70,
                    calls: vec![CallSpan {
                        call: Call::Recv,
                        start: 40,
                        end: 70,
                    }],
                },
            ],
            ..Host::default()
        };
        let s = split(&host);
        assert_eq!(
            s,
            Split {
                topology: 5,
                spawn: 5,
                user: 20,
                mpi: 40,
                teardown: 30,
                uncovered: 0,
            }
        );
        assert_eq!(s.total(), host.wall);
    }
}
