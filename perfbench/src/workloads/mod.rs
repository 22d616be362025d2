//! The four workloads. Each builds one world per call from the run's
//! seed, checks every output against an independent computation or a
//! required property, and counts its operations.

use std::time::Instant;

use madeleine::Session;
use marcel::Kernel;

use crate::harness::{Host, Outcome};
use crate::stats;

pub mod collectives;
pub mod faults;
pub mod pingpong;
pub mod storm;

/// One world's result, as the runner aggregates it.
#[derive(Debug, Default)]
pub struct World {
    pub host: Host,
    /// Operations the world attempted, and how many failed (an error
    /// return or a failed output check; a world that errors fails all).
    pub ops: u64,
    pub failed: u64,
    /// Why operations failed or a world-level property did not hold.
    pub problems: Vec<String>,
    pub ops_per_s: f64,
    pub bytes_per_s: f64,
    /// User payload bytes delivered.
    pub payload_bytes: u64,
    /// Digest of the world's virtual end times and results: every world
    /// of a run must give the same one.
    pub fingerprint: u64,
    pub layers: Layers,
    pub shape: Shape,
}

/// Counters the crates already expose, read after the world returned.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Max of the `adi/rank*/unexpected_hwm` gauges (traced worlds).
    pub unexpected_hwm: u64,
    /// Sum of the `chan/*/bytes` counters (traced worlds).
    pub wire_bytes: u64,
    /// Sum of the `chan/*/messages` counters (traced worlds).
    pub wire_messages: u64,
    pub retransmits: u64,
    pub duplicates: u64,
    pub drops: u64,
}

/// The world's size, printed with the run's configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    pub ranks: usize,
    /// Simulated threads, each backed by one OS thread today.
    pub threads: usize,
    pub networks: usize,
}

/// What a workload's checker found in a completed world.
#[derive(Debug, Default)]
pub struct Checked {
    pub failed: u64,
    pub problems: Vec<String>,
    pub fingerprint: u64,
    pub payload_bytes: u64,
    /// Rates measured inside the world (ping-pong legs); `None` means
    /// ops and payload over the rank bodies' phase.
    pub rates: Option<(f64, f64)>,
}

pub trait Workload {
    /// Run reference worlds whose results the checks need.
    fn prepare(&mut self, _epoch: Instant) -> Result<(), String> {
        Ok(())
    }

    /// Build, run and check one world.
    fn world(&self, epoch: Instant, traced: bool) -> World;
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pingpong" => Box::new(pingpong::Pingpong::new(seed)),
        "storm" => Box::new(storm::Storm::new(seed)),
        "collectives" => Box::new(collectives::Collectives::new(seed)),
        "faults" => Box::new(faults::Faults::new(seed)),
        _ => return None,
    })
}

/// Turn a world's outcome into a [`World`]: a world that errored fails
/// all `ops`; otherwise `check` judges the results.
pub fn assemble<T>(
    outcome: Outcome<T>,
    host: Host,
    ops: u64,
    traced: bool,
    check: impl FnOnce(&[T], &Kernel, &Session) -> Checked,
) -> World {
    let (results, kernel, session) = match outcome {
        Ok(done) => done,
        Err(e) => {
            return World {
                host,
                ops,
                failed: ops,
                problems: vec![format!("world failed: {e}")],
                ..World::default()
            }
        }
    };
    let counters = session.fault_counters();
    let mut layers = Layers {
        retransmits: counters.retransmits,
        duplicates: counters.duplicates,
        drops: counters.drops,
        ..Layers::default()
    };
    if traced {
        let m = kernel.metrics().snapshot();
        layers.unexpected_hwm = m
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("adi/rank") && k.ends_with("/unexpected_hwm"))
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0);
        let chan = |suffix: &str| -> u64 {
            m.counters_with_prefix("chan/")
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        layers.wire_bytes = chan("/bytes");
        layers.wire_messages = chan("/messages");
    }
    let shape = Shape {
        ranks: results.len(),
        threads: kernel.thread_names().len(),
        networks: session.topology().networks().len(),
    };
    let checked = check(&results, &kernel, &session);
    let body_s = host.body() as f64 * 1e-9;
    let (ops_per_s, bytes_per_s) = checked
        .rates
        .unwrap_or((ops as f64 / body_s, checked.payload_bytes as f64 / body_s));
    World {
        ops,
        failed: checked.failed.min(ops),
        problems: checked.problems,
        ops_per_s,
        bytes_per_s,
        payload_bytes: checked.payload_bytes,
        fingerprint: stats::hash(checked.fingerprint, &[kernel.end_time().0]),
        layers,
        shape,
        host,
    }
}
