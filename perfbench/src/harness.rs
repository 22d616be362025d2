//! Runs one world through the stack's public entry point and measures
//! it from outside: host time at the call, at every rank body's start
//! and end, and at the return; allocator traffic; OS threads; and, when
//! traced, a span around every MPI call the workload makes.
//!
//! Every world uses `WorldConfig::default()` with the workload's
//! topology and placement, and nothing else: no host-mechanics knob and
//! no environment override is set here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use madeleine::Session;
use marcel::{Kernel, SimError};
use mpich::{Communicator, Placement, WorldConfig};
use simnet::Topology;

use crate::{alloc, host};

/// The MPI calls the workloads make, each traced as its own span kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Call {
    Send,
    Recv,
    Sendrecv,
    Allreduce,
    Bcast,
    Allgather,
    Alltoall,
}

impl Call {
    pub const ALL: [Call; 7] = [
        Call::Send,
        Call::Recv,
        Call::Sendrecv,
        Call::Allreduce,
        Call::Bcast,
        Call::Allgather,
        Call::Alltoall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Send => "send",
            Call::Recv => "recv",
            Call::Sendrecv => "sendrecv",
            Call::Allreduce => "allreduce",
            Call::Bcast => "bcast",
            Call::Allgather => "allgather",
            Call::Alltoall => "alltoall",
        }
    }
}

/// One traced MPI call, in ns since the world's call instant.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub call: Call,
    pub start: u64,
    pub end: u64,
}

/// One rank body's span and the calls it made (traced worlds only).
#[derive(Clone, Debug)]
pub struct RankSpans {
    pub rank: usize,
    pub start: u64,
    pub end: u64,
    pub calls: Vec<CallSpan>,
}

struct Shared {
    t0: Instant,
    traced: bool,
    starts: Vec<AtomicU64>,
    ends: Vec<AtomicU64>,
    dispatches: AtomicU64,
    threads_peak: AtomicU64,
    spans: Mutex<Vec<RankSpans>>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn note_threads(&self) {
        self.threads_peak
            .fetch_max(host::os_threads(), Ordering::Relaxed);
    }
}

/// A rank body's handle on the measurement: wraps each MPI call so a
/// traced world records its span, and costs one branch otherwise.
pub struct Rank {
    shared: Arc<Shared>,
    rank: usize,
    start: u64,
    calls: Option<Vec<CallSpan>>,
}

impl Rank {
    fn enter(shared: &Arc<Shared>, rank: usize) -> Rank {
        let start = shared.now();
        shared.starts[rank].store(start, Ordering::Relaxed);
        shared.note_threads();
        Rank {
            shared: shared.clone(),
            rank,
            start,
            calls: shared.traced.then(Vec::new),
        }
    }

    /// Run one MPI call, recording its span when the world is traced.
    #[inline]
    pub fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        match &mut self.calls {
            None => f(),
            Some(calls) => {
                let start = self.shared.now();
                let out = f();
                let end = self.shared.now();
                calls.push(CallSpan { call, start, end });
                out
            }
        }
    }

    fn leave(self) {
        let end = self.shared.now();
        self.shared.ends[self.rank].store(end, Ordering::Relaxed);
        self.shared
            .dispatches
            .fetch_max(marcel::dispatch_ticket(), Ordering::Relaxed);
        if let Some(calls) = self.calls {
            self.shared
                .spans
                .lock()
                .expect("a rank body panicked while recording spans")
                .push(RankSpans {
                    rank: self.rank,
                    start: self.start,
                    end,
                    calls,
                });
        }
    }
}

/// What a world's run returned: per-rank results, the drained kernel and
/// the Madeleine session.
pub type Outcome<T> = Result<(Vec<T>, Kernel, Arc<Session>), SimError>;

/// Host-side measurements of one world. Times are ns since the call
/// into the world (the topology build included).
#[derive(Clone, Debug, Default)]
pub struct Host {
    pub wall: u64,
    pub topology: u64,
    pub first_start: u64,
    pub last_start: u64,
    pub last_end: u64,
    /// Highest `marcel::dispatch_ticket()` seen at a rank body's end.
    pub dispatches: u64,
    pub threads_peak: u64,
    pub allocs: u64,
    pub peak_heap: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Offset of the world's call instant from the run's epoch.
    pub epoch_offset: u64,
    pub spans: Vec<RankSpans>,
}

impl Host {
    /// Call → every rank body started.
    pub fn setup(&self) -> u64 {
        self.last_start
    }

    /// First rank body started → last rank body ended.
    pub fn body(&self) -> u64 {
        self.last_end.saturating_sub(self.first_start)
    }

    /// Last rank body ended → the entry point returned.
    pub fn teardown(&self) -> u64 {
        self.wall.saturating_sub(self.last_end)
    }
}

/// Run one world of `ranks` ranks on the topology `build` makes, with
/// `body` as every rank's program.
pub fn run_world<T, F>(
    epoch: Instant,
    traced: bool,
    ranks: usize,
    build: impl FnOnce() -> Topology,
    placement: Placement,
    body: F,
) -> (Outcome<T>, Host)
where
    T: Send + 'static,
    F: Fn(&Communicator, &mut Rank) -> T + Send + Sync + 'static,
{
    let unset = || (0..ranks).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let (starts, ends) = (unset(), unset());
    let pool0 = bytes::pool_stats();
    let mark = alloc::mark();
    let shared = Arc::new(Shared {
        t0: Instant::now(),
        traced,
        starts,
        ends,
        dispatches: AtomicU64::new(0),
        threads_peak: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    });
    let topology = build();
    let topology_ns = shared.now();
    let inner = shared.clone();
    let outcome = mpich::run_world_full(topology, placement, WorldConfig::default(), move |comm| {
        let mut rank = Rank::enter(&inner, comm.rank());
        let out = body(comm, &mut rank);
        rank.leave();
        out
    });
    let wall = shared.now();
    let (allocs, peak_heap) = alloc::since(mark);
    let pool1 = bytes::pool_stats();
    let starts: Vec<u64> = shared
        .starts
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let ends = shared.ends.iter().map(|a| a.load(Ordering::Relaxed));
    let mut spans = std::mem::take(
        &mut *shared
            .spans
            .lock()
            .expect("a rank body panicked while recording spans"),
    );
    spans.sort_by_key(|s| s.rank);
    let host = Host {
        wall,
        topology: topology_ns,
        first_start: starts.iter().copied().min().unwrap_or(0),
        last_start: starts.iter().copied().max().unwrap_or(0),
        last_end: ends.max().unwrap_or(0),
        dispatches: shared.dispatches.load(Ordering::Relaxed),
        threads_peak: shared.threads_peak.load(Ordering::Relaxed),
        allocs,
        peak_heap,
        pool_hits: pool1.0 - pool0.0,
        pool_misses: pool1.1 - pool0.1,
        epoch_offset: shared.t0.duration_since(epoch).as_nanos() as u64,
        spans,
    };
    (outcome, host)
}
