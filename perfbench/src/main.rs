//! Host-time benchmark of the MPICH/Madeleine simulator.
//!
//! `perfbench --workload <pingpong|storm|collectives|faults> --seed <n>
//! --seconds <s> --trace <0|1> [--git-sha <sha>] [--spans <path>]`
//!
//! Pins the process to one CPU, runs one untimed warm-up world and then
//! whole worlds of the named workload until `--seconds` have passed,
//! checking every world's outputs. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for what each metric means.

mod alloc;
mod harness;
mod host;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::Call;
use workloads::World;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured worlds a run makes at least, however long they take.
const MIN_WORLDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    git_sha: String,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name);
    let number = |name: &str, v: Option<String>| -> Result<u64, String> {
        v.ok_or(format!("missing {name}"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    };
    let args = Args {
        workload: take("--workload").ok_or("missing --workload")?,
        seed: number("--seed", take("--seed"))?,
        seconds: number("--seconds", take("--seconds"))?,
        trace: match take("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        git_sha: take("--git-sha").unwrap_or_else(|| "unknown".into()),
        spans: take("--spans").map(PathBuf::from),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `f` over `worlds` (0 for none).
fn med(worlds: &[World], f: impl Fn(&World) -> f64) -> f64 {
    let mut v: Vec<f64> = worlds.iter().map(f).collect();
    stats::median(&mut v).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(worlds: &[World]) -> Vec<Metric> {
    vec![
        metric(
            "setup_s",
            med(worlds, |w| w.host.setup() as f64 * 1e-9),
            "s",
        ),
        metric("wall_s", med(worlds, |w| w.host.wall as f64 * 1e-9), "s"),
        metric("ops_per_s", med(worlds, |w| w.ops_per_s), "1/s"),
        metric("bytes_per_s", med(worlds, |w| w.bytes_per_s), "B/s"),
        metric(
            "allocs_per_op",
            med(worlds, |w| ratio(w.host.allocs as f64, w.ops as f64)),
            "count",
        ),
        metric(
            "peak_heap_mib",
            med(worlds, |w| w.host.peak_heap as f64 / (1u64 << 20) as f64),
            "MiB",
        ),
        metric(
            "os_threads_peak",
            med(worlds, |w| w.host.threads_peak as f64),
            "count",
        ),
    ]
}

/// The per-layer metrics of a traced run: `traced` and `plain` are its
/// alternating traced and untraced worlds.
fn per_layer(
    traced: &[World],
    plain: &[World],
    epoch: Instant,
    log: &mut trace::SpanLog,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut m = |name: &str, value: f64, unit: &'static str| out.push(metric(name, value, unit));

    m(
        "marcel.dispatches",
        med(traced, |w| w.host.dispatches as f64),
        "count",
    );
    m(
        "marcel.ns_per_dispatch",
        med(traced, |w| {
            ratio(w.host.last_end as f64, w.host.dispatches as f64)
        }),
        "ns",
    );
    let mut probe = |name: &str, f: &dyn Fn() -> Result<f64, String>| {
        let start = epoch.elapsed().as_nanos() as u64;
        let got = f();
        log.push_probe(name, start, epoch.elapsed().as_nanos() as u64);
        got.unwrap_or_else(|e| {
            problems.push(e);
            0.0
        })
    };
    let alone = probe("probe.handoff", &|| probes::handoff_ns(0, 4000));
    let idle = probe("probe.handoff_48idle", &|| probes::handoff_ns(48, 400));
    let small = probe("probe.raw_madeleine_4B", &|| {
        Ok(probes::raw_madeleine(4, 2000)?.0)
    });
    let large = probe("probe.raw_madeleine_8MB", &|| {
        Ok(probes::raw_madeleine(8 << 20, 4)?.1)
    });
    let convert = probe("probe.convert_8MB", &|| {
        probes::convert_ns_per_byte(8 << 20, 5)
    });
    m("marcel.handoff_ns", alone, "ns");
    m("marcel.handoff_ns_48idle", idle, "ns");

    // Per-call host times: the workload's own calls, and the call probe
    // world's for kinds the workload does not make.
    let mut calls: BTreeMap<Call, Vec<f64>> = BTreeMap::new();
    for w in traced {
        trace::call_durations(&w.host, &mut calls);
    }
    let mut all: Vec<f64> = calls.values().flatten().copied().collect();
    m(
        "mpich.call_ns.p50",
        stats::quantile(&mut all, 0.5).unwrap_or(0.0),
        "ns",
    );
    m(
        "mpich.call_ns.p99",
        stats::quantile(&mut all, 0.99).unwrap_or(0.0),
        "ns",
    );
    let call_world = probes::calls(epoch);
    log.push_world(&call_world.host);
    if call_world.failed > 0 {
        problems.extend(call_world.problems.iter().cloned());
    }
    let mut from_probe = BTreeMap::new();
    trace::call_durations(&call_world.host, &mut from_probe);
    for call in Call::ALL {
        let mut v = match calls.get(&call) {
            Some(v) => v.clone(),
            None => from_probe.get(&call).cloned().unwrap_or_default(),
        };
        match call {
            Call::Send | Call::Recv | Call::Sendrecv => {
                let name = call.name();
                m(
                    &format!("mpich.{name}_ns.p50"),
                    stats::quantile(&mut v, 0.5).unwrap_or(0.0),
                    "ns",
                );
                m(
                    &format!("mpich.{name}_ns.p99"),
                    stats::quantile(&mut v, 0.99).unwrap_or(0.0),
                    "ns",
                );
            }
            _ => m(
                &format!("mpich.coll_ns.{}", call.name()),
                stats::median(&mut v).unwrap_or(0.0),
                "ns",
            ),
        }
    }
    m(
        "mpich.unexpected_hwm",
        med(traced, |w| w.layers.unexpected_hwm as f64),
        "count",
    );
    m("mpich.convert_ns_per_byte", convert, "ns/B");

    m("madeleine.raw_rtt_ns", small, "ns");
    m("madeleine.raw_bytes_per_s", large, "B/s");
    m(
        "madeleine.retransmits",
        med(traced, |w| w.layers.retransmits as f64),
        "count",
    );
    m(
        "madeleine.duplicates",
        med(traced, |w| w.layers.duplicates as f64),
        "count",
    );
    m(
        "madeleine.delivered_per_attempt",
        med(traced, |w| {
            let l = &w.layers;
            ratio(
                l.wire_messages.saturating_sub(l.duplicates) as f64,
                (l.wire_messages + l.drops) as f64,
            )
        }),
        "ratio",
    );
    m(
        "madeleine.wire_bytes_per_payload_byte",
        med(traced, |w| {
            ratio(w.layers.wire_bytes as f64, w.payload_bytes as f64)
        }),
        "ratio",
    );
    m(
        "simnet.topology_build_ns",
        med(traced, |w| w.host.topology as f64),
        "ns",
    );
    m(
        "world.spawn_ns",
        med(traced, |w| {
            w.host.setup().saturating_sub(w.host.topology) as f64
        }),
        "ns",
    );
    m(
        "world.teardown_ns",
        med(traced, |w| w.host.teardown() as f64),
        "ns",
    );
    m(
        "bytes.pool_hit_ratio",
        med(traced, |w| {
            let h = &w.host;
            ratio(h.pool_hits as f64, (h.pool_hits + h.pool_misses) as f64)
        }),
        "ratio",
    );

    let splits: Vec<(trace::Split, f64)> = traced
        .iter()
        .map(|w| (trace::split(&w.host), w.host.wall as f64))
        .collect();
    let share = |f: fn(&trace::Split) -> u64| {
        let mut v: Vec<f64> = splits
            .iter()
            .map(|(s, wall)| ratio(f(s) as f64, *wall))
            .collect();
        stats::median(&mut v).unwrap_or(0.0)
    };
    let mut user: Vec<f64> = splits.iter().map(|(s, _)| s.user as f64).collect();
    m(
        "bench.user_ns",
        stats::median(&mut user).unwrap_or(0.0),
        "ns",
    );
    m("trace.share.topology", share(|s| s.topology), "ratio");
    m("trace.share.spawn", share(|s| s.spawn), "ratio");
    m("trace.share.user", share(|s| s.user), "ratio");
    m("trace.share.mpi", share(|s| s.mpi), "ratio");
    m("trace.share.teardown", share(|s| s.teardown), "ratio");
    m("trace.share.uncovered", share(|s| s.uncovered), "ratio");
    let wall = |ws: &[World]| med(ws, |w| w.host.wall as f64);
    m(
        "trace.overhead",
        ratio(wall(traced), wall(plain)) - 1.0,
        "ratio",
    );
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pingpong|storm|collectives|faults> \
                 --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] [--spans <path>]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = workloads::by_name(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            return ExitCode::from(1);
        }
    };

    let epoch = Instant::now();
    let mut problems = Vec::new();
    if let Err(e) = workload.prepare(epoch) {
        problems.push(e);
    }
    let warm = workload.world(epoch, false);
    println!(
        "# config {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":\"{}\",\
         \"nproc\":{nproc},\"pinned_cpu\":{cpu},\"ranks\":{},\"threads\":{},\"networks\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.git_sha,
        warm.shape.ranks,
        warm.shape.threads,
        warm.shape.networks,
    );
    let reference = warm.fingerprint;
    let (mut attempted, mut failed) = (warm.ops, warm.failed);
    problems.extend(warm.problems);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // A world that fails outright ends the run: a deadlocked or panicked
    // world leaves its parked OS threads behind, and more such worlds
    // would only pile them up.
    let mut broken = warm.failed == warm.ops;
    while !broken
        && (start.elapsed() < budget
            || plain.len() < MIN_WORLDS
            || (args.trace && traced.len() < MIN_WORLDS))
    {
        let trace_this = args.trace && plain.len() > traced.len();
        let mut w = workload.world(epoch, trace_this);
        if w.failed < w.ops && w.fingerprint != reference {
            w.problems
                .push("virtual end times or results differ from the warm-up world's".into());
            w.failed = w.ops;
        }
        broken = w.failed == w.ops;
        attempted += w.ops;
        failed += w.failed;
        problems.append(&mut w.problems);
        if trace_this {
            traced.push(w);
        } else {
            plain.push(w);
        }
    }
    let measured = start.elapsed();

    let mut log = trace::SpanLog::default();
    let metrics = if args.trace {
        for w in &traced {
            log.push_world(&w.host);
        }
        per_layer(&traced, &plain, epoch, &mut log, &mut problems)
    } else {
        end_to_end(&plain)
    };
    if let Some(path) = &args.spans {
        if let Err(e) = log.write(path) {
            problems.push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }

    eprintln!(
        "perfbench: {} measured worlds ({} traced) in {:.2} s",
        plain.len() + traced.len(),
        traced.len(),
        measured.as_secs_f64()
    );
    for m in &metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    problems.dedup();
    for p in problems.iter().take(20) {
        eprintln!("perfbench: problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
