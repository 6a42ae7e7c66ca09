//! `perfbench` — run one workload of the repository benchmark and print
//! its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` (the default) the workload is set up
//! [`Workload::setups`] times, then one batch is run repeatedly, each starting
//! when the previous one ends, for about `--seconds`; the end-to-end
//! metrics are medians over those batches. With `--trace 1` the
//! workload is set up once and run untraced, traced (through the
//! forwarding wrappers of `trace.rs`), and at the other drain-thread
//! count, and each layer's inputs are replayed through that layer
//! alone; the per-layer metrics come from those runs, and the spans go
//! to `.bench_traces/<workload>-seed<N>.json`.
//!
//! Every batch is checked: conservation and dynamics laws, a run that
//! finished, and a report byte-identical to the first batch's (the
//! traced and other-thread-count batches included). Each metric is
//! printed as a line `name = value unit`; the last line of standard
//! output is one JSON object with keys `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed.

#![forbid(unsafe_code)]

use otis_optics::QueueingReport;
use otis_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use otis_perfbench::stats::{self, fnv1a, median, HostTimer};
use otis_perfbench::trace::{Span, SpanLog, ThreadCounts, TracedRouter};
use otis_perfbench::workloads::{
    report_json, resolved, Input, Routing, Setup, Workload, WORKLOADS,
};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Fewest batches an untraced run measures, however long they take.
/// `peak_rss_mb` is read after this many, so that it covers the same
/// work in every run.
const MIN_BATCHES: usize = 3;
const MB: f64 = (1u64 << 20) as f64;
/// Batches of each kind (untraced, traced, other thread count) in a
/// traced run.
const TRACE_BATCHES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20.0, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?} (valid: {})",
                        WORKLOADS.join("|")
                    )
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Every batch run in this process, each checked against the first.
#[derive(Default)]
struct Ledger {
    first: Option<String>,
    attempted: usize,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, setup: &Setup, label: &str, report: &QueueingReport) {
        self.attempted += 1;
        let json = report_json(report);
        let verdict = setup.check(report).and_then(|()| match &self.first {
            Some(first) if *first != json => Err(format!(
                "report digest {:016x} differs from the first batch's {:016x}",
                fnv1a(json.as_bytes()),
                fnv1a(first.as_bytes())
            )),
            _ => Ok(()),
        });
        if let Err(err) = verdict {
            self.failures.push(format!("{label}: {err}"));
        }
        self.first.get_or_insert(json);
    }

    fn digest(&self) -> u64 {
        self.first.as_ref().map_or(0, |json| fnv1a(json.as_bytes()))
    }
}

/// A run's result: metric values by name, with a note on their base.
struct Outcome {
    ledger: Ledger,
    values: Vec<(&'static str, f64, String)>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.push((name, value, note.into()));
    }
}

/// The untraced run: repeated set-ups, then batches for `seconds`.
fn measured(args: &Args, process_start: HostTimer) -> Outcome {
    let log = SpanLog::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    let mut timer = process_start;
    for _ in 0..args.workload.setups() {
        drop(setup.take());
        setup = Some(Setup::new(args.workload, args.seed, &log, None));
        setup_s.push(timer.host().0);
        timer = HostTimer::start();
    }
    let setup = setup.expect("at least one set-up");
    println!(
        "# {} set-ups: VmHWM {:.1} MB",
        setup_s.len(),
        stats::peak_rss_bytes().unwrap_or(0) as f64 / MB
    );
    let router = setup.routing.router();
    let mut ledger = Ledger::default();
    let mut rates = Vec::new();
    let mut first: Option<QueueingReport> = None;
    let mut peak_rss = 0.0;
    let begin = HostTimer::start();
    loop {
        let timer = HostTimer::start();
        let report = setup.run(router);
        let (host, stolen) = timer.host();
        ledger.record(&setup, "batch", &report);
        rates.push(resolved(&report) as f64 / host);
        first.get_or_insert(report);
        let rss = stats::peak_rss_bytes().unwrap_or(0) as f64 / MB;
        println!(
            "# batch {}: {host:.4} host s ({stolen:.2} s stolen), VmHWM {rss:.1} MB",
            rates.len()
        );
        if rates.len() == MIN_BATCHES {
            peak_rss = rss;
        }
        // Stop before a batch that would end past the deadline.
        if rates.len() >= MIN_BATCHES && begin.wall() + host > args.seconds {
            break;
        }
    }
    let report = first.expect("at least one batch");
    let batches = rates.len();
    let mut out = Outcome {
        ledger,
        values: Vec::new(),
    };
    out.set(
        "pkt_per_s",
        median(&rates),
        format!(
            "median of {batches} batches of {} resolved",
            resolved(&report)
        ),
    );
    out.set(
        "setup_s",
        median(&setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    out.set(
        "peak_rss_mb",
        peak_rss,
        format!("VmHWM of this process after its set-ups and {MIN_BATCHES} batches"),
    );
    out.set(
        "sim_delivered_frac",
        report.delivered as f64 / report.injected as f64,
        format!("{} of {} injected", report.delivered, report.injected),
    );
    println!(
        "# sim_wait_p99_cycles = {} cycles  (per-layer; printed here for reference)",
        report.wait_p99_cycles
    );
    let failed = out.ledger.failures.len();
    out.set(
        "success_rate",
        (batches - failed.min(batches)) as f64 / batches as f64,
        format!("{failed} of {batches} batches failed a check"),
    );
    out
}

/// The traced run: untraced, traced and other-thread-count batches,
/// then each layer's replay.
fn traced(args: &Args) -> (Outcome, SpanLog, Vec<Vec<ThreadCounts>>) {
    let log = SpanLog::new();
    let setup_id = log.open("setup", None);
    let setup = Setup::new(args.workload, args.seed, &log, Some(setup_id));
    log.end(setup_id);
    let router = setup.routing.router();
    let threads = args.workload.drain_threads();
    let multicast = matches!(setup.input, Input::Groups(_));
    let mut ledger = Ledger::default();

    let mut plain_wall = Vec::new();
    let mut cpu_util = Vec::new();
    let mut first: Option<QueueingReport> = None;
    for _ in 0..TRACE_BATCHES {
        let id = log.open("run.untraced", None);
        let cpu_before = stats::cpu_seconds();
        let timer = HostTimer::start();
        let report = setup.run(router);
        let (wall, _) = timer.host();
        log.end(id);
        if let (Some(before), Some(after)) = (cpu_before, stats::cpu_seconds()) {
            cpu_util.push((after - before) / (wall * threads as f64));
        }
        ledger.record(&setup, "untraced batch", &report);
        plain_wall.push(wall);
        first.get_or_insert(report);
    }
    let report = first.expect("at least one batch");

    let mut traced_wall = Vec::new();
    let mut self_s = Vec::new();
    let mut event_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut events = 0;
    let mut queries = 0;
    let mut thread_counts = Vec::new();
    for _ in 0..TRACE_BATCHES {
        let run_id = log.open("run.traced", None);
        let wrapper = TracedRouter::new(router, &log, Some(run_id));
        let timer = HostTimer::start();
        let traced_report = setup.run(&wrapper);
        let (wall, _) = timer.host();
        log.end(run_id);
        ledger.record(&setup, "traced batch", &traced_report);
        let run = log.span(run_id);
        let counts = wrapper.thread_counts();
        let event_spans = log.children(run_id, "repair.event");
        let publish_spans = log.children(run_id, "repair.publish");
        let repair_s: f64 = event_spans
            .iter()
            .chain(&publish_spans)
            .map(Span::seconds)
            .sum();
        let routing_s = if multicast {
            // The tree build is a multicast run's only router client:
            // it runs on the calling thread before the cycle loop, so
            // its span ends with the last router query.
            let end = counts
                .iter()
                .map(|c| c.last_end_ns)
                .max()
                .unwrap_or(run.start_ns);
            let tree = Span {
                name: "mcast.tree",
                start_ns: run.start_ns,
                end_ns: end,
                parent: Some(run_id),
            };
            let seconds = tree.seconds();
            log.push(tree);
            seconds
        } else {
            // Router queries run on every drain thread at once; their
            // summed busy time covers about 1/threads as much wall.
            counts.iter().map(ThreadCounts::busy_s).sum::<f64>() / threads as f64
        };
        self_s.push(run.seconds() - repair_s - routing_s);
        event_ms.extend(event_spans.iter().map(|s| s.seconds() * 1e3));
        publish_ms.push(publish_spans.iter().map(|s| s.seconds() * 1e3).sum::<f64>());
        events = event_spans.len();
        queries = counts.iter().map(|c| c.calls).sum::<u64>();
        thread_counts.push(counts);
        traced_wall.push(wall);
    }

    let other_threads = if threads == 2 { 1 } else { 2 };
    let other_engine = setup.engine_with_threads(other_threads);
    let mut other_wall = Vec::new();
    for _ in 0..TRACE_BATCHES {
        let id = log.open("run.other_threads", None);
        let timer = HostTimer::start();
        let other_report = setup.run_on(&other_engine, router);
        other_wall.push(timer.host().0);
        log.end(id);
        ledger.record(
            &setup,
            &format!("{other_threads}-thread batch"),
            &other_report,
        );
    }
    drop(other_engine);
    let (one_thread, two_threads) = if threads == 2 {
        (median(&other_wall), median(&plain_wall))
    } else {
        (median(&plain_wall), median(&other_wall))
    };

    let (replay, _) = log.time("router.replay", None, || setup.replay_router());
    let (router_queries, router_s) = replay.unwrap_or_else(|err| {
        ledger.failures.push(format!("router replay: {err}"));
        (1, 0.0)
    });
    let (decode_s, _) = log.time("workload.decode", None, || setup.replay_decode());
    let gen_s = decode_s.unwrap_or(setup.times.workload_s);
    let (trees, _) = log.time("mcast.tree_build", None, || setup.replay_trees());
    let (tree_arcs, tree_s) = trees.unwrap_or((0, 0.0));

    let hops = if multicast {
        tree_arcs
    } else {
        report.delivered_hops
    };
    let hop_base = if multicast {
        "tree arcs crossed"
    } else {
        "delivered hops"
    };
    let plain = median(&plain_wall);
    let batches = TRACE_BATCHES;
    let mut out = Outcome {
        ledger,
        values: Vec::new(),
    };
    let gen_what = match setup.input {
        Input::Streamed(_) => "fill_chunk over every chunk",
        Input::Pairs(_) => "generate_workload",
        Input::Groups(_) => "generate_multicast_workload",
    };
    out.set("workload.gen_s", gen_s, gen_what);
    out.set(
        "workload.ns_per_pkt",
        gen_s * 1e9 / setup.input.len() as f64,
        format!("{gen_what}, per generated packet or group"),
    );
    let replayed_by = match setup.routing {
        Routing::Repairable(_) => "published RouteSnapshot::next_hop",
        _ => "Router::next_hop",
    };
    out.set(
        "router.ns_per_query",
        router_s * 1e9 / router_queries as f64,
        format!("replay of {router_queries} queries through {replayed_by}"),
    );
    out.set(
        "router.queries",
        queries as f64,
        "traced batch, summed over threads",
    );
    out.set(
        "router.queries_per_hop",
        queries as f64 / hops.max(1) as f64,
        format!("per {hop_base}"),
    );
    for (name, value) in [
        ("sim_wait_p99_cycles", report.wait_p99_cycles),
        ("engine.cycles", report.cycles),
        ("engine.source_stall_cycles", report.source_stall_cycles),
        (
            "engine.max_peak_occupancy",
            u64::from(report.max_peak_occupancy),
        ),
        ("engine.dateline_promotions", report.dateline_promotions),
        ("repair.publications", report.snapshot_publications),
        ("repair.rows_patched", report.repair_rows_patched),
        ("repair.stranded_reinjected", report.stranded_reinjected),
    ] {
        out.set(name, value as f64, "report");
    }
    let repairable = matches!(setup.routing, Routing::Repairable(_));
    out.set(
        "repair.table_build_s",
        if repairable {
            setup.times.router_s
        } else {
            0.0
        },
        "DynamicRoutingTable::new",
    );
    out.set(
        "repair.events",
        events as f64,
        "repair spans per traced batch",
    );
    out.set(
        "repair.ms_per_event_p50",
        median(&event_ms),
        format!("over {} repair spans", event_ms.len()),
    );
    out.set(
        "repair.ms_per_event_max",
        stats::max(&event_ms),
        format!("over {} repair spans", event_ms.len()),
    );
    out.set(
        "repair.publish_ms",
        median(&publish_ms),
        format!("publish_deferred time per batch, median of {batches}"),
    );
    out.set(
        "repair.runs_patched",
        report.repair_runs_patched.iter().sum::<u64>() as f64,
        "report, summed over events",
    );
    let reroute: Vec<f64> = report
        .time_to_reroute_cycles
        .iter()
        .map(|&c| c as f64)
        .collect();
    out.set(
        "repair.reroute_p50_cycles",
        median(&reroute),
        format!("report, over {} reroutes", reroute.len()),
    );
    out.set(
        "mcast.tree_build_s",
        tree_s,
        "MulticastTree::build over every group",
    );
    out.set(
        "mcast.tree_arcs",
        tree_arcs as f64,
        "summed over every group",
    );
    out.set(
        "layout.build_s",
        setup.times.layout_s,
        "minimize_lenses + h_digraph + debruijn_witness",
    );
    out.set(
        "engine.build_s",
        setup.times.engine_s,
        "QueueingEngine construction and dynamics compilation",
    );
    out.set("engine.hops", hops as f64, hop_base);
    out.set(
        "engine.ns_per_hop",
        plain * 1e9 / hops.max(1) as f64,
        format!("untraced batch host seconds per {hop_base}, median of {batches}"),
    );
    out.set(
        "engine.self_s",
        median(&self_s),
        format!("traced batch minus router, repair and tree spans, median of {batches}"),
    );
    out.set(
        "engine.cpu_util",
        median(&cpu_util),
        format!("process CPU over host seconds x {threads} drain threads"),
    );
    out.set(
        "engine.trace_overhead",
        median(&traced_wall) / plain,
        format!("traced over untraced batch host seconds, medians of {batches}"),
    );
    out.set(
        "engine.scaling_2t",
        one_thread / two_threads,
        format!("batch host seconds at 1 drain thread over 2, medians of {batches}"),
    );
    let failed = out.ledger.failures.len();
    let attempted = out.ledger.attempted.max(1);
    out.set(
        "error_rate",
        failed.min(attempted) as f64 / attempted as f64,
        format!("{failed} of {attempted} batches failed a check"),
    );
    (out, log, thread_counts)
}

/// Write the traced run's spans and router counters as JSON.
fn write_trace(
    args: &Args,
    digest: u64,
    log: &SpanLog,
    thread_counts: &[Vec<ThreadCounts>],
) -> std::io::Result<String> {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\":\"{}\",\"seed\":{},\"report_digest\":\"{digest:016x}\",\"spans\":[",
        args.workload.name(),
        args.seed
    );
    for (id, span) in log.spans().iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            json,
            "{}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            if id == 0 { "" } else { "," },
            span.name,
            span.start_ns,
            span.end_ns
        );
    }
    json.push_str("],\"router_threads\":[");
    for (batch, counts) in thread_counts.iter().enumerate() {
        json.push_str(if batch == 0 { "[" } else { ",[" });
        for (i, c) in counts.iter().enumerate() {
            let _ = write!(
                json,
                "{}{{\"calls\":{},\"timed\":{},\"timed_ns\":{}}}",
                if i == 0 { "" } else { "," },
                c.calls,
                c.timed,
                c.timed_ns
            );
        }
        json.push(']');
    }
    json.push_str("]}\n");
    let dir = std::path::Path::new(".bench_traces");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let process_start = HostTimer::start();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!("usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let (mut outcome, catalogue): (Outcome, &[MetricDef]) = if args.trace {
        let (outcome, log, thread_counts) = traced(&args);
        match write_trace(&args, outcome.ledger.digest(), &log, &thread_counts) {
            Ok(path) => println!("# spans written to {path}"),
            Err(err) => eprintln!("perfbench: cannot write the span file: {err}"),
        }
        (outcome, &PER_LAYER)
    } else {
        (measured(&args, process_start), &END_TO_END)
    };

    let mut metrics = String::new();
    for (i, def) in catalogue.iter().enumerate() {
        let found = outcome.values.iter().find(|(name, ..)| *name == def.name);
        let (value, note) = match found {
            // `+ 0.0` turns an empty sum's -0 into 0.
            Some((_, value, note)) if value.is_finite() => (*value + 0.0, note.as_str()),
            _ => {
                outcome
                    .ledger
                    .failures
                    .push(format!("metric {} has no finite value", def.name));
                (0.0, "missing")
            }
        };
        println!("{} = {value} {}  ({note})", def.name, def.unit);
        let _ = write!(
            metrics,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            def.name,
            def.unit
        );
    }
    let ledger = &outcome.ledger;
    println!(
        "# workload {} seed {} report digest {:016x}: {} batches, {} failed checks",
        args.workload.name(),
        args.seed,
        ledger.digest(),
        ledger.attempted,
        ledger.failures.len()
    );
    for failure in &ledger.failures {
        println!("# FAIL {failure}");
    }
    let correct = ledger.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        ledger.attempted.max(1),
        ledger.failures.len().min(ledger.attempted.max(1))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
