//! The benchmark's own tests: its names, its inputs, and the
//! transparency of the traced run's forwarding wrappers.

use otis_core::{DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, Router};
use otis_optics::traffic::generate_workload;
use otis_optics::{
    ContentionPolicy, QueueConfig, QueueingEngine, StrandedPolicy, TrafficPattern, WorkloadSource,
};
use otis_perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use otis_perfbench::trace::{SpanLog, TracedRouter};
use otis_perfbench::workloads::{dynamics_spec, generate, report_json, Workload, WORKLOADS};
use serde::Deserialize;

#[derive(Deserialize)]
struct BenchmarkFile {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<BoundedEntry>,
    per_layer: Vec<MetricEntry>,
}

#[derive(Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct MetricEntry {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct BoundedEntry {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

fn benchmark_file() -> BenchmarkFile {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        assert!(name.len() <= 64, "{name:?} is longer than 64 characters");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
    for name in WORKLOADS {
        let workload = Workload::from_name(name).expect("every listed workload parses");
        assert_eq!(workload.name(), name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let file = benchmark_file();
    assert!(file.command.len() <= 32 && file.command.iter().all(|a| a.len() <= 200));
    assert_eq!(file.paths, ["perfbench"]);
    assert!((1..=60).contains(&file.run_seconds));
    let listed: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(listed, WORKLOADS);
    assert!(file
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));
    let same = |entries: Vec<(&str, &str, &str)>, defs: &[MetricDef]| {
        assert_eq!(entries.len(), defs.len());
        for ((name, unit, better), def) in entries.into_iter().zip(defs) {
            assert_eq!(name, def.name);
            assert_eq!(unit, def.unit, "unit of {name}");
            assert_eq!(better, def.better.as_str(), "direction of {name}");
        }
    };
    let e2e = file.end_to_end.iter();
    same(
        e2e.map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect(),
        &END_TO_END,
    );
    let layers = file.per_layer.iter();
    same(
        layers
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect(),
        &PER_LAYER,
    );
    for metric in &file.end_to_end {
        assert!(
            metric.bound > 0.0 && metric.bound <= 0.25,
            "bound of {}",
            metric.name
        );
    }
    let setup = file.end_to_end.iter().find(|m| m.name == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = file.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s has the largest bound");
}

#[test]
fn generation_is_a_function_of_the_seed() {
    for name in WORKLOADS {
        let workload = Workload::from_name(name).expect("listed workload");
        let a = generate(workload, 7);
        let b = generate(workload, 7);
        let c = generate(workload, 8);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.pairs(), b.pairs(), "{name}: same seed, same inputs");
        assert_ne!(a.pairs(), c.pairs(), "{name}: another seed, other inputs");
    }
    assert_eq!(dynamics_spec(7), dynamics_spec(7));
    assert_ne!(dynamics_spec(7), dynamics_spec(8));
}

fn small_config(drain_threads: usize) -> QueueConfig {
    QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        max_cycles: 10_000,
        drain_threads,
    }
}

#[test]
fn wrapper_leaves_an_arithmetic_run_byte_identical() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let workload = generate_workload(TrafficPattern::Uniform, n, 2, 20_000, 3);
    let engine = QueueingEngine::from_family(&b, small_config(2));
    let router = DeBruijnRouter::new(b);
    let plain = engine.run(&router, &workload, 0.3 * n as f64);

    let log = SpanLog::new();
    let wrapper = TracedRouter::new(&router, &log, None);
    let traced = engine.run(&wrapper, &workload, 0.3 * n as f64);
    assert_eq!(report_json(&plain), report_json(&traced));
    let calls: u64 = wrapper.thread_counts().iter().map(|c| c.calls).sum();
    assert!(calls >= plain.delivered_hops, "every hop asked the router");
    assert!(
        wrapper.as_repair().is_none(),
        "no repair capability to expose"
    );
}

#[test]
fn wrapper_leaves_a_faded_dynamic_run_byte_identical() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let workload = generate_workload(TrafficPattern::Hotspot, n, 2, 20_000, 5);
    let mut engine = QueueingEngine::new(g.clone(), small_config(2));
    engine.set_dynamics(
        "fade@5:1>2:0:20".parse().expect("a valid fade"),
        StrandedPolicy::Reinject,
    );
    let plain_router = DynamicRoutingTable::new(&g);
    let plain = engine.run(&plain_router, &workload, 0.2 * n as f64);
    assert_eq!(plain.link_down_events, 1);
    assert_eq!(plain.link_up_events, 1);

    let router = DynamicRoutingTable::new(&g);
    let log = SpanLog::new();
    let run = log.open("run", None);
    let wrapper = TracedRouter::new(&router, &log, Some(run));
    let traced = engine.run(&wrapper, &workload, 0.2 * n as f64);
    log.end(run);
    assert_eq!(report_json(&plain), report_json(&traced));
    assert!(
        wrapper.as_repair().is_some(),
        "the repair capability is forwarded"
    );
    assert_eq!(
        log.children(run, "repair.event").len(),
        2,
        "death and revival"
    );
}

/// `WorkloadSource` seeds chunk `c`'s SplitMix64 stream at
/// `seed + (c + 1)·γ`, and SplitMix64 advances its state by the same
/// `γ` per draw, so chunk `c + 1` replays chunk `c`'s draws shifted by
/// one. Uniform pairs take two draws each, so chunk `c + 2` repeats
/// chunk `c`'s pairs one position later: a "uniform" workload of many
/// chunks re-sends the same flows. Ignored until the generator is
/// fixed; `cargo test -- --ignored` shows the defect.
#[test]
#[ignore = "known defect: WorkloadSource chunk streams overlap"]
fn workload_chunks_are_independent() {
    let n = 1 << 18;
    let source = WorkloadSource::new(TrafficPattern::Uniform, n, 2, 3 * WorkloadSource::CHUNK, 1);
    let (mut first, mut third) = (Vec::new(), Vec::new());
    source.fill_chunk(0, &mut first);
    source.fill_chunk(2, &mut third);
    let repeated = first[1..]
        .iter()
        .zip(&third)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        repeated < 10,
        "{repeated} of {} pairs of chunk 2 repeat chunk 0",
        third.len()
    );
}
