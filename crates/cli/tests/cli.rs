//! End-to-end tests of the `otis` binary: every subcommand, happy
//! path and error path, through a real process.

use std::process::{Command, Output};

fn otis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_otis"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_and_no_args() {
    let out = otis(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    let out = otis(&["help"]);
    assert!(out.status.success());
}

#[test]
fn unknown_subcommand_fails() {
    let out = otis(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown subcommand"));
}

#[test]
fn design_b28() {
    let out = otis(&["design", "2", "8"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("OTIS(16, 32)"), "{text}");
    assert!(text.contains("lenses: 48"), "{text}");
    assert!(text.contains("258"), "II comparison missing: {text}");
}

#[test]
fn design_rejects_bad_degree() {
    let out = otis(&["design", "1", "4"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least 2"));
}

#[test]
fn search_window_around_b26() {
    let out = otis(&["search", "2", "6", "64", "64"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // 64 = 2^6: shapes (2,64) and the balanced (8,16).
    assert!(text.contains("n =     64"), "{text}");
    assert!(text.contains("(8,16)"), "{text}");
}

#[test]
fn verify_positive_and_negative() {
    let good = otis(&["verify", "2", "4", "5"]);
    assert!(good.status.success());
    let text = stdout(&good);
    assert!(text.contains("de Bruijn layout"), "{text}");
    assert!(text.contains("witness verified on all 256 nodes"), "{text}");

    let bad = otis(&["verify", "2", "3", "6"]);
    assert!(bad.status.success(), "non-layout is a result, not an error");
    assert!(stdout(&bad).contains("NOT a de Bruijn layout"));
}

#[test]
fn route_prints_path() {
    let out = otis(&["route", "2", "4", "0000", "1111"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("distance 4"), "{text}");
    assert!(text.contains("0000") && text.contains("1111"), "{text}");
    // 5 path lines (distance 4).
    assert_eq!(text.lines().filter(|l| l.starts_with("  ")).count(), 5);
}

#[test]
fn route_rejects_alien_words() {
    let out = otis(&["route", "2", "4", "0000", "2222"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("must be length 4 over Z_2"));
}

#[test]
fn traffic_uniform_reports_full_delivery() {
    let out = otis(&["traffic", "2", "6", "uniform", "2000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("≅ B(2,6) — 64 nodes"), "{text}");
    assert!(
        text.contains("delivered         : 2000 (100.00%)"),
        "{text}"
    );
    assert!(text.contains("empirical forwarding index"), "{text}");
    assert!(text.contains("all close"), "{text}");
}

#[test]
fn traffic_patterns_all_run() {
    for pattern in ["permutation", "transpose", "bitrev", "hotspot", "alltoall"] {
        let out = otis(&["traffic", "2", "4", pattern, "200"]);
        assert!(out.status.success(), "{pattern}: {}", stderr(&out));
        assert!(stdout(&out).contains("routed 200"), "{pattern}");
    }
}

#[test]
fn traffic_rejects_bad_input() {
    let out = otis(&["traffic", "2", "6", "zigzag", "100"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown pattern"), "{}", stderr(&out));

    let out = otis(&["traffic", "1", "6", "uniform", "100"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least 2"));
}

#[test]
fn traffic_refuses_hostile_shapes_quickly_without_panicking() {
    // p·q past u64, a witness past u32, and a billion-node fabric: each
    // is refused by the node-count limit before any layout is built.
    for shape in [["3", "40"], ["16", "8"], ["2", "30"]] {
        let start = std::time::Instant::now();
        let out = otis(&["traffic", shape[0], shape[1], "uniform", "10"]);
        let err = stderr(&out);
        assert!(!out.status.success(), "{shape:?} accepted");
        assert!(
            err.contains("error: ") && err.contains("at most 1048576"),
            "{shape:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{shape:?}: {err}");
        assert!(
            start.elapsed().as_secs() < 10,
            "{shape:?} took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn design_refuses_an_otis_past_u64() {
    let out = otis(&["design", "3", "40"]);
    let err = stderr(&out);
    assert!(!out.status.success());
    assert!(err.contains("more than 2^64 transceiver pairs"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn traffic_past_the_dense_cap_rides_the_compressed_table() {
    // B(2,14) = 16384 nodes — double the dense-table cap, a hard
    // error before the interval-compressed table. Now the fabric
    // routes through the arithmetic-compressed de Bruijn table behind
    // the isomorphism witness, batched engine end to end.
    let out = otis(&["traffic", "2", "14", "uniform", "2000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("≅ B(2,14) — 16384 nodes"), "{text}");
    assert!(
        text.contains("relabeled(compressed-table(B(2,14)))"),
        "{text}"
    );
    assert!(
        text.contains("delivered         : 2000 (100.00%)"),
        "{text}"
    );

    // And the cycle-accurate queueing engine on the same fabric.
    let out = otis(&[
        "traffic",
        "2",
        "14",
        "uniform",
        "2000",
        "--buffers",
        "8",
        "--load",
        "0.05",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("delivered         : 2000 (100.00%)"),
        "{text}"
    );
}

#[test]
fn traffic_multicast_past_the_dense_cap_rides_the_relabeled_table() {
    // The multicast tentpole must work through `RelabeledRouter`:
    // B(2,14) trees are built against the OTIS H-numbered fabric by
    // walking the compressed de Bruijn table behind the isomorphism
    // witness, batched and queueing engines both.
    let out = otis(&["traffic", "2", "14", "multicast:8", "400"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("relabeled(compressed-table(B(2,14)))"),
        "{text}"
    );
    assert!(text.contains("routed 400 multicast:8 trees"), "{text}");
    assert!(text.contains("(3200 destination leaves)"), "{text}");
    assert!(text.contains("(100.00%)"), "{text}");
    assert!(text.contains("forwarding index  : multicast"), "{text}");

    let out = otis(&[
        "traffic",
        "2",
        "14",
        "multicast:8",
        "400",
        "--buffers",
        "8",
        "--load",
        "0.05",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("delivered         : 3200 (100.00%)"),
        "{text}"
    );
    assert!(
        text.contains("multicast         : forwarding index"),
        "{text}"
    );
}

#[test]
fn traffic_unknown_pattern_lists_the_valid_ones() {
    let out = otis(&["traffic", "2", "6", "zigzag", "100"]);
    assert!(!out.status.success(), "unknown pattern must exit nonzero");
    let text = stderr(&out);
    for pattern in [
        "uniform",
        "permutation",
        "transpose",
        "bitrev",
        "hotspot",
        "alltoall",
        "broadcast",
        "multicast:",
        "hotcast:",
    ] {
        assert!(text.contains(pattern), "missing {pattern} in: {text}");
    }
}

#[test]
fn traffic_multicast_batched_reports_forwarding_indices() {
    for pattern in ["broadcast", "multicast:4", "hotcast:4"] {
        let out = otis(&["traffic", "2", "4", pattern, "50"]);
        assert!(out.status.success(), "{pattern}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("routed 50"), "{pattern}: {text}");
        assert!(text.contains("trees"), "{pattern}: {text}");
        assert!(
            text.contains("forwarding index  : multicast"),
            "{pattern}: {text}"
        );
        assert!(text.contains("replication saving"), "{pattern}: {text}");
        assert!(text.contains("(100.00%)"), "{pattern}: {text}");
    }
}

#[test]
fn traffic_multicast_queueing_broadcast_from_the_hotspot_root() {
    // The acceptance shape in miniature: broadcast from the hotspot
    // root (hotcast at full fanout), lossless under backpressure with
    // two dateline VCs, multicast forwarding index printed.
    let out = otis(&[
        "traffic",
        "2",
        "4",
        "hotcast:15",
        "40",
        "--buffers",
        "4",
        "--policy",
        "backpressure",
        "--vcs",
        "2",
        "--load",
        "0.05",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("simulated 40 hotcast:15 trees"), "{text}");
    assert!(text.contains("(600 destination leaves)"), "{text}");
    assert!(
        text.contains("multicast         : forwarding index"),
        "{text}"
    );
    assert!(text.contains("delivered         : 600 (100.00%)"), "{text}");
    assert!(text.contains("0 full-buffer, 0 unroutable"), "{text}");
    assert!(!text.contains("DEADLOCK"), "{text}");
}

#[test]
fn traffic_multicast_rejects_sweep_and_adaptive() {
    let out = otis(&["traffic", "2", "4", "broadcast", "10", "--sweep"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--sweep"), "{}", stderr(&out));
    let out = otis(&["traffic", "2", "4", "multicast:3", "10", "--adaptive"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--adaptive"), "{}", stderr(&out));
    let out = otis(&["traffic", "2", "4", "multicast:0", "10"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("fanout"), "{}", stderr(&out));
}

#[test]
fn traffic_adaptive_queueing_run() {
    let out = otis(&["traffic", "2", "6", "hotspot", "2000", "--adaptive"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("adaptive(table("), "{text}");
    assert!(
        text.contains("queueing: 1 virtual channel(s) × 16 buffers"),
        "{text}"
    );
    assert!(text.contains("queueing delay"), "{text}");
    assert!(text.contains("packets/cycle"), "{text}");
    // Hotspot queueing runs report the per-class split.
    assert!(text.contains("hot class"), "{text}");
    assert!(text.contains("background class"), "{text}");
}

#[test]
fn traffic_vcs_backpressure_is_deadlock_free() {
    // The saturating hotspot run on B(2,8) that wedges with one
    // channel per link: two dateline VCs must complete it lossless.
    let out = otis(&[
        "traffic",
        "2",
        "8",
        "hotspot",
        "5000",
        "--policy",
        "backpressure",
        "--vcs",
        "2",
        "--buffers",
        "4",
        "--load",
        "0.5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("queueing: 2 virtual channel(s)"), "{text}");
    assert!(text.contains("deadlock-free by construction"), "{text}");
    assert!(
        text.contains("delivered         : 5000 (100.00%)"),
        "{text}"
    );
    assert!(text.contains("dateline"), "{text}");
    assert!(!text.contains("DEADLOCK"), "{text}");
}

#[test]
fn traffic_queueing_knobs_are_respected() {
    let out = otis(&[
        "traffic",
        "2",
        "5",
        "uniform",
        "500",
        "--buffers",
        "4",
        "--wavelengths",
        "2",
        "--policy",
        "backpressure",
        "--load",
        "0.1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains(
            "queueing: 1 virtual channel(s) × 4 buffers, 2 wavelength(s) per link, backpressure"
        ),
        "{text}"
    );
    assert!(text.contains("offered 0.100/node/cycle"), "{text}");
}

#[test]
fn traffic_sweep_reports_saturation() {
    let out = otis(&["traffic", "2", "5", "hotspot", "2000", "--sweep"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("offered-load sweep"), "{text}");
    assert!(text.contains("saturation throughput"), "{text}");
}

#[test]
fn traffic_rejects_unknown_flags_and_bad_values() {
    let out = otis(&["traffic", "2", "6", "uniform", "100", "--warp"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));

    let out = otis(&["traffic", "2", "6", "uniform", "100", "--buffers", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least 1"), "{}", stderr(&out));

    let out = otis(&["traffic", "2", "6", "uniform", "100", "--policy", "magic"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("backpressure|taildrop"),
        "{}",
        stderr(&out)
    );

    let out = otis(&["traffic", "2", "6", "uniform", "100", "--vcs", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("1..=255"), "{}", stderr(&out));

    let out = otis(&["traffic", "2", "6", "uniform", "100", "--vcs", "900"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("1..=255"), "{}", stderr(&out));

    // NaN parses as f64 but must not reach the engine.
    let out = otis(&["traffic", "2", "6", "uniform", "100", "--load", "nan"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("positive finite"), "{}", stderr(&out));
}

#[test]
fn traffic_sweep_includes_an_explicit_load_point() {
    let out = otis(&[
        "traffic", "2", "5", "uniform", "1000", "--sweep", "--load", "0.3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0.300"), "user's load point missing: {text}");
}

/// A B(2,8) backpressure hotspot run under `extra` dynamics flags.
fn dynamics_run(extra: &[&str]) -> Output {
    let mut args = vec![
        "traffic",
        "2",
        "8",
        "hotspot",
        "3000",
        "--vcs",
        "2",
        "--buffers",
        "4",
        "--policy",
        "backpressure",
        "--load",
        "0.4",
    ];
    args.extend_from_slice(extra);
    otis(&args)
}

#[test]
fn traffic_dynamics_reports_the_lines_ci_greps() {
    // A four-node storm kills (and later revives) all 8 out-beams of
    // nodes 100..=103; the run repairs online and reinjects.
    let out = dynamics_run(&["--dynamics", "storm@20:100-103:60"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("router: relabeled(dynamic-table("), "{text}");
    assert!(
        text.contains("dynamics: timeline armed — stranded packets reinject"),
        "{text}"
    );
    assert!(
        text.contains("  link dynamics     : 8 deaths, 8 revivals, "),
        "{text}"
    );
    assert!(text.contains("  time to reroute   : p50 "), "{text}");
    assert!(text.contains("  online repair     : 16 events, "), "{text}");
    assert!(text.contains("  route snapshots   : "), "{text}");
}

#[test]
fn traffic_dynamics_resolves_rank_addressed_links() {
    // The same storm shape named in de Bruijn ranks, translated to
    // the OTIS fabric through the layout's isomorphism witness.
    let out = dynamics_run(&["--dynamics", "storm@20:rank:0-3:60"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("  link dynamics     : 8 deaths, 8 revivals, "),
        "{text}"
    );
    assert!(text.contains("  route snapshots   : "), "{text}");
}

#[test]
fn traffic_dynamics_stranded_drop_never_reinjects() {
    let out = otis(&[
        "traffic",
        "2",
        "8",
        "uniform",
        "2000",
        "--load",
        "0.3",
        "--dynamics",
        "randfades@3:2:50:40",
        "--stranded",
        "drop",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("dynamics: timeline armed — stranded packets drop"),
        "{text}"
    );
    assert!(text.contains("  link dynamics     : 2 deaths, "), "{text}");
    // One queued packet is caught by a death, and drop policy never
    // re-places it.
    assert!(
        text.contains("  stranded packets  : 0 reinjected, 1 dropped"),
        "{text}"
    );
}

#[test]
fn traffic_dynamics_rejects_incompatible_flags() {
    let out = otis(&["traffic", "2", "6", "uniform", "100", "--stranded", "drop"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--stranded only matters under --dynamics"),
        "{}",
        stderr(&out)
    );

    let storm = "storm@5:0-3:10";
    let out = otis(&[
        "traffic",
        "2",
        "6",
        "multicast:4",
        "100",
        "--dynamics",
        storm,
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--dynamics applies to unicast queueing runs only"),
        "{}",
        stderr(&out)
    );

    let out = otis(&[
        "traffic",
        "2",
        "6",
        "uniform",
        "100",
        "--dynamics",
        storm,
        "--sweep",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--dynamics and --sweep are mutually exclusive"),
        "{}",
        stderr(&out)
    );

    let out = otis(&[
        "traffic",
        "2",
        "6",
        "uniform",
        "100",
        "--dynamics",
        storm,
        "--arithmetic",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("drop --arithmetic"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn sequence_is_checked_and_printed() {
    let out = otis(&["sequence", "2", "4"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.trim().len(), 16, "dB(2,4) has 16 letters: {text}");
}

#[test]
fn dot_families() {
    for family in ["debruijn", "kautz", "ii", "rrk"] {
        let out = otis(&["dot", family, "2", "3"]);
        assert!(out.status.success(), "{family}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.starts_with(&format!("digraph {family}")), "{text}");
        assert!(text.contains("->"));
    }
    let bad = otis(&["dot", "petersen", "2", "3"]);
    assert!(!bad.status.success());
}
