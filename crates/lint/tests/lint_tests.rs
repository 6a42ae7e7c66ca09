//! Fixture-driven tests for the rule passes, the shrink-only
//! allowlist ratchets, and the integration test that the repository
//! itself lints clean.
//!
//! Fixtures live under `tests/fixtures/<rule>/{pass,fail}.rs` and are
//! fed to [`lint_files`] in memory with shipping-code paths, so the
//! tests exercise exactly the code path `otis-lint --check` runs —
//! minus directory walking, which `repo_lints_clean` covers end to
//! end.

use otis_lint::rules::{lint_files, Allowlists, Diagnostic, SourceFile};
use otis_lint::scan::{find_workspace_root, run_check};

fn sf(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        text: text.to_string(),
    }
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ------------------------------------------------------------------ //
// Rule 1: unsafe-audit
// ------------------------------------------------------------------ //

#[test]
fn unsafe_audit_passes_commented_inventoried_site() {
    let files = [sf(
        "crates/demo/src/util.rs",
        include_str!("fixtures/unsafe_audit/pass.rs"),
    )];
    let mut allow = Allowlists::default();
    allow
        .unsafe_inventory
        .insert("crates/demo/src/util.rs".to_string(), 1);
    assert_eq!(lint_files(&files, &allow), Vec::new());
}

#[test]
fn unsafe_audit_flags_missing_safety_and_inventory_drift() {
    let files = [sf(
        "crates/demo/src/util.rs",
        include_str!("fixtures/unsafe_audit/fail.rs"),
    )];
    let mut allow = Allowlists::default();
    // The inventory still says 1, but the fixture grew a second site.
    allow
        .unsafe_inventory
        .insert("crates/demo/src/util.rs".to_string(), 1);
    let diags = lint_files(&files, &allow);
    assert_eq!(rules_of(&diags), ["unsafe-audit", "unsafe-audit"]);
    assert!(
        diags.iter().any(|d| d.message.contains("SAFETY:")),
        "one finding names the uncommented site: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("2 found")),
        "one finding names the count drift: {diags:?}"
    );
}

#[test]
fn unsafe_audit_inventory_cannot_go_stale() {
    // An entry for a file with no unsafe left must be deleted — the
    // inventory only shrinks with the code, never drifts above it.
    let files = [sf("crates/demo/src/util.rs", "pub fn safe() {}\n")];
    let mut allow = Allowlists::default();
    allow
        .unsafe_inventory
        .insert("crates/demo/src/util.rs".to_string(), 1);
    let diags = lint_files(&files, &allow);
    assert_eq!(rules_of(&diags), ["unsafe-audit"]);
    assert!(diags[0].message.contains("stale"));
}

#[test]
fn unsafe_free_crate_roots_must_forbid() {
    let bare = [sf("crates/demo/src/lib.rs", "pub fn noop() {}\n")];
    let allow = Allowlists::default();
    let diags = lint_files(&bare, &allow);
    assert_eq!(rules_of(&diags), ["unsafe-audit"]);
    assert!(diags[0].message.contains("#![forbid(unsafe_code)]"));

    let declared = [sf(
        "crates/demo/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn noop() {}\n",
    )];
    assert_eq!(lint_files(&declared, &allow), Vec::new());
}

// ------------------------------------------------------------------ //
// Rule 2: atomic-ordering
// ------------------------------------------------------------------ //

#[test]
fn atomic_ordering_passes_scoped_justification() {
    let files = [sf(
        "crates/demo/src/counter.rs",
        include_str!("fixtures/atomics/pass.rs"),
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

#[test]
fn atomic_ordering_flags_uncovered_and_strict_sites() {
    let files = [sf(
        "crates/demo/src/counter.rs",
        include_str!("fixtures/atomics/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(
        rules_of(&diags),
        ["atomic-ordering", "atomic-ordering", "atomic-ordering"]
    );
    // The depth-0 banner must not have covered the first fn's load.
    assert!(
        diags
            .iter()
            .any(|d| d.line > 0 && d.message.contains("ORDERING:")),
        "expected an uncovered-site finding: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`seqcst`")),
        "expected a SeqCst strict finding: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`relaxed-handoff`")),
        "expected a relaxed-handoff strict finding: {diags:?}"
    );
}

#[test]
fn atomic_ordering_strict_entries_are_exact_both_ways() {
    let files = [sf(
        "crates/demo/src/counter.rs",
        include_str!("fixtures/atomics/fail.rs"),
    )];
    let mut allow = Allowlists::default();
    allow.atomics.insert(
        (
            "crates/demo/src/counter.rs".to_string(),
            "seqcst".to_string(),
        ),
        1,
    );
    allow.atomics.insert(
        (
            "crates/demo/src/counter.rs".to_string(),
            "relaxed-handoff".to_string(),
        ),
        1,
    );
    // With exact entries only the uncovered site remains.
    let diags = lint_files(&files, &allow);
    assert_eq!(rules_of(&diags), ["atomic-ordering"]);
    assert!(diags[0].line > 0);

    // Overshooting the count is itself a violation (the list can only
    // shrink toward reality, never pad above it).
    allow.atomics.insert(
        (
            "crates/demo/src/counter.rs".to_string(),
            "seqcst".to_string(),
        ),
        2,
    );
    let diags = lint_files(&files, &allow);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("atomics.txt lists 2")),
        "padded entry must be flagged: {diags:?}"
    );

    // An entry with no matching sites at all is stale.
    let mut stale = Allowlists::default();
    stale.atomics.insert(
        ("crates/demo/src/gone.rs".to_string(), "seqcst".to_string()),
        1,
    );
    let diags = lint_files(&[], &stale);
    assert_eq!(rules_of(&diags), ["atomic-ordering"]);
    assert!(diags[0].message.contains("stale"));
}

#[test]
fn atomic_ordering_skips_test_code() {
    // Bench/test targets and #[cfg(test)] bodies may use orderings
    // without ceremony.
    let files = [
        sf(
            "crates/demo/tests/probe.rs",
            "use std::sync::atomic::{AtomicU32, Ordering};\n\
             pub fn probe(c: &AtomicU32) -> u32 { c.load(Ordering::SeqCst) }\n",
        ),
        sf(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::sync::atomic::{AtomicU32, Ordering};\n\
                 #[test]\n\
                 fn probe() {\n\
                     assert_eq!(AtomicU32::new(0).load(Ordering::SeqCst), 0);\n\
                 }\n\
             }\n",
        ),
    ];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

// ------------------------------------------------------------------ //
// Rule 3: determinism
// ------------------------------------------------------------------ //

#[test]
fn determinism_passes_ordered_containers() {
    let files = [sf(
        "crates/demo/src/report.rs",
        include_str!("fixtures/determinism/pass.rs"),
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

#[test]
fn determinism_flags_hash_maps_and_ambient_clocks() {
    let files = [sf(
        "crates/demo/src/report.rs",
        include_str!("fixtures/determinism/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "determinism"));
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.message.contains("`HashMap`"))
            .count(),
        3
    );
    assert!(diags.iter().any(|d| d.message.contains("Instant::now")));
}

#[test]
fn determinism_allowlist_is_per_file_and_per_token() {
    let files = [sf(
        "crates/demo/src/report.rs",
        include_str!("fixtures/determinism/fail.rs"),
    )];
    let mut allow = Allowlists::default();
    allow.determinism.insert((
        "crates/demo/src/report.rs".to_string(),
        "HashMap".to_string(),
    ));
    // HashMap excused; the clock finding must survive.
    let diags = lint_files(&files, &allow);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("Instant::now"));
}

#[test]
fn determinism_exempts_tool_crates_from_clocks_only() {
    // The CLI may time things; it still may not use HashMap.
    let files = [sf(
        "crates/cli/src/timing.rs",
        "use std::time::Instant;\n\
         use std::collections::HashMap;\n\
         pub fn now() -> Instant { Instant::now() }\n",
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("`HashMap`"));
}

// ------------------------------------------------------------------ //
// Rule 4: panic-hygiene
// ------------------------------------------------------------------ //

#[test]
fn panic_hygiene_passes_expect_and_test_unwraps() {
    let files = [sf(
        "crates/demo/src/config.rs",
        include_str!("fixtures/panic_hygiene/pass.rs"),
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

#[test]
fn panic_hygiene_flags_over_budget_unwraps() {
    let files = [sf(
        "crates/demo/src/config.rs",
        include_str!("fixtures/panic_hygiene/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(rules_of(&diags), ["panic-hygiene"]);
    assert!(diags[0].message.contains("2 bare"), "{diags:?}");

    // An exact budget silences the rule...
    let mut allow = Allowlists::default();
    allow
        .unwrap_budget
        .insert("crates/demo/src/config.rs".to_string(), 2);
    assert_eq!(lint_files(&files, &allow), Vec::new());
}

#[test]
fn panic_hygiene_budget_only_shrinks() {
    // ...but a budget above reality demands a ratchet-down,
    let files = [sf(
        "crates/demo/src/config.rs",
        include_str!("fixtures/panic_hygiene/fail.rs"),
    )];
    let mut allow = Allowlists::default();
    allow
        .unwrap_budget
        .insert("crates/demo/src/config.rs".to_string(), 3);
    let diags = lint_files(&files, &allow);
    assert_eq!(rules_of(&diags), ["panic-hygiene"]);
    assert!(diags[0].message.contains("ratchet"), "{diags:?}");

    // a zero-count entry is dead weight,
    let mut zero = Allowlists::default();
    zero.unwrap_budget
        .insert("crates/demo/src/config.rs".to_string(), 0);
    let diags = lint_files(
        &[sf("crates/demo/src/config.rs", "pub fn tidy() {}\n")],
        &zero,
    );
    assert_eq!(rules_of(&diags), ["panic-hygiene"]);
    assert!(diags[0].message.contains("dead weight"), "{diags:?}");

    // and an entry for an unscanned file is stale.
    let mut stale = Allowlists::default();
    stale
        .unwrap_budget
        .insert("crates/demo/src/deleted.rs".to_string(), 2);
    let diags = lint_files(&[], &stale);
    assert_eq!(rules_of(&diags), ["panic-hygiene"]);
    assert!(diags[0].message.contains("stale"), "{diags:?}");
}

// ------------------------------------------------------------------ //
// Rule 5: barrier-naming
// ------------------------------------------------------------------ //

#[test]
fn barrier_naming_passes_named_sites() {
    let files = [sf(
        "crates/demo/src/phases.rs",
        include_str!("fixtures/barrier_naming/pass.rs"),
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

#[test]
fn barrier_naming_flags_anonymous_waits() {
    let files = [sf(
        "crates/demo/src/phases.rs",
        include_str!("fixtures/barrier_naming/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(rules_of(&diags), ["barrier-naming", "barrier-naming"]);
    // The bare wait, despite the depth-0 banner naming a barrier, and
    // the wait whose ORDERING: line never says "barrier".
    assert_eq!(diags[0].line, 10, "{diags:?}");
    assert_eq!(diags[1].line, 16, "{diags:?}");
    assert!(
        diags
            .iter()
            .all(|d| d.message.contains("naming the barrier")),
        "{diags:?}"
    );
}

#[test]
fn barrier_naming_skips_test_code() {
    // Test harnesses synchronize without ceremony.
    let files = [sf(
        "crates/demo/tests/sync.rs",
        "use std::sync::Barrier;\n\
         pub fn rendezvous(b: &Barrier) { b.wait(); }\n",
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

// ------------------------------------------------------------------ //
// Rule 6: report-audit
// ------------------------------------------------------------------ //

#[test]
fn report_audit_passes_wired_and_exempt_fields() {
    let files = [sf(
        "crates/demo/src/report.rs",
        include_str!("fixtures/report_audit/pass.rs"),
    )];
    assert_eq!(lint_files(&files, &Allowlists::default()), Vec::new());
}

#[test]
fn report_audit_flags_unaudited_counters_and_stale_exemptions() {
    let files = [sf(
        "crates/demo/src/report.rs",
        include_str!("fixtures/report_audit/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(rules_of(&diags), ["report-audit", "report-audit"]);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`cycles`") && d.message.contains("stale")),
        "exempt-but-audited field must be flagged: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`stranded_reinjected`")
                && d.message.contains("no conservation assertion")),
        "unaudited counter must be flagged: {diags:?}"
    );
}

#[test]
fn report_audit_exemptions_must_name_real_fields() {
    // A struct that dropped its measurement fields invalidates every
    // exemption naming them — the exempt list only shrinks with the
    // struct, never pads above it.
    let files = [sf(
        "crates/demo/src/report.rs",
        "pub struct QueueingReport {\n\
             pub injected: usize,\n\
         }\n\
         impl QueueingReport {\n\
             pub fn conserves_packets(&self) -> bool {\n\
                 self.injected == 0\n\
             }\n\
         }\n",
    )];
    let diags = lint_files(&files, &Allowlists::default());
    assert_eq!(diags.len(), 14, "{diags:?}");
    assert!(
        diags
            .iter()
            .all(|d| d.rule == "report-audit" && d.message.contains("not a field")),
        "{diags:?}"
    );
}

// ------------------------------------------------------------------ //
// Diagnostics & integration
// ------------------------------------------------------------------ //

#[test]
fn diagnostics_render_as_path_line_rule() {
    let files = [sf(
        "crates/demo/src/config.rs",
        include_str!("fixtures/panic_hygiene/fail.rs"),
    )];
    let diags = lint_files(&files, &Allowlists::default());
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/demo/src/config.rs:") && rendered.contains("[panic-hygiene]"),
        "diagnostic format drifted: {rendered}"
    );
}

/// The linter's reason to exist: the repository itself upholds all
/// six invariants against the committed allowlists. A regression in
/// any shipping file fails this test with a `file:line` finding.
#[test]
fn repo_lints_clean() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let diags = run_check(&root).expect("source scan and allowlists load");
    assert!(
        diags.is_empty(),
        "the repository violates its own invariants:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
