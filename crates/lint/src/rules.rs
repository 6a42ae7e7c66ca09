//! The six rule passes of `otis-lint`.
//!
//! Every rule enforces a *repo invariant* that the runtime test suite
//! cannot: the properties below are preserved by construction only if
//! every edit that threatens them is forced through an explicit,
//! reviewable diff (an annotation or an allowlist change).
//!
//! 1. **unsafe-audit** — every `unsafe` token carries an adjacent
//!    `// SAFETY:` comment *and* is counted in a checked-in inventory
//!    (`allow/unsafe_inventory.txt`), so new unsafe cannot land
//!    silently. Crates whose inventory is empty must declare
//!    `#![forbid(unsafe_code)]` at their crate roots.
//! 2. **atomic-ordering** — every atomic `Ordering` use sits under a
//!    covering `// ORDERING:` justification; `SeqCst` and
//!    relaxed-handoff shapes (flag publishes, exchanges) additionally
//!    require an exact-count entry in `allow/atomics.txt`.
//! 3. **determinism** — `HashMap`/`HashSet` are banned from shipping
//!    code (iteration order would thread nondeterminism into reports
//!    that must be byte-identical at any `--threads`), as are ambient
//!    clocks and RNGs outside `bench`/`cli`.
//! 4. **panic-hygiene** — bare `.unwrap()` in library shipping code
//!    is budgeted per file (`allow/unwrap_budget.txt`) with an exact
//!    ratchet: the count can only go down, and lowering it requires
//!    updating the budget in the same diff.
//! 5. **barrier-naming** — every barrier `wait()` in shipping code
//!    sits under an `// ORDERING:` comment that *names* the barrier
//!    on the `ORDERING:` line itself (the phase edge it implements),
//!    so the engine's barrier choreography stays reviewable at each
//!    site.
//! 6. **report-audit** — every countable field of the queueing
//!    report (`usize` / `u64` / `Vec<u64>`) either appears in one of
//!    the conservation assertions (`dropped`, `conserves_packets`,
//!    `dynamics_consistent`) or is explicitly exempted here as a
//!    measurement — a new counter cannot land outside the
//!    conservation law without a reviewed linter diff.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lexer::{find_word, lex, preceded_by_path_sep, LexedFile};

/// One source file handed to the linter: a workspace-relative path
/// (used for classification and allowlist keys) and its full text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel: String,
    pub text: String,
}

/// A single finding, printable as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub rel: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.message
        )
    }
}

/// The committed allowlists. Every map is keyed by workspace-relative
/// path, so a violation anywhere else *requires* a diff to one of the
/// files under `crates/lint/allow/`.
#[derive(Debug, Default, Clone)]
pub struct Allowlists {
    /// `unsafe_inventory.txt`: path → exact number of `unsafe` sites.
    pub unsafe_inventory: BTreeMap<String, usize>,
    /// `atomics.txt`: (path, kind) → exact count, kind ∈
    /// {`seqcst`, `relaxed-handoff`}.
    pub atomics: BTreeMap<(String, String), usize>,
    /// `determinism.txt`: (path, token) exceptions, token ∈
    /// {`HashMap`, `HashSet`, `Instant`, `SystemTime`, `thread_rng`,
    /// `from_entropy`, `random`}.
    pub determinism: BTreeSet<(String, String)>,
    /// `unwrap_budget.txt`: path → exact number of bare `.unwrap()`
    /// calls allowed to remain (the shrink-only cap).
    pub unwrap_budget: BTreeMap<String, usize>,
}

/// Crates that are *tools*, not library code: exempt from the
/// panic-hygiene budget and the ambient-clock/RNG ban (a CLI prints
/// wall-clock timings; the bench harness measures them).
const TOOL_CRATES: &[&str] = &["cli", "bench", "examples"];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Which crate a workspace-relative path belongs to. The root facade
/// package (`src/lib.rs`) is reported as `otis`; top-level
/// `tests/`/`examples/` belong to it too.
pub fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or(rest);
    }
    if rel.starts_with("examples/") {
        return "examples";
    }
    "otis"
}

/// Is this path test- or bench-target code (as opposed to shipping
/// library/binary code)?
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/fixtures/")
}

/// Is this path a crate-root file — the place `#![forbid(unsafe_code)]`
/// must live for an unsafe-free crate?
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" || rel == "src/main.rs" {
        return true;
    }
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, tail)) = rest.split_once('/') else {
        return false;
    };
    tail == "src/lib.rs"
        || tail == "src/main.rs"
        || (tail.starts_with("src/bin/") && tail.ends_with(".rs") && tail.matches('/').count() == 2)
}

/// A lexed file plus its classification, shared by all rule passes.
struct Prepared<'a> {
    file: &'a SourceFile,
    lex: LexedFile,
}

/// Run all six rule passes over `files` against `allow`. Returns
/// diagnostics sorted by (path, line, rule).
pub fn lint_files(files: &[SourceFile], allow: &Allowlists) -> Vec<Diagnostic> {
    let prepared: Vec<Prepared<'_>> = files
        .iter()
        .map(|f| Prepared {
            file: f,
            lex: lex(&f.text),
        })
        .collect();

    let mut diags = Vec::new();
    unsafe_audit(&prepared, allow, &mut diags);
    atomic_ordering(&prepared, allow, &mut diags);
    determinism(&prepared, allow, &mut diags);
    panic_hygiene(&prepared, allow, &mut diags);
    barrier_naming(&prepared, &mut diags);
    report_audit(&prepared, &mut diags);
    diags.sort();
    diags
}

// ---------------------------------------------------------------- //
// Rule 1: unsafe-audit
// ---------------------------------------------------------------- //

/// Is line `idx` (0-based) an attribute-only line (`#[…]`), which an
/// adjacency walk may step over between a comment and its item?
fn is_attr_line(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[") || t.starts_with("#![")
}

/// Does the `unsafe` site on 0-based line `idx` have an adjacent
/// `SAFETY:` comment — on the same line, or in the contiguous block
/// of comment-only (or attribute) lines directly above it?
fn has_adjacent_marker(p: &Prepared<'_>, idx: usize, marker: &str) -> bool {
    if p.lex
        .comments
        .iter()
        .any(|c| c.line == idx + 1 && c.text.contains(marker))
    {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if p.lex.comment_only[j] {
            if p.lex
                .comments
                .iter()
                .any(|c| c.line == j + 1 && c.text.contains(marker))
            {
                return true;
            }
            continue;
        }
        if is_attr_line(&p.lex.code[j]) {
            continue;
        }
        break;
    }
    false
}

fn unsafe_audit(prepared: &[Prepared<'_>], allow: &Allowlists, diags: &mut Vec<Diagnostic>) {
    let mut sites_per_file: BTreeMap<&str, usize> = BTreeMap::new();
    let mut sites_per_crate: BTreeMap<&str, usize> = BTreeMap::new();

    for p in prepared {
        let rel = p.file.rel.as_str();
        let mut count = 0usize;
        for (idx, code) in p.lex.code.iter().enumerate() {
            let hits = find_word(code, "unsafe").len();
            if hits == 0 {
                continue;
            }
            count += hits;
            if !has_adjacent_marker(p, idx, "SAFETY:") {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "unsafe-audit",
                    message: "`unsafe` without an adjacent `// SAFETY:` comment \
                              (same line or the comment block directly above)"
                        .to_string(),
                });
            }
        }
        if count > 0 {
            sites_per_file.insert(rel, count);
            *sites_per_crate.entry(crate_of(rel)).or_insert(0) += count;
        }
    }

    // Inventory: exact per-file counts, both directions.
    for (rel, &count) in &sites_per_file {
        match allow.unsafe_inventory.get(*rel) {
            None => diags.push(Diagnostic {
                rel: (*rel).to_string(),
                line: 0,
                rule: "unsafe-audit",
                message: format!(
                    "{count} unsafe site(s) but no entry in \
                     crates/lint/allow/unsafe_inventory.txt — new unsafe requires an \
                     explicit inventory diff"
                ),
            }),
            Some(&listed) if listed != count => diags.push(Diagnostic {
                rel: (*rel).to_string(),
                line: 0,
                rule: "unsafe-audit",
                message: format!(
                    "inventory lists {listed} unsafe site(s) but {count} found — \
                     update crates/lint/allow/unsafe_inventory.txt to match"
                ),
            }),
            Some(_) => {}
        }
    }
    for (rel, &listed) in &allow.unsafe_inventory {
        if !sites_per_file.contains_key(rel.as_str()) {
            diags.push(Diagnostic {
                rel: rel.clone(),
                line: 0,
                rule: "unsafe-audit",
                message: format!(
                    "inventory lists {listed} unsafe site(s) but none found — \
                     remove the stale entry from crates/lint/allow/unsafe_inventory.txt"
                ),
            });
        }
    }

    // Unsafe-free crates must say so at their crate roots.
    for p in prepared {
        let rel = p.file.rel.as_str();
        if !is_crate_root(rel) {
            continue;
        }
        if sites_per_crate.get(crate_of(rel)).copied().unwrap_or(0) > 0 {
            continue;
        }
        let has_forbid = p
            .lex
            .code
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            diags.push(Diagnostic {
                rel: rel.to_string(),
                line: 1,
                rule: "unsafe-audit",
                message: "crate has no unsafe inventory: its crate root must declare \
                          `#![forbid(unsafe_code)]`"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- //
// Rule 2: atomic-ordering
// ---------------------------------------------------------------- //

/// One atomic-ordering use site.
struct OrderingSite {
    /// 0-based line.
    idx: usize,
    /// `Relaxed` | `Acquire` | … — which ordering.
    name: &'static str,
}

fn is_use_decl(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("use ") || t.starts_with("pub use ")
}

/// Which ordering names this file imports *bare* (e.g. `use
/// std::sync::atomic::Ordering::Relaxed;` makes `Relaxed` a path in
/// scope).
fn bare_imports(p: &Prepared<'_>) -> BTreeSet<&'static str> {
    let mut out = BTreeSet::new();
    for code in &p.lex.code {
        if !(is_use_decl(code) && code.contains("Ordering::")) {
            continue;
        }
        if code.contains("Ordering::*") {
            out.extend(ORDERING_NAMES.iter().copied());
            continue;
        }
        for name in ORDERING_NAMES {
            for col in find_word(code, name) {
                if preceded_by_path_sep(code, col) {
                    out.insert(*name);
                }
            }
        }
    }
    out
}

fn collect_ordering_sites(p: &Prepared<'_>) -> Vec<OrderingSite> {
    let bare = bare_imports(p);
    let mut sites = Vec::new();
    for (idx, code) in p.lex.code.iter().enumerate() {
        if p.lex.test_mask[idx] || is_use_decl(code) {
            continue;
        }
        for name in ORDERING_NAMES {
            for col in find_word(code, name) {
                if preceded_by_path_sep(code, col) {
                    // Qualified: count only `Ordering::Name` (never
                    // `cmp::Ordering::Less`, never enum variants of
                    // other types — the qualifier must be `Ordering`).
                    let before = &code[..col];
                    let q = before.trim_end();
                    let q = q.strip_suffix("::").unwrap_or(q);
                    if q.ends_with("Ordering") {
                        sites.push(OrderingSite { idx, name });
                    }
                } else if bare.contains(name) {
                    sites.push(OrderingSite { idx, name });
                }
            }
        }
    }
    sites
}

/// The scope-coverage check: a justification comment at brace depth
/// `d ≥ 1` covers every subsequent line until the depth drops below
/// `d` (i.e. the enclosing block closes). Depth 0 comments are
/// module prose, not a justification — they are ignored, so a single
/// file-top banner cannot blanket-approve a whole file. `is_mark`
/// decides which comments count as justifications.
fn justification_covered_lines(p: &Prepared<'_>, is_mark: impl Fn(&str) -> bool) -> Vec<bool> {
    let n = p.lex.code.len();
    let mut covered = vec![false; n];
    let mut marks: Vec<(usize, usize)> = p // (line idx, depth)
        .lex
        .comments
        .iter()
        .filter(|c| is_mark(&c.text))
        .map(|c| (c.line - 1, c.depth))
        .collect();
    marks.sort_unstable();
    let mut next_mark = 0usize;
    let mut stack: Vec<usize> = Vec::new(); // active comment depths
    for (idx, cov) in covered.iter_mut().enumerate() {
        while let Some(&top) = stack.last() {
            if p.lex.depth[idx] < top {
                stack.pop();
            } else {
                break;
            }
        }
        while next_mark < marks.len() && marks[next_mark].0 == idx {
            let (_, d) = marks[next_mark];
            if d >= 1 {
                stack.push(d);
            }
            // A same-line justification covers its own line even at
            // depth 0 (e.g. a one-line static initializer).
            *cov = true;
            next_mark += 1;
        }
        if !stack.is_empty() {
            *cov = true;
        }
    }
    covered
}

/// Strict-site classification: `SeqCst` anywhere, and `Relaxed` on a
/// cross-thread handoff shape — an exchange (`compare_exchange`,
/// `.swap(`) or a boolean flag publish (`store(true`/`store(false`).
fn strict_kind(code: &str, name: &str) -> Option<&'static str> {
    if name == "SeqCst" {
        return Some("seqcst");
    }
    if name == "Relaxed"
        && (code.contains("compare_exchange")
            || code.contains(".swap(")
            || code.contains("store(true")
            || code.contains("store(false"))
    {
        return Some("relaxed-handoff");
    }
    None
}

fn atomic_ordering(prepared: &[Prepared<'_>], allow: &Allowlists, diags: &mut Vec<Diagnostic>) {
    let mut strict_counts: BTreeMap<(String, String), usize> = BTreeMap::new();

    for p in prepared {
        let rel = p.file.rel.as_str();
        if is_test_path(rel) {
            continue;
        }
        let sites = collect_ordering_sites(p);
        if sites.is_empty() {
            continue;
        }
        let covered = justification_covered_lines(p, |t| t.contains("ORDERING:"));
        for site in &sites {
            if !covered[site.idx] {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: site.idx + 1,
                    rule: "atomic-ordering",
                    message: format!(
                        "`{}` without a covering `// ORDERING:` justification \
                         (add one inside the enclosing fn/impl body, above this use)",
                        site.name
                    ),
                });
            }
            if let Some(kind) = strict_kind(&p.lex.code[site.idx], site.name) {
                *strict_counts
                    .entry((rel.to_string(), kind.to_string()))
                    .or_insert(0) += 1;
            }
        }
    }

    // Strict sites: exact counts against allow/atomics.txt, both
    // directions, so adding or removing one forces an allowlist diff.
    for (key, &count) in &strict_counts {
        let listed = allow.atomics.get(key).copied();
        if listed != Some(count) {
            diags.push(Diagnostic {
                rel: key.0.clone(),
                line: 0,
                rule: "atomic-ordering",
                message: format!(
                    "{count} `{}` site(s) but crates/lint/allow/atomics.txt lists {} — \
                     these shapes need an explicit reviewed entry",
                    key.1,
                    listed.map_or("none".to_string(), |l| l.to_string()),
                ),
            });
        }
    }
    for (key, &listed) in &allow.atomics {
        if !strict_counts.contains_key(key) {
            diags.push(Diagnostic {
                rel: key.0.clone(),
                line: 0,
                rule: "atomic-ordering",
                message: format!(
                    "allow/atomics.txt lists {listed} `{}` site(s) but none found — \
                     remove the stale entry",
                    key.1
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- //
// Rule 3: determinism
// ---------------------------------------------------------------- //

fn determinism(prepared: &[Prepared<'_>], allow: &Allowlists, diags: &mut Vec<Diagnostic>) {
    for p in prepared {
        let rel = p.file.rel.as_str();
        if is_test_path(rel) {
            continue;
        }
        let tool = TOOL_CRATES.contains(&crate_of(rel));
        for (idx, code) in p.lex.code.iter().enumerate() {
            if p.lex.test_mask[idx] {
                continue;
            }
            for token in ["HashMap", "HashSet"] {
                if find_word(code, token).is_empty() {
                    continue;
                }
                if allow
                    .determinism
                    .contains(&(rel.to_string(), token.to_string()))
                {
                    continue;
                }
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "determinism",
                    message: format!(
                        "`{token}` in shipping code: iteration order is \
                         nondeterministic and reports must be byte-identical — \
                         use `BTreeMap`/`BTreeSet` or a sorted Vec \
                         (or add an allow/determinism.txt entry with justification)"
                    ),
                });
            }
            if tool {
                continue; // clocks and RNG are the tools' job
            }
            let clockish = [
                ("Instant", "Instant::now"),
                ("SystemTime", "SystemTime::now"),
            ];
            for (word, pattern) in clockish {
                if !find_word(code, word).is_empty() && code.contains(pattern) {
                    if allow
                        .determinism
                        .contains(&(rel.to_string(), word.to_string()))
                    {
                        continue;
                    }
                    diags.push(Diagnostic {
                        rel: rel.to_string(),
                        line: idx + 1,
                        rule: "determinism",
                        message: format!(
                            "`{pattern}` in library code: ambient clocks make runs \
                             unreproducible — thread timing through the caller \
                             (bench/cli own the clocks)"
                        ),
                    });
                }
            }
            for token in ["thread_rng", "from_entropy"] {
                if find_word(code, token).is_empty() {
                    continue;
                }
                if allow
                    .determinism
                    .contains(&(rel.to_string(), token.to_string()))
                {
                    continue;
                }
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "determinism",
                    message: format!(
                        "`{token}` in library code: ambient RNG breaks seeded \
                         reproducibility — take a seed or an `Rng` from the caller"
                    ),
                });
            }
            if code.contains("rand::random")
                && !allow
                    .determinism
                    .contains(&(rel.to_string(), "random".to_string()))
            {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "determinism",
                    message: "`rand::random` in library code: ambient RNG breaks \
                              seeded reproducibility — take a seed or an `Rng` from \
                              the caller"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Rule 4: panic-hygiene
// ---------------------------------------------------------------- //

/// Count bare `.unwrap()` calls on a sanitized line (word-boundary
/// `unwrap` preceded by `.` and followed by an empty argument list,
/// whitespace tolerated — so `unwrap_or` and `x.unwrap_or_else` never
/// match).
fn count_bare_unwraps(code: &str) -> usize {
    let chars: Vec<char> = code.chars().collect();
    find_word(code, "unwrap")
        .into_iter()
        .filter(|&col| {
            let mut j = col;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
            if j == 0 || chars[j - 1] != '.' {
                return false;
            }
            let mut k = col + "unwrap".len();
            while k < chars.len() && chars[k].is_whitespace() {
                k += 1;
            }
            if k >= chars.len() || chars[k] != '(' {
                return false;
            }
            k += 1;
            while k < chars.len() && chars[k].is_whitespace() {
                k += 1;
            }
            k < chars.len() && chars[k] == ')'
        })
        .count()
}

fn panic_hygiene(prepared: &[Prepared<'_>], allow: &Allowlists, diags: &mut Vec<Diagnostic>) {
    for p in prepared {
        let rel = p.file.rel.as_str();
        if is_test_path(rel) || TOOL_CRATES.contains(&crate_of(rel)) {
            continue;
        }
        let mut lines_with: Vec<usize> = Vec::new();
        let mut count = 0usize;
        for (idx, code) in p.lex.code.iter().enumerate() {
            if p.lex.test_mask[idx] {
                continue;
            }
            let n = count_bare_unwraps(code);
            if n > 0 {
                count += n;
                lines_with.push(idx + 1);
            }
        }
        let budget = allow.unwrap_budget.get(rel).copied().unwrap_or(0);
        if count > budget {
            diags.push(Diagnostic {
                rel: rel.to_string(),
                line: lines_with.first().copied().unwrap_or(1),
                rule: "panic-hygiene",
                message: format!(
                    "{count} bare `.unwrap()` call(s) but the budget is {budget} \
                     (lines {lines_with:?}) — convert to `.expect(\"why\")`; the \
                     budget in crates/lint/allow/unwrap_budget.txt only shrinks"
                ),
            });
        } else if count < budget {
            diags.push(Diagnostic {
                rel: rel.to_string(),
                line: lines_with.first().copied().unwrap_or(1),
                rule: "panic-hygiene",
                message: format!(
                    "only {count} bare `.unwrap()` call(s) remain but the budget \
                     says {budget} — ratchet crates/lint/allow/unwrap_budget.txt \
                     down so the cap can never silently regrow"
                ),
            });
        }
    }
    let scanned: BTreeSet<&str> = prepared.iter().map(|p| p.file.rel.as_str()).collect();
    for (rel, &budget) in &allow.unwrap_budget {
        if budget == 0 {
            diags.push(Diagnostic {
                rel: rel.clone(),
                line: 0,
                rule: "panic-hygiene",
                message: "zero-count budget entry is dead weight — delete the line \
                          from crates/lint/allow/unwrap_budget.txt"
                    .to_string(),
            });
        } else if !scanned.contains(rel.as_str()) {
            diags.push(Diagnostic {
                rel: rel.clone(),
                line: 0,
                rule: "panic-hygiene",
                message: "budget entry names a file the scan never saw — remove the \
                          stale line from crates/lint/allow/unwrap_budget.txt"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- //
// Rule 5: barrier-naming
// ---------------------------------------------------------------- //

/// Is this code line a barrier `wait()` site? The receiver (or a
/// binding on the same line) must mention a barrier by name — the
/// engine's phase barriers are all called `barrier`.
fn is_barrier_wait(code: &str) -> bool {
    code.contains(".wait(") && code.to_ascii_lowercase().contains("barrier")
}

fn barrier_naming(prepared: &[Prepared<'_>], diags: &mut Vec<Diagnostic>) {
    for p in prepared {
        let rel = p.file.rel.as_str();
        if is_test_path(rel) {
            continue;
        }
        let mut covered: Option<Vec<bool>> = None;
        for (idx, code) in p.lex.code.iter().enumerate() {
            if p.lex.test_mask[idx] || !is_barrier_wait(code) {
                continue;
            }
            let covered = covered.get_or_insert_with(|| {
                justification_covered_lines(p, |t| {
                    t.contains("ORDERING:") && t.to_ascii_lowercase().contains("barrier")
                })
            });
            if !covered[idx] {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "barrier-naming",
                    message: "barrier `wait()` without a covering `// ORDERING:` comment \
                              naming the barrier (say which phase edge this wait \
                              implements and what its synchronizes-with edge publishes)"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Rule 6: report-audit
// ---------------------------------------------------------------- //

/// The report struct whose countable fields must be tied into a
/// conservation assertion.
const REPORT_STRUCT: &str = "QueueingReport";

/// The assertion methods whose bodies count as "audited": a field
/// referenced in any of them participates in a conservation law the
/// test suite actually checks.
const REPORT_AUDIT_FNS: &[&str] = &["dropped", "conserves_packets", "dynamics_consistent"];

/// Countable fields that are *measurements*, not conservation terms
/// (latency percentiles, per-link tallies, run metadata). Exempting a
/// new counter here instead of wiring it into an assertion is an
/// explicit, reviewable linter diff.
const REPORT_AUDIT_EXEMPT: &[&str] = &[
    "cycles",
    "vcs",
    "dateline_promotions",
    "dateline_relief",
    "source_stall_cycles",
    "delivered_hops",
    "wait_p50_cycles",
    "wait_p99_cycles",
    "wait_max_cycles",
    "delivered_per_link",
    "multicast_groups",
    "replicated_copies",
    "multicast_forwarding_index",
    "uninjected",
];

/// Field types the audit considers countable — the integer tallies a
/// conservation law could (and should) bind.
fn is_countable_type(ty: &str) -> bool {
    matches!(ty, "usize" | "u64" | "Vec<u64>")
}

/// `(line idx, name, type)` of every field in the struct block that
/// starts at code line `start`.
fn collect_struct_fields(p: &Prepared<'_>, start: usize) -> Vec<(usize, String, String)> {
    let mut fields = Vec::new();
    let mut balance = 0i32;
    let mut opened = false;
    for (idx, code) in p.lex.code.iter().enumerate().skip(start) {
        for ch in code.chars() {
            match ch {
                '{' => {
                    balance += 1;
                    opened = true;
                }
                '}' => balance -= 1,
                _ => {}
            }
        }
        if opened && idx > start {
            let t = code.trim();
            if let Some(rest) = t.strip_prefix("pub ") {
                if let Some((name, ty)) = rest.split_once(':') {
                    fields.push((
                        idx,
                        name.trim().to_string(),
                        ty.trim().trim_end_matches(',').to_string(),
                    ));
                }
            }
        }
        if opened && balance <= 0 {
            break;
        }
    }
    fields
}

/// The code lines making up the bodies of the audit methods.
fn report_audit_bodies<'a>(p: &'a Prepared<'_>) -> Vec<&'a str> {
    let mut body_lines = Vec::new();
    for fn_name in REPORT_AUDIT_FNS {
        let probe = format!("fn {fn_name}(");
        let Some(start) = p.lex.code.iter().position(|l| l.contains(&probe)) else {
            continue;
        };
        let mut balance = 0i32;
        let mut opened = false;
        for code in p.lex.code.iter().skip(start) {
            for ch in code.chars() {
                match ch {
                    '{' => {
                        balance += 1;
                        opened = true;
                    }
                    '}' => balance -= 1,
                    _ => {}
                }
            }
            body_lines.push(code.as_str());
            if opened && balance <= 0 {
                break;
            }
        }
    }
    body_lines
}

/// Is `name` referenced as `self.<name>` anywhere in `bodies`?
fn field_audited(bodies: &[&str], name: &str) -> bool {
    bodies.iter().any(|code| {
        find_word(code, name).into_iter().any(|col| {
            let before = code[..col].trim_end();
            before.ends_with("self.")
        })
    })
}

fn report_audit(prepared: &[Prepared<'_>], diags: &mut Vec<Diagnostic>) {
    for p in prepared {
        let rel = p.file.rel.as_str();
        if is_test_path(rel) {
            continue;
        }
        let Some(start) = p
            .lex
            .code
            .iter()
            .position(|l| l.contains("struct") && !find_word(l, REPORT_STRUCT).is_empty())
        else {
            continue;
        };
        let fields = collect_struct_fields(p, start);
        let bodies = report_audit_bodies(p);
        for (idx, name, ty) in &fields {
            if !is_countable_type(ty) {
                continue;
            }
            let exempt = REPORT_AUDIT_EXEMPT.contains(&name.as_str());
            let audited = field_audited(&bodies, name);
            if !exempt && !audited {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "report-audit",
                    message: format!(
                        "countable report field `{name}` appears in no conservation \
                         assertion ({}) — wire it into one, or exempt it as a \
                         measurement in the linter's REPORT_AUDIT_EXEMPT",
                        REPORT_AUDIT_FNS.join("/")
                    ),
                });
            }
            if exempt && audited {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: idx + 1,
                    rule: "report-audit",
                    message: format!(
                        "report field `{name}` is exempted as a measurement but an \
                         assertion now reads it — remove the stale \
                         REPORT_AUDIT_EXEMPT entry"
                    ),
                });
            }
        }
        // Exemptions must name real fields of the struct they excuse.
        for exempt in REPORT_AUDIT_EXEMPT {
            if !fields.iter().any(|(_, name, _)| name == exempt) {
                diags.push(Diagnostic {
                    rel: rel.to_string(),
                    line: start + 1,
                    rule: "report-audit",
                    message: format!(
                        "REPORT_AUDIT_EXEMPT names `{exempt}`, which is not a field \
                         of {REPORT_STRUCT} — remove the stale exemption"
                    ),
                });
            }
        }
    }
}
