//! Fixture-based self-tests: every rule must trip on the known-bad corpus
//! under `fixtures/bad_ws/`, every `lint:allow` in it must suppress, and
//! the clean counterpart corpus `fixtures/clean_ws/` must produce nothing.

use std::path::Path;

use gage_lint::{lint_workspace, report_json, Finding};

fn fixture_findings() -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad_ws");
    lint_workspace(&root).expect("fixture tree is readable")
}

fn has(findings: &[Finding], rule: &str, file: &str, line: usize) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.file == file && f.line == line)
}

fn any_at(findings: &[Finding], file: &str, line: usize) -> bool {
    findings.iter().any(|f| f.file == file && f.line == line)
}

const CORE_LIB: &str = "crates/core/src/lib.rs";
const CORE_SCHED: &str = "crates/core/src/scheduler.rs";
const TOTAL: usize = 35;

#[test]
fn every_rule_trips_on_the_fixture_corpus() {
    let f = fixture_findings();

    // determinism: wall clock, unseeded rng, hash iteration order.
    assert!(has(&f, "determinism-clock", CORE_LIB, 7));
    assert!(has(&f, "determinism-rng", CORE_LIB, 12));
    assert!(has(&f, "determinism-hash-order", CORE_LIB, 3));
    assert!(has(
        &f,
        "determinism-hash-order",
        "crates/des/src/lib.rs",
        5
    ));

    // hot path: panicking combinators and literal indexing.
    assert!(has(&f, "hot-path-panic", CORE_SCHED, 4), "unwrap");
    assert!(has(&f, "hot-path-panic", CORE_SCHED, 5), "expect");
    assert!(has(&f, "hot-path-panic", CORE_SCHED, 13), "panic!");
    assert!(has(&f, "hot-path-panic", CORE_SCHED, 14), "todo!");
    assert!(has(&f, "hot-path-index", CORE_SCHED, 6));
    assert!(has(&f, "hot-path-index", "crates/net/src/splice.rs", 4));

    // hot path: ordered trees on per-connection/per-event state.
    assert!(
        has(&f, "hot-path-btree", "crates/des/src/event.rs", 3),
        "BTreeSet"
    );
    assert!(
        has(&f, "hot-path-btree", "crates/des/src/event.rs", 4),
        "BTreeMap"
    );

    // hygiene: prints, crate attrs, float equality, dependency versions.
    assert!(has(&f, "no-print", CORE_LIB, 24), "println!");
    assert!(has(&f, "no-print", "crates/net/src/splice.rs", 5), "dbg!");

    // instrumented modules must report through gage-obs, not stdout.
    assert!(
        has(&f, "obs-no-adhoc-print", "crates/cluster/src/sim.rs", 4),
        "print!"
    );
    assert!(
        has(&f, "obs-no-adhoc-print", "crates/cluster/src/sim.rs", 5),
        "stdout()"
    );
    assert!(has(&f, "crate-attrs", CORE_LIB, 1));
    assert_eq!(
        f.iter()
            .filter(|x| x.rule == "crate-attrs" && x.file == CORE_LIB)
            .count(),
        2,
        "both forbid(unsafe_code) and warn(missing_docs) reported"
    );
    assert!(has(&f, "float-eq", CORE_LIB, 17));

    // node liveness flips outside the watchdog/FaultPlan modules.
    assert!(
        has(&f, "watchdog-set-up", CORE_SCHED, 22),
        "ad-hoc set_up call"
    );
    assert!(has(&f, "dep-version", "Cargo.toml", 9), "wildcard");
    assert!(has(&f, "dep-version", "crates/core/Cargo.toml", 6));
    assert!(
        has(&f, "dep-version", "crates/core/Cargo.toml", 7),
        "inline"
    );
    assert_eq!(
        f.iter()
            .filter(|x| x.rule == "dep-version" && x.file == "crates/des/Cargo.toml")
            .count(),
        2,
        "local pin + cross-manifest duplicate both reported"
    );
}

#[test]
fn rng_stream_discipline_tracks_labels_across_files() {
    let f = fixture_findings();
    let use_rs = "crates/cluster/src/rng_use.rs";
    assert!(
        has(&f, "rng-stream-discipline", use_rs, 4),
        "bare seed_from"
    );
    assert!(
        has(&f, "rng-stream-discipline", use_rs, 5),
        "non-literal label"
    );
    assert!(
        has(&f, "rng-stream-discipline", use_rs, 6),
        "raw seed_from_u64"
    );
    // The cross-file aliasing pass fires at the *second* derivation site
    // and cites the first.
    let alias = "crates/core/src/rng_other.rs";
    assert!(has(&f, "rng-stream-discipline", alias, 4), "aliased label");
    assert!(
        f.iter()
            .any(|x| x.file == alias && x.message.contains("rng_use.rs (line 7)")),
        "aliasing message cites the other site"
    );
    // Properly derived streams and the allowed bare seed are clean.
    assert!(
        !any_at(&f, use_rs, 7),
        "first \"churn\" site is not flagged"
    );
    assert!(!any_at(&f, use_rs, 8), "distinct label is fine");
    assert!(!any_at(&f, use_rs, 9), "lint:allow suppresses bare seed");
}

#[test]
fn panic_reachability_follows_the_call_graph() {
    let f = fixture_findings();
    let cycle = "crates/core/src/cycle.rs";
    let helpers = "crates/core/src/helpers.rs";
    assert!(
        has(&f, "panic-reachability", cycle, 4),
        "expect in the entry itself"
    );
    assert!(
        has(&f, "panic-reachability", helpers, 4),
        "unwrap one call deep"
    );
    assert!(
        has(&f, "panic-reachability", helpers, 5),
        "literal index one call deep"
    );
    assert!(
        f.iter()
            .any(|x| x.file == helpers && x.message.contains("run_cycle_into -> station_pass")),
        "message shows the discovery path"
    );
    // Allowed and unreachable panics produce nothing.
    assert!(!any_at(&f, helpers, 11), "lint:allow suppresses the expect");
    assert!(!any_at(&f, helpers, 15), "uncalled helper is unreachable");
}

#[test]
fn unused_allow_audits_the_escapes() {
    let f = fixture_findings();
    let stale = "crates/core/src/stale.rs";
    assert!(has(&f, "unused-allow", stale, 1), "stale allow-file");
    assert!(has(&f, "unused-allow", stale, 5), "stale line allow");
    assert!(has(&f, "unused-allow", stale, 9), "unknown rule name");
}

#[test]
fn allowlist_suppresses_each_rule() {
    let f = fixture_findings();
    // Each of these fixture lines repeats a violation with a trailing
    // `// lint:allow(<rule>)` and must produce nothing.
    for (file, line) in [
        (CORE_LIB, 4),                    // determinism-hash-order
        (CORE_LIB, 8),                    // determinism-clock
        (CORE_LIB, 13),                   // determinism-rng
        (CORE_LIB, 19),                   // float-eq
        (CORE_LIB, 25),                   // no-print
        (CORE_SCHED, 7),                  // hot-path-index
        (CORE_SCHED, 18),                 // hot-path-panic
        (CORE_SCHED, 23),                 // watchdog-set-up
        ("crates/des/src/event.rs", 5),   // hot-path-btree
        ("crates/cluster/src/sim.rs", 7), // obs-no-adhoc-print
    ] {
        assert!(!any_at(&f, file, line), "{file}:{line} should be allowed");
    }
    // File-level allow for crate-attrs, and binaries may print.
    assert!(!any_at(&f, "crates/net/src/lib.rs", 1));
    assert!(!any_at(&f, "crates/net/src/main.rs", 2));
}

#[test]
fn exemptions_do_not_leak_findings() {
    let f = fixture_findings();
    // cfg(test) block (lines 31-41), strings and comments (28-29), the
    // tolerance-based comparison (18), and unwrap_or (8) are all clean.
    for line in [8, 18, 28, 29, 33, 37, 38, 39] {
        assert!(
            !any_at(&f, CORE_LIB, line) && !any_at(&f, CORE_SCHED, line),
            "line {line} should be exempt"
        );
    }
    // The fixture corpus is fully enumerated: any extra finding is a
    // false positive in the engine.
    assert_eq!(f.len(), TOTAL, "exact fixture finding count: {f:#?}");
}

#[test]
fn clean_corpus_produces_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clean_ws");
    let f = lint_workspace(&root).expect("fixture tree is readable");
    assert!(f.is_empty(), "clean_ws must be clean: {f:#?}");
}

#[test]
fn findings_carry_spans_and_snippets() {
    let f = fixture_findings();
    for x in &f {
        assert!(x.line >= 1, "1-based line: {x}");
        assert!(x.col >= 1, "1-based column: {x}");
        assert!(!x.snippet.is_empty(), "snippet present: {x}");
    }
    // Columns point at the offending token, not the line start.
    let unwrap = f
        .iter()
        .find(|x| x.rule == "hot-path-panic" && x.file == CORE_SCHED && x.line == 4)
        .expect("unwrap finding present");
    assert!(unwrap.col > 1, "unwrap is not at column 1");
    assert!(unwrap.snippet.contains("unwrap"), "snippet shows the call");
}

#[test]
fn json_report_is_machine_readable() {
    let f = fixture_findings();
    let json = report_json(&f);
    assert!(json.starts_with("{\n  \"schema\": \"gage-lint-v2\",\n  \"count\": 35,"));
    assert!(json.contains("\"rule\": \"hot-path-panic\""));
    assert!(json.contains("\"file\": \"crates/core/src/lib.rs\""));
    assert!(json.contains("\"rule\": \"panic-reachability\""));
    let quotes = json.matches('"').count();
    assert!(quotes.is_multiple_of(2), "balanced quotes after escaping");
}
