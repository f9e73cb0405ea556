//! Rule registry, scope tables and the shared finding sink.
//!
//! Every rule routes findings through [`Sink::emit`], which applies the
//! `lint:allow` escapes and records which allows actually suppressed
//! something — the raw material for the `unused-allow` meta-rule.

use std::collections::BTreeSet;

use crate::model::FileModel;
use crate::Finding;

pub mod allows;
pub mod manifest;
pub mod panics;
pub mod rng;
pub mod tokens;

/// One registered rule: id plus the one-line description used by the SARIF
/// emitter and the documentation table.
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule, in documentation order. The SARIF `rules` array is built
/// from this, so the order is part of the stable output.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "determinism-clock",
        summary: "wall clocks (Instant/SystemTime) in simulated components",
    },
    RuleInfo {
        id: "determinism-rng",
        summary: "unseeded entropy (thread_rng/rand::random) in deterministic crates",
    },
    RuleInfo {
        id: "determinism-hash-order",
        summary: "HashMap/HashSet iteration order varies per process",
    },
    RuleInfo {
        id: "hot-path-panic",
        summary: "unwrap/expect/panic!/todo! on the per-request path",
    },
    RuleInfo {
        id: "hot-path-index",
        summary: "indexing by integer literal on the per-request path",
    },
    RuleInfo {
        id: "hot-path-btree",
        summary: "ordered trees (BTreeMap/BTreeSet) on per-packet state",
    },
    RuleInfo {
        id: "no-print",
        summary: "println!/eprintln!/dbg! in library code",
    },
    RuleInfo {
        id: "obs-no-adhoc-print",
        summary: "ad-hoc stdout/stderr in gage-obs-instrumented modules",
    },
    RuleInfo {
        id: "crate-attrs",
        summary: "missing #![forbid(unsafe_code)] / #![warn(missing_docs)]",
    },
    RuleInfo {
        id: "float-eq",
        summary: "exact float equality in resource/credit math",
    },
    RuleInfo {
        id: "watchdog-set-up",
        summary: "node-liveness flips outside the watchdog/FaultPlan modules",
    },
    RuleInfo {
        id: "dep-version",
        summary: "wildcard/local/duplicated dependency versions",
    },
    RuleInfo {
        id: "rng-stream-discipline",
        summary: "underived RNG seeds and stream labels aliased across modules",
    },
    RuleInfo {
        id: "panic-reachability",
        summary: "panicking callees reachable from hot-path entry points",
    },
    RuleInfo {
        id: "unused-allow",
        summary: "lint:allow escapes whose rule no longer fires on that line",
    },
    RuleInfo {
        id: "stale-baseline",
        summary: "lint-baseline.json entries that no longer match any finding",
    },
];

/// Crates whose sources must stay deterministic (they produce the paper's
/// tables; a wall clock or unseeded RNG would un-reproduce them).
pub const DETERMINISM_CRATES: &[&str] = &[
    "gage-des",
    "gage-core",
    "gage-cluster",
    "gage-workload",
    "gage-collections",
    "gage-obs",
];

/// (crate, module stems) whose sources sit on the per-request path and must
/// not panic.
pub const HOT_PATH_MODULES: &[(&str, &[&str])] = &[
    (
        "gage-core",
        &["scheduler", "queue", "classify", "conn_table", "node"],
    ),
    ("gage-net", &["splice", "tcp", "packet"]),
];

/// (crate, module stems) holding per-connection/per-event tables that PR 2
/// moved to O(1) structures; an ordered tree creeping back in would put the
/// O(log n) walk back on every packet.
pub const HOT_PATH_BTREE_MODULES: &[(&str, &[&str])] = &[
    ("gage-core", &["conn_table"]),
    ("gage-des", &["event"]),
    ("gage-cluster", &["sim"]),
];

/// (crate, module stems) instrumented by gage-obs: observability must flow
/// through `Tracer`/`Registry`, never ad-hoc process output.
pub const OBS_MODULES: &[(&str, &[&str])] = &[
    ("gage-core", &["scheduler"]),
    ("gage-cluster", &["sim"]),
    ("gage-net", &["splice"]),
    ("gage-obs", &["ring", "registry", "lib", "spans", "audit"]),
];

/// (crate, module stems) allowed to flip node liveness with
/// `NodeScheduler::set_up`.
pub const SET_UP_MODULES: &[(&str, &[&str])] = &[
    ("gage-core", &["node"]),
    ("gage-cluster", &["sim", "faults"]),
];

/// Float-carrying field names whose equality comparison is almost always a
/// bug in resource/credit math.
pub const FLOAT_FIELDS: &[&str] = &[
    "cpu_us",
    "disk_us",
    "net_bytes",
    "credit",
    "balance",
    "deficit",
    "grps",
];

/// Whether `(package, stem)` is inside a module-scope table.
pub fn in_scope(scope: &[(&str, &[&str])], package: &str, stem: &str) -> bool {
    scope
        .iter()
        .any(|(pkg, stems)| *pkg == package && stems.contains(&stem))
}

/// Collects findings and applies/records the `lint:allow` escapes.
#[derive(Default)]
pub struct Sink {
    /// Findings that survived the allow filter.
    pub findings: Vec<Finding>,
    /// `(file, line, rule)` line-allows that suppressed something.
    pub used_line_allows: BTreeSet<(String, usize, String)>,
    /// `(file, rule)` file-allows that suppressed something.
    pub used_file_allows: BTreeSet<(String, String)>,
}

impl Sink {
    /// Emits a finding anchored in `file`, unless an allow suppresses it.
    pub fn emit(
        &mut self,
        file: &FileModel,
        rule: &'static str,
        line: usize,
        col: usize,
        message: String,
    ) {
        if file.file_allows.iter().any(|r| r == rule) {
            self.used_file_allows
                .insert((file.rel.clone(), rule.to_string()));
            return;
        }
        if let Some(line_rules) = file.line_allows.get(&line) {
            if line_rules.iter().any(|r| r == rule) {
                self.used_line_allows
                    .insert((file.rel.clone(), line, rule.to_string()));
                return;
            }
        }
        self.findings.push(Finding {
            rule,
            file: file.rel.clone(),
            line,
            col,
            message,
            snippet: file.snippet(line),
        });
    }

    /// Emits a manifest finding (manifests have no allow escapes).
    pub fn emit_manifest(
        &mut self,
        rel: &str,
        text: &str,
        rule: &'static str,
        line: usize,
        message: String,
    ) {
        let snippet = text
            .lines()
            .nth(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        self.findings.push(Finding {
            rule,
            file: rel.to_string(),
            line,
            col: 1,
            message,
            snippet,
        });
    }
}
