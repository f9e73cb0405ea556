//! Hot-path microbenchmarks behind the repo's tracked perf baseline
//! (`BENCH_hotpath.json`).
//!
//! Three costs bound Gage's throughput: the per-packet connection-table
//! lookup (§3.3), event schedule/cancel/pop in the DES kernel, and the
//! end-to-end event rate of the cluster simulation. Each benchmark here
//! measures the current O(1) structures *and*, where the old code shape can
//! be replicated inline, the pre-PR `BTreeMap`/`BTreeSet` equivalent — so
//! the committed baseline carries honest before/after pairs measured on the
//! same machine in the same run.
//!
//! Everything returns structured [`BenchPoint`]s; the `bench_json` binary
//! does the printing and file IO.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::conn_table::{ConnTable, Route};
use gage_core::node::RpnId;
use gage_core::resource::Grps;
use gage_des::{EventQueue, SimTime};
use gage_json::Json;
use gage_net::addr::{Endpoint, FourTuple, MacAddr, Port};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schema tag stamped into the JSON report.
pub const SCHEMA: &str = "gage-hotpath-v2";

/// The previous schema tag; [`HotpathReport::from_json`] still reads v1
/// files (they simply lack the `samples`/`spread_pct` fields) so an old
/// committed baseline stays comparable across the schema bump.
pub const SCHEMA_V1: &str = "gage-hotpath-v1";

/// Factor by which a benchmark may degrade against the committed baseline
/// before [`compare`] reports a regression.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// One measured benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Stable benchmark identifier (`conn_lookup_100k`, …).
    pub name: String,
    /// Unit: `ns_per_op` or `events_per_sec`.
    pub metric: String,
    /// The measurement (median across `samples` timed repetitions).
    pub value: f64,
    /// Whether smaller values are better (false for throughput metrics).
    pub lower_is_better: bool,
    /// Timed repetitions behind `value` (1 for derived points).
    pub samples: u32,
    /// `(max - min) / median` across the samples, as a percentage — the
    /// run-to-run noise floor this point was measured under. A regression
    /// smaller than the recorded spread is indistinguishable from noise.
    pub spread_pct: f64,
}

/// A full benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// All measured points, in run order.
    pub points: Vec<BenchPoint>,
}

impl HotpathReport {
    /// Serializes the report (schema-tagged, machine-diffable).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::str(p.name.clone())),
                                ("metric", Json::str(p.metric.clone())),
                                ("value", Json::from(p.value)),
                                ("lower_is_better", Json::from(p.lower_is_better)),
                                ("samples", Json::from(f64::from(p.samples))),
                                ("spread_pct", Json::from(p.spread_pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parses a report produced by [`HotpathReport::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first structural problem (bad JSON, wrong schema tag,
    /// missing field) — the CI smoke job turns any of these into a failure.
    pub fn from_json(text: &str) -> Result<HotpathReport, String> {
        let doc = gage_json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!(
                "schema {schema:?}, expected {SCHEMA:?} (or legacy {SCHEMA_V1:?})"
            ));
        }
        let raw_points = doc
            .get("points")
            .and_then(Json::as_array)
            .ok_or("missing points array")?;
        let mut points = Vec::with_capacity(raw_points.len());
        for (i, p) in raw_points.iter().enumerate() {
            let field = |key: &str| p.get(key).ok_or(format!("point {i} missing {key}"));
            points.push(BenchPoint {
                name: field("name")?
                    .as_str()
                    .ok_or(format!("point {i} name not a string"))?
                    .to_string(),
                metric: field("metric")?
                    .as_str()
                    .ok_or(format!("point {i} metric not a string"))?
                    .to_string(),
                value: field("value")?
                    .as_f64()
                    .ok_or(format!("point {i} value not a number"))?,
                lower_is_better: field("lower_is_better")?
                    .as_bool()
                    .ok_or(format!("point {i} lower_is_better not a bool"))?,
                // Absent in v1 files: treat those as a single un-characterized
                // sample rather than rejecting the whole baseline.
                samples: p
                    .get("samples")
                    .and_then(Json::as_f64)
                    .map_or(1, |s| s as u32),
                spread_pct: p.get("spread_pct").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        Ok(HotpathReport { points })
    }
}

/// Compares a fresh run against the committed baseline. Returns one message
/// per regression: a point degrading by more than [`REGRESSION_FACTOR`], or
/// a baseline point the current run no longer measures.
pub fn compare(baseline: &HotpathReport, current: &HotpathReport) -> Vec<String> {
    let mut regressions = Vec::new();
    for base in &baseline.points {
        let Some(cur) = current.points.iter().find(|p| p.name == base.name) else {
            regressions.push(format!(
                "benchmark `{}` missing from current run",
                base.name
            ));
            continue;
        };
        if base.value <= 0.0 {
            continue; // degenerate baseline; nothing meaningful to compare
        }
        if base.metric == "overhead_pct" {
            // Near-zero percentages make ratio tests meaningless; the
            // absolute <5% budget is enforced by the bench_json binary.
            continue;
        }
        let ratio = cur.value / base.value;
        let regressed = if base.lower_is_better {
            ratio > REGRESSION_FACTOR
        } else {
            ratio < 1.0 / REGRESSION_FACTOR
        };
        if regressed {
            regressions.push(format!(
                "`{}` regressed: {:.1} -> {:.1} {} ({:.2}x)",
                base.name, base.value, cur.value, cur.metric, ratio
            ));
        }
    }
    regressions
}

// ------------------------------------------------------------------- timing

/// Silent calibrated timer: median ns/op over several batches, plus the
/// sample count and spread. The calibration loop doubles as the warmup
/// pass. `quick` trades precision for CI-smoke runtime.
fn time_ns<F: FnMut()>(quick: bool, mut op: F) -> (f64, u32, f64) {
    let (samples, target) = if quick {
        (7, Duration::from_micros(200))
    } else {
        (21, Duration::from_millis(1))
    };
    let mut batch: u64 = 1;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            op();
        }
        if started.elapsed() >= target || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    summarize(
        (0..samples)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..batch {
                    op();
                }
                started.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect(),
    )
}

fn latency_point(
    name: impl Into<String>,
    metric: &str,
    (value, samples, spread_pct): (f64, u32, f64),
) -> BenchPoint {
    BenchPoint {
        name: name.into(),
        metric: metric.to_string(),
        value,
        lower_is_better: true,
        samples,
        spread_pct,
    }
}

fn point(name: impl Into<String>, metric: &str, value: f64, lower_is_better: bool) -> BenchPoint {
    BenchPoint {
        name: name.into(),
        metric: metric.to_string(),
        value,
        lower_is_better,
        samples: 1,
        spread_pct: 0.0,
    }
}

/// Median and min/max spread of a sample set. The median rides out the
/// one-off stalls a shared box produces (this suite has seen ±30% single
/// runs under background load); the spread is recorded so the baseline
/// documents the noise floor it was measured under.
fn summarize(mut vals: Vec<f64>) -> (f64, u32, f64) {
    vals.sort_by(f64::total_cmp);
    let median = vals[vals.len() / 2];
    let spread_pct = if median > 0.0 {
        (vals[vals.len() - 1] - vals[0]) / median * 100.0
    } else {
        0.0
    };
    (median, vals.len() as u32, spread_pct)
}

/// Warmup-then-median throughput sampling: one untimed warmup run (pages
/// code and data in, trains the branch predictors), then `samples` timed
/// runs summarized by [`summarize`].
fn sample_throughput<F: FnMut() -> f64>(samples: usize, mut run: F) -> (f64, u32, f64) {
    std::hint::black_box(run()); // warmup, discarded
    summarize((0..samples).map(|_| run()).collect())
}

fn throughput_point(
    name: impl Into<String>,
    metric: &str,
    (value, samples, spread_pct): (f64, u32, f64),
) -> BenchPoint {
    BenchPoint {
        name: name.into(),
        metric: metric.to_string(),
        value,
        lower_is_better: false,
        samples,
        spread_pct,
    }
}

// -------------------------------------------------- connection-table lookup

fn tuple(i: u32) -> FourTuple {
    FourTuple::new(
        Endpoint::new(
            Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
            Port::new(1_024 + (i % 60_000) as u16),
        ),
        Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
    )
}

fn route(i: u32) -> Route {
    Route {
        rpn: RpnId((i % 8) as u16),
        rpn_mac: MacAddr::from_node_id((i % 8) as u16),
    }
}

/// The pre-PR connection table shape: an ordered tree walk per lookup.
/// Kept as the live "before" arm of the benchmark.
#[derive(Default)]
struct BTreeConnTable {
    map: BTreeMap<FourTuple, Route>,
}

impl BTreeConnTable {
    fn insert(&mut self, t: FourTuple, r: Route) {
        self.map.insert(t, r);
    }
    fn lookup(&self, t: FourTuple) -> Option<Route> {
        self.map.get(&t).copied()
    }
}

fn bench_conn_lookup(quick: bool, n: u32, points: &mut Vec<BenchPoint>) {
    let mut table = ConnTable::new();
    let mut btree = BTreeConnTable::default();
    for i in 0..n {
        table.insert(tuple(i), route(i));
        btree.insert(tuple(i), route(i));
    }
    // A fixed cycle of existing keys in random order: big enough to defeat
    // a last-lookup cache, small enough to stay out of the measurement.
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<FourTuple> = (0..1024).map(|_| tuple(rng.gen_range(0..n))).collect();
    let label = match n {
        1_000 => "1k",
        10_000 => "10k",
        _ => "100k",
    };

    let mut k = 0usize;
    let ns = time_ns(quick, || {
        k = (k + 1) & 1023;
        std::hint::black_box(table.lookup(keys[k]));
    });
    points.push(latency_point(
        format!("conn_lookup_{label}"),
        "ns_per_op",
        ns,
    ));

    let mut k = 0usize;
    let ns = time_ns(quick, || {
        k = (k + 1) & 1023;
        std::hint::black_box(btree.lookup(keys[k]));
    });
    points.push(latency_point(
        format!("conn_lookup_btree_{label}"),
        "ns_per_op",
        ns,
    ));
}

// ------------------------------------------------------- event-queue churn

/// The pre-PR event queue shape: `BinaryHeap` plus a `BTreeSet` consulted
/// on every schedule/cancel/pop. The live "before" arm.
struct BTreeEventQueue {
    heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    pending: BTreeSet<u64>,
    next_seq: u64,
}

impl BTreeEventQueue {
    fn new() -> Self {
        BTreeEventQueue {
            heap: BinaryHeap::new(),
            pending: BTreeSet::new(),
            next_seq: 0,
        }
    }
    fn schedule(&mut self, at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((at, seq)));
        self.pending.insert(seq);
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(std::cmp::Reverse((at, seq))) = self.heap.pop() {
            if self.pending.remove(&seq) {
                return Some((at, seq));
            }
        }
        None
    }
    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// Steady-state churn around `depth` live events: schedule a timer with a
/// random offset, disarm half immediately (the ACK-cancels-retransmit
/// pattern), pop whatever exceeds the target depth.
fn bench_event_churn(quick: bool, depth: usize, points: &mut Vec<BenchPoint>) {
    let mut q = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut t = 0u64;
    for _ in 0..depth {
        t += 10;
        q.schedule(SimTime::from_nanos(t), t);
    }
    let ns = time_ns(quick, || {
        t += 10;
        let id = q.schedule(SimTime::from_nanos(t + rng.gen_range(1u64..1_000)), t);
        if rng.gen_bool(0.5) {
            q.cancel(id);
        }
        while q.len() > depth {
            std::hint::black_box(q.pop());
        }
    });
    points.push(latency_point("event_churn_10k", "ns_per_op", ns));

    let mut q = BTreeEventQueue::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut t = 0u64;
    for _ in 0..depth {
        t += 10;
        q.schedule(SimTime::from_nanos(t));
    }
    let ns = time_ns(quick, || {
        t += 10;
        let id = q.schedule(SimTime::from_nanos(t + rng.gen_range(1u64..1_000)));
        if rng.gen_bool(0.5) {
            q.cancel(id);
        }
        while q.len() > depth {
            std::hint::black_box(q.pop());
        }
    });
    points.push(latency_point("event_churn_btree_10k", "ns_per_op", ns));
}

// ------------------------------------------------------ full cluster events

/// Builds the three-site benchmark workload, with rates and reservations
/// scaled by `load` (1.0 = the original 4-RPN mix; the 16-RPN points use
/// 4.0 so every node stays busy). The trace host must match the registered
/// host — otherwise every request is dropped at classification and the
/// "hot path" being measured is just the drop path.
pub fn bench_sites(horizon: f64, load: f64) -> Vec<SiteSpec> {
    [
        ("a", 2_500.0 * load, 2_400.0 * load, 1u64),
        ("b", 1_500.0 * load, 1_400.0 * load, 2),
        ("c", 500.0 * load, 2_600.0 * load, 3),
    ]
    .into_iter()
    .map(|(name, reservation, rate, salt)| {
        let mut rng = StdRng::seed_from_u64(1_000 + salt);
        let mut gen = SyntheticGenerator::new(2_000, 1);
        let host = format!("{name}.example.com");
        let trace = Trace::generate(
            &host,
            ArrivalProcess::Poisson { rate },
            horizon,
            &mut gen,
            &mut rng,
        );
        SiteSpec {
            host,
            reservation: Grps(reservation),
            trace,
        }
    })
    .collect()
}

/// One cluster-simulation run configuration the suite measures.
struct SimArm {
    rpn_count: usize,
    rdn_count: usize,
    load: f64,
    trace_capacity: Option<usize>,
}

/// Runs one cluster simulation and returns the kernel event rate
/// (events per wall-clock second).
fn cluster_events_per_sec(horizon: f64, arm: &SimArm) -> f64 {
    let params = ClusterParams {
        rpn_count: arm.rpn_count,
        rdn_count: arm.rdn_count,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, bench_sites(horizon, arm.load), 42);
    if let Some(capacity) = arm.trace_capacity {
        sim.enable_tracing(capacity);
    }
    let started = Instant::now();
    sim.run_until(SimTime::from_secs(horizon as u64));
    let wall = started.elapsed().as_secs_f64();
    let events = sim.events_processed() as f64;
    if wall > 0.0 {
        events / wall
    } else {
        0.0
    }
}

/// End-to-end kernel event rate of a three-site cluster run — the number
/// every structure swap ultimately has to move — plus the same run with
/// gage-obs tracing enabled (so the committed baseline carries the tracing
/// overhead as a first-class measurement), plus a 4×-load 16-RPN topology
/// (the dispatch-batching and barrier-flush hot path).
fn bench_cluster_sim(quick: bool, points: &mut Vec<BenchPoint>) {
    let horizon = if quick { 3.0 } else { 30.0 };
    let samples = if quick { 3 } else { 5 };
    // The plain and traced arms are interleaved sample-by-sample: single
    // runs drift with frequency/cache state, and back-to-back arms would
    // fold that drift into the few-percent overhead difference.
    let plain_arm = SimArm {
        rpn_count: 4,
        rdn_count: 1,
        load: 1.0,
        trace_capacity: None,
    };
    let traced_arm = SimArm {
        trace_capacity: Some(1 << 16),
        ..plain_arm
    };
    cluster_events_per_sec(horizon, &plain_arm); // shared warmup, discarded
    let mut plain_runs = Vec::with_capacity(samples);
    let mut traced_runs = Vec::with_capacity(samples);
    for _ in 0..samples {
        plain_runs.push(cluster_events_per_sec(horizon, &plain_arm));
        traced_runs.push(cluster_events_per_sec(horizon, &traced_arm));
    }
    let plain = summarize(plain_runs);
    let traced = summarize(traced_runs);
    points.push(throughput_point("cluster_sim", "events_per_sec", plain));
    points.push(throughput_point(
        "cluster_sim_traced",
        "events_per_sec",
        traced,
    ));
    // Overhead of tracing, percent (negative means noise made the traced run
    // faster). Stored as its own point so the <5% budget is visible in the
    // committed baseline; `compare` skips it because near-zero values make
    // ratio tests meaningless.
    let overhead_pct = if plain.0 > 0.0 {
        (plain.0 - traced.0) / plain.0 * 100.0
    } else {
        0.0
    };
    points.push(point("trace_overhead", "overhead_pct", overhead_pct, true));

    let arm = SimArm {
        rpn_count: 16,
        rdn_count: 1,
        load: 4.0,
        trace_capacity: None,
    };
    let sampled = sample_throughput(samples, || cluster_events_per_sec(horizon, &arm));
    points.push(throughput_point(
        "cluster_sim_16rpn",
        "events_per_sec",
        sampled,
    ));

    // The sharded front end at chaos-test scale (4 RDNs, 32 RPNs): the
    // three benchmark sites hash across the shards, every accounting tick
    // fans a report out to each front, and the fronts gossip their tables
    // once per cycle. This prices the multi-RDN machinery itself — a
    // regression here means the gossip/merge path got onto the per-event
    // critical path.
    let arm = SimArm {
        rpn_count: 32,
        rdn_count: 4,
        load: 8.0,
        trace_capacity: None,
    };
    let sampled = sample_throughput(samples, || cluster_events_per_sec(horizon, &arm));
    points.push(throughput_point("multi_rdn_sim", "events_per_sec", sampled));
}

// --------------------------------------------------------- lint analysis

/// Full `gage-lint` pass over the real workspace: lex, parse, model and all
/// cross-file analyses (struct-graph, call-graph, stream map, trace
/// coverage). Reported as milliseconds per cold run; this bounds how much
/// the lint gate adds to every `cargo test` and CI round.
fn bench_lint_workspace(quick: bool, points: &mut Vec<BenchPoint>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf();
    let rounds = if quick { 3 } else { 7 };
    let time_once = || {
        let started = Instant::now();
        let findings = gage_lint::lint_workspace(&root).expect("workspace tree is readable");
        std::hint::black_box(findings);
        started.elapsed().as_secs_f64() * 1_000.0
    };
    std::hint::black_box(time_once()); // warmup: page the source tree in
    let sampled = summarize((0..rounds).map(|_| time_once()).collect());
    points.push(latency_point("lint_workspace", "ms_per_run", sampled));
}

// --------------------------------------------------------- audit replay

/// Offline audit throughput: folds a traced run's dump back into
/// per-request spans plus windowed conformance stats
/// ([`gage_obs::audit::audit_dump`] — the whole `gage-audit` pipeline).
/// Reported as requests audited per wall-clock second; this bounds how
/// large a trace the conformance sweep can digest, not the simulator
/// itself.
fn bench_audit_reconstruct(quick: bool, points: &mut Vec<BenchPoint>) {
    let horizon = if quick { 2.0 } else { 6.0 };
    let mut rng = StdRng::seed_from_u64(77);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let trace = Trace::generate(
        "audit.example.com",
        ArrivalProcess::Poisson { rate: 1_000.0 },
        horizon,
        &mut gen,
        &mut rng,
    );
    let sites = vec![SiteSpec {
        host: "audit.example.com".into(),
        reservation: Grps(1_100.0),
        trace,
    }];
    let params = ClusterParams {
        rpn_count: 4,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 42);
    sim.enable_tracing(1 << 18);
    sim.run_until(SimTime::from_secs(horizon as u64 + 4));
    let dump = sim.trace_dump().unwrap_or_default();
    let rounds = if quick { 2 } else { 5 };
    let sampled = sample_throughput(rounds, || {
        let started = Instant::now();
        let report = gage_obs::audit::audit_dump(&dump, &gage_obs::audit::AuditConfig::default())
            .expect("bench dump audits cleanly");
        let wall = started.elapsed().as_secs_f64();
        if wall > 0.0 {
            report.requests as f64 / wall
        } else {
            0.0
        }
    });
    points.push(throughput_point(
        "audit_reconstruct",
        "reqs_per_sec",
        sampled,
    ));
}

/// Runs the full suite. `quick` shrinks sample counts and the simulated
/// horizon for the CI smoke job; benchmark names and shapes are identical.
pub fn run(quick: bool) -> HotpathReport {
    let mut points = Vec::new();
    for n in [1_000, 10_000, 100_000] {
        bench_conn_lookup(quick, n, &mut points);
    }
    bench_event_churn(quick, 10_000, &mut points);
    bench_cluster_sim(quick, &mut points);
    bench_audit_reconstruct(quick, &mut points);
    bench_lint_workspace(quick, &mut points);
    HotpathReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HotpathReport {
        HotpathReport {
            points: vec![
                point("a", "ns_per_op", 10.0, true),
                point("b", "events_per_sec", 1_000.0, false),
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let parsed = HotpathReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(parsed, r);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(HotpathReport::from_json("{not json").is_err());
        assert!(HotpathReport::from_json("{\"schema\":\"other\",\"points\":[]}").is_err());
        assert!(HotpathReport::from_json("{\"schema\":\"gage-hotpath-v2\"}").is_err());
        assert!(HotpathReport::from_json(
            "{\"schema\":\"gage-hotpath-v2\",\"points\":[{\"name\":\"x\"}]}"
        )
        .is_err());
    }

    #[test]
    fn legacy_v1_reports_still_parse() {
        // A v1 file has no samples/spread_pct; they default rather than
        // invalidating an old committed baseline.
        let text = "{\"schema\":\"gage-hotpath-v1\",\"points\":[{\"name\":\"a\",\
                    \"metric\":\"ns_per_op\",\"value\":10.0,\"lower_is_better\":true}]}";
        let report = HotpathReport::from_json(text).expect("v1 parses");
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].samples, 1);
        assert_eq!(report.points[0].spread_pct, 0.0);
    }

    #[test]
    fn compare_flags_only_true_regressions() {
        let base = sample();
        // Within 2x either way: fine.
        let ok = HotpathReport {
            points: vec![
                point("a", "ns_per_op", 19.0, true),
                point("b", "events_per_sec", 550.0, false),
            ],
        };
        assert!(compare(&base, &ok).is_empty());
        // Latency >2x up, throughput >2x down, and a missing point.
        let bad = HotpathReport {
            points: vec![point("a", "ns_per_op", 25.0, true)],
        };
        let msgs = compare(&base, &bad);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains('a'));
        assert!(msgs[1].contains("missing"));
    }

    #[test]
    fn quick_suite_produces_all_points() {
        let report = run(true);
        let names: Vec<&str> = report.points.iter().map(|p| p.name.as_str()).collect();
        for expect in [
            "conn_lookup_1k",
            "conn_lookup_btree_1k",
            "conn_lookup_10k",
            "conn_lookup_btree_10k",
            "conn_lookup_100k",
            "conn_lookup_btree_100k",
            "event_churn_10k",
            "event_churn_btree_10k",
            "cluster_sim",
            "cluster_sim_traced",
            "trace_overhead",
            "cluster_sim_16rpn",
            "multi_rdn_sim",
            "audit_reconstruct",
            "lint_workspace",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        // Every measured point records its sample count.
        assert!(report
            .points
            .iter()
            .filter(|p| p.metric != "overhead_pct")
            .all(|p| p.samples > 1));
        // All real measurements are positive; the overhead percentage may
        // legitimately be negative in noise.
        assert!(report
            .points
            .iter()
            .filter(|p| p.metric != "overhead_pct")
            .all(|p| p.value > 0.0));
        // Self-comparison is regression-free by construction.
        assert!(compare(&report, &report).is_empty());
    }

    #[test]
    fn compare_skips_overhead_pct_ratio() {
        // 0.4% -> 1.9% is a ~5x ratio but well inside the absolute budget;
        // the ratio comparison must not fire on it.
        let base = HotpathReport {
            points: vec![point("trace_overhead", "overhead_pct", 0.4, true)],
        };
        let cur = HotpathReport {
            points: vec![point("trace_overhead", "overhead_pct", 1.9, true)],
        };
        assert!(compare(&base, &cur).is_empty());
    }
}
