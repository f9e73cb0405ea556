//! The simulator workloads: `regime`, `overload` and `sharded`.
//!
//! Each repetition generates the traces of one of the run's seeded input
//! variants, builds a fresh `ClusterSim` on them, times `run_until` up to
//! the traffic horizon, then drains (untimed) until every request has an
//! outcome. Repeats of a variant must agree exactly on every modelled
//! statistic and deterministic counter.

use std::time::Instant;

use gage_cluster::{ClusterParams, ClusterSim, ServiceCostModel, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_obs::audit::{audit_dump, AuditConfig};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc;
use crate::reference::{ref_seconds, Reference};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{hist_quantile, median};
use crate::Workload;

/// Simulated time after the traffic horizon in which every request must
/// reach an outcome: above the client's worst retry chain (10 + 20 + 40 s).
const DRAIN_S: u64 = 80;
/// Seeded input variants per run (see [`run`]).
const VARIANTS: usize = 16;
/// Fewest traced/untraced pairs in a traced run.
const MIN_PAIRS: usize = 3;
/// The conformance window and tolerance of `gage_obs::audit`.
const AUDIT: AuditConfig = AuditConfig {
    window_ns: 1_000_000_000,
    tolerance: 0.85,
};

/// A simulator workload's cluster and offered load.
struct Shape {
    rpn_count: usize,
    rdn_count: usize,
    rpn_speed: f64,
    /// `(reservation GRPS, offered req/s)` per site.
    sites: Vec<(f64, f64)>,
    /// Traffic horizon of a timed repetition, simulated seconds.
    horizon_s: u64,
    /// Horizon of the traced/untraced pairs of a traced run; shorter where
    /// a full-horizon trace would not fit in memory.
    traced_horizon_s: u64,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // Table 1's cluster (8 RPNs at 0.985 ≈ 786 GRPS) at ~0.8
        // utilisation: sites 1 and 2 offer their reservations, site 3 far
        // more than its 50 GRPS, and nothing is dropped.
        Workload::Regime => Shape {
            rpn_count: 8,
            rdn_count: 1,
            rpn_speed: 0.985,
            sites: vec![(250.0, 250.0), (150.0, 150.0), (50.0, 230.0)],
            horizon_s: 60,
            traced_horizon_s: 30,
        },
        // The old `cluster_sim` mix: 4,500 GRPS reserved on ~400 GRPS of
        // capacity, so most requests are refused at the RDN.
        Workload::Overload => Shape {
            rpn_count: 4,
            rdn_count: 1,
            rpn_speed: 1.0,
            sites: vec![(2_500.0, 2_400.0), (1_500.0, 1_400.0), (500.0, 2_600.0)],
            horizon_s: 10,
            traced_horizon_s: 10,
        },
        // 4 RDNs x 32 RPNs (~3,190 GRPS) at ~0.8 utilisation. Reservations
        // stay below every front's capacity share however the 16
        // subscribers hash onto shards, so no front rescales them.
        Workload::Sharded => Shape {
            rpn_count: 32,
            rdn_count: 4,
            rpn_speed: 1.0,
            sites: vec![(100.0, 157.0); 16],
            horizon_s: 60,
            traced_horizon_s: 6,
        },
        Workload::Live => unreachable!("the live workload does not run the simulator"),
    }
}

fn host(site: usize) -> String {
    format!("site{site}.example.com")
}

impl Shape {
    fn params(&self) -> ClusterParams {
        ClusterParams {
            rpn_count: self.rpn_count,
            rdn_count: self.rdn_count,
            rpn_speed: self.rpn_speed,
            service: ServiceCostModel::generic_requests(),
            ..Default::default()
        }
    }

    /// The seeded site traces: everything the program receives.
    fn sites(&self, seed: u64, horizon_s: u64) -> Vec<SiteSpec> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, &(reservation, rate))| {
                let host = host(i + 1);
                let mut rng = StdRng::seed_from_u64(
                    seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1),
                );
                let mut gen = SyntheticGenerator::new(2_000, 1);
                let process = ArrivalProcess::Poisson { rate };
                let trace = Trace::generate(&host, process, horizon_s as f64, &mut gen, &mut rng);
                SiteSpec {
                    host,
                    reservation: Grps(reservation),
                    trace,
                }
            })
            .collect()
    }
}

/// What one repetition measured up to the traffic horizon, plus the
/// digest of the modelled statistics after the drain.
#[derive(Debug, Clone, PartialEq)]
struct Rep {
    wall_s: f64,
    offered: u64,
    served: u64,
    allocs: u64,
    pops: u64,
    credits: u64,
    cancelled: u64,
    cascades: u64,
    digest: u64,
}

impl Rep {
    /// Everything but host time: must repeat exactly for one seed.
    fn counts(&self) -> [u64; 8] {
        [
            self.offered,
            self.served,
            self.allocs,
            self.pops,
            self.credits,
            self.cancelled,
            self.cascades,
            self.digest,
        ]
    }
}

fn served_total(sim: &ClusterSim) -> u64 {
    sim.world()
        .metrics
        .iter()
        .map(|m| m.served.total() as u64)
        .sum()
}

/// FNV-1a over the modelled per-subscriber outcome counts and latency and
/// queue-wait histograms.
fn digest(sim: &ClusterSim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let w = sim.world();
    for m in &w.metrics {
        for s in [&m.offered, &m.served, &m.dropped, &m.failed] {
            eat(s.total() as u64);
        }
        for hist in [&m.latency_ms, &m.queue_wait_ms] {
            eat(hist.count());
            eat(hist.sum().to_bits());
            hist.buckets().iter().for_each(|&b| eat(b));
        }
    }
    eat(w.unknown_host_drops);
    eat(w.reserved_dispatches);
    eat(w.spare_dispatches);
    h
}

/// Checks `offered == served + dropped + failed` for every subscriber.
fn check_conservation(per_sub: &[[u64; 4]]) -> Result<(), String> {
    for (i, &[o, s, d, f]) in per_sub.iter().enumerate() {
        if o != s + d + f {
            return Err(format!(
                "conservation broken for subscriber {i}: offered {o} != served {s} + dropped {d} + failed {f}"
            ));
        }
    }
    Ok(())
}

fn outcome_counts(sim: &ClusterSim) -> Vec<[u64; 4]> {
    sim.world()
        .metrics
        .iter()
        .map(|m| [&m.offered, &m.served, &m.dropped, &m.failed].map(|s| s.total() as u64))
        .collect()
}

/// `(violating, with demand)` (subscriber, window) pairs under the rule
/// `gage_obs::audit` applies: a window with at least one request of
/// entitlement `min(offered, scale × reservation × window)` violates when
/// it serves less than `tolerance` of that. Workloads here run without
/// faults, so the reservation scale is the scheduler's constant one.
fn entitlement_windows(sim: &ClusterSim, reservations: &[f64]) -> (u64, u64) {
    let w = sim.world();
    let bin_ns = gage_cluster::metrics::METRIC_BIN.as_nanos();
    let per_window = (AUDIT.window_ns / bin_ns) as usize;
    let scale = w.degrade_scale();
    let bins_len = w
        .metrics
        .iter()
        .flat_map(|m| [&m.offered, &m.served, &m.dropped, &m.failed])
        .map(|s| s.bins().len())
        .max()
        .unwrap_or(0);
    let windows = bins_len.div_ceil(per_window);
    let window_sum =
        |bins: &[f64], k: usize| -> f64 { bins.iter().skip(k * per_window).take(per_window).sum() };
    let (mut violating, mut with_demand) = (0, 0);
    for (m, &res) in w.metrics.iter().zip(reservations) {
        for k in 0..windows {
            let demand = window_sum(m.offered.bins(), k);
            let entitled = (res * scale * AUDIT.window_ns as f64 / 1e9).min(demand);
            if entitled < 1.0 {
                continue;
            }
            with_demand += 1;
            if window_sum(m.served.bins(), k) < AUDIT.tolerance * entitled {
                violating += 1;
            }
        }
    }
    (violating, with_demand)
}

/// Runs a built sim to `horizon_s` (timed; in one-second slices with a
/// span each when `spans` records), then drains it.
fn run_rep(
    mut sim: ClusterSim,
    horizon_s: u64,
    ring: Option<usize>,
    spans: &mut Spans,
    run_id: u64,
) -> (Rep, ClusterSim) {
    if let Some(capacity) = ring {
        sim.enable_tracing(capacity);
    }
    let run = spans.open("run", run_id, None);
    let allocs_before = alloc::allocations();
    let started = Instant::now();
    if run.is_some() {
        for s in 1..=horizon_s {
            let slice = spans.open("run_until", run_id, run);
            sim.run_until(SimTime::from_secs(s));
            spans.close(slice);
        }
    } else {
        sim.run_until(SimTime::from_secs(horizon_s));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs_before;
    let qs = sim.queue_stats();
    let pops = qs.scheduled - qs.cancelled - qs.depth;
    let credits = sim.events_processed() - pops;
    let offered = sim
        .world()
        .metrics
        .iter()
        .map(|m| m.offered.total() as u64)
        .sum();
    let served = served_total(&sim);
    let drain = spans.open("drain", run_id, run);
    sim.run_until(SimTime::from_secs(horizon_s + DRAIN_S));
    spans.close(drain);
    spans.close(run);
    let rep = Rep {
        wall_s,
        offered,
        served,
        allocs,
        pops,
        credits,
        cancelled: qs.cancelled,
        cascades: qs.cascades,
        digest: digest(&sim),
    };
    (rep, sim)
}

/// Host time of one set-up: trace generation plus `ClusterSim::new`.
struct Setup {
    seconds: f64,
    gen_ns_per_req: f64,
    new_s: f64,
}

/// Generates the traces of input `seed` and builds the sim on them.
fn build(
    shape: &Shape,
    seed: u64,
    horizon_s: u64,
    spans: &mut Spans,
    id: u64,
) -> (ClusterSim, Setup) {
    let root = spans.open("setup", id, None);
    let started = Instant::now();
    let gen = spans.open("trace_generate", id, root);
    let sites = shape.sites(seed, horizon_s);
    spans.close(gen);
    let generated = started.elapsed().as_secs_f64();
    let entries: usize = sites.iter().map(|s| s.trace.len()).sum();
    let new = spans.open("cluster_new", id, root);
    let sim = ClusterSim::new(shape.params(), sites, seed);
    spans.close(new);
    spans.close(root);
    let seconds = started.elapsed().as_secs_f64();
    let setup = Setup {
        seconds,
        gen_ns_per_req: generated * 1e9 / entries as f64,
        new_s: seconds - generated,
    };
    (sim, setup)
}

/// The seed of input variant `v` of a run with seed `seed`.
fn variant_seed(seed: u64, v: usize) -> u64 {
    seed.wrapping_add((v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Modelled statistics of one drained variant.
struct Model {
    rep: Rep,
    p50: f64,
    p90: f64,
    /// Refused when a subscriber has fewer than 10 samples beyond its p99.
    p99: Result<f64, String>,
    wait99: Result<f64, String>,
    latency_samples: u64,
    violating: u64,
    windows: u64,
    served_final: u64,
    packets: u64,
    reserved: u64,
    spare: u64,
    accepted: u64,
    dropped: u64,
    report_ms: f64,
    rdn_util: f64,
}

fn model(
    sim: &ClusterSim,
    rep: Rep,
    horizon_s: u64,
    reservations: &[f64],
    report: &mut Report,
) -> Model {
    let per_sub = outcome_counts(sim);
    report.require(check_conservation(&per_sub), ());
    for &[o, s, d, f] in &per_sub {
        report.attempted += o;
        report.failed += o.abs_diff(s + d + f);
    }
    let started = Instant::now();
    let rows = sim.report(SimTime::ZERO, SimTime::from_secs(horizon_s));
    let registry = sim.registry();
    let report_ms = started.elapsed().as_secs_f64() * 1e3;
    let counter = |name: &str| registry.counter(name).unwrap_or(0);
    let (mut p50, mut p90) = (0.0_f64, 0.0_f64);
    let (mut p99, mut wait99) = (Ok(0.0_f64), Ok(0.0_f64));
    let worst = |acc: Result<f64, String>, v: Result<f64, String>| Ok(acc?.max(v?));
    let mut latency_samples = 0;
    let (mut accepted, mut dropped) = (0, 0);
    for i in 0..per_sub.len() {
        accepted += counter(&format!("sub{i}.accepted"));
        dropped += counter(&format!("sub{i}.dropped"));
        let lat = registry.histogram(&format!("sub{i}.latency_ms"));
        let wait = registry.histogram(&format!("sub{i}.queue_wait_ms"));
        let (Some(lat), Some(wait)) = (lat, wait) else {
            report.check(false, || format!("registry lacks sub{i} histograms"));
            continue;
        };
        p50 = p50.max(report.require(hist_quantile(lat, 0.5), 0.0));
        p90 = p90.max(report.require(hist_quantile(lat, 0.9), 0.0));
        p99 = worst(p99, hist_quantile(lat, 0.99));
        wait99 = worst(wait99, hist_quantile(wait, 0.99));
        latency_samples += lat.count();
    }
    let (violating, windows) = entitlement_windows(sim, reservations);
    Model {
        rep,
        p50,
        p90,
        p99,
        wait99,
        latency_samples,
        violating,
        windows,
        served_final: served_total(sim),
        packets: counter("rdn.packets"),
        reserved: counter("sched.reserved_dispatches"),
        spare: counter("sched.spare_dispatches"),
        accepted,
        dropped,
        report_ms,
        rdn_util: rows.rdn_utilization,
    }
}

/// Runs one simulator workload; `traced` selects the per-layer run.
///
/// A run cycles through [`VARIANTS`] input variants derived from `seed`:
/// the modelled statistics are medians over the variants, so they describe
/// the workload rather than one draw of its arrivals, and every later
/// repetition of a variant must reproduce its first exactly.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let shape = shape(workload);
    let reservations: Vec<f64> = shape.sites.iter().map(|s| s.0).collect();
    let origin = Instant::now();
    let mut spans = Spans::new(origin, traced);
    let measure_until = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut quiet = Spans::new(origin, false);
    let mut setups: Vec<Setup> = Vec::new();
    let mut models: Vec<Model> = Vec::new();
    let reference = Reference::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut ref_rates: Vec<f64> = Vec::new();
    let mut sim_rates: Vec<f64> = Vec::new();
    let mut ns_per_pop: Vec<f64> = Vec::new();
    for k in 0.. {
        if k >= VARIANTS && (traced || Instant::now() >= measure_until) {
            break;
        }
        let v = k % VARIANTS;
        let vseed = variant_seed(seed, v);
        let (sim, setup) = build(&shape, vseed, shape.horizon_s, &mut spans, k as u64);
        setups.push(setup);
        let before = reference.time_s();
        let (rep, sim) = run_rep(sim, shape.horizon_s, None, &mut quiet, 0);
        let after = reference.time_s();
        rates.push(rep.served as f64 / rep.wall_s);
        ref_rates.push(rep.served as f64 / ref_seconds(rep.wall_s, before, after));
        sim_rates.push(shape.horizon_s as f64 / rep.wall_s);
        ns_per_pop.push(rep.wall_s * 1e9 / rep.pops as f64);
        match models.get(v) {
            Some(first) => report.check(rep.counts() == first.rep.counts(), || {
                format!(
                    "variant {v} of seed {seed} did not repeat: {:?} vs {:?}",
                    rep.counts(),
                    first.rep.counts()
                )
            }),
            None => models.push(model(&sim, rep, shape.horizon_s, &reservations, report)),
        }
    }
    let n = rates.len() as u64;
    let setup = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", Some("setup_s"), setup(|s| s.seconds), "s", n);
    report.e2e(
        "served_per_ref_s",
        Some("served_per_s"),
        median(&ref_rates),
        "req/s",
        n,
    );
    report.e2e("served_per_wall_s", None, median(&rates), "req/s", n);
    report.e2e("sim_s_per_wall_s", None, median(&sim_rates), "s/s", n);
    let of = |f: fn(&Model) -> f64| median(&models.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Model) -> u64| models.iter().map(f).sum::<u64>();
    let samples = sum(|m| m.latency_samples);
    report.e2e("sim_p50_ms", Some("p50_ms"), of(|m| m.p50), "ms", samples);
    report.e2e("sim_p90_ms", None, of(|m| m.p90), "ms", samples);
    let tail = |f: fn(&Model) -> &Result<f64, String>| {
        models
            .iter()
            .map(|m| f(m).clone())
            .collect::<Result<Vec<f64>, String>>()
            .map(|v| median(&v))
    };
    report.e2e_or_note("sim_p99_ms", tail(|m| &m.p99), "ms", samples);
    let windows = sum(|m| m.windows);
    report.e2e(
        "sim_entitlement_miss_pct",
        None,
        100.0 * sum(|m| m.violating) as f64 / windows.max(1) as f64,
        "%",
        windows,
    );

    // Deterministic counters, summed over the variants and taken per served
    // (or offered) request up to the horizon.
    let served = sum(|m| m.rep.served).max(1) as f64;
    let offered = sum(|m| m.rep.offered);
    let (reserved, spare) = (sum(|m| m.reserved), sum(|m| m.spare));
    let (accepted, dropped) = (sum(|m| m.accepted), sum(|m| m.dropped));
    let per_served = |f: fn(&Model) -> u64| sum(f) as f64 / served;
    let nv = VARIANTS as u64;
    report.layer(
        "gage-des",
        "des.pops_per_served",
        per_served(|m| m.rep.pops),
        "count",
        nv,
    );
    report.layer(
        "gage-des",
        "des.credits_per_served",
        per_served(|m| m.rep.credits),
        "count",
        nv,
    );
    report.layer(
        "gage-des",
        "des.cancelled_per_served",
        per_served(|m| m.rep.cancelled),
        "count",
        nv,
    );
    report.layer(
        "gage-des",
        "des.cascades_per_sim_s",
        sum(|m| m.rep.cascades) as f64 / (shape.horizon_s * nv) as f64,
        "count/s",
        nv,
    );
    report.layer("gage-des", "des.ns_per_pop", median(&ns_per_pop), "ns", n);
    report.layer(
        "gage-core",
        "core.sched.reserved_share",
        reserved as f64 / (reserved + spare).max(1) as f64,
        "ratio",
        reserved + spare,
    );
    report.layer(
        "gage-core",
        "core.sched.refused_share",
        dropped as f64 / (accepted + dropped).max(1) as f64,
        "ratio",
        accepted + dropped,
    );
    report.layer(
        "gage-cluster",
        "allocs_per_req",
        sum(|m| m.rep.allocs) as f64 / offered.max(1) as f64,
        "count",
        offered,
    );
    report.layer(
        "gage-cluster",
        "cluster.rdn_packets_per_served",
        sum(|m| m.packets) as f64 / sum(|m| m.served_final).max(1) as f64,
        "count",
        nv,
    );
    for (v, m) in models.iter().enumerate() {
        let r = &m.rep;
        report.note(format!(
            "variant {v}: digest {:016x} offered {} served {} pops {} credits {} cancelled {} cascades {} allocs {}",
            r.digest, r.offered, r.served, r.pops, r.credits, r.cancelled, r.cascades, r.allocs
        ));
    }
    report.note(format!(
        "{n} repetitions over {VARIANTS} variants; every repeat matched its variant's first run exactly"
    ));

    if traced {
        report.layer(
            "gage-workload",
            "workload.gen_ns_per_req",
            setup(|s| s.gen_ns_per_req),
            "ns",
            n,
        );
        report.layer("gage-cluster", "cluster.new_s", setup(|s| s.new_s), "s", n);
        match tail(|m| &m.wait99) {
            Ok(v) => report.layer(
                "gage-cluster",
                "cluster.queue_wait_p99_ms",
                v,
                "ms",
                samples,
            ),
            Err(e) => report.note(format!("cluster.queue_wait_p99_ms not reported: {e}")),
        }
        report.layer(
            "gage-cluster",
            "cluster.report_ms",
            of(|m| m.report_ms),
            "ms",
            nv,
        );
        report.layer(
            "gage-cluster",
            "cluster.rdn_util",
            of(|m| m.rdn_util),
            "ratio",
            nv,
        );
        traced_pairs(
            &shape,
            variant_seed(seed, 0),
            seconds,
            &reservations,
            &mut spans,
            report,
        );
        let hosts: Vec<String> = (1..=shape.sites.len()).map(host).collect();
        crate::layers::run(&hosts, report);
    }
    report.spans(&spans);
    let rss = report.require(alloc::peak_rss_mib(), 0.0);
    report.e2e("peak_rss_mib", Some("peak_rss_mib"), rss, "MiB", 1);
}

/// Interleaved untraced/traced repetitions at the traced horizon: the
/// tracing overhead, and the proof that tracing leaves the model alone
/// (equal digests) and that `gage_obs::audit` agrees with the benchmark's
/// own entitlement count.
fn traced_pairs(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    reservations: &[f64],
    spans: &mut Spans,
    report: &mut Report,
) {
    let horizon_s = shape.traced_horizon_s;
    let requests: usize = shape
        .sites(seed, horizon_s)
        .iter()
        .map(|s| s.trace.len())
        .sum();
    // Measured: at most ~8 records per request plus ~800 per simulated
    // second per front (the per-cycle records, drain included). The audit
    // refuses an overwritten ring, so a short one cannot go unnoticed.
    let ring = requests * 12 + (horizon_s + DRAIN_S) as usize * shape.rdn_count * 1_000 + (1 << 16);
    let until = Instant::now() + std::time::Duration::from_secs_f64(seconds / 2.0);
    let mut quiet = Spans::new(Instant::now(), false);
    let mut overhead = Vec::new();
    let mut checked = false;
    let mut pair = 0;
    while pair < MIN_PAIRS || Instant::now() < until {
        let (sim, _) = build(shape, seed, horizon_s, &mut quiet, 0);
        let (plain, plain_sim) = run_rep(sim, horizon_s, None, &mut quiet, 0);
        let (sim, _) = build(shape, seed, horizon_s, spans, pair as u64);
        let (traced, traced_sim) = run_rep(sim, horizon_s, Some(ring), spans, pair as u64);
        overhead.push(100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s);
        report.check(plain.digest == traced.digest, || {
            format!(
                "tracing changed the model: digest {:016x} untraced vs {:016x} traced",
                plain.digest, traced.digest
            )
        });
        if !checked {
            checked = true;
            audit(
                &traced_sim,
                &plain_sim,
                reservations,
                pair as u64,
                spans,
                report,
            );
        }
        pair += 1;
    }
    report.layer(
        "gage-obs",
        "obs.trace_overhead_pct",
        median(&overhead),
        "%",
        overhead.len() as u64,
    );
}

fn audit(
    traced: &ClusterSim,
    plain: &ClusterSim,
    reservations: &[f64],
    run_id: u64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let root = spans.open("audit", run_id, None);
    let dumped = spans.open("trace_dump", run_id, root);
    let dump = traced.trace_dump().unwrap_or_default();
    spans.close(dumped);
    let audited = spans.open("audit_dump", run_id, root);
    let started = Instant::now();
    let result = audit_dump(&dump, &AUDIT);
    let audit_s = started.elapsed().as_secs_f64();
    spans.close(audited);
    spans.close(root);
    let Some(audit) = report.require(result.map(Some), None) else {
        return;
    };
    let requests = audit.requests.max(1) as f64;
    let windows = audit.subscribers.iter().flat_map(|s| &s.windows);
    let violating = windows.clone().filter(|w| w.violation).count() as u64;
    let with_demand = windows.filter(|w| w.expected > 0.0).count() as u64;
    let ours = entitlement_windows(plain, reservations);
    report.check(ours == (violating, with_demand), || {
        format!(
            "audit of the traced run finds {violating}/{with_demand} violating windows, the untraced run {}/{}",
            ours.0, ours.1
        )
    });
    report.layer(
        "gage-obs",
        "obs.audit_violations",
        violating as f64,
        "count",
        with_demand,
    );
    report.layer(
        "gage-obs",
        "obs.audit_violation_runs",
        audit.violation_count() as f64,
        "count",
        1,
    );
    report.layer(
        "gage-obs",
        "obs.trace_bytes_per_req",
        dump.len() as f64 / requests,
        "B",
        audit.requests,
    );
    report.layer(
        "gage-obs",
        "obs.audit_us_per_req",
        audit_s * 1e6 / requests,
        "us",
        audit.requests,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_check_fires_on_a_doctored_count() {
        let honest = [[10, 7, 2, 1], [5, 5, 0, 0]];
        assert_eq!(check_conservation(&honest), Ok(()));
        let mut doctored = honest;
        doctored[1][1] -= 1; // one served request goes missing
        let err = check_conservation(&doctored).expect_err("must fire");
        assert!(err.contains("subscriber 1"), "{err}");
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        let s = shape(Workload::Regime);
        let a = s.sites(7, 2);
        let b = s.sites(7, 2);
        let c = s.sites(8, 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.trace == y.trace));
        assert!(a.iter().zip(&c).any(|(x, y)| x.trace != y.trace));
    }
}
