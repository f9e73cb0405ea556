//! Trace determinism regression: two `ClusterSim` runs with the same seed
//! must produce **byte-identical** trace dumps (the gage-obs contract —
//! records are stamped with virtual time only, the ring is shared in
//! deterministic emission order, and serialization is insertion-ordered).
//! Also checks the dump is valid line-JSON and covers every event family
//! the stack emits.

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_json::Json;
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sites(horizon: f64, seed: u64) -> Vec<SiteSpec> {
    // Poisson arrivals (RNG exercised) plus an overloaded site so drops and
    // the spare pass appear in the trace.
    [("a", 250.0, 220.0, 11), ("b", 50.0, 260.0, 22)]
        .into_iter()
        .map(|(name, reservation, rate, salt)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + salt);
            let mut gen = SyntheticGenerator::new(2_000, 1);
            // Trace host must match the registered host, or every request is
            // dropped at classification and the trace never sees a dispatch.
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

fn traced_run(seed: u64, horizon: u64) -> String {
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites(horizon as f64, seed), seed);
    sim.enable_tracing(1 << 17);
    sim.run_until(SimTime::from_secs(horizon));
    sim.trace_dump().expect("tracing enabled")
}

#[test]
fn same_seed_trace_dumps_are_byte_identical() {
    let first = traced_run(42, 6);
    let second = traced_run(42, 6);
    assert!(first.len() > 10_000, "trace covers real activity");
    assert!(
        first == second,
        "two traced runs with seed 42 diverged; tracing is nondeterministic"
    );
}

#[test]
fn different_seed_traces_diverge() {
    // Guards the assertion above against vacuity: if the trace stopped
    // covering the run, identical dumps would prove nothing.
    let a = traced_run(42, 6);
    let b = traced_run(43, 6);
    assert!(a != b, "seeds 42 and 43 produced identical trace dumps");
}

#[test]
fn trace_dump_is_valid_and_covers_all_event_families() {
    let dump = traced_run(42, 6);
    let (header, records) = gage_obs::parse_dump(&dump).expect("dump parses");
    assert_eq!(
        header.get("schema").and_then(Json::as_str),
        Some(gage_obs::TRACE_SCHEMA)
    );
    let retained = header.get("retained").and_then(Json::as_u64).unwrap();
    assert_eq!(records.len() as u64, retained);

    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    for kind in [
        "sched_cycle",
        "dispatch",
        "enqueue",
        "drop",
        "splice_setup",
        "splice_teardown",
        "acct_report",
        "node_load",
    ] {
        assert!(count(kind) > 0, "no {kind} records in a 6 s overloaded run");
    }
    // Timestamps are monotone non-decreasing (virtual-time stamped in
    // emission order) and seq numbers are dense.
    let mut last_t = 0u64;
    for (i, r) in records.iter().enumerate() {
        let t = r.at.as_nanos();
        assert!(t >= last_t, "record {i} went back in time");
        last_t = t;
        assert_eq!(r.seq, i as u64);
    }
}

#[test]
fn untraced_run_matches_traced_run_behaviour() {
    // Tracing must observe, not perturb: the served/offered metrics of a
    // traced run must equal those of an untraced run with the same seed.
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut plain = ClusterSim::new(params.clone(), sites(6.0, 42), 42);
    plain.run_until(SimTime::from_secs(6));
    let mut traced = ClusterSim::new(params, sites(6.0, 42), 42);
    traced.enable_tracing(1 << 16);
    traced.run_until(SimTime::from_secs(6));
    let window = (SimTime::from_secs(1), SimTime::from_secs(5));
    assert_eq!(
        plain.report(window.0, window.1).to_table(),
        traced.report(window.0, window.1).to_table(),
        "tracing changed simulation behaviour"
    );
}
