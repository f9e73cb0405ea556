//! Trace-schema coverage, proved by running the simulator rather than by
//! scanning its source: every kind in [`KINDS`] is emitted by at least one
//! short traced scenario, and every scripted [`FaultEvent`] leaves its own
//! record in the causal trace at the instant it fires.
//!
//! A kind nothing emits is dead schema (or instrumentation a refactor
//! dropped); a fault that leaves no record gives `gage-audit` a timeline
//! where degradation has no cause. Adding a `TraceEvent` variant without
//! an emitter that one of these scenarios reaches fails
//! `every_trace_kind_is_emitted`; adding a `FaultEvent` variant fails to
//! compile until `ClusterSim::apply_fault_plan` applies it and
//! [`leaves_record`] maps it to its trace record.

use std::collections::BTreeSet;

use gage_cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::{FaultEvent, FaultPlan};
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_obs::{TraceEvent, TraceRecord, KINDS};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn site(host: &str, reservation: f64, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(reservation),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate },
            horizon,
            &mut gen,
            &mut rng,
        ),
    }
}

/// Runs `sim` traced to `until` and reads its dump back as typed records.
fn traced_records(mut sim: ClusterSim, plan: &FaultPlan, until: u64) -> Vec<TraceRecord> {
    sim.enable_tracing(1 << 20);
    sim.apply_fault_plan(plan);
    sim.run_until(SimTime::from_secs(until));
    let dump = sim.trace_dump().expect("tracing enabled");
    let (header, records) = gage_obs::parse_dump(&dump).expect("dump parses");
    assert_eq!(
        header.get("overwritten").and_then(gage_json::Json::as_u64),
        Some(0),
        "the ring must hold the whole run"
    );
    records
}

/// One RDN in front of two RPNs, overloaded so queues overflow; RPN 1
/// fail-stops at 2 s while a 1 s client timeout with one retry is armed,
/// so in-flight victims retry, requeue and (some) finally fail.
fn single_rdn_rpn_crash() -> Vec<TraceRecord> {
    let horizon = 4.0;
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries: 1,
            backoff: 2.0,
        },
        ..Default::default()
    };
    let sites = vec![
        site("a.example.com", 120.0, 150.0, horizon, 1),
        site("b.example.com", 60.0, 400.0, horizon, 2),
    ];
    let mut plan = FaultPlan::new(3);
    plan.crash_for(SimTime::from_secs(2), 1, SimDuration::from_secs(2));
    traced_records(ClusterSim::new(params, sites, 7), &plan, 10)
}

/// Two RDNs and four RPNs under a plan holding one of every
/// [`FaultEvent`] variant.
fn every_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(5);
    plan.crash_for(SimTime::from_secs(1), 3, SimDuration::from_secs(1));
    plan.rdn_crash_for(SimTime::from_secs(1), 1, SimDuration::from_secs(2));
    plan
}

fn two_rdns(plan: &FaultPlan) -> Vec<TraceRecord> {
    let horizon = 4.0;
    let params = ClusterParams {
        rpn_count: 4,
        rdn_count: 2,
        shard_overrides: vec![(0, 0), (1, 1)],
        service: ServiceCostModel::generic_requests(),
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries: 1,
            backoff: 2.0,
        },
        ..Default::default()
    };
    let sites = vec![
        site("a.example.com", 100.0, 80.0, horizon, 11),
        site("b.example.com", 100.0, 80.0, horizon, 12),
    ];
    traced_records(ClusterSim::new(params, sites, 17), plan, 8)
}

/// Whether `rec` is the trace record `ev` must leave. The match is
/// exhaustive, so a new fault variant does not compile until it is mapped.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn leaves_record(ev: FaultEvent, rec: &TraceRecord) -> bool {
    let want = match ev {
        FaultEvent::Crash { rpn, .. } => TraceEvent::RpnCrash { rpn },
        FaultEvent::Recover { rpn, .. } => TraceEvent::RpnRecover { rpn },
        FaultEvent::RdnCrash { rdn, .. } => TraceEvent::RdnCrash { rdn },
        FaultEvent::RdnRecover { rdn, .. } => TraceEvent::RdnRecover { rdn },
    };
    rec.at == ev.at() && rec.event == want
}

#[test]
fn every_trace_kind_is_emitted() {
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    for records in [single_rdn_rpn_crash(), two_rdns(&every_fault_plan())] {
        emitted.extend(records.iter().map(|r| r.event.kind()));
    }
    let declared: BTreeSet<&str> = KINDS.iter().copied().collect();
    let missing: Vec<&&str> = declared.difference(&emitted).collect();
    assert!(missing.is_empty(), "no scenario emits {missing:?}");
    assert_eq!(emitted, declared, "a record of an undeclared kind");
}

#[test]
fn every_fault_event_leaves_its_trace_record() {
    let plan = every_fault_plan();
    let records = two_rdns(&plan);
    let mut variants = BTreeSet::new();
    for ev in plan.events() {
        let hit = records.iter().find(|r| leaves_record(*ev, r));
        let hit = hit.unwrap_or_else(|| panic!("{ev:?} left no trace record"));
        variants.insert(hit.event.kind());
    }
    assert_eq!(
        variants,
        BTreeSet::from(["rpn_crash", "rpn_recover", "rdn_crash", "rdn_recover"]),
        "the plan must hold one of every FaultEvent variant"
    );
}
