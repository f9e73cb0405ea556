//! The trace dump reader against its writer and against hostile bytes.
//!
//! * Every kind reads back to the record that was written
//!   (`read(write(e)) == e`), for [`one_of_each`] and for random field
//!   values (integers up to 2^53, every finite `f64`).
//! * Every field accepts exactly its type's range: the reader takes the
//!   type's maximum and refuses one more, so nothing is silently narrowed.
//! * A non-finite `f64` is written as `null` and reads back as NaN.
//! * Bit flips, truncations and line splices of a real dump never make
//!   `parse_dump` or `audit_dump` panic, and any record the reader accepts
//!   from a mutated dump rewrites to the same line.

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_json::Json;
use gage_obs::audit::{audit_dump, AuditConfig};
use gage_obs::{parse_dump, TraceEvent, TraceRecord, TraceRing, KINDS};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One instance of every variant, in declaration order.
fn one_of_each() -> Vec<TraceEvent> {
    vec![
        TraceEvent::SchedCycle {
            cycle: 1,
            dispatched: 2,
            spare: 1,
            backlog: 7,
        },
        TraceEvent::Dispatch {
            sub: 0,
            req: 41,
            rpn: 3,
            spare: true,
            predicted_cpu_us: 1.5,
            balance_cpu_us: -0.25,
        },
        TraceEvent::Enqueue {
            sub: 1,
            req: 42,
            backlog: 4,
        },
        TraceEvent::Drop { sub: 1, req: 43 },
        TraceEvent::SpliceSetup {
            req: 44,
            client_ip: 0x0a00_0001,
            client_port: 40_000,
            rpn_ip: 0x0a00_0204,
            seq_delta: 99,
        },
        TraceEvent::SpliceTeardown {
            req: 44,
            client_ip: 0x0a00_0001,
            client_port: 40_000,
        },
        TraceEvent::AcctReport {
            rpn: 2,
            subscribers: 3,
            completed: 11,
        },
        TraceEvent::NodeLoad { rpn: 2, load: 0.75 },
        TraceEvent::NodeDown { rpn: 1 },
        TraceEvent::NodeUp { rpn: 1 },
        TraceEvent::RpnCrash { rpn: 1 },
        TraceEvent::RpnRecover { rpn: 1 },
        TraceEvent::RequestRetry {
            sub: 2,
            req: 45,
            attempt: 1,
        },
        TraceEvent::RequestFailed {
            sub: 2,
            req: 45,
            attempts: 3,
        },
        TraceEvent::RoutesPurged { rpn: 1, count: 17 },
        TraceEvent::DispatchRequeued {
            sub: 2,
            req: 46,
            rpn: 1,
        },
        TraceEvent::ReservationScale { scale: 0.5 },
        TraceEvent::ReqArrival { sub: 0, req: 47 },
        TraceEvent::ReqServed { sub: 0, req: 47 },
        TraceEvent::ReqDropped { sub: 1, req: 48 },
        TraceEvent::ReqComplete {
            sub: 0,
            req: 47,
            rpn: 2,
        },
        TraceEvent::Reservation {
            sub: 0,
            grps: 150.0,
            shard: 0,
        },
        TraceEvent::QueueStats {
            depth: 120,
            scheduled: 10_000,
            cancelled: 321,
        },
        TraceEvent::RdnCrash { rdn: 1 },
        TraceEvent::RdnRecover { rdn: 1 },
        TraceEvent::ReportGossip {
            from: 0,
            to: 1,
            rows: 12,
        },
        TraceEvent::ShardTakeover {
            shard: 1,
            from: 1,
            to: 0,
            subs: 2,
        },
        TraceEvent::AcctMerge {
            rdn: 0,
            from: 1,
            changed: 5,
        },
    ]
}

/// Writes `rec` as one dump line and reads it back.
fn through_text(rec: &TraceRecord) -> Result<TraceRecord, String> {
    let line = rec.to_json().to_string();
    let json = gage_json::parse(&line).map_err(|e| e.to_string())?;
    TraceRecord::from_json(&json)
}

/// Replaces the value of `key` in a record object.
fn set(record: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = record {
        for (k, v) in pairs.iter_mut() {
            if k == key {
                *v = value.clone();
            }
        }
    }
}

fn reads_with(record: &Json, key: &str, value: Json) -> bool {
    let mut probe = record.clone();
    set(&mut probe, key, value);
    TraceRecord::from_json(&probe).is_ok()
}

/// The values a record field accepts.
#[derive(Debug, Clone, Copy)]
enum Domain {
    Bool,
    Float,
    /// Integers in `0..=max`.
    Int(u64),
}

/// Finds the domain of field `key` by probing the reader at every integer
/// type's edges, asserting on the way that the edge is exact.
fn domain(record: &Json, key: &str) -> Domain {
    let accepts = |v: Json| reads_with(record, key, v);
    if matches!(record.get(key), Some(Json::Bool(_))) {
        assert!(!accepts(Json::from(1u64)), "{key}: a number is not a bool");
        return Domain::Bool;
    }
    assert!(!accepts(Json::from(true)), "{key}: a bool is not a number");
    assert!(!accepts(Json::str("1")), "{key}: a string is not a number");
    if accepts(Json::from(0.5)) {
        return Domain::Float;
    }
    assert!(
        !accepts(Json::from(-1.0)),
        "{key}: negative integer accepted"
    );
    let max = [u64::from(u16::MAX), u64::from(u32::MAX), 1 << 53]
        .into_iter()
        .take_while(|m| accepts(Json::from(*m)))
        .last()
        .unwrap_or_else(|| panic!("{key}: refuses even u16::MAX"));
    // 2^53 + 1 is not an f64; 2^53 + 2 is the next integer a dump can hold.
    let over = if max == 1 << 53 { max + 2 } else { max + 1 };
    assert!(
        !accepts(Json::from(over)),
        "{key}: {over} accepted past {max}"
    );
    Domain::Int(max)
}

fn random_value(domain: Domain, rng: &mut StdRng) -> Json {
    match domain {
        Domain::Bool => Json::from(rng.gen::<bool>()),
        Domain::Float => loop {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                break Json::from(x);
            }
        },
        Domain::Int(max) => Json::from(match rng.gen_range(0..4) {
            0 => 0,
            1 => max,
            _ => rng.gen_range(0..=max),
        }),
    }
}

#[test]
fn one_of_each_kind_round_trips_through_a_dump() {
    let events = one_of_each();
    let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
    assert_eq!(
        kinds, KINDS,
        "one_of_each covers every kind, in table order"
    );
    let mut unique = kinds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), KINDS.len(), "dump names are unique");

    let mut ring = TraceRing::new(64);
    for (i, e) in events.iter().enumerate() {
        ring.push(SimTime::from_millis(i as u64), *e);
    }
    let (_, records) = parse_dump(&ring.dump()).expect("dump parses");
    let written: Vec<TraceRecord> = ring.iter().copied().collect();
    assert_eq!(records, written);
}

#[test]
fn random_field_values_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x0d0d_17ac);
    for (i, event) in one_of_each().into_iter().enumerate() {
        let template = TraceRecord {
            seq: i as u64,
            at: SimTime::from_nanos(i as u64),
            event,
        }
        .to_json();
        let Json::Obj(pairs) = &template else {
            panic!("a record is an object");
        };
        let domains: Vec<(String, Domain)> = pairs
            .iter()
            .filter(|(k, _)| k != "kind")
            .map(|(k, _)| (k.clone(), domain(&template, k)))
            .collect();
        for _ in 0..200 {
            let mut json = template.clone();
            for (key, d) in &domains {
                set(&mut json, key, random_value(*d, &mut rng));
            }
            let rec = TraceRecord::from_json(&json).expect("in-range values read");
            assert_eq!(rec.to_json(), json, "write(read(j)) == j");
            assert_eq!(through_text(&rec), Ok(rec), "read(write(e)) == e");
        }
    }
}

#[test]
fn non_finite_floats_dump_as_null_and_read_back_as_nan() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let rec = TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            event: TraceEvent::ReservationScale { scale: x },
        };
        assert_eq!(
            rec.to_json().to_string(),
            r#"{"seq":0,"t_ns":0,"kind":"reservation_scale","scale":null}"#
        );
        match through_text(&rec).expect("null reads").event {
            TraceEvent::ReservationScale { scale } => assert!(scale.is_nan(), "{x} -> {scale}"),
            other => panic!("read back as {other:?}"),
        }
    }
}

/// A short traced run with request lifecycles, cluster records and an RPN
/// crash: about a thousand records.
fn real_dump() -> String {
    let mut rng = StdRng::seed_from_u64(21);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites: Vec<SiteSpec> = ["a.example.com", "b.example.com"]
        .into_iter()
        .map(|host| SiteSpec {
            host: host.to_string(),
            reservation: Grps(60.0),
            trace: Trace::generate(
                host,
                ArrivalProcess::Constant { rate: 40.0 },
                1.0,
                &mut gen,
                &mut rng,
            ),
        })
        .collect();
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 3);
    sim.enable_tracing(1 << 16);
    let mut plan = FaultPlan::new(4);
    plan.crash_for(SimTime::from_millis(500), 1, SimDuration::from_millis(300));
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(2));
    sim.trace_dump().expect("tracing enabled")
}

fn mutate(dump: &str, lines: &[&str], rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => {
            let mut bytes = dump.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=8usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let cut = rng.gen_range(0..dump.len());
            String::from_utf8_lossy(&dump.as_bytes()[..cut]).into_owned()
        }
        _ => {
            // Copy a run of record lines to another position: duplicates,
            // reorders and out-of-order timestamps.
            let from = rng.gen_range(1..lines.len());
            let to = rng.gen_range(from..=lines.len());
            let at = rng.gen_range(0..=lines.len());
            let mut out = lines[..at].to_vec();
            out.extend_from_slice(&lines[from..to]);
            out.extend_from_slice(&lines[at..]);
            out.join("\n")
        }
    }
}

#[test]
fn mutated_dumps_never_panic_the_reader_or_the_auditor() {
    let dump = real_dump();
    let config = AuditConfig::default();
    audit_dump(&dump, &config).expect("the unmutated dump audits");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() > 500, "{} lines", lines.len());
    let mut rng = StdRng::seed_from_u64(0xf022);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..300 {
        let mutated = mutate(&dump, &lines, &mut rng);
        match parse_dump(&mutated) {
            Ok((_, records)) => {
                accepted += 1;
                for r in &records {
                    let again = through_text(r).expect("an accepted record rewrites");
                    assert_eq!(again.to_json().to_string(), r.to_json().to_string());
                }
            }
            Err(_) => rejected += 1,
        }
        let _ = audit_dump(&mutated, &config);
    }
    assert!(
        accepted > 0 && rejected > 0,
        "mutations reach both paths: {accepted} accepted, {rejected} rejected"
    );
}
