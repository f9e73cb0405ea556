//! Open-loop trace replay: `ClusterSim` queues only each site's next
//! arrival, never the whole trace, and still issues requests in exactly
//! the order the traces and the periodic ticks dictate.

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_obs::{TraceEvent, TraceRecord};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace, TraceEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn poisson_site(name: &str, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
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
        reservation: Grps(150.0),
        trace,
    }
}

fn params(rpn_count: usize, rdn_count: usize) -> ClusterParams {
    ClusterParams {
        rpn_count,
        rdn_count,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    }
}

fn traced_dump(sites: Vec<SiteSpec>, horizon: u64) -> String {
    let mut sim = ClusterSim::new(params(3, 1), sites, 5);
    sim.enable_tracing(1 << 17);
    sim.run_until(SimTime::from_secs(horizon));
    sim.trace_dump().expect("tracing enabled")
}

/// Right after construction the queue holds one arrival per site plus the
/// periodic ticks (one scheduling tick, one accounting tick per RPN, one
/// gossip tick per RDN) — independent of how long the traces are.
#[test]
fn queue_depth_after_construction_is_independent_of_trace_length() {
    let (rpns, rdns) = (4, 2);
    let depth = |horizon: f64| {
        let sites: Vec<SiteSpec> = (0..3)
            .map(|i| poisson_site(&format!("s{i}"), 50.0, horizon, 30 + i))
            .collect();
        let n_sites = sites.len() as u64;
        let sim = ClusterSim::new(params(rpns, rdns), sites, 9);
        let depth = sim.queue_stats().depth;
        let bound = n_sites + rpns as u64 + rdns as u64 + 1;
        assert!(
            depth <= bound,
            "{horizon} s traces left {depth} events queued, bound {bound}"
        );
        depth
    };
    assert_eq!(depth(60.0), depth(600.0));
}

/// A trace whose entries are out of time order replays exactly like its
/// sorted copy.
#[test]
fn shuffled_trace_replays_like_its_sorted_copy() {
    let horizon = 4;
    let sorted: Vec<SiteSpec> = (0..2)
        .map(|i| {
            let mut site = poisson_site(&format!("s{i}"), 180.0, horizon as f64, 70 + i);
            // Distinct instants: equal ones would keep file order, which a
            // shuffle changes.
            site.trace.entries.dedup_by_key(|e| e.at_us);
            site
        })
        .collect();
    let mut shuffled = sorted.clone();
    let mut rng = StdRng::seed_from_u64(3);
    for site in &mut shuffled {
        let entries = &mut site.trace.entries;
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
    }
    assert_ne!(
        shuffled[0].trace.entries, sorted[0].trace.entries,
        "the shuffle must actually reorder the trace"
    );
    let want = traced_dump(sorted, horizon);
    assert!(want.len() > 10_000, "trace covers real activity");
    assert!(
        traced_dump(shuffled, horizon) == want,
        "a shuffled trace replayed differently from its sorted copy"
    );
}

/// Site 0 sends two requests at every fifth tick instant, one otherwise.
fn doubled_at(sub: u64, k: u64) -> bool {
    sub == 0 && k.is_multiple_of(5)
}

/// Two sites whose arrivals land exactly on the 10 ms scheduling-tick
/// instants, both in the same microsecond (site 0 sometimes twice): at
/// each such instant every arrival is issued, in site-index order, before
/// the tick runs.
#[test]
fn arrivals_on_a_tick_instant_precede_the_tick_in_site_order() {
    let sites: Vec<SiteSpec> = (0..2u64)
        .map(|i| {
            let host = format!("s{i}.example.com");
            let entries = (1..=100u64)
                .flat_map(|k| {
                    let n = if doubled_at(i, k) { 2 } else { 1 };
                    std::iter::repeat_n(k, n)
                })
                .map(|k| TraceEntry {
                    at_us: k * 10_000,
                    host: host.clone(),
                    path: format!("/f{k}"),
                    size_bytes: 2_000,
                })
                .collect();
            SiteSpec {
                host,
                reservation: Grps(150.0),
                trace: Trace { entries },
            }
        })
        .collect();
    let dump = traced_dump(sites, 2);
    let (_, records) = gage_obs::parse_dump(&dump).expect("dump parses");
    let mut checked = 0;
    for k in 1..=100u64 {
        let t = k * 10_000_000;
        let at_t: Vec<&TraceRecord> = records.iter().filter(|r| r.at.as_nanos() == t).collect();
        let arrivals: Vec<u32> = at_t
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::ReqArrival { sub, .. } => Some(sub),
                _ => None,
            })
            .collect();
        let want = if doubled_at(0, k) {
            vec![0, 0, 1]
        } else {
            vec![0, 1]
        };
        assert_eq!(arrivals, want, "arrivals at {t} ns");
        let first_other = at_t
            .iter()
            .position(|r| r.event.kind() != "req_arrival")
            .expect("the tick emits records");
        assert_eq!(
            first_other,
            want.len(),
            "a record at {t} ns preceded an arrival"
        );
        assert!(
            at_t.iter().any(|r| r.event.kind() == "sched_cycle"),
            "no scheduling tick at {t} ns"
        );
        checked += 1;
    }
    assert_eq!(checked, 100);
}
