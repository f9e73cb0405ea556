//! Per-layer timings of single public calls, taken in the traced run only,
//! and what each per-layer metric is predicted to move end to end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::classify::{classify_packet, PacketClass};
use gage_core::config::SchedulerConfig;
use gage_core::conn_table::{ConnTable, Route};
use gage_core::merge::{AcctDelta, AcctRow, AcctTable};
use gage_core::node::{NodeScheduler, RpnId};
use gage_core::resource::{Grps, ResourceVector};
use gage_core::scheduler::RequestScheduler;
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::{EventQueue, SimTime};
use gage_net::endpoint::TcpEndpoint;
use gage_net::eth::EthHeader;
use gage_net::{Endpoint, FourTuple, MacAddr, Packet, Port, SeqNum, SpliceMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::stats::median;

/// Timed batches behind each per-call figure.
const BATCHES: usize = 11;
/// Event-queue depth for the churn timing: about `regime`'s mean depth,
/// which the pre-scheduled trace arrivals dominate.
const CHURN_DEPTH: usize = 20_000;
/// Rows in `sharded`'s accounting table: 4 origin RDNs x 16 subscribers.
const MERGE_ROWS: usize = 64;

/// What each per-layer metric should move end to end, and where it should
/// move nothing. Printed beside the metric in the traced run.
const PREDICTIONS: &[(&str, &str)] = &[
    (
        "workload.gen_ns_per_req",
        "setup_s and peak_rss_mib on overload (largest trace); barely anything on live",
    ),
    (
        "des.pops_per_served",
        "served_per_s on regime, overload and sharded",
    ),
    (
        "des.credits_per_served",
        "nothing: logical credits are bookkeeping, not work",
    ),
    (
        "des.cancelled_per_served",
        "served_per_s on regime, overload and sharded",
    ),
    (
        "des.cascades_per_sim_s",
        "served_per_s on regime, overload and sharded",
    ),
    (
        "des.ns_per_pop",
        "served_per_s on regime, overload and sharded",
    ),
    (
        "des.churn_ns",
        "served_per_s on regime, overload and sharded",
    ),
    (
        "core.classify_ns",
        "served_per_s on overload, where every offered request is classified; little on regime",
    ),
    (
        "core.sched.cycle_ns.s10",
        "served_per_s on sharded and overload",
    ),
    (
        "core.sched.cycle_ns.s100",
        "served_per_s on sharded and overload",
    ),
    (
        "core.sched.cycle_ns.s1000",
        "served_per_s on sharded and overload",
    ),
    (
        "core.sched.report_ns",
        "served_per_s on sharded and overload",
    ),
    (
        "core.sched.reserved_share",
        "sim_entitlement_miss_pct on regime",
    ),
    ("core.sched.refused_share", "overload's outcome mix"),
    (
        "core.conn_table.lookup_ns.10k",
        "no end-to-end metric on any workload: the simulator makes 0 lookups per served request",
    ),
    (
        "core.conn_table.lookup_ns.100k",
        "no end-to-end metric on any workload: the simulator makes 0 lookups per served request",
    ),
    ("core.merge.rows_ns", "served_per_s on sharded only"),
    (
        "net.rdn_setup_ns",
        "no end-to-end metric: packet substrate, off every simulated path",
    ),
    (
        "net.rpn_setup_ns",
        "no end-to-end metric: packet substrate, off every simulated path",
    ),
    (
        "net.classify_packet_ns",
        "no end-to-end metric: packet substrate, off every simulated path",
    ),
    (
        "net.remap_in_ns",
        "no end-to-end metric: packet substrate, off every simulated path",
    ),
    (
        "net.remap_out_ns",
        "no end-to-end metric: packet substrate, off every simulated path",
    ),
    (
        "net.splice_new_ns",
        "served_per_s on regime: one SpliceMap is built per dispatch",
    ),
    ("allocs_per_req", "served_per_s and peak_rss_mib"),
    ("cluster.new_s", "setup_s"),
    (
        "cluster.queue_wait_p99_ms",
        "sim_p90_ms and sim_p99_ms on the simulator workloads",
    ),
    (
        "obs.trace_overhead_pct",
        "nothing end to end: timed runs are untraced",
    ),
    (
        "obs.audit_violations",
        "equals sim_entitlement_miss_pct's numerator at the traced horizon",
    ),
    (
        "rt.frontend.queue_wait_p50_ms",
        "live p50_ms, pinned to the 10 ms scheduling cycle today",
    ),
    (
        "rt.frontend.queue_wait_p99_ms",
        "live p50_ms, pinned to the 10 ms scheduling cycle today",
    ),
    ("rt.frontend.service_p50_ms", "live_p90_ms and live_p99_ms"),
    ("rt.frontend.service_p99_ms", "live_p90_ms and live_p99_ms"),
    (
        "rt.http.parse_head_ns",
        "not served_per_s on live: the stack is not CPU-bound at ~196 req/s",
    ),
];

/// The prediction recorded for a per-layer metric.
pub fn prediction(name: &str) -> Option<&'static str> {
    PREDICTIONS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| *p)
}

/// Median ns per call of `op` over [`BATCHES`] batches, each long enough
/// (about 1 ms) for the clock's resolution not to matter.
fn ns_per_call<F: FnMut()>(mut op: F) -> f64 {
    let mut batch: u64 = 1;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            op();
        }
        if started.elapsed().as_micros() >= 1_000 || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                op();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

fn cluster_ep() -> Endpoint {
    Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP)
}

fn client_ep(i: u32) -> Endpoint {
    Endpoint::new(
        Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        Port::new(1_024 + (i % 60_000) as u16),
    )
}

fn registry(hosts: &[String], grps: f64) -> SubscriberRegistry {
    let mut registry = SubscriberRegistry::new();
    for h in hosts {
        registry
            .register(h.clone(), Grps(grps))
            .expect("distinct hosts");
    }
    registry
}

/// Times the layer calls. `hosts` are the workload's site hosts.
pub fn run(hosts: &[String], report: &mut Report) {
    des_churn(report);
    classify(hosts, report);
    for subs in [10, 100, 1_000] {
        sched_cycle(subs, report);
    }
    sched_report(hosts.len(), report);
    for (n, label) in [(10_000, "10k"), (100_000, "100k")] {
        conn_lookup(n, label, report);
    }
    merge_rows(report);
    net(report);
    let head = b"GET /f1.html HTTP/1.0\r\nHost: site1.local\r\nX-Size: 6144\r\n\r\n";
    let ns = ns_per_call(|| {
        black_box(gage_rt::http::parse_request_head(black_box(head)).is_ok());
    });
    report.layer("gage-rt", "rt.http.parse_head_ns", ns, "ns", BATCHES as u64);
}

/// Schedule a timer, cancel half of them, pop back down to the depth.
fn des_churn(report: &mut Report) {
    let mut q = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut t = 0u64;
    for _ in 0..CHURN_DEPTH {
        t += 10;
        q.schedule(SimTime::from_nanos(t), t);
    }
    let ns = ns_per_call(|| {
        t += 10;
        let id = q.schedule(SimTime::from_nanos(t + rng.gen_range(1u64..1_000)), t);
        if rng.gen_bool(0.5) {
            q.cancel(id);
        }
        while q.len() > CHURN_DEPTH {
            black_box(q.pop());
        }
    });
    report.layer("gage-des", "des.churn_ns", ns, "ns", BATCHES as u64);
}

fn classify(hosts: &[String], report: &mut Report) {
    let registry = registry(hosts, 10.0);
    let mut k = 0;
    let ns = ns_per_call(|| {
        k = (k + 1) % hosts.len();
        black_box(registry.classify_host(black_box(&hosts[k])));
    });
    report.layer("gage-core", "core.classify_ns", ns, "ns", BATCHES as u64);
}

fn scheduler(subs: usize, backlog: usize) -> RequestScheduler<u64> {
    let hosts: Vec<String> = (0..subs).map(|i| format!("s{i}.example.com")).collect();
    let cfg = SchedulerConfig {
        queue_capacity: backlog.max(1),
        ..Default::default()
    };
    let mut sched = RequestScheduler::new(&registry(&hosts, 50.0), cfg, NodeScheduler::new(0.3));
    for _ in 0..8 {
        sched
            .nodes_mut()
            .add_rpn(ResourceVector::new(1e6, 1e6, 12.5e6));
    }
    for s in 0..subs {
        for r in 0..backlog {
            let _ = sched.enqueue(SubscriberId(s as u32), r as u64);
        }
    }
    sched
}

/// One 10 ms cycle over a standing backlog of 4 requests per subscriber,
/// each on a freshly built scheduler (the build is not timed).
fn sched_cycle(subs: usize, report: &mut Report) {
    let rounds = 100_000 / subs;
    let mut out = Vec::new();
    let per_cycle: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut sched = scheduler(subs, 4);
            out.clear();
            let started = Instant::now();
            sched.run_cycle_into(0.010, &mut out);
            let ns = started.elapsed().as_nanos() as f64;
            black_box(out.len());
            ns
        })
        .collect();
    report.layer(
        "gage-core",
        &format!("core.sched.cycle_ns.s{subs}"),
        median(&per_cycle),
        "ns",
        rounds as u64,
    );
}

fn sched_report(subs: usize, report: &mut Report) {
    let mut sched = scheduler(subs, 1);
    let usage = UsageReport {
        rpn: RpnId(0),
        total: ResourceVector::new(900.0, 0.0, 2_048.0),
        outstanding_predicted: ResourceVector::new(300.0, 0.0, 2_048.0),
        per_subscriber: (0..subs)
            .map(|s| SubscriberUsage {
                subscriber: SubscriberId(s as u32),
                actual: ResourceVector::new(75.0, 0.0, 2_048.0),
                settled_predicted: ResourceVector::new(75.0, 0.0, 2_048.0),
                completed: 1,
            })
            .collect(),
    };
    let ns = ns_per_call(|| sched.on_report(black_box(&usage)));
    report.layer(
        "gage-core",
        "core.sched.report_ns",
        ns,
        "ns",
        BATCHES as u64,
    );
}

fn conn_lookup(n: u32, label: &str, report: &mut Report) {
    let mut table = ConnTable::new();
    for i in 0..n {
        table.insert(
            FourTuple::new(client_ep(i), cluster_ep()),
            Route {
                rpn: RpnId((i % 8) as u16),
                rpn_mac: MacAddr::from_node_id((i % 8) as u16),
            },
        );
    }
    // A fixed cycle of present keys in random order, too long for any
    // last-lookup cache.
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<FourTuple> = (0..1_024)
        .map(|_| FourTuple::new(client_ep(rng.gen_range(0..n)), cluster_ep()))
        .collect();
    let mut k = 0;
    let ns = ns_per_call(|| {
        k = (k + 1) & 1_023;
        black_box(table.lookup(keys[k]));
    });
    report.layer(
        "gage-core",
        &format!("core.conn_table.lookup_ns.{label}"),
        ns,
        "ns",
        BATCHES as u64,
    );
}

/// Merging a peer's snapshot in which every row has advanced, as gossip
/// delivers once per accounting cycle.
fn merge_rows(report: &mut Report) {
    const SNAPSHOTS: usize = 256;
    let mut origin = AcctTable::new();
    let snapshots: Vec<Vec<AcctRow>> = (1..=SNAPSHOTS as u64)
        .map(|step| {
            for row in 0..MERGE_ROWS {
                let delta = AcctDelta {
                    as_of_ns: step * 100_000_000,
                    usage: ResourceVector::new(75.0, 0.0, 2_048.0),
                    settled_predicted: ResourceVector::new(75.0, 0.0, 2_048.0),
                    completed: 1,
                };
                origin.accumulate((row / 16) as u16, (row % 16) as u32, 0, delta);
            }
            origin.rows()
        })
        .collect();
    let per_merge: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut table = AcctTable::new();
            let started = Instant::now();
            for rows in &snapshots {
                black_box(table.merge_rows(rows));
            }
            started.elapsed().as_nanos() as f64 / SNAPSHOTS as f64
        })
        .collect();
    report.layer(
        "gage-core",
        "core.merge.rows_ns",
        median(&per_merge),
        "ns",
        BATCHES as u64,
    );
}

/// The Table 3 columns on this repository's packet substrate.
fn net(report: &mut Report) {
    let client = client_ep(1);
    let rpn_ip = Ipv4Addr::new(10, 0, 2, 4);
    let eth = EthHeader::ipv4(MacAddr::from_node_id(1), MacAddr::from_node_id(2));
    let syn_wire = Packet::syn(client, cluster_ep(), SeqNum::new(77)).to_wire(eth);
    let rdn_setup = ns_per_call(|| {
        let mut pending = BTreeMap::new();
        let (_, syn) = Packet::from_wire(black_box(&syn_wire)).expect("valid SYN");
        let isn = SeqNum::new(0xdead_beef);
        pending.insert(syn.four_tuple(), isn);
        let synack = Packet::syn_ack(cluster_ep(), syn.src(), isn, syn.tcp.seq + 1);
        black_box((synack.to_wire(eth), pending));
    });

    let rpn_ep = Endpoint::new(rpn_ip, Port::HTTP);
    let syn = Packet::syn(client, rpn_ep, SeqNum::new(5));
    let rpn_setup = ns_per_call(|| {
        let mut ep = TcpEndpoint::listen(rpn_ep, SeqNum::new(9_000));
        let mut out = Vec::new();
        ep.on_segment(black_box(&syn), &mut out);
        let map = SpliceMap::new(client, cluster_ep(), rpn_ip, SeqNum::new(1_000), ep.isn());
        black_box((out, map));
    });

    let hosts: Vec<String> = (0..100).map(|i| format!("site{i}.example.com")).collect();
    let registry = registry(&hosts, 10.0);
    let url = Packet::data(
        client,
        cluster_ep(),
        SeqNum::new(78),
        SeqNum::new(1),
        bytes::Bytes::from_static(
            b"GET /dir00042/class1_3 HTTP/1.0\r\nHost: site42.example.com\r\nX-Size: 6144\r\n\r\n",
        ),
    );
    let classify = ns_per_call(|| {
        let sub = match classify_packet(black_box(&url), false) {
            PacketClass::UrlRequest(info) => registry.classify_host(&info.host),
            _ => None,
        };
        black_box(sub);
    });

    let map = SpliceMap::new(
        client,
        cluster_ep(),
        rpn_ip,
        SeqNum::new(5_000),
        SeqNum::new(80),
    );
    let ack = Packet::ack(client, cluster_ep(), SeqNum::new(123), SeqNum::new(5_018));
    let remap_in = ns_per_call(|| {
        let mut p = ack.clone();
        black_box(map.remap_incoming(&mut p));
        black_box(p);
    });
    let data = Packet::data(
        rpn_ep,
        client,
        SeqNum::new(81),
        SeqNum::new(123),
        bytes::Bytes::from_static(&[0u8; 1_460]),
    );
    let remap_out = ns_per_call(|| {
        let mut p = data.clone();
        black_box(map.remap_outgoing(&mut p));
        black_box(p);
    });
    let splice_new = ns_per_call(|| {
        black_box(SpliceMap::new(
            black_box(client),
            cluster_ep(),
            rpn_ip,
            SeqNum::new(5_000),
            SeqNum::new(80),
        ));
    });
    for (name, ns) in [
        ("net.rdn_setup_ns", rdn_setup),
        ("net.rpn_setup_ns", rpn_setup),
        ("net.classify_packet_ns", classify),
        ("net.remap_in_ns", remap_in),
        ("net.remap_out_ns", remap_out),
        ("net.splice_new_ns", splice_new),
    ] {
        report.layer("gage-net", name, ns, "ns", BATCHES as u64);
    }
}
