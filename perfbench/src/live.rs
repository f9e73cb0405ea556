//! The `live` workload: the in-process `gage-rt` deployment
//! (`harness::deploy`, 2 back ends, 2 sites) over loopback TCP, driven by a
//! closed loop of 2 clients that each hold one HTTP/1.0 connection at a
//! time and ask for 6 KiB bodies.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gage_core::subscriber::SubscriberId;
use gage_rt::harness::{deploy, DeployOptions, Deployment};
use gage_rt::http::{read_response, RequestHead};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{hist_quantile, median, percentile};

/// Hosted sites: (host, reservation GRPS).
const SITES: [(&str, f64); 2] = [("site1.local", 100.0), ("site2.local", 100.0)];
/// Requested (and required) body size.
const BODY: u64 = 6 * 1024;
/// Closed-loop clients, one connection each at a time.
const CLIENTS: usize = 2;
/// Timed deployments per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-request connect/read/write deadline.
const TIMEOUT: Duration = Duration::from_secs(5);

/// One request's outcome, client side.
struct Reply {
    status: u16,
    body: u64,
    connect_ms: f64,
    total_ms: f64,
}

/// Connect, send the head, read to EOF; one span per step under a root
/// span that shares the request's id.
fn request(
    addr: SocketAddr,
    host: &str,
    path: &str,
    spans: &mut Spans,
    id: u64,
) -> Result<Reply, String> {
    let root = spans.open("request", id, None);
    let started = Instant::now();
    let step = spans.open("connect", id, root);
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT);
    spans.close(step);
    let connect_ms = started.elapsed().as_secs_f64() * 1e3;
    let result = stream.map_err(|e| e.to_string()).and_then(|mut s| {
        s.set_read_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        let step = spans.open("send", id, root);
        let sent = s.write_all(&RequestHead::get(path, host, Some(BODY)).to_bytes());
        spans.close(step);
        sent.map_err(|e| e.to_string())?;
        let step = spans.open("response", id, root);
        let read = read_response(&mut s);
        spans.close(step);
        read.map_err(|e| e.to_string())
    });
    spans.close(root);
    let (status, body) = result?;
    Ok(Reply {
        status,
        body,
        connect_ms,
        total_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Deploys and waits for the first served probe. Back-end registration is
/// not observable through the public API; a 200 with the full body is the
/// earliest public proof that a request can be offered and served.
fn deploy_ready() -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let d = deploy(DeployOptions {
        backends: 2,
        sites: SITES.iter().map(|&(h, g)| (h.to_string(), g)).collect(),
        ..Default::default()
    })
    .map_err(|e| format!("deploy: {e}"))?;
    let mut off = Spans::new(started, false);
    loop {
        match request(d.frontend.http_addr, SITES[0].0, "/probe", &mut off, 0) {
            Ok(r) if r.status == 200 && r.body == BODY => break,
            _ if started.elapsed() > TIMEOUT => {
                return Err("deployment never served a probe".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((d, started.elapsed().as_secs_f64()))
}

fn shutdown(d: &Deployment) {
    d.frontend.shutdown();
    for b in &d.backends {
        b.shutdown();
    }
}

/// The seeded request list (host, path): two Poisson site traces merged
/// by arrival time, which fixes the order the closed loop replays.
fn requests(seed: u64, seconds: f64) -> Vec<(String, String)> {
    let traces = SITES.iter().enumerate().map(|(i, (host, _))| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ 0x51ed_2701_f3a5_c9b1_u64.wrapping_mul(i as u64 + 1));
        let mut gen = SyntheticGenerator::new(BODY, 64);
        Trace::generate(
            host,
            ArrivalProcess::Poisson { rate: 200.0 },
            seconds + 5.0,
            &mut gen,
            &mut rng,
        )
    });
    Trace::merge(traces.collect::<Vec<_>>())
        .entries
        .into_iter()
        .map(|e| (e.host, e.path))
        .collect()
}

/// What the clients saw in one load window.
struct Window {
    wall_s: f64,
    attempted: u64,
    ok: u64,
    errors: u64,
    wrong_size: u64,
    latency_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    spans: Spans,
}

impl Window {
    fn new(origin: Instant, traced: bool) -> Window {
        Window {
            wall_s: 0.0,
            attempted: 0,
            ok: 0,
            errors: 0,
            wrong_size: 0,
            latency_ms: Vec::new(),
            connect_ms: Vec::new(),
            spans: Spans::new(origin, traced),
        }
    }
}

/// Runs the closed loop for `seconds`; client `c` replays every
/// `CLIENTS`-th request from offset `c`, wrapping around.
fn load(addr: SocketAddr, reqs: &[(String, String)], seconds: f64, traced: bool) -> Window {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let per_client: Vec<Window> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut w = Window::new(origin, traced);
                    let mut i = c;
                    while Instant::now() < deadline {
                        let (host, path) = &reqs[i % reqs.len()];
                        let id = i as u64;
                        i += CLIENTS;
                        w.attempted += 1;
                        match request(addr, host, path, &mut w.spans, id) {
                            Ok(r) if r.status == 200 => {
                                if r.body == BODY {
                                    w.ok += 1;
                                } else {
                                    w.wrong_size += 1;
                                }
                                w.latency_ms.push(r.total_ms);
                                w.connect_ms.push(r.connect_ms);
                            }
                            _ => w.errors += 1,
                        }
                    }
                    w
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Window::new(origin, traced);
    total.wall_s = origin.elapsed().as_secs_f64();
    for w in per_client {
        total.attempted += w.attempted;
        total.ok += w.ok;
        total.errors += w.errors;
        total.wrong_size += w.wrong_size;
        total.latency_ms.extend(w.latency_ms);
        total.connect_ms.extend(w.connect_ms);
        total.spans.absorb(w.spans);
    }
    total
}

/// Runs the live workload; `traced` selects the per-layer run, which
/// splits its time between an untraced and a traced load window.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let gen_started = Instant::now();
    let reqs = requests(seed, seconds);
    let gen_ns = gen_started.elapsed().as_nanos() as f64 / reqs.len() as f64;

    let mut setup_s = Vec::new();
    let mut kept: Option<Deployment> = None;
    for _ in 0..SETUP_REPS {
        let Some((d, s)) = report.require(deploy_ready().map(Some), None) else {
            return;
        };
        setup_s.push(s);
        if let Some(old) = kept.replace(d) {
            shutdown(&old);
        }
    }
    let d = kept.expect("SETUP_REPS > 0");
    report.e2e(
        "setup_s",
        Some("setup_s"),
        median(&setup_s),
        "s",
        SETUP_REPS as u64,
    );
    let addr = d.frontend.http_addr;
    let served_before: u64 = d.backends.iter().map(|b| b.served()).sum();

    let allocs_before = alloc::allocations();
    let plain = load(
        addr,
        &reqs,
        if traced { seconds / 2.0 } else { seconds },
        false,
    );
    let allocs = alloc::allocations() - allocs_before;
    let traced_window = traced.then(|| load(addr, &reqs, seconds / 2.0, true));

    let windows = std::iter::once(&plain).chain(traced_window.as_ref());
    let (mut ok, mut attempted) = (0, 0);
    for w in windows {
        ok += w.ok;
        attempted += w.attempted;
        report.attempted += w.attempted;
        report.failed += w.errors + w.wrong_size;
        report.check(w.wrong_size == 0, || {
            format!(
                "{} responses with status 200 lacked the requested {BODY}-byte body",
                w.wrong_size
            )
        });
    }
    let served: u64 = d.backends.iter().map(|b| b.served()).sum::<u64>() - served_before;
    let exact = ok == attempted;
    report.check(if exact { served == ok } else { served >= ok }, || {
        format!("back ends served {served} requests, clients received {ok}")
    });

    let n = plain.latency_ms.len() as u64;
    report.e2e(
        "live_rps",
        Some("served_per_s"),
        plain.ok as f64 / plain.wall_s,
        "req/s",
        plain.ok,
    );
    let p50 = report.require(percentile(&plain.latency_ms, 0.5), 0.0);
    report.e2e("live_p50_ms", Some("p50_ms"), p50, "ms", n);
    for (q, name) in [(0.9, "live_p90_ms"), (0.99, "live_p99_ms")] {
        report.e2e_or_note(name, percentile(&plain.latency_ms, q), "ms", n);
    }

    // The layers this path never reaches report zero.
    for name in [
        "des.pops_per_served",
        "des.credits_per_served",
        "des.cancelled_per_served",
    ] {
        report.layer("gage-des", name, 0.0, "count", 0);
    }
    report.layer("gage-des", "des.cascades_per_sim_s", 0.0, "count/s", 0);
    report.layer(
        "gage-cluster",
        "cluster.rdn_packets_per_served",
        0.0,
        "count",
        0,
    );
    report.layer("gage-obs", "obs.audit_violations", 0.0, "count", 0);
    report.layer("gage-core", "core.sched.reserved_share", 0.0, "ratio", 0);
    let (mut accepted, mut dropped) = (0, 0);
    for i in 0..SITES.len() {
        let c = d.frontend.counters(SubscriberId(i as u32));
        accepted += c.accepted;
        dropped += c.dropped;
    }
    report.layer(
        "gage-core",
        "core.sched.refused_share",
        dropped as f64 / (accepted + dropped).max(1) as f64,
        "ratio",
        accepted + dropped,
    );
    report.layer(
        "gage-rt",
        "allocs_per_req",
        allocs as f64 / plain.attempted.max(1) as f64,
        "count",
        plain.attempted,
    );

    if let Some(t) = traced_window {
        report.layer(
            "gage-workload",
            "workload.gen_ns_per_req",
            gen_ns,
            "ns",
            reqs.len() as u64,
        );
        let registry = d.frontend.registry();
        for (hist, name) in [
            ("frontend.queue_wait_ms", "rt.frontend.queue_wait"),
            ("frontend.service_ms", "rt.frontend.service"),
        ] {
            let Some(h) = registry.histogram(hist) else {
                report.check(false, || format!("front-end registry lacks {hist}"));
                continue;
            };
            for (q, suffix) in [(0.5, "p50_ms"), (0.99, "p99_ms")] {
                let v = report.require(hist_quantile(h, q), 0.0);
                report.layer("gage-rt", &format!("{name}_{suffix}"), v, "ms", h.count());
            }
        }
        let connect: Vec<f64> = plain
            .connect_ms
            .iter()
            .chain(&t.connect_ms)
            .copied()
            .collect();
        for (q, suffix) in [(0.5, "p50_ms"), (0.99, "p99_ms")] {
            let v = report.require(percentile(&connect, q), 0.0);
            report.layer(
                "gage-rt",
                &format!("rt.client.connect_{suffix}"),
                v,
                "ms",
                connect.len() as u64,
            );
        }
        let per_backend: Vec<u64> = d.backends.iter().map(|b| b.served()).collect();
        let total = per_backend.iter().sum::<u64>().max(1);
        let least = per_backend.iter().copied().min().unwrap_or(0);
        report.layer(
            "gage-rt",
            "rt.backend.served_share_min",
            least as f64 / total as f64,
            "ratio",
            total,
        );
        let rps = |w: &Window| w.ok as f64 / w.wall_s;
        report.layer(
            "gage-obs",
            "obs.trace_overhead_pct",
            100.0 * (rps(&plain) - rps(&t)) / rps(&plain),
            "%",
            2,
        );
        report.spans(&t.spans);
        let hosts: Vec<String> = SITES.iter().map(|(h, _)| h.to_string()).collect();
        crate::layers::run(&hosts, report);
    }
    shutdown(&d);
    let rss = report.require(alloc::peak_rss_mib(), 0.0);
    report.e2e("peak_rss_mib", Some("peak_rss_mib"), rss, "MiB", 1);
}
