//! Kernel event rate vs cluster size.
//!
//! ```text
//! cargo run --release -p gage-bench --example rpn_sweep [-- --horizon SECS]
//! ```
//!
//! Sweeps `rpn_count` over the same per-RPN offered load the hot-path
//! suite uses and prints a markdown table of median-of-3 event rates.
//! Source of the EXPERIMENTS.md "events/s vs RPN count" table.
//!
//! "Mev/s" counts `ClusterSim::events_processed`, which adds the logical
//! credits of collapsed per-packet and per-stage events to the physical
//! queue pops, so it is not a count of real events handled. The benchmark's
//! `des.pops_per_served` and `des.credits_per_served` report the two
//! counts separately.

use std::time::Instant;

use gage_bench::hotpath::bench_sites;
use gage_cluster::{ClusterParams, ClusterSim, ServiceCostModel};
use gage_des::SimTime;

fn events_per_sec(rpn_count: usize, horizon: f64) -> f64 {
    let params = ClusterParams {
        rpn_count,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    // Scale offered load with cluster size so per-RPN pressure is constant.
    let load = rpn_count as f64 / 4.0;
    let mut sim = ClusterSim::new(params, bench_sites(horizon, load), 42);
    let started = Instant::now();
    sim.run_until(SimTime::from_secs(horizon as u64));
    sim.events_processed() as f64 / started.elapsed().as_secs_f64()
}

fn median3(rpn_count: usize, horizon: f64) -> f64 {
    let mut v: Vec<f64> = (0..3).map(|_| events_per_sec(rpn_count, horizon)).collect();
    v.sort_by(f64::total_cmp);
    v[1]
}

fn main() {
    let mut horizon = 5.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--horizon" => {
                horizon = args
                    .next()
                    .and_then(|h| h.parse().ok())
                    .expect("--horizon SECS");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: rpn_sweep [--horizon SECS]");
                std::process::exit(2);
            }
        }
    }
    println!("| RPNs | Mev/s |");
    println!("|---|---|");
    for rpn_count in [4usize, 8, 16, 32] {
        let rate = median3(rpn_count, horizon) / 1e6;
        println!("| {rpn_count} | {rate:.2} |");
    }
}
