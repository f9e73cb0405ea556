//! A warm simulator allocates (almost) nothing: the accounting path
//! recycles its report, gossip and rollup buffers instead of allocating
//! them every cycle.
//!
//! A counting global allocator tallies allocations made by the calling
//! thread only, so tests running in parallel threads cannot disturb the
//! count. The gate is deliberately loose against the request path and
//! tight against the accounting path: fewer allocations in one simulated
//! second than the accounting reports sent in that second. A path that
//! allocates anything per report fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread allocation counter.
struct Counting;

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down; those allocations simply go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const RPNS: usize = 8;
const RDNS: usize = 4;

fn site(i: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(40 + i);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let host = format!("s{i}.example.com");
    let trace = Trace::generate(
        &host,
        ArrivalProcess::Poisson { rate: 60.0 },
        4.0,
        &mut gen,
        &mut rng,
    );
    SiteSpec {
        host,
        reservation: Grps(60.0),
        trace,
    }
}

/// 4 RDNs × 8 RPNs, 8 subscribers under load, gossip running: after 2 s
/// of warm-up, the next simulated second allocates less than once per
/// accounting report sent in it.
#[test]
fn warm_multi_rdn_cluster_allocates_less_than_once_per_report() {
    let params = ClusterParams {
        rpn_count: RPNS,
        rdn_count: RDNS,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    // Every RPN sends one report to every front per accounting cycle.
    let cycles_per_s = 1.0 / params.accounting_cycle.as_secs_f64();
    let reports_per_s = (RPNS * RDNS) as f64 * cycles_per_s;
    assert_eq!(reports_per_s, 320.0);

    let sites: Vec<SiteSpec> = (0..8).map(site).collect();
    let mut sim = ClusterSim::new(params, sites, 23);
    sim.run_until(SimTime::from_secs(2));
    let served_before: f64 = sim.world().metrics.iter().map(|m| m.served.total()).sum();
    let before = allocations();
    sim.run_until(SimTime::from_secs(3));
    let allocs = allocations() - before;
    let served: f64 = sim
        .world()
        .metrics
        .iter()
        .map(|m| m.served.total())
        .sum::<f64>()
        - served_before;

    assert!(served > 300.0, "the cluster must be busy: {served} served");
    assert!(
        (allocs as f64) < reports_per_s,
        "{allocs} allocations in one warm simulated second, \
         {reports_per_s} accounting reports"
    );
}
