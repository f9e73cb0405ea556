//! The simulated Gage cluster: clients, RDN, RPNs and the event loop.
//!
//! The message flow follows the paper's Figure 2. Per request:
//!
//! 1. the client opens a connection to the cluster address; the RDN's
//!    handshake emulation answers SYN-ACK (charging Table-3 setup cost)
//!    and the client follows with the handshake ACK and the URL packet —
//!    the whole first-leg exchange is a single [`Ev::UrlArrive`] event
//!    that charges every packet of the exchange in one batch,
//! 2. the RDN classifies the URL (3 µs), resolves the subscriber by Host,
//!    and queues the request,
//! 3. every 10 ms the request scheduler dispatches queued requests; each
//!    dispatch installs a connection-table route and forwards the request
//!    to the chosen RPN (7 µs),
//! 4. the RPN's local service manager sets up the second-leg connection
//!    (27.2 µs), builds the [`SpliceMap`], and hands the request to its
//!    *lane*: a per-RPN batch of CPU → disk → NIC service stages evaluated
//!    in struct-of-arrays fashion at the next scheduling-cycle barrier
//!    (see [the module docs](#per-cycle-rpn-service-batches)),
//! 5. the response flows *directly* to the client (sequence/address
//!    remapped, 4.6 µs per data packet); client ACKs flow back through the
//!    RDN bridge (7 µs each) to the RPN (1.3 µs remap each) — all charged
//!    numerically when the response completes,
//! 6. each accounting cycle the RPN rolls up per-process usage by charging
//!    entity and reports it; the RDN reconciles balances and windows.
//!
//! Control-path state (connection-table routes, splice remaps, process
//! trees) is still carried through the real data structures; only the
//! per-packet event traffic is aggregated, with each collapsed packet
//! credited to the engine's event count via [`Context::count_logical`].
//!
//! # Per-request state
//!
//! The 4-tuple keys exactly one structure, the RDN's [`ConnTable`], as
//! in the paper. The simulator's own per-request records live in one
//! [`Slab`] per stage — client attempts, dispatches on the RDN→RPN wire,
//! and each RPN's active requests — and events name a record by its
//! generational [`SlabKey`]. Requests point into the immutable traces
//! (site, entry index) instead of copying the URL path. A record that is
//! gone (an attempt resolved or superseded by a retry, an RPN's work lost
//! in a crash) leaves its key dead, so any event still aimed at it fails
//! to resolve and counts nowhere. Outcomes are recorded against the site
//! whose client issued the attempt, whichever subscriber its Host
//! classifies to.
//!
//! # Per-cycle RPN service batches
//!
//! Each RPN owns an *inbox* of newly arrived requests. At each
//! scheduling-cycle barrier ([`Ev::SchedTick`]) every RPN's inbox is
//! flushed in turn — each request is chained through the node's CPU, disk
//! and NIC [`BusyLine`]s from its arrival instant and its finish times
//! are recorded — and the resulting completions are merged back **in
//! fixed RPN order** and scheduled at their exact finish times. A flush
//! reads only its own RPN's state and chains each request from its
//! arrival instant, so batching changes no request's service arithmetic;
//! it saves the per-stage events (one completion event per request).
//! Finish times earlier than the barrier clamp to the barrier instant
//! (the engine never schedules into the past), so a sub-cycle response
//! completes at the next tick — bounded by one 10 ms cycle, well inside
//! every latency band the paper's tables quote.
//!
//! In [`GageMode::Bypass`] there is no scheduling tick, so an RPN's inbox
//! is flushed inline on arrival, which degenerates to the exact unbatched
//! timing.
//!
//! # Failure and recovery
//!
//! Faults are injected by a scripted, seeded [`crate::FaultPlan`]
//! (crash/recover events, report-loss windows, degraded RDN→RPN links).
//! Every issued request terminally resolves as *served*, *dropped*
//! (refused by the RDN with an RST) or *failed* (client timeout after
//! bounded retries) — the chaos suite asserts this conservation exactly.
//! A crashed node loses its in-flight work (inbox included); the RDN's
//! report watchdog writes it off ([`TraceEvent::NodeDown`]), purges its
//! splice routes and re-queues dispatches that bounced off it. A
//! recovered node reboots cold (fresh process table, cold cache),
//! restarts its accounting chain, and its first report re-registers it
//! with the RDN ([`TraceEvent::NodeUp`]) — the watchdog's symmetric
//! up-path. While live capacity is short of the reservation sum, the
//! scheduler scales effective reservations proportionally (graceful
//! degradation).
//!
//! # Multi-RDN sharded front end
//!
//! With `params.rdn_count > 1` the front end is a set of peer RDNs, each
//! owning the disjoint subscriber shard [`ClusterParams::shard_of`] maps
//! to it. Each front runs its own request scheduler over `1/rdn_count`
//! of every RPN's capacity, its own connection table, interrupt/CPU
//! metrics and report watchdog; RPNs address one usage report per
//! accounting tick to every front (per-owner usage lines, per-front
//! outstanding backlog) so the front ends never share mutable state.
//!
//! Accounting converges through a conflict-free merge: every front keeps
//! an [`AcctTable`] of per-`(origin RDN, subscriber)` monotone usage
//! rows and gossips its full table to its peers once per accounting
//! cycle ([`TraceEvent::ReportGossip`] / [`TraceEvent::AcctMerge`]).
//! Rows merge by epoch-then-componentwise-max, so report loss,
//! duplication and reordering — including healed inter-RDN partitions
//! ([`FaultPlan::rdn_partition`]) — cannot diverge the tables.
//!
//! RDN fail-stop crashes ([`FaultPlan::rdn_crash_at`]) trigger shard
//! failover at the scheduling tick: once a dead front has been silent
//! for the watchdog grace, the lowest-numbered live peer adopts its
//! shard — full reservations are unmasked at the adopter, whose
//! graceful-degradation pass proportionally rescales them against its
//! capacity share ([`TraceEvent::ShardTakeover`]). A recovered home
//! front reclaims its shard at the next tick: queued requests drain to
//! the new owner, so `offered == served + dropped + failed` stays
//! structurally exact through takeover. Ownership is decided solely by
//! the scripted crash schedule — partitions only delay gossip, so there
//! is no split-brain. With `rdn_count == 1` all of this machinery is
//! inert and the run is byte-identical to the single-RDN simulator.

use std::net::Ipv4Addr;

use gage_collections::{Slab, SlabKey};
use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::conn_table::{ConnTable, Route};
use gage_core::merge::{AcctDelta, AcctRow, AcctTable};
use gage_core::node::{NodeScheduler, RpnId};
use gage_core::resource::{Grps, ResourceVector};
use gage_core::scheduler::RequestScheduler;
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::{Context, EventId, Model, SimDuration, SimTime, Simulation};
use gage_net::addr::{Endpoint, FourTuple, MacAddr, Port};
use gage_net::splice::SpliceMap;
use gage_net::SeqNum;
use gage_obs::{Registry, TraceEvent, Tracer};
use gage_workload::{Trace, TraceEntry};

use crate::cache::LruCache;
use crate::faults::{FaultEvent, FaultPlan, FaultState};
use crate::metrics::{RdnMetrics, SubscriberMetrics};
use crate::params::{ClusterParams, DiskPolicy, GageMode, NetworkParams};
use crate::process::{Pid, ProcessTable};
use crate::server::BusyLine;

/// One hosted site: its host name, reservation and offered workload.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Classification host name.
    pub host: String,
    /// Reserved GRPS.
    pub reservation: Grps,
    /// The requests its clients will issue.
    pub trace: Trace,
}

/// Where a request's URL lives: entry `idx` of site `site`'s immutable
/// trace. Requests carry this instead of a copy of the path, so issuing,
/// queueing and dispatching one allocates nothing.
#[derive(Debug, Clone, Copy)]
struct UrlRef {
    /// The issuing site (trace owner), not the subscriber the Host
    /// classifies to.
    site: u32,
    idx: u32,
}

impl UrlRef {
    fn entry(self, traces: &[Trace]) -> &TraceEntry {
        &traces[self.site as usize].entries[self.idx as usize]
    }
}

/// A request sitting in an RDN subscriber queue.
#[derive(Debug, Clone, Copy)]
struct PendingRequest {
    /// The client↔cluster connection — the connection-table key.
    conn: FourTuple,
    /// The client attempt the request answers.
    attempt: SlabKey,
    /// Run-wide logical request id (stable across retries).
    req: u64,
    rdn_isn: SeqNum,
    url: UrlRef,
    size: u64,
    /// When this request (re-)entered the scheduler queue, for the
    /// queue-wait histogram.
    enqueued_at: SimTime,
}

impl gage_core::scheduler::TraceTag for PendingRequest {
    fn trace_tag(&self) -> u64 {
        self.req
    }
}

/// A dispatched request on the RDN→RPN wire: the queued request plus
/// what the RPN's local service manager needs to build the splice and
/// echo predictions.
#[derive(Debug)]
struct DispatchMeta {
    pending: PendingRequest,
    sub: SubscriberId,
    predicted: ResourceVector,
    /// The front end that booked the dispatch, and its boot epoch at
    /// dispatch time — a bounced dispatch can only be refunded to the
    /// same life of the same front.
    rdn: u16,
    rdn_epoch: u32,
}

/// Message payloads in flight, addressed from an [`Ev`] by `SlabKey`.
/// Delivery hands a payload's row buffer back to `spare` and the next
/// send reuses it, so once warm the accounting path allocates nothing.
#[derive(Debug)]
struct InFlight<P, R> {
    live: Slab<P>,
    spare: Vec<Vec<R>>,
}

impl<P, R> InFlight<P, R> {
    fn new() -> Self {
        InFlight {
            live: Slab::new(),
            spare: Vec::new(),
        }
    }

    /// An empty row buffer, recycled when one is spare.
    fn buffer(&mut self) -> Vec<R> {
        self.spare.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut rows: Vec<R>) {
        rows.clear();
        self.spare.push(rows);
    }
}

/// Cluster events (public only because [`World`] implements
/// [`Model<Event = Ev>`]; not part of the supported API).
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A client issues trace entry `idx` of subscriber `sub`.
    Issue { sub: u32, idx: u32 },
    /// The client's URL packet reaches the RDN, handshake complete (the
    /// whole 3-hop first-leg exchange collapsed into one event).
    UrlArrive { attempt: SlabKey },
    /// An RDN refusal (RST) reaches the client.
    ClientRst { attempt: SlabKey },
    /// A dispatched request reaches an RPN; `dispatch` keys it in
    /// [`World`]'s slab of dispatches on the RDN→RPN wire.
    RpnArrive { rpn: u16, dispatch: SlabKey },
    /// An RPN finished serving request `active` (NIC drained). A crash
    /// clears the node's active slab, so a completion scheduled in a
    /// previous life no longer resolves.
    Complete { rpn: u16, active: SlabKey },
    /// A complete response reaches a client.
    ResponseArrive { attempt: SlabKey },
    /// A client's per-attempt request timer expired.
    ClientTimeout { attempt: SlabKey },
    /// The RDN scheduler's 10 ms tick — also the lane barrier.
    SchedTick,
    /// An RPN's accounting-cycle tick (valid only in its boot `epoch`).
    AcctTick { rpn: u16, epoch: u32 },
    /// An accounting report reaches front end `to_rdn`; `report` keys
    /// it in [`World`]'s in-flight reports. Inline, a report would make
    /// every event the wheel moves several times larger; as a key it
    /// also keeps its row buffer for reuse.
    Report { to_rdn: u16, report: SlabKey },
    /// Fail-stop crash of an RPN (fault injection).
    CrashRpn { rpn: u16 },
    /// Reboot of a crashed RPN (fault injection).
    RecoverRpn { rpn: u16 },
    /// Fail-stop crash of front end `rdn` (fault injection).
    CrashRdn { rdn: u16 },
    /// Reboot of a crashed front end (fault injection).
    RecoverRdn { rdn: u16 },
    /// Front end `rdn`'s accounting-gossip timer (valid only in its boot
    /// `epoch`; never scheduled with a single RDN).
    GossipTick { rdn: u16, epoch: u32 },
    /// A gossiped accounting-table snapshot reaches front end `to`;
    /// `rows` keys it in [`World`]'s in-flight gossip.
    GossipArrive { to: u16, from: u16, rows: SlabKey },
}

/// An in-service request on an RPN.
#[derive(Debug)]
struct ActiveReq {
    sub: SubscriberId,
    /// The client↔cluster connection (its route is torn down on
    /// completion) and the client attempt the response resolves.
    conn: FourTuple,
    attempt: SlabKey,
    /// Run-wide logical request id (stable across retries).
    req: u64,
    predicted: ResourceVector,
    splice: SpliceMap,
    size: u64,
    disk_us: f64,
    cpu_us: f64,
    net_bytes: f64,
    /// Process the usage is charged to: the subscriber's worker, or a
    /// forked CGI child for dynamic requests.
    pid: Pid,
    /// True if `pid` is a one-shot CGI child to reap on completion.
    reap_pid: bool,
    /// The front end (and its boot epoch) that dispatched the request;
    /// the completion only bridges ACKs through that same life of it.
    rdn: u16,
    rdn_epoch: u32,
    /// Per-stage finish times, filled in when the owning lane flushes
    /// (until then the request is inbox-resident and all three read as
    /// [`SimTime::MAX`], i.e. "still in the CPU stage").
    cpu_fin: SimTime,
    disk_fin: SimTime,
    nic_fin: SimTime,
}

/// One entry of an RPN lane's inbox: a request waiting for the next
/// barrier flush, in arrival order (struct-of-arrays style — service
/// parameters travel here, identity/accounting state lives in
/// [`ActiveReq`]).
#[derive(Debug)]
struct LaneJob {
    active: SlabKey,
    /// Arrival instant: service chains from here, not from the barrier,
    /// so batching never costs capacity.
    ready: SimTime,
    url: UrlRef,
    size: u64,
    /// CGI cost multiplier (1.0 for static requests).
    cpu_mult: f64,
    /// Per-request Gage overhead in reference-machine µs (0 in bypass).
    overhead_us: f64,
}

/// One entry of an RPN lane's outbox: a finish time the barrier merge
/// turns into an [`Ev::Complete`].
#[derive(Debug, Clone, Copy)]
struct LaneDone {
    active: SlabKey,
    fin: SimTime,
    /// Whether the request took the disk stage (its collapsed completion
    /// covers one more legacy event).
    has_disk: bool,
}

/// Per-subscriber completion accumulator between accounting reports.
#[derive(Debug, Clone, Copy, Default)]
struct CycleAccum {
    settled_predicted: ResourceVector,
    completed: u32,
}

#[derive(Debug)]
struct Rpn {
    ip: Ipv4Addr,
    mac: MacAddr,
    cpu: BusyLine,
    disk: BusyLine,
    nic: BusyLine,
    cache: Option<LruCache>,
    processes: ProcessTable,
    workers: Vec<Pid>,
    active: Slab<ActiveReq>,
    /// Requests arrived since the last barrier, in arrival order.
    inbox: Vec<LaneJob>,
    /// Completions produced by the last flush, merged at the barrier.
    outbox: Vec<LaneDone>,
    /// Running sums of predicted vectors of in-service requests, one per
    /// dispatching front end — each accounting tick reports the slice a
    /// front booked itself, without walking `active`.
    outstanding_by_rdn: Vec<ResourceVector>,
    isn_counter: u32,
    cycle: Vec<CycleAccum>,
    total_cycle_usage: ResourceVector,
    completed_requests: u64,
    /// Multiplier on this node's timer periods (1.0 ± a few hundred ppm).
    clock_skew: f64,
    /// Boot generation: bumped on every crash so accounting ticks
    /// scheduled in a previous life of the node are recognizably stale and
    /// ignored. (Completions need no epoch: the crash clears `active`.)
    epoch: u32,
}

/// Flushes one RPN's lane: chains every inbox request through the node's
/// CPU → disk → NIC service lines in arrival order, records per-stage
/// finish times on the matching [`ActiveReq`], and queues a [`LaneDone`]
/// per request for the barrier merge.
///
/// A free function over `(&mut Rpn, &ClusterParams)` and the immutable
/// traces: it touches no RDN, tracer, RNG or cross-node state, so an RPN's
/// batch depends only on that RPN and the barrier merge order alone fixes
/// the event order.
fn flush_lane(rpn: &mut Rpn, params: &ClusterParams, traces: &[Trace]) {
    let speed = params.rpn_speed;
    let mut inbox = std::mem::take(&mut rpn.inbox);
    for job in inbox.drain(..) {
        let service_cpu_us = params.service.cpu_us(job.size) * job.cpu_mult;
        let cpu_us = (service_cpu_us + job.overhead_us) / speed;
        let cpu_fin = rpn
            .cpu
            .offer(job.ready, SimDuration::from_secs_f64(cpu_us / 1e6));
        let disk_us = match params.service.disk {
            DiskPolicy::None => 0.0,
            DiskPolicy::PerRequest { us } => us,
            DiskPolicy::Cache {
                seek_us,
                transfer_bytes_per_sec,
                ..
            } => match rpn.cache.as_mut() {
                Some(cache) => {
                    if cache.access(&job.url.entry(traces).path, job.size) {
                        0.0
                    } else {
                        seek_us + job.size as f64 / transfer_bytes_per_sec * 1e6
                    }
                }
                None => 0.0,
            },
        };
        let disk_fin = if disk_us > 0.0 {
            rpn.disk
                .offer(cpu_fin, SimDuration::from_secs_f64(disk_us / 1e6))
        } else {
            cpu_fin
        };
        let wire = response_wire_bytes(&params.network, job.size);
        let nic_fin = rpn.nic.offer(
            disk_fin,
            SimDuration::from_secs_f64(wire / params.network.rpn_egress_bytes_per_sec),
        );
        if let Some(req) = rpn.active.get_mut(job.active) {
            req.cpu_us = cpu_us * speed; // account in reference-machine µs
            req.disk_us = disk_us;
            req.net_bytes = wire;
            req.cpu_fin = cpu_fin;
            req.disk_fin = disk_fin;
            req.nic_fin = nic_fin;
        }
        rpn.outbox.push(LaneDone {
            active: job.active,
            fin: nic_fin,
            has_disk: disk_us > 0.0,
        });
    }
    rpn.inbox = inbox;
}

fn response_packet_counts(net: &NetworkParams, size: u64) -> (u64, u64) {
    let data_pkts = (size + 200).div_ceil(net.mss as u64).max(1);
    (data_pkts, data_pkts) // one ACK per data packet, per the paper
}

fn response_wire_bytes(net: &NetworkParams, size: u64) -> f64 {
    let (data_pkts, _) = response_packet_counts(net, size);
    (size + 200 + data_pkts * 54) as f64
}

/// A client's record of one outstanding request attempt, addressed by its
/// slab handle. A retry is a fresh attempt under a fresh handle, so every
/// event still aimed at the superseded one (its URL exchange, reset,
/// response or timer) fails to resolve.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// The issuing site and the trace entry it requests; outcomes are
    /// recorded against this site whatever its Host classifies to.
    url: UrlRef,
    /// Run-wide logical request id (stable across retries).
    req: u64,
    /// The client↔cluster connection this attempt opened.
    conn: FourTuple,
    /// When the *first* attempt was issued; latency on eventual success
    /// spans retries.
    first_issued: SimTime,
    /// 0 for the initial send, incremented per retry.
    attempt: u32,
    /// The armed [`Ev::ClientTimeout`], cancelled when the request resolves.
    timeout: EventId,
}

/// One front-end RDN: the per-peer slice of dispatch state. Every front
/// owns a full request scheduler (non-owned subscribers' reservations
/// masked to zero) over its share of RPN capacity, its own connection
/// table, CPU/interrupt metrics, report watchdog and accounting table —
/// fronts never share mutable state, they exchange only messages.
#[derive(Debug)]
struct RdnFront {
    scheduler: RequestScheduler<PendingRequest>,
    conn_table: ConnTable,
    metrics: RdnMetrics,
    /// When each RPN's last report addressed here arrived (watchdog
    /// input).
    last_report: Vec<SimTime>,
    /// Conflict-free per-(origin RDN, subscriber) usage rows, converged
    /// by gossip.
    acct: AcctTable,
    /// Boot generation: bumped on every crash so reports, gossip ticks
    /// and dispatch refunds addressed to a previous life are stale.
    epoch: u32,
}

/// The simulation world.
#[derive(Debug)]
pub struct World {
    params: ClusterParams,
    registry: SubscriberRegistry,
    /// Each site's trace, sorted by `at_us`.
    traces: Vec<Trace>,
    /// First tie-break rank reserved for each site's trace: entry `i` of
    /// site `s` is scheduled with rank `issue_rank[s] + i`.
    issue_rank: Vec<u64>,
    cluster_ep: Endpoint,
    /// The front-end RDNs, `params.rdn_count` of them.
    fronts: Vec<RdnFront>,
    rpns: Vec<Rpn>,
    /// Outstanding client attempts.
    attempts: Slab<Attempt>,
    /// Attempts each site's client has sent (retries included); picks the
    /// next attempt's source endpoint.
    client_issued: Vec<u64>,
    /// Dispatches in flight on the RDN→RPN wire.
    wire: Slab<DispatchMeta>,
    /// Accounting reports in flight, RPN → front end.
    reports: InFlight<UsageReport, SubscriberUsage>,
    /// Gossiped accounting-table snapshots in flight between fronts.
    gossip: InFlight<Vec<AcctRow>, AcctRow>,
    rr_next: usize,
    isn_counter: u32,
    /// Next run-wide logical request id. Assigned unconditionally at issue
    /// time (traced or not) so tracing never perturbs behaviour.
    next_req: u64,
    /// Per-subscriber measurement series.
    pub metrics: Vec<SubscriberMetrics>,
    /// Requests dropped because the Host was unknown.
    pub unknown_host_drops: u64,
    /// Lifetime dispatches funded by the reserved pass.
    pub reserved_dispatches: u64,
    /// Lifetime dispatches funded by the spare pass.
    pub spare_dispatches: u64,
    /// CPU busy time of each secondary RDN (handshake offload).
    pub secondary_busy: Vec<gage_des::stats::BusyTracker>,
    secondary_rr: usize,
    /// Home shard of each subscriber, from [`ClusterParams::shard_of`].
    sub_shard: Vec<u16>,
    /// Current owner of each shard (index = shard = home RDN); mutated
    /// only by failover/failback at the scheduling tick.
    shard_owner: Vec<u16>,
    /// Fail-stopped front ends.
    dead_rdns: Vec<bool>,
    /// When each currently-dead front end crashed (failover grace input).
    rdn_died_at: Vec<SimTime>,
    /// Per-RPN capacity share a single front schedules against
    /// (`1/rdn_count` of the node), kept for scheduler rebuilds on RDN
    /// crash.
    front_capacity: ResourceVector,
    /// Fail-stopped RPNs.
    dead_rpns: Vec<bool>,
    /// Reports dropped by the injected loss process.
    pub lost_reports: u64,
    /// Runtime state of the installed [`FaultPlan`] (inactive by default).
    faults: FaultState,
    /// Reused scratch buffer for the 10 ms scheduler tick, so the steady
    /// state allocates no dispatch `Vec` per cycle.
    dispatch_buf: Vec<gage_core::scheduler::Dispatch<PendingRequest>>,
    /// Reused per-subscriber usage buffer for an RPN's accounting rollup.
    rollup_buf: Vec<ResourceVector>,
    /// Reused accounting-table snapshot for a front's gossip tick.
    rows_buf: Vec<AcctRow>,
    /// Scheduling ticks handled so far (drives the periodic queue-stats
    /// trace record).
    sched_ticks: u64,
    /// Instant of the most recent handled event — the "now" that debug
    /// views evaluate stage occupancy against.
    last_event_at: SimTime,
    /// Structured trace sink shared with the scheduler and splice layer;
    /// disabled unless [`ClusterSim::enable_tracing`] is called.
    tracer: Tracer,
}

impl World {
    fn hop(&self) -> SimDuration {
        self.params.network.hop_latency
    }

    /// Endpoint a subscriber's client uses for its `n`-th request. Each
    /// subscriber owns a /24 of client addresses so the ephemeral-port space
    /// never collides within a run.
    fn client_endpoint(&self, sub: u32, n: u64) -> Endpoint {
        let ip_idx = ((n / 60_000) % 250) as u8;
        let port = 1_024 + (n % 60_000) as u16;
        Endpoint::new(
            Ipv4Addr::new(10, 10 + (sub / 250) as u8, (sub % 250) as u8, ip_idx + 2),
            Port::new(port),
        )
    }

    /// The front end currently responsible for `sub`: its home shard's
    /// owner (the home RDN itself except during failover).
    fn owner_rdn(&self, sub: u32) -> u16 {
        self.shard_owner[self.sub_shard[sub as usize] as usize]
    }

    /// Builds a fresh front-end scheduler: full node set at the per-front
    /// capacity share, every reservation masked to zero. Shard ownership
    /// (initial assignment, recovery, takeover) unmasks the owned ones.
    fn make_front_scheduler(&self) -> RequestScheduler<PendingRequest> {
        let mut nodes = NodeScheduler::new(self.params.scheduler.node_lookahead_secs);
        for _ in 0..self.params.rpn_count {
            nodes.add_rpn(self.front_capacity);
        }
        let mut scheduler = RequestScheduler::new(&self.registry, self.params.scheduler, nodes);
        for i in 0..self.registry.len() {
            scheduler.set_reservation(SubscriberId(i as u32), Grps(0.0));
        }
        scheduler.set_tracer(self.tracer.clone());
        scheduler
    }

    // ---- client ----

    fn on_issue(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, idx: u32) {
        let req = self.next_req;
        self.next_req += 1;
        // `offered` counts logical requests once; retries re-send without
        // re-counting, so offered == served + dropped + failed holds exactly.
        self.metrics[sub as usize].offered.record(ctx.now(), 1.0);
        self.tracer.emit(TraceEvent::ReqArrival { sub, req });
        self.issue_request(ctx, UrlRef { site: sub, idx }, req, ctx.now(), 0);
        // Open loop: the client's next request is due at its trace time
        // whatever happened to this one. Only it is queued, under the rank
        // reserved for it at construction.
        let next = idx + 1;
        if let Some(e) = self.traces[sub as usize].entries.get(next as usize) {
            ctx.schedule_ranked(
                SimTime::from_nanos(e.at_us * 1_000),
                self.issue_rank[sub as usize] + u64::from(next),
                Ev::Issue { sub, idx: next },
            );
        }
    }

    /// Sends attempt `attempt` of a request: opens a fresh connection, arms
    /// the per-attempt timeout (base timeout × backoff^attempt) and starts
    /// the first-leg exchange. The SYN / SYN-ACK / ACK+URL volley is three
    /// network hops, so the URL reaches the RDN at `now + 3·hop`.
    fn issue_request(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        url: UrlRef,
        req: u64,
        first_issued: SimTime,
        attempt: u32,
    ) {
        let sub = url.site as usize;
        let n = self.client_issued[sub];
        self.client_issued[sub] += 1;
        let conn = FourTuple::new(self.client_endpoint(url.site, n), self.cluster_ep);
        let retry = self.params.client_retry;
        let timeout_in = retry.timeout.mul_f64(retry.backoff.powi(attempt as i32));
        // The timer names the attempt it guards, so it is armed under the
        // handle the attempt is about to be stored at.
        let key = self.attempts.vacant_key();
        let timeout = ctx.schedule_in(timeout_in, Ev::ClientTimeout { attempt: key });
        let stored = self.attempts.insert(Attempt {
            url,
            req,
            conn,
            first_issued,
            attempt,
            timeout,
        });
        debug_assert_eq!(stored, key);
        self.isn_counter = self.isn_counter.wrapping_add(64_223);
        let hop = self.hop();
        ctx.schedule_in(hop * 3, Ev::UrlArrive { attempt: key });
    }

    fn on_client_timeout(&mut self, ctx: &mut Context<'_, Ev>, key: SlabKey) {
        let Some(a) = self.attempts.remove(key) else {
            return; // resolved (served or reset) before the timer fired
        };
        let sub = a.url.site;
        if a.attempt < self.params.client_retry.max_retries {
            self.tracer.emit(TraceEvent::RequestRetry {
                sub,
                req: a.req,
                attempt: a.attempt + 1,
            });
            self.issue_request(ctx, a.url, a.req, a.first_issued, a.attempt + 1);
            return;
        }
        // Out of retries: the request terminally fails at the client.
        self.metrics[sub as usize].failed.record(ctx.now(), 1.0);
        self.tracer.emit(TraceEvent::RequestFailed {
            sub,
            req: a.req,
            attempts: a.attempt + 1,
        });
    }

    /// An RST from the RDN (queue overflow, unknown host, unrecoverable
    /// dispatch): the request resolves as dropped and its retry timer is
    /// disarmed.
    fn on_client_rst(&mut self, ctx: &mut Context<'_, Ev>, key: SlabKey) {
        if let Some(a) = self.attempts.remove(key) {
            ctx.cancel(a.timeout);
            let sub = a.url.site;
            self.metrics[sub as usize].dropped.record(ctx.now(), 1.0);
            self.tracer.emit(TraceEvent::ReqDropped { sub, req: a.req });
        }
    }

    fn on_response_arrive(&mut self, ctx: &mut Context<'_, Ev>, key: SlabKey) {
        if let Some(a) = self.attempts.remove(key) {
            ctx.cancel(a.timeout);
            let sub = a.url.site;
            let latency = ctx.now().saturating_since(a.first_issued);
            let m = &mut self.metrics[sub as usize];
            m.served.record(ctx.now(), 1.0);
            m.latency_total += latency;
            m.latency_ms.observe(latency.as_secs_f64() * 1e3);
            self.tracer.emit(TraceEvent::ReqServed { sub, req: a.req });
        }
    }

    // ---- RDN ----

    /// Refuses a client request: charges front end `rdn` for the reset
    /// packet and RSTs the connection so the client resolves `attempt` as
    /// dropped.
    fn refuse(&mut self, ctx: &mut Context<'_, Ev>, rdn: usize, attempt: SlabKey) {
        self.fronts[rdn].metrics.charge(ctx.now(), 1, 0.0);
        let hop = self.hop();
        ctx.schedule_in(hop, Ev::ClientRst { attempt });
    }

    /// Forwards a dispatched request onto the RDN→RPN link, subject to any
    /// active link fault: the frame may vanish (recovery is the client's
    /// timeout) or be delayed.
    fn send_to_rpn(&mut self, ctx: &mut Context<'_, Ev>, rpn: u16, meta: DispatchMeta) {
        let mut delay = self.hop();
        if let Some((drop_prob, extra)) = self.faults.link_fault_at(ctx.now(), rpn) {
            if self.faults.chance(drop_prob) {
                return; // frame lost on the degraded link
            }
            delay += extra;
        }
        let dispatch = self.wire.insert(meta);
        ctx.schedule_in(delay, Ev::RpnArrive { rpn, dispatch });
    }

    /// The collapsed first-leg exchange: charges the SYN + SYN-ACK (setup)
    /// and ACK + URL (classification) packet batches, resolves the Host,
    /// and queues or dispatches the request. Credits the three collapsed
    /// packet events (SYN, SYN-ACK, ACK) to the engine's logical count.
    fn on_url_arrive(&mut self, ctx: &mut Context<'_, Ev>, attempt: SlabKey) {
        let Some(&a) = self.attempts.get(attempt) else {
            return; // resolved before the exchange finished
        };
        // The issuing site's home-shard owner answers its cluster address.
        // A dead front end answers nothing: the exchange vanishes on the
        // wire and the client's timeout/retry resolves the request
        // (failover re-homes the shard within the watchdog grace).
        let rdn = self.owner_rdn(a.url.site) as usize;
        if self.dead_rdns[rdn] {
            return;
        }
        let entry = a.url.entry(&self.traces);
        let size = entry.size_bytes;
        let classified = self.registry.classify_host(&entry.host);
        ctx.count_logical(3);
        // Handshake emulation: SYN in, SYN-ACK out. With an asymmetric
        // front-end cluster the setup CPU work moves to a secondary RDN;
        // the primary still sees the packets.
        if self.secondary_busy.is_empty() {
            self.fronts[rdn]
                .metrics
                .charge(ctx.now(), 2, self.params.rdn_costs.conn_setup_us);
        } else {
            self.fronts[rdn].metrics.charge(ctx.now(), 2, 0.0);
            let i = self.secondary_rr % self.secondary_busy.len();
            self.secondary_rr += 1;
            self.secondary_busy[i].add(
                ctx.now(),
                SimDuration::from_secs_f64(self.params.rdn_costs.conn_setup_us / 1e6),
            );
        }
        self.isn_counter = self.isn_counter.wrapping_add(88_651);
        let rdn_isn = SeqNum::new(self.isn_counter);
        // The handshake ACK and the URL packet itself, classified at 3 µs.
        self.fronts[rdn]
            .metrics
            .charge(ctx.now(), 2, self.params.rdn_costs.classification_us);
        let Some(sub_id) = classified else {
            self.unknown_host_drops += 1;
            // Still terminate the connection: the issuing client resolves
            // the request as dropped.
            self.refuse(ctx, rdn, attempt);
            return;
        };
        let req = PendingRequest {
            conn: a.conn,
            attempt,
            req: a.req,
            rdn_isn,
            url: a.url,
            size,
            enqueued_at: ctx.now(),
        };
        match self.params.mode {
            GageMode::Enabled => {
                if self.fronts[rdn].scheduler.enqueue(sub_id, req).is_err() {
                    self.refuse(ctx, rdn, attempt);
                }
            }
            GageMode::Bypass => {
                let rpn = RpnId((self.rr_next % self.rpns.len()) as u16);
                self.rr_next += 1;
                self.dispatch_to_rpn(ctx, rdn, sub_id, rpn, req, ResourceVector::ZERO);
            }
        }
    }

    fn dispatch_to_rpn(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rdn: usize,
        sub: SubscriberId,
        rpn: RpnId,
        req: PendingRequest,
        predicted: ResourceVector,
    ) {
        self.fronts[rdn].conn_table.insert(
            req.conn,
            Route {
                rpn,
                rpn_mac: self.rpns[rpn.0 as usize].mac,
            },
        );
        self.fronts[rdn]
            .metrics
            .charge(ctx.now(), 1, self.params.rdn_costs.forwarding_us);
        let wait_ms = ctx.now().saturating_since(req.enqueued_at).as_secs_f64() * 1e3;
        self.metrics[sub.0 as usize].queue_wait_ms.observe(wait_ms);
        let meta = DispatchMeta {
            pending: req,
            sub,
            predicted,
            rdn: rdn as u16,
            rdn_epoch: self.fronts[rdn].epoch,
        };
        self.send_to_rpn(ctx, rpn.0, meta);
    }

    /// Merges RPN `r`'s outbox into the event queue: every completion is
    /// scheduled at its exact finish time (clamped to now by the engine)
    /// and the collapsed per-stage events are credited as logical events.
    /// Always called in fixed RPN order — this is the determinism barrier.
    fn merge_outbox(&mut self, ctx: &mut Context<'_, Ev>, r: usize) {
        let mut outbox = std::mem::take(&mut self.rpns[r].outbox);
        for done in outbox.drain(..) {
            // One legacy CpuDone + NicDone pair collapses into Complete
            // (+1 logical), plus DiskDone when the disk stage ran.
            ctx.count_logical(1 + u64::from(done.has_disk));
            ctx.schedule_at(
                done.fin,
                Ev::Complete {
                    rpn: r as u16,
                    active: done.active,
                },
            );
        }
        self.rpns[r].outbox = outbox;
    }

    fn on_sched_tick(&mut self, ctx: &mut Context<'_, Ev>) {
        // Barrier first: flush every RPN's batch, then merge completions
        // back in fixed RPN order.
        for rpn in &mut self.rpns {
            flush_lane(rpn, &self.params, &self.traces);
        }
        for r in 0..self.rpns.len() {
            self.merge_outbox(ctx, r);
        }
        // Shard failover/failback precedes dispatch, so every cycle
        // dispatches against settled ownership.
        if self.params.rdn_count > 1 {
            self.rebalance_shards(ctx);
        }
        // Watchdog: a node that has gone silent for `watchdog_grace_cycles`
        // accounting cycles is declared down, excluded from dispatch (its
        // in-flight work is written off) and its splice routes are purged.
        // Each live front judges silence by its own report stream.
        let grace = self
            .params
            .accounting_cycle
            .mul_f64(self.params.watchdog_grace_cycles);
        let cycle = self.params.scheduler.scheduling_cycle_secs;
        for f in 0..self.fronts.len() {
            if self.dead_rdns[f] {
                continue;
            }
            for r in 0..self.rpns.len() {
                let rpn = RpnId(r as u16);
                if self.fronts[f].scheduler.nodes().is_up(rpn)
                    && ctx.now().saturating_since(self.fronts[f].last_report[r]) > grace
                {
                    self.fronts[f].scheduler.nodes_mut().set_up(rpn, false);
                    self.tracer.emit(TraceEvent::NodeDown { rpn: r as u16 });
                    let purged = self.fronts[f].conn_table.purge_rpn(rpn);
                    if purged > 0 {
                        self.tracer.emit(TraceEvent::RoutesPurged {
                            rpn: r as u16,
                            count: purged as u32,
                        });
                    }
                }
            }
            // Move the scratch buffer out while dispatching
            // (dispatch_to_rpn needs `&mut self`), then park it back,
            // allocation intact — one buffer serves every front in turn.
            let mut dispatches = std::mem::take(&mut self.dispatch_buf);
            self.fronts[f]
                .scheduler
                .run_cycle_into(cycle, &mut dispatches);
            for d in dispatches.drain(..) {
                if d.funded_by_spare {
                    self.spare_dispatches += 1;
                } else {
                    self.reserved_dispatches += 1;
                }
                self.dispatch_to_rpn(ctx, f, d.subscriber, d.rpn, d.request, d.predicted);
            }
            self.dispatch_buf = dispatches;
        }
        self.sched_ticks += 1;
        // Every 64th cycle, snapshot the DES queue's depth and lifetime
        // schedule/cancel counts into the trace.
        if self.sched_ticks % 64 == 1 && self.tracer.is_enabled() {
            let s = ctx.queue_stats();
            self.tracer.emit(TraceEvent::QueueStats {
                depth: s.depth as u32,
                scheduled: s.scheduled,
                cancelled: s.cancelled,
            });
        }
        ctx.schedule_in(SimDuration::from_secs_f64(cycle), Ev::SchedTick);
    }

    /// Decides who should own each shard and executes the moves. The
    /// policy is deliberately simple and deterministic: a live home RDN
    /// always owns its shard; a shard whose owner has been dead longer
    /// than the watchdog grace is adopted by the lowest-numbered live
    /// peer. Partitions never influence ownership — only the scripted
    /// crash schedule does — so peers cannot disagree (no split-brain).
    fn rebalance_shards(&mut self, ctx: &mut Context<'_, Ev>) {
        let grace = self
            .params
            .accounting_cycle
            .mul_f64(self.params.watchdog_grace_cycles);
        for shard in 0..self.shard_owner.len() {
            let home = shard as u16;
            let owner = self.shard_owner[shard];
            let desired = if !self.dead_rdns[home as usize] {
                home
            } else if self.dead_rdns[owner as usize]
                && ctx.now().saturating_since(self.rdn_died_at[owner as usize]) > grace
            {
                (0..self.fronts.len() as u16)
                    .find(|&r| !self.dead_rdns[r as usize])
                    .unwrap_or(owner)
            } else {
                owner
            };
            if desired != owner {
                self.move_shard(ctx, shard as u16, owner, desired);
            }
        }
    }

    /// Moves shard `shard` from front `from` to front `to`: masks the
    /// shard's reservations at the old owner and drains its queues across
    /// (refusing what no longer fits), then unmasks full reservations at
    /// the adopter — whose graceful-degradation pass rescales them
    /// proportionally if they oversubscribe its capacity share.
    fn move_shard(&mut self, ctx: &mut Context<'_, Ev>, shard: u16, from: u16, to: u16) {
        let mut subs = 0u32;
        for i in 0..self.sub_shard.len() {
            if self.sub_shard[i] != shard {
                continue;
            }
            subs += 1;
            let sub = SubscriberId(i as u32);
            if !self.dead_rdns[from as usize] {
                let f = &mut self.fronts[from as usize];
                f.scheduler.set_reservation(sub, Grps(0.0));
                let drained = f.scheduler.drain_queue(sub);
                for req in drained {
                    if self.fronts[to as usize]
                        .scheduler
                        .enqueue(sub, req)
                        .is_err()
                    {
                        self.refuse(ctx, to as usize, req.attempt);
                    }
                }
            }
            let full = self.registry.get(sub).expect("registered").reservation;
            self.fronts[to as usize]
                .scheduler
                .set_reservation(sub, full);
        }
        self.shard_owner[shard as usize] = to;
        self.tracer.emit(TraceEvent::ShardTakeover {
            shard,
            from,
            to,
            subs,
        });
    }

    fn on_report(&mut self, ctx: &mut Context<'_, Ev>, to_rdn: u16, report: &UsageReport) {
        let f = to_rdn as usize;
        if self.dead_rdns[f] {
            return; // addressed to a front that died while it was in flight
        }
        let r = report.rpn.0 as usize;
        let epoch = self.fronts[f].epoch;
        let front = &mut self.fronts[f];
        if r < front.last_report.len() {
            front.last_report[r] = ctx.now();
            // A report from a node the watchdog had written off means it is
            // back: either a rebooted node re-announcing itself (its first
            // post-recovery report) or a live node whose reports were merely
            // lost. Either way the node rejoins the dispatch set.
            if !front.scheduler.nodes().is_up(report.rpn) && !self.dead_rpns[r] {
                front.scheduler.nodes_mut().set_up(report.rpn, true);
                self.tracer.emit(TraceEvent::NodeUp { rpn: report.rpn.0 });
            }
        }
        for line in &report.per_subscriber {
            let i = line.subscriber.0 as usize;
            if i < self.metrics.len() {
                self.metrics[i]
                    .observed_usage
                    .record(ctx.now(), line.actual.generic_equivalents());
                self.metrics[i]
                    .observed_completions
                    .record(ctx.now(), f64::from(line.completed));
            }
        }
        let front = &mut self.fronts[f];
        front.scheduler.on_report(report);
        // Fold the report into this front's own accounting rows (it is
        // the single writer of origin `f`); gossip carries them to peers.
        for line in &report.per_subscriber {
            front.acct.accumulate(
                to_rdn,
                line.subscriber.0,
                epoch,
                AcctDelta {
                    as_of_ns: ctx.now().as_nanos(),
                    usage: line.actual,
                    settled_predicted: line.settled_predicted,
                    completed: line.completed as u64,
                },
            );
        }
        if self.tracer.is_enabled() {
            let completed: u32 = report.per_subscriber.iter().map(|l| l.completed).sum();
            self.tracer.emit(TraceEvent::AcctReport {
                rpn: report.rpn.0,
                subscribers: report.per_subscriber.len() as u32,
                completed,
            });
            // Load as reconciled by the report: the node's outstanding
            // predicted work relative to its dispatch window.
            self.tracer.emit(TraceEvent::NodeLoad {
                rpn: report.rpn.0,
                load: self.fronts[f].scheduler.nodes().load_fraction(report.rpn),
            });
        }
    }

    /// A front's gossip timer: snapshot its accounting rows and send them
    /// to every peer, subject to any active inter-RDN partition window.
    fn on_gossip_tick(&mut self, ctx: &mut Context<'_, Ev>, rdn: u16, epoch: u32) {
        let f = rdn as usize;
        if self.dead_rdns[f] || self.fronts[f].epoch != epoch {
            return; // a previous life's chain; recovery armed a fresh one
        }
        let mut rows = std::mem::take(&mut self.rows_buf);
        self.fronts[f].acct.rows_into(&mut rows);
        let hop = self.hop();
        for peer in 0..self.fronts.len() as u16 {
            if peer == rdn {
                continue;
            }
            let mut delay = hop;
            let mut lost = false;
            if let Some((drop_prob, extra)) = self.faults.rdn_link_fault_at(ctx.now(), rdn, peer) {
                if self.faults.chance(drop_prob) {
                    lost = true; // partitioned: the snapshot vanishes
                } else {
                    delay += extra;
                }
            }
            self.tracer.emit(TraceEvent::ReportGossip {
                from: rdn,
                to: peer,
                rows: rows.len() as u32,
            });
            if !lost {
                let mut copy = self.gossip.buffer();
                copy.extend_from_slice(&rows);
                let key = self.gossip.live.insert(copy);
                ctx.schedule_in(
                    delay,
                    Ev::GossipArrive {
                        to: peer,
                        from: rdn,
                        rows: key,
                    },
                );
            }
        }
        self.rows_buf = rows;
        ctx.schedule_in(self.params.accounting_cycle, Ev::GossipTick { rdn, epoch });
    }

    /// A peer's gossiped snapshot arrives: merge it. The merge is
    /// conflict-free (epoch-then-componentwise-max), so loss, duplication
    /// and reordering — and transitive relay once a partition heals —
    /// all converge to the same table.
    fn on_gossip_arrive(&mut self, to: u16, from: u16, rows: &[AcctRow]) {
        let f = to as usize;
        if self.dead_rdns[f] {
            return;
        }
        let changed = self.fronts[f].acct.merge_rows(rows);
        self.tracer.emit(TraceEvent::AcctMerge {
            rdn: to,
            from,
            changed: changed as u32,
        });
    }

    // ---- RPN ----

    fn on_rpn_arrive(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16, dispatch: SlabKey) {
        let Some(meta) = self.wire.remove(dispatch) else {
            return;
        };
        if self.dead_rpns[rpn_idx as usize] {
            // The node is down; delivery failure is visible at the link
            // layer, so the RDN pulls the dispatch back: its booking is
            // voided and it rejoins the head of its queue for another node.
            self.requeue_undelivered(ctx, rpn_idx, meta);
            return;
        }
        let p = meta.pending;
        let (data_pkts, ack_pkts) = response_packet_counts(&self.params.network, p.size);
        let overhead_us = match self.params.mode {
            GageMode::Enabled => self.params.gage_rpn_overhead_us(data_pkts, ack_pkts),
            GageMode::Bypass => 0.0,
        };
        // CGI-style dynamic requests fork a child of the subscriber's
        // worker and burn a multiple of the static CPU cost; the child's
        // usage rolls up to the charging entity through the process tree.
        let dynamic = self
            .params
            .dynamic
            .as_ref()
            .filter(|d| p.url.entry(&self.traces).path.starts_with(&d.path_prefix))
            .map(|d| d.cpu_multiplier);
        let rpn = &mut self.rpns[rpn_idx as usize];
        rpn.isn_counter = rpn.isn_counter.wrapping_add(104_729);
        let splice = SpliceMap::new_traced(
            p.conn.src,
            self.cluster_ep,
            rpn.ip,
            p.rdn_isn,
            SeqNum::new(rpn.isn_counter),
            p.req,
            &self.tracer,
        );
        let worker = rpn.workers[meta.sub.0 as usize];
        let (pid, reap_pid) = if dynamic.is_some() {
            match rpn.processes.spawn_child(worker) {
                Some(child) => (child, true),
                None => (worker, false),
            }
        } else {
            (worker, false)
        };
        rpn.outstanding_by_rdn[meta.rdn as usize] += meta.predicted;
        let active = rpn.active.insert(ActiveReq {
            sub: meta.sub,
            conn: p.conn,
            attempt: p.attempt,
            req: p.req,
            predicted: meta.predicted,
            splice,
            size: p.size,
            disk_us: 0.0,
            cpu_us: 0.0,
            net_bytes: 0.0,
            pid,
            reap_pid,
            rdn: meta.rdn,
            rdn_epoch: meta.rdn_epoch,
            cpu_fin: SimTime::MAX,
            disk_fin: SimTime::MAX,
            nic_fin: SimTime::MAX,
        });
        rpn.inbox.push(LaneJob {
            active,
            ready: ctx.now(),
            url: p.url,
            size: p.size,
            cpu_mult: dynamic.unwrap_or(1.0),
            overhead_us,
        });
        if self.params.mode == GageMode::Bypass {
            // No scheduling tick exists to act as the barrier: flush this
            // lane inline, which reproduces exact unbatched timing.
            flush_lane(&mut self.rpns[rpn_idx as usize], &self.params, &self.traces);
            self.merge_outbox(ctx, rpn_idx as usize);
        }
    }

    /// Pulls back a dispatch that bounced off a dead node: removes its
    /// route, refunds its scheduler booking and puts it back at the head of
    /// its queue (or refuses it if the queue has since filled). The refund
    /// targets the life of the front that booked it; if that front has
    /// since crashed, the dispatch simply evaporates and the client's
    /// timeout/retry resolves the request.
    fn requeue_undelivered(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16, meta: DispatchMeta) {
        let f = meta.rdn as usize;
        if self.dead_rdns[f] || self.fronts[f].epoch != meta.rdn_epoch {
            return;
        }
        let mut req = meta.pending;
        self.fronts[f].conn_table.remove(req.conn);
        match self.params.mode {
            GageMode::Enabled => {
                self.fronts[f]
                    .scheduler
                    .void_dispatch(meta.sub, RpnId(rpn_idx), meta.predicted);
                self.tracer.emit(TraceEvent::DispatchRequeued {
                    sub: meta.sub.0,
                    req: req.req,
                    rpn: rpn_idx,
                });
                req.enqueued_at = ctx.now();
                if self.fronts[f].scheduler.requeue(meta.sub, req).is_err() {
                    self.refuse(ctx, f, req.attempt);
                }
            }
            GageMode::Bypass => {
                // No scheduler queues to return to: refuse outright.
                self.refuse(ctx, f, req.attempt);
            }
        }
    }

    /// A request's NIC stage drained: settle its accounting, charge the
    /// bridged ACK/FIN stream, tear the splice down and send the response
    /// on its final hop to the client.
    fn on_complete(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16, active: SlabKey) {
        // A crash clears the active slab, so a completion from a previous
        // life of the node fails to resolve here.
        let Some(req) = self.rpns[rpn_idx as usize].active.remove(active) else {
            return;
        };
        let sub = req.sub;
        req.splice.trace_teardown(req.req, &self.tracer);
        self.tracer.emit(TraceEvent::ReqComplete {
            sub: sub.0,
            req: req.req,
            rpn: rpn_idx,
        });
        let actual = ResourceVector::new(req.cpu_us, req.disk_us, req.net_bytes);

        // Charge the owning process (the worker, or the CGI child for
        // dynamic requests) — per-process accounting, paper §3.5.
        {
            let rpn = &mut self.rpns[rpn_idx as usize];
            rpn.processes.charge(req.pid, actual);
            if req.reap_pid {
                rpn.processes.exit(req.pid);
            }
            let acc = &mut rpn.cycle[sub.0 as usize];
            acc.settled_predicted += req.predicted;
            acc.completed += 1;
            rpn.total_cycle_usage += actual;
            rpn.completed_requests += 1;
            rpn.outstanding_by_rdn[req.rdn as usize] -= req.predicted;
        }

        // The client's ACK/FIN stream transits the dispatching front's
        // bridge. If that life of the front is gone, there is no bridge
        // (and no route) left to charge — the response itself still flows
        // directly RPN → client, so the request serves either way.
        let f = req.rdn as usize;
        if !self.dead_rdns[f] && self.fronts[f].epoch == req.rdn_epoch {
            let (_data_pkts, ack_pkts) = response_packet_counts(&self.params.network, req.size);
            self.fronts[f].metrics.charge(
                ctx.now(),
                ack_pkts + 1,
                self.params.rdn_costs.forwarding_us * (ack_pkts + 1) as f64,
            );
            self.fronts[f].conn_table.remove(req.conn);
        }
        let hop = self.hop();
        ctx.schedule_in(
            hop,
            Ev::ResponseArrive {
                attempt: req.attempt,
            },
        );
    }

    fn on_acct_tick(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16, epoch: u32) {
        let idx = rpn_idx as usize;
        if self.dead_rpns[idx] || self.rpns[idx].epoch != epoch {
            return; // crashed nodes stop reporting until recovery reboots them
        }
        // One report per front end, each carrying the usage lines of the
        // subscribers that front currently owns plus the backlog it
        // booked itself. A front with no owned activity still gets an
        // empty report — the heartbeat its watchdog runs on.
        let hop = self.hop();
        let mut rollup = std::mem::take(&mut self.rollup_buf);
        self.rpns[idx].processes.rollup(&mut rollup);
        let total = std::mem::replace(&mut self.rpns[idx].total_cycle_usage, ResourceVector::ZERO);
        for dest in 0..self.fronts.len() {
            let rpn = &mut self.rpns[idx];
            let mut per_subscriber = self.reports.buffer();
            for (i, acc) in rpn.cycle.iter_mut().enumerate() {
                // `owner_rdn`, inlined: `rpn` holds `self` mutably.
                if self.shard_owner[self.sub_shard[i] as usize] as usize != dest {
                    continue;
                }
                let sub = SubscriberId(i as u32);
                let actual = rollup.get(i).copied().unwrap_or(ResourceVector::ZERO);
                if acc.completed == 0 && actual == ResourceVector::ZERO {
                    continue;
                }
                per_subscriber.push(SubscriberUsage {
                    subscriber: sub,
                    actual,
                    settled_predicted: acc.settled_predicted,
                    completed: acc.completed,
                });
                *acc = CycleAccum::default();
            }
            // Each node reports its remaining predicted backlog so every
            // front's outstanding estimate re-anchors to ground truth —
            // sliced per front, since each front booked only its own
            // dispatches. The whole-node `total` goes to every front (it
            // is observational, not a booking).
            let report = UsageReport {
                rpn: RpnId(rpn_idx),
                total,
                outstanding_predicted: rpn.outstanding_by_rdn[dest],
                per_subscriber,
            };
            // A fault-plan loss window overrides the whole-run knob, and
            // draws from the plan's own RNG stream so the traffic stream
            // is untouched. One draw per destination, in fixed order.
            let lost = match self.faults.report_loss_at(ctx.now()) {
                Some(p) => self.faults.chance(p),
                None => {
                    let p = self.params.report_loss_prob;
                    p > 0.0 && ctx.rng().chance(p)
                }
            };
            if lost || self.dead_rdns[dest] {
                // A report to a dead front vanishes on the wire; it is
                // not an injected loss, so it is not counted as one.
                self.lost_reports += u64::from(lost);
                self.reports.recycle(report.per_subscriber);
            } else {
                let key = self.reports.live.insert(report);
                ctx.schedule_in(
                    hop,
                    Ev::Report {
                        to_rdn: dest as u16,
                        report: key,
                    },
                );
            }
        }
        self.rollup_buf = rollup;
        // Each node's periodic timer runs on its own crystal: a fixed skew
        // of a few hundred ppm. Reports therefore stay clustered across the
        // cluster (the nodes started together) while the cluster-wide phase
        // drifts slowly relative to measurement windows, as on real
        // hardware.
        let skew = self.rpns[idx].clock_skew;
        // Kernel timers also fire with small scheduling noise (±1% of the
        // period here); without it the perfectly-periodic reports alias
        // against averaging windows that are exact multiples of the cycle.
        let noise = 0.99 + 0.02 * ctx.rng().f64();
        ctx.schedule_in(
            self.params.accounting_cycle.mul_f64(skew * noise),
            Ev::AcctTick {
                rpn: rpn_idx,
                epoch,
            },
        );
    }

    // ---- fault injection ----

    /// Fail-stop crash: the node's in-flight work (inbox included),
    /// process table, cache and service lines are lost, and its boot epoch
    /// advances so every event scheduled against the old life is stale.
    /// Idempotent.
    fn on_crash(&mut self, rpn_idx: u16) {
        let idx = rpn_idx as usize;
        if self.dead_rpns[idx] {
            return; // already down
        }
        self.dead_rpns[idx] = true;
        let n_sites = self.registry.len();
        let rpn = &mut self.rpns[idx];
        rpn.epoch = rpn.epoch.wrapping_add(1);
        rpn.active.clear();
        rpn.inbox.clear();
        rpn.outbox.clear();
        rpn.outstanding_by_rdn.fill(ResourceVector::ZERO);
        rpn.cpu = BusyLine::new();
        rpn.disk = BusyLine::new();
        rpn.nic = BusyLine::new();
        let mut processes = ProcessTable::new();
        rpn.workers = (0..n_sites)
            .map(|s| processes.launch_entity_root(SubscriberId(s as u32)))
            .collect();
        rpn.processes = processes;
        if let DiskPolicy::Cache { capacity_bytes, .. } = self.params.service.disk {
            rpn.cache = Some(LruCache::new(capacity_bytes));
        }
        for acc in rpn.cycle.iter_mut() {
            *acc = CycleAccum::default();
        }
        rpn.total_cycle_usage = ResourceVector::ZERO;
        self.tracer.emit(TraceEvent::RpnCrash { rpn: rpn_idx });
    }

    /// Reboot of a crashed node: it comes back cold and restarts its
    /// accounting chain; its first report is what re-registers it with the
    /// RDN (the watchdog's up-path). Idempotent.
    fn on_recover(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16) {
        let idx = rpn_idx as usize;
        if !self.dead_rpns[idx] {
            return; // already up
        }
        self.dead_rpns[idx] = false;
        self.tracer.emit(TraceEvent::RpnRecover { rpn: rpn_idx });
        if self.params.mode == GageMode::Enabled {
            let skew = self.rpns[idx].clock_skew;
            let epoch = self.rpns[idx].epoch;
            ctx.schedule_in(
                self.params.accounting_cycle.mul_f64(skew),
                Ev::AcctTick {
                    rpn: rpn_idx,
                    epoch,
                },
            );
        }
    }

    /// Fail-stop crash of front end `rdn`: its queued requests, dispatch
    /// bookings, connection routes and accounting rows are lost, and its
    /// boot epoch advances so reports, gossip and refunds addressed to
    /// the old life are recognizably stale. In-flight requests it
    /// dispatched still complete (responses flow directly RPN → client);
    /// queued ones resolve through client timeout and retry against the
    /// shard's next owner. Idempotent.
    fn on_rdn_crash(&mut self, now: SimTime, rdn: u16) {
        let f = rdn as usize;
        if self.dead_rdns[f] {
            return; // already down
        }
        self.dead_rdns[f] = true;
        self.rdn_died_at[f] = now;
        let scheduler = self.make_front_scheduler();
        let front = &mut self.fronts[f];
        front.epoch = front.epoch.wrapping_add(1);
        front.scheduler = scheduler;
        front.conn_table = ConnTable::new();
        front.acct = AcctTable::new();
        self.tracer.emit(TraceEvent::RdnCrash { rdn });
    }

    /// Reboot of a crashed front end: it comes back with empty queues, a
    /// cold accounting table (gossip refills peer rows; its own restart
    /// at a higher epoch supersedes stale copies of it elsewhere) and a
    /// re-armed watchdog and gossip chain. Shards it still owns get
    /// their reservations back immediately; adopted ones return at the
    /// next scheduling tick. Idempotent.
    fn on_rdn_recover(&mut self, ctx: &mut Context<'_, Ev>, rdn: u16) {
        let f = rdn as usize;
        if !self.dead_rdns[f] {
            return; // already up
        }
        self.dead_rdns[f] = false;
        self.tracer.emit(TraceEvent::RdnRecover { rdn });
        let now = ctx.now();
        self.fronts[f].last_report = vec![now; self.rpns.len()];
        // Unmask reservations for shards whose ownership never left this
        // front (no peer adopted them inside the grace window) — the
        // rebalance pass only acts on ownership *changes*.
        for i in 0..self.sub_shard.len() {
            if self.shard_owner[self.sub_shard[i] as usize] == rdn {
                let sub = SubscriberId(i as u32);
                let full = self.registry.get(sub).expect("registered").reservation;
                self.fronts[f].scheduler.set_reservation(sub, full);
            }
        }
        if self.params.mode == GageMode::Enabled && self.fronts.len() > 1 {
            let epoch = self.fronts[f].epoch;
            ctx.schedule_in(self.params.accounting_cycle, Ev::GossipTick { rdn, epoch });
        }
    }

    /// Debug view: per-RPN load fractions and per-subscriber (backlog,
    /// balance, predicted) from front end 0's embedded scheduler (the
    /// whole cluster with a single RDN).
    pub fn scheduler_snapshot(&self) -> (Vec<f64>, Vec<(usize, ResourceVector, ResourceVector)>) {
        let s = &self.fronts[0].scheduler;
        let loads = s
            .nodes()
            .rpn_ids()
            .map(|id| s.nodes().load_fraction(id))
            .collect();
        let subs = (0..self.registry.len())
            .map(|i| {
                let sub = SubscriberId(i as u32);
                (s.backlog(sub), s.balance(sub), s.predicted_usage(sub))
            })
            .collect();
        (loads, subs)
    }

    /// Front end `rdn`'s measurement state (packet counts, CPU busy).
    pub fn rdn_metrics(&self, rdn: usize) -> &RdnMetrics {
        &self.fronts[rdn].metrics
    }

    /// Whether front end `rdn` is currently live.
    pub fn rdn_alive(&self, rdn: usize) -> bool {
        !self.dead_rdns[rdn]
    }

    /// Current owner of each shard (index = shard = home RDN).
    pub fn shard_owners(&self) -> &[u16] {
        &self.shard_owner
    }

    /// Front end `rdn`'s converged accounting rows, sorted by
    /// (origin, subscriber) — the convergence probe for chaos tests.
    pub fn acct_rows(&self, rdn: usize) -> Vec<AcctRow> {
        self.fronts[rdn].acct.rows()
    }

    /// Every front end's graceful-degradation multiplier.
    pub fn degrade_scales(&self) -> Vec<f64> {
        self.fronts
            .iter()
            .map(|f| f.scheduler.degrade_scale())
            .collect()
    }

    /// Debug view: per-RPN (active requests, cpu stage, disk stage, nic
    /// stage) occupancy. A request counts toward the stage whose finish
    /// time is still in the future at the last handled event (inbox-
    /// resident requests count as CPU-stage: they have not started).
    pub fn rpn_occupancy(&self) -> Vec<(usize, usize, usize, usize)> {
        let now = self.last_event_at;
        self.rpns
            .iter()
            .map(|r| {
                let (mut cpu, mut disk, mut nic) = (0, 0, 0);
                for a in r.active.values() {
                    if a.cpu_fin > now {
                        cpu += 1;
                    } else if a.disk_fin > now {
                        disk += 1;
                    } else {
                        nic += 1;
                    }
                }
                (r.active.len(), cpu, disk, nic)
            })
            .collect()
    }

    /// The cluster's graceful-degradation multiplier (1.0 = full
    /// capacity, <1.0 = reservations scaled down, 0.0 = no live nodes):
    /// the minimum over the front ends. A dead front's fresh scheduler
    /// reads 1.0 (zero demand), so it never drags the minimum down.
    pub fn degrade_scale(&self) -> f64 {
        self.fronts
            .iter()
            .map(|f| f.scheduler.degrade_scale())
            .fold(f64::INFINITY, f64::min)
    }
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        // Keep the trace clock on virtual time: every record emitted while
        // handling this event is stamped with the event's instant.
        self.tracer.set_now(ctx.now());
        self.last_event_at = ctx.now();
        match event {
            Ev::Issue { sub, idx } => self.on_issue(ctx, sub, idx),
            Ev::UrlArrive { attempt } => self.on_url_arrive(ctx, attempt),
            Ev::ClientRst { attempt } => self.on_client_rst(ctx, attempt),
            Ev::RpnArrive { rpn, dispatch } => self.on_rpn_arrive(ctx, rpn, dispatch),
            Ev::Complete { rpn, active } => self.on_complete(ctx, rpn, active),
            Ev::ResponseArrive { attempt } => self.on_response_arrive(ctx, attempt),
            Ev::ClientTimeout { attempt } => self.on_client_timeout(ctx, attempt),
            Ev::SchedTick => self.on_sched_tick(ctx),
            Ev::AcctTick { rpn, epoch } => self.on_acct_tick(ctx, rpn, epoch),
            Ev::Report { to_rdn, report } => {
                if let Some(report) = self.reports.live.remove(report) {
                    self.on_report(ctx, to_rdn, &report);
                    self.reports.recycle(report.per_subscriber);
                }
            }
            // Fail-stop: the node vanishes. The RDN only learns of it when
            // the report watchdog fires; until then dispatches bounce off
            // the dead node and are re-queued.
            Ev::CrashRpn { rpn } => self.on_crash(rpn),
            Ev::RecoverRpn { rpn } => self.on_recover(ctx, rpn),
            // Fail-stop of a front end: peers only react through the
            // failover grace; clients through timeout and retry.
            Ev::CrashRdn { rdn } => self.on_rdn_crash(ctx.now(), rdn),
            Ev::RecoverRdn { rdn } => self.on_rdn_recover(ctx, rdn),
            Ev::GossipTick { rdn, epoch } => self.on_gossip_tick(ctx, rdn, epoch),
            Ev::GossipArrive { to, from, rows } => {
                if let Some(rows) = self.gossip.live.remove(rows) {
                    self.on_gossip_arrive(to, from, &rows);
                    self.gossip.recycle(rows);
                }
            }
        }
    }
}

/// Builder + runner for a simulated cluster experiment.
#[derive(Debug)]
pub struct ClusterSim {
    sim: Simulation<World>,
}

impl ClusterSim {
    /// Builds a cluster hosting `sites` under `params`. Each site's trace
    /// is sorted by issue time and replayed open-loop: only its first
    /// entry is queued here, and each issue queues the next one.
    ///
    /// # Panics
    ///
    /// Panics if `params.rpn_count` or `params.rdn_count` is zero or a
    /// site host is duplicated.
    pub fn new(mut params: ClusterParams, sites: Vec<SiteSpec>, seed: u64) -> Self {
        assert!(params.rpn_count > 0, "need at least one RPN");
        assert!(params.rdn_count > 0, "need at least one RDN");
        // The in-flight window must cover the feedback delay (a
        // bandwidth-delay-product argument): with a window shorter than the
        // accounting cycle, dispatch is capped at window/cycle regardless
        // of actual capacity.
        let min_lookahead = params.accounting_cycle.as_secs_f64() * 1.2;
        if params.scheduler.node_lookahead_secs < min_lookahead {
            params.scheduler.node_lookahead_secs = min_lookahead;
        }
        let n_sites = sites.len();
        let mut registry = SubscriberRegistry::new();
        let mut traces = Vec::with_capacity(n_sites);
        for s in sites {
            registry
                .register(s.host, s.reservation)
                .expect("duplicate site host");
            let mut trace = s.trace;
            // `entries` is public and `Trace::load_json` keeps file order;
            // replay needs time order. The sort is stable, so entries at
            // the same instant keep their relative order.
            if !trace.entries.is_sorted_by_key(|e| e.at_us) {
                trace.entries.sort_by_key(|e| e.at_us);
            }
            traces.push(trace);
        }
        // Each front end schedules against its 1/rdn_count share of every
        // node, so the peer set as a whole never oversubscribes an RPN.
        // With a single RDN the share is exactly the whole node.
        let share = 1.0 / params.rdn_count as f64;
        let front_capacity = ResourceVector::new(
            1e6 * params.rpn_speed * share,
            1e6 * share,
            params.network.rpn_egress_bytes_per_sec * share,
        );
        let sub_shard: Vec<u16> = (0..n_sites).map(|i| params.shard_of(i as u32)).collect();
        let shard_owner: Vec<u16> = (0..params.rdn_count as u16).collect();
        let mut fronts = Vec::new();
        for f in 0..params.rdn_count {
            let mut nodes = NodeScheduler::new(params.scheduler.node_lookahead_secs);
            for _ in 0..params.rpn_count {
                nodes.add_rpn(front_capacity);
            }
            let mut scheduler = RequestScheduler::new(&registry, params.scheduler, nodes);
            for (i, &shard) in sub_shard.iter().enumerate() {
                if shard as usize != f {
                    scheduler.set_reservation(SubscriberId(i as u32), Grps(0.0));
                }
            }
            fronts.push(RdnFront {
                scheduler,
                conn_table: ConnTable::new(),
                metrics: RdnMetrics::new(params.interrupts),
                last_report: vec![SimTime::ZERO; params.rpn_count],
                acct: AcctTable::new(),
                epoch: 0,
            });
        }
        let mut rpns = Vec::new();
        for i in 0..params.rpn_count {
            let mut processes = ProcessTable::new();
            let workers = (0..n_sites)
                .map(|s| processes.launch_entity_root(SubscriberId(s as u32)))
                .collect();
            let cache = match params.service.disk {
                DiskPolicy::Cache { capacity_bytes, .. } => Some(LruCache::new(capacity_bytes)),
                _ => None,
            };
            rpns.push(Rpn {
                ip: Ipv4Addr::new(10, 0, 2, (i + 1) as u8),
                mac: MacAddr::from_node_id((i + 1) as u16),
                cpu: BusyLine::new(),
                disk: BusyLine::new(),
                nic: BusyLine::new(),
                cache,
                processes,
                workers,
                active: Slab::new(),
                inbox: Vec::new(),
                outbox: Vec::new(),
                outstanding_by_rdn: vec![ResourceVector::ZERO; params.rdn_count],
                isn_counter: 7,
                cycle: vec![CycleAccum::default(); n_sites],
                total_cycle_usage: ResourceVector::ZERO,
                completed_requests: 0,
                epoch: 0,
                // Deterministic per-node crystal skew in ±200 ppm.
                clock_skew: {
                    let h = seed
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add((i as u64).wrapping_mul(1_442_695_040_888_963_407));
                    let ppm = ((h >> 33) % 401) as f64 - 200.0;
                    1.0 + ppm * 1e-6
                },
            });
        }
        let world = World {
            cluster_ep: Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
            fronts,
            rpns,
            attempts: Slab::new(),
            client_issued: vec![0; n_sites],
            wire: Slab::new(),
            reports: InFlight::new(),
            gossip: InFlight::new(),
            rr_next: 0,
            isn_counter: 1,
            next_req: 0,
            metrics: (0..n_sites).map(|_| SubscriberMetrics::default()).collect(),
            unknown_host_drops: 0,
            reserved_dispatches: 0,
            spare_dispatches: 0,
            secondary_busy: (0..params.secondary_rdns)
                .map(|_| gage_des::stats::BusyTracker::new(crate::metrics::METRIC_BIN))
                .collect(),
            secondary_rr: 0,
            sub_shard,
            shard_owner,
            dead_rdns: vec![false; params.rdn_count],
            rdn_died_at: vec![SimTime::ZERO; params.rdn_count],
            front_capacity,
            dead_rpns: vec![false; params.rpn_count],
            lost_reports: 0,
            faults: FaultState::inactive(),
            dispatch_buf: Vec::new(),
            rollup_buf: Vec::new(),
            rows_buf: Vec::new(),
            sched_ticks: 0,
            last_event_at: SimTime::ZERO,
            tracer: Tracer::disabled(),
            traces,
            issue_rank: Vec::with_capacity(n_sites),
            registry,
            params,
        };
        let mut sim = Simulation::new(world, seed);
        // One tie-break rank per trace entry, reserved before the periodic
        // ticks: an arrival at the same instant as a tick is issued first,
        // sites in index order. Only each site's first entry is queued.
        for s in 0..n_sites {
            let len = sim.model().traces[s].entries.len() as u64;
            let rank = sim.reserve_ranks(len);
            sim.model_mut().issue_rank.push(rank);
            if let Some(e) = sim.model().traces[s].entries.first() {
                let at = SimTime::from_nanos(e.at_us * 1_000);
                let sub = s as u32;
                sim.schedule_ranked(at, rank, Ev::Issue { sub, idx: 0 });
            }
        }
        if sim.model().params.mode == GageMode::Enabled {
            let cycle = sim.model().params.scheduler.scheduling_cycle_secs;
            sim.schedule_at(
                SimTime::ZERO + SimDuration::from_secs_f64(cycle),
                Ev::SchedTick,
            );
            // All RPNs report on the same accounting-cycle boundary, as on
            // a testbed whose nodes start their Gage modules together. The
            // synchronized observation is what produces Figure 3's >100%
            // deviation at (2 s cycle, 1 s averaging interval). The cycle
            // phase is arbitrary relative to measurement windows (nodes
            // boot whenever), so it is deliberately not a round number.
            let acct = sim.model().params.accounting_cycle;
            let phase = acct.mul_f64(0.37);
            for r in 0..sim.model().rpns.len() {
                sim.schedule_at(
                    SimTime::ZERO + acct + phase,
                    Ev::AcctTick {
                        rpn: r as u16,
                        epoch: 0,
                    },
                );
            }
            // Peer gossip runs once per accounting cycle, phase-staggered
            // per front so snapshots interleave rather than collide. A
            // single-RDN cluster schedules none of it.
            let n_rdn = sim.model().fronts.len();
            for f in 0..n_rdn {
                if n_rdn > 1 {
                    sim.schedule_at(
                        SimTime::ZERO + acct + acct.mul_f64(0.53 + 0.11 * f as f64),
                        Ev::GossipTick {
                            rdn: f as u16,
                            epoch: 0,
                        },
                    );
                }
            }
        }
        ClusterSim { sim }
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Attaches a trace ring of `capacity` records. The scheduler, the
    /// splice layer and the cluster world all emit into the shared ring
    /// from this point on; call before [`ClusterSim::run_until`] for a
    /// complete trace. Same-seed runs produce byte-identical dumps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let now = self.sim.now();
        let tracer = Tracer::enabled(capacity);
        let world = self.sim.model_mut();
        for front in &mut world.fronts {
            front.scheduler.set_tracer(tracer.clone());
        }
        world.tracer = tracer;
        // One `Reservation` record per subscriber up front (with its home
        // shard), so dumps are self-describing for the conformance
        // auditor and its `--shard` filter.
        world.tracer.set_now(now);
        for i in 0..world.registry.len() {
            let sub = SubscriberId(i as u32);
            let grps = world.registry.get(sub).expect("registered").reservation.0;
            world.tracer.emit(TraceEvent::Reservation {
                sub: i as u32,
                grps,
                shard: world.sub_shard[i],
            });
        }
    }

    /// Serializes the trace ring (see [`gage_obs::TraceRing::dump`]);
    /// `None` unless [`ClusterSim::enable_tracing`] was called.
    pub fn trace_dump(&self) -> Option<String> {
        self.world().tracer.dump()
    }

    /// Builds a live metrics snapshot of the whole cluster: connection
    /// table, RDN, DES event queue, scheduler counters per subscriber, and
    /// per-RPN state.
    pub fn registry(&self) -> Registry {
        let w = self.world();
        let mut reg = Registry::new();
        // Connection-table internals come from front 0; the summable
        // counters below aggregate across every front.
        w.fronts[0].conn_table.export_metrics(&mut reg);
        let qs = self.sim.queue_stats();
        reg.set_counter("des.queue_depth", qs.depth);
        reg.set_counter("des.events_scheduled", qs.scheduled);
        reg.set_counter("des.events_cancelled", qs.cancelled);
        reg.set_counter("des.wheel_cascades", qs.cascades);
        reg.set_counter("des.wheel_compactions", qs.compactions);
        reg.set_counter(
            "rdn.packets",
            w.fronts.iter().map(|f| f.metrics.packet_count).sum(),
        );
        reg.set_counter("rdn.unknown_host_drops", w.unknown_host_drops);
        reg.set_counter("sched.reserved_dispatches", w.reserved_dispatches);
        reg.set_counter("sched.spare_dispatches", w.spare_dispatches);
        reg.set_counter("reports.lost", w.lost_reports);
        for i in 0..w.registry.len() {
            let sub = SubscriberId(i as u32);
            let (mut accepted, mut dropped, mut dispatched, mut completed) = (0, 0, 0, 0);
            for f in &w.fronts {
                let c = f.scheduler.counters(sub);
                accepted += c.accepted;
                dropped += c.dropped;
                dispatched += c.dispatched;
                completed += c.completed;
            }
            reg.set_counter(&format!("sub{i}.accepted"), accepted);
            reg.set_counter(&format!("sub{i}.dropped"), dropped);
            reg.set_counter(&format!("sub{i}.dispatched"), dispatched);
            reg.set_counter(&format!("sub{i}.completed"), completed);
            reg.set_counter(
                &format!("sub{i}.failed"),
                w.metrics[i].failed.total() as u64,
            );
            reg.set_histogram(
                &format!("sub{i}.latency_ms"),
                w.metrics[i].latency_ms.clone(),
            );
            reg.set_histogram(
                &format!("sub{i}.queue_wait_ms"),
                w.metrics[i].queue_wait_ms.clone(),
            );
        }
        for (r, rpn) in w.rpns.iter().enumerate() {
            reg.set_counter(&format!("rpn{r}.completed"), rpn.completed_requests);
            // A node's load as the mean of the per-front fractions (each
            // front sees its own bookings against its capacity share).
            let load = w
                .fronts
                .iter()
                .map(|f| f.scheduler.nodes().load_fraction(RpnId(r as u16)))
                .sum::<f64>()
                / w.fronts.len() as f64;
            reg.observe("rpn.load_pct", load * 100.0);
        }
        reg
    }

    /// Installs a [`FaultPlan`]: schedules its crash/recover events (RPN
    /// and RDN, after last-scheduled-wins normalization — see
    /// [`FaultPlan::normalized_events`]) and arms its report-loss,
    /// link-fault and inter-RDN partition windows. Call before
    /// [`ClusterSim::run_until`]; one plan per run.
    ///
    /// # Panics
    ///
    /// Panics if any event names an RPN or RDN out of range.
    // The match below must name every `FaultEvent` variant: a scripted
    // fault that nothing applies would silently never happen.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let n = self.sim.model().rpns.len();
        let n_rdn = self.sim.model().fronts.len();
        for ev in plan.normalized_events() {
            match ev {
                FaultEvent::Crash { at, rpn } => {
                    assert!((rpn as usize) < n, "rpn {rpn} out of range");
                    self.sim.schedule_at(at, Ev::CrashRpn { rpn });
                }
                FaultEvent::Recover { at, rpn } => {
                    assert!((rpn as usize) < n, "rpn {rpn} out of range");
                    self.sim.schedule_at(at, Ev::RecoverRpn { rpn });
                }
                FaultEvent::RdnCrash { at, rdn } => {
                    assert!((rdn as usize) < n_rdn, "rdn {rdn} out of range");
                    self.sim.schedule_at(at, Ev::CrashRdn { rdn });
                }
                FaultEvent::RdnRecover { at, rdn } => {
                    assert!((rdn as usize) < n_rdn, "rdn {rdn} out of range");
                    self.sim.schedule_at(at, Ev::RecoverRdn { rdn });
                }
            }
        }
        self.sim.model_mut().faults.install(plan);
    }

    /// Schedules a fail-stop crash of `rpn` at the given instant — the
    /// one-event special case of [`ClusterSim::apply_fault_plan`], kept for
    /// convenience. The RDN learns of the crash via the report watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `rpn` is out of range.
    pub fn schedule_rpn_crash(&mut self, at: SimTime, rpn: u16) {
        assert!(
            (rpn as usize) < self.sim.model().rpns.len(),
            "rpn {rpn} out of range"
        );
        self.sim.schedule_at(at, Ev::CrashRpn { rpn });
    }

    /// Mean CPU utilization of each secondary RDN over `[from, to)`.
    pub fn secondary_utilizations(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        let bw = crate::metrics::METRIC_BIN;
        let lo = (from.as_nanos() / bw.as_nanos()) as usize;
        let hi = (to.as_nanos() / bw.as_nanos()) as usize;
        self.sim
            .model()
            .secondary_busy
            .iter()
            .map(|b| {
                let bins = b.per_bin_utilization();
                if hi > lo {
                    (lo..hi)
                        .map(|i| bins.get(i).copied().unwrap_or(0.0))
                        .sum::<f64>()
                        / (hi - lo) as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Live process count on each RPN (workers + any CGI children).
    pub fn rpn_live_processes(&self) -> Vec<usize> {
        self.sim
            .model()
            .rpns
            .iter()
            .map(|r| r.processes.live_count())
            .collect()
    }

    /// The world, for metric extraction.
    pub fn world(&self) -> &World {
        self.sim.model()
    }

    /// Events the underlying DES kernel has processed so far: physical
    /// pops plus the logical per-packet events the batched handlers
    /// collapse. With wall time this yields the events/sec figure the
    /// hot-path bench tracks.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Operational counters of the DES event queue (depth, schedule and
    /// cancel totals, wheel cascades/compactions).
    pub fn queue_stats(&self) -> gage_des::QueueStats {
        self.sim.queue_stats()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Builds the end-of-run report over `[from, to)`.
    pub fn report(&self, from: SimTime, to: SimTime) -> crate::metrics::ClusterReport {
        use crate::metrics::{rate_in_window, ClusterReport, SubscriberRow};
        let w = self.world();
        let mut rows = Vec::new();
        let mut total_served = 0.0;
        for (i, m) in w.metrics.iter().enumerate() {
            let sub = w.registry.get(SubscriberId(i as u32)).expect("registered");
            let served = rate_in_window(&m.served, from, to);
            total_served += served;
            rows.push(SubscriberRow {
                subscriber: i as u32,
                host: sub.host.clone(),
                reservation: sub.reservation.0,
                offered: rate_in_window(&m.offered, from, to),
                served,
                dropped: rate_in_window(&m.dropped, from, to),
                failed: rate_in_window(&m.failed, from, to),
                mean_latency_ms: match m.latency_ms.count() {
                    0 => 0.0,
                    n => (m.latency_total / n).as_secs_f64() * 1e3,
                },
            });
        }
        let elapsed = to.saturating_since(from);
        // Busy within the window: approximate with total busy scaled by
        // per-bin utilization over the window. With several fronts,
        // report the busiest one — the front that limits scale-out.
        let bw = crate::metrics::METRIC_BIN;
        let lo = (from.as_nanos() / bw.as_nanos()) as usize;
        let hi = (to.as_nanos() / bw.as_nanos()) as usize;
        let rdn_utilization = w
            .fronts
            .iter()
            .map(|f| {
                let util_bins = f.metrics.busy.per_bin_utilization();
                if hi > lo {
                    (lo..hi)
                        .map(|i| util_bins.get(i).copied().unwrap_or(0.0))
                        .sum::<f64>()
                        / (hi - lo) as f64
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        let _ = elapsed;
        let (conn_lookups, _) = w.fronts[0].conn_table.stats();
        ClusterReport {
            subscribers: rows,
            total_served,
            rdn_utilization,
            conn_lookups,
            conn_hit_rate: w.fronts[0].conn_table.hit_rate(),
            conn_evictions: w.fronts[0].conn_table.evictions(),
            window: (from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ClientRetryParams, ServiceCostModel};
    use gage_workload::{ArrivalProcess, SyntheticGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The timing wheel copies a whole `Ev` on every slot move and
    /// cascade, so its size is paid on every event the wheel moves:
    /// per-request variants carry a slab handle, fat payloads are boxed.
    #[test]
    fn event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    fn site(host: &str, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = SyntheticGenerator::new(2_000, 1);
        SiteSpec {
            host: host.to_string(),
            reservation: Grps(150.0),
            trace: Trace::generate(
                host,
                ArrivalProcess::Poisson { rate },
                horizon,
                &mut gen,
                &mut rng,
            ),
        }
    }

    /// A crash, a lossy link and a link slower than the client timeout:
    /// every per-request record is released once the run drains, and a
    /// response whose attempt a retry superseded counts nowhere.
    #[test]
    fn faulted_run_releases_every_request_record() {
        let params = ClusterParams {
            rpn_count: 4,
            service: ServiceCostModel::generic_requests(),
            client_retry: ClientRetryParams {
                timeout: SimDuration::from_secs(1),
                max_retries: 2,
                backoff: 2.0,
            },
            ..Default::default()
        };
        let horizon = 10.0;
        let sites = vec![
            site("a.example.com", 120.0, horizon, 1),
            site("b.example.com", 120.0, horizon, 2),
        ];
        let mut sim = ClusterSim::new(params, sites, 7);
        let mut plan = FaultPlan::new(3);
        plan.crash_for(SimTime::from_secs(3), 1, SimDuration::from_secs(3));
        // Frames to RPN 2 outlive the 1 s client timeout: each is served
        // after a retry has already superseded its attempt.
        plan.link_fault(
            SimTime::from_secs(2),
            SimTime::from_secs(5),
            Some(2),
            0.2,
            SimDuration::from_millis(1_500),
        );
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_secs(60));

        let w = sim.world();
        assert_eq!(w.attempts.len(), 0, "client attempts left behind");
        assert_eq!(w.wire.len(), 0, "dispatches left on the wire");
        for (r, rpn) in w.rpns.iter().enumerate() {
            assert_eq!(rpn.active.len(), 0, "rpn{r} active requests left");
        }
        let mut served = 0;
        for (i, m) in w.metrics.iter().enumerate() {
            let offered = m.offered.total() as u64;
            let resolved = m.served.total() + m.dropped.total() + m.failed.total();
            assert_eq!(offered, resolved as u64, "sub{i} conservation");
            served += m.served.total() as u64;
        }
        // Superseded attempts were served by the cluster, yet every
        // request still resolved exactly once at its client.
        let completed: u64 = w.rpns.iter().map(|r| r.completed_requests).sum();
        assert!(
            completed > served,
            "no superseded response: {completed} completions, {served} served"
        );
    }
}
