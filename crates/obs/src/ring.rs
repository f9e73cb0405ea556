//! The structured trace ring: typed records, a fixed-capacity overwriting
//! buffer, and the cheap [`Tracer`] handle subsystems emit through.
//!
//! Design constraints (see DESIGN.md §11):
//!
//! * **Zero allocation on the hot path** — a [`TraceEvent`] is a `Copy`
//!   enum of plain scalars; emitting writes one record into a slot of a
//!   buffer allocated once at enable time. Strings appear only at dump
//!   time.
//! * **Deterministic** — records are stamped with [`SimTime`] (set by the
//!   simulation loop via [`Tracer::set_now`]), never a wall clock, so two
//!   same-seed runs produce byte-identical dumps.
//! * **Cheaply disableable** — a disabled [`Tracer`] is `None` inside; every
//!   emit is a single branch and the ring is never allocated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use gage_des::SimTime;
use gage_json::Json;

/// One typed trace record payload.
///
/// Every variant is `Copy` and scalar-only: emitting must not allocate.
/// Endpoint addresses are carried as raw `u32` IPv4 bits + port so this
/// crate needs no dependency on `gage-net`.
///
/// Request-lifecycle variants carry a `req` id: a per-run monotonically
/// assigned request identifier threaded end-to-end (client issue → RDN →
/// RPN → splice → resolution) so the [`crate::spans`] reconstructor can
/// fold a dump back into per-request causal timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// One scheduler cycle finished (`RequestScheduler::run_cycle_into`).
    SchedCycle {
        /// Monotonic cycle number since scheduler construction.
        cycle: u64,
        /// Requests dispatched this cycle (reserved + spare).
        dispatched: u32,
        /// How many of those were funded by the spare pass.
        spare: u32,
        /// Total backlog across all subscriber queues after the cycle.
        backlog: u32,
    },
    /// One request left a subscriber queue for an RPN.
    Dispatch {
        /// The queue the request came from.
        sub: u32,
        /// The request's run-wide id (0 when the scheduler's request type
        /// carries no identity).
        req: u64,
        /// The chosen node.
        rpn: u16,
        /// Whether the spare pass (rather than the reservation) funded it.
        spare: bool,
        /// Predicted CPU cost booked for the request, µs.
        predicted_cpu_us: f64,
        /// The subscriber's CPU credit balance after booking, µs.
        balance_cpu_us: f64,
    },
    /// A classified request was accepted into a subscriber queue.
    Enqueue {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Queue length after the insert.
        backlog: u32,
    },
    /// A classified request was dropped because its queue was full.
    Drop {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// An RPN's local service manager built a splice for a connection.
    SpliceSetup {
        /// The request's run-wide id.
        req: u64,
        /// Client IPv4 address (raw bits).
        client_ip: u32,
        /// Client port.
        client_port: u16,
        /// Servicing RPN's IPv4 address (raw bits).
        rpn_ip: u32,
        /// `rdn_isn - rpn_isn` on the sequence circle.
        seq_delta: u32,
    },
    /// A spliced connection completed and its remap state was retired.
    SpliceTeardown {
        /// The request's run-wide id.
        req: u64,
        /// Client IPv4 address (raw bits).
        client_ip: u32,
        /// Client port.
        client_port: u16,
    },
    /// An RPN accounting report was reconciled at the RDN.
    AcctReport {
        /// The reporting node.
        rpn: u16,
        /// Per-subscriber lines in the report.
        subscribers: u32,
        /// Requests completed across all lines.
        completed: u32,
    },
    /// An RPN's load estimate after reconciling its report.
    NodeLoad {
        /// The node.
        rpn: u16,
        /// Estimated load fraction of the node's dispatch window, `[0, 1+]`.
        load: f64,
    },
    /// The report watchdog wrote a node off (no report within the grace
    /// window) and the scheduler stopped dispatching to it.
    NodeDown {
        /// The node written off.
        rpn: u16,
    },
    /// A written-off node's report arrived again and the scheduler resumed
    /// dispatching to it (the watchdog's symmetric up-path).
    NodeUp {
        /// The node readmitted.
        rpn: u16,
    },
    /// A fault plan (or `schedule_rpn_crash`) fail-stopped an RPN: all its
    /// in-flight work is lost and its accounting chain goes silent.
    RpnCrash {
        /// The crashed node.
        rpn: u16,
    },
    /// A fault plan rebooted a crashed RPN: cold caches, fresh process
    /// table, accounting chain restarted.
    RpnRecover {
        /// The recovered node.
        rpn: u16,
    },
    /// A client request timed out and is being retried on a new connection
    /// (bounded deterministic backoff).
    RequestRetry {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id (stable across retries).
        req: u64,
        /// Retry attempt number just started (1 = first retry).
        attempt: u32,
    },
    /// A client request exhausted its retries and terminally failed — the
    /// third conservation bucket next to served and dropped.
    RequestFailed {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Total attempts made (initial try + retries).
        attempts: u32,
    },
    /// The RDN purged a written-off node's splice routes from its
    /// connection table.
    RoutesPurged {
        /// The node whose routes were removed.
        rpn: u16,
        /// Entries removed.
        count: u32,
    },
    /// A dispatch addressed to a dead node was intercepted and re-queued at
    /// the front of its subscriber's queue (its booking refunded).
    DispatchRequeued {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The dead node the dispatch was bound for.
        rpn: u16,
    },
    /// The scheduler re-scaled effective reservations because live capacity
    /// fell below (or recovered to cover) the sum of reservations.
    ReservationScale {
        /// Multiplier applied to every reservation this cycle, `(0, 1]`.
        scale: f64,
    },
    /// A client issued a request — the start of its causal timeline and the
    /// unit the conservation invariant counts (`offered`).
    ReqArrival {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// A client received its response — the `served` terminal state.
    ReqServed {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// A client's request was refused at admission (queue full, RST) —
    /// the `dropped` terminal state.
    ReqDropped {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// An RPN finished servicing a request (response handed to the NIC).
    /// Not a terminal state — the client still has to receive it.
    ReqComplete {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The node that serviced it.
        rpn: u16,
    },
    /// A subscriber's configured reservation, emitted once when tracing is
    /// enabled so dumps are self-describing for the conformance auditor.
    Reservation {
        /// The subscriber.
        sub: u32,
        /// Reserved general requests per second.
        grps: f64,
        /// The RDN shard the subscriber is homed on (0 with one RDN).
        shard: u16,
    },
    /// Periodic snapshot of the DES event queue's depth and lifetime
    /// counts (emitted every 64th scheduling cycle). Counts that depend
    /// on the queue's internal layout, such as timing-wheel cascades, are
    /// left to the metrics registry (`des.wheel_cascades`), so the dump's
    /// bytes depend only on the events the model scheduled.
    QueueStats {
        /// Events pending in the queue at the snapshot.
        depth: u32,
        /// Lifetime events scheduled.
        scheduled: u64,
        /// Lifetime events cancelled before firing.
        cancelled: u64,
    },
    /// A fault plan fail-stopped a front-end RDN: its scheduler state,
    /// connection routes and accounting epoch are lost; its subscriber
    /// shard fails over to a surviving peer after the watchdog grace.
    RdnCrash {
        /// The crashed front end.
        rdn: u16,
    },
    /// A fault plan rebooted a crashed RDN: fresh scheduler, new
    /// accounting epoch; its home shard fails back at the next cycle.
    RdnRecover {
        /// The recovered front end.
        rdn: u16,
    },
    /// One RDN gossiped its replicated accounting table to a peer.
    ReportGossip {
        /// The sending front end.
        from: u16,
        /// The receiving front end.
        to: u16,
        /// Rows in the gossiped snapshot.
        rows: u32,
    },
    /// A subscriber shard changed owner (failover to a surviving peer, or
    /// failback to its recovered home RDN).
    ShardTakeover {
        /// The shard that moved.
        shard: u16,
        /// The previous owner.
        from: u16,
        /// The new owner.
        to: u16,
        /// Subscribers in the shard.
        subs: u32,
    },
    /// A gossiped accounting snapshot was merged into a peer's table.
    AcctMerge {
        /// The merging front end.
        rdn: u16,
        /// The snapshot's sender.
        from: u16,
        /// Rows the merge actually changed (0 = duplicate delivery).
        changed: u32,
    },
}

/// The fieldless tag of a [`TraceEvent`] variant.
///
/// Analysis code (the span reconstructor in [`crate::spans`], kind filters
/// in `tracedump`) matches on this enum rather than on raw strings, so the
/// compiler — backed by the `trace-kind-exhaustive` lint rule — can prove
/// every trace kind is handled when a new variant is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// `sched_cycle`
    SchedCycle,
    /// `dispatch`
    Dispatch,
    /// `enqueue`
    Enqueue,
    /// `drop`
    Drop,
    /// `splice_setup`
    SpliceSetup,
    /// `splice_teardown`
    SpliceTeardown,
    /// `acct_report`
    AcctReport,
    /// `node_load`
    NodeLoad,
    /// `node_down`
    NodeDown,
    /// `node_up`
    NodeUp,
    /// `rpn_crash`
    RpnCrash,
    /// `rpn_recover`
    RpnRecover,
    /// `request_retry`
    RequestRetry,
    /// `request_failed`
    RequestFailed,
    /// `routes_purged`
    RoutesPurged,
    /// `dispatch_requeue`
    DispatchRequeued,
    /// `reservation_scale`
    ReservationScale,
    /// `req_arrival`
    ReqArrival,
    /// `req_served`
    ReqServed,
    /// `req_dropped`
    ReqDropped,
    /// `req_complete`
    ReqComplete,
    /// `reservation`
    Reservation,
    /// `queue_stats`
    QueueStats,
    /// `rdn_crash`
    RdnCrash,
    /// `rdn_recover`
    RdnRecover,
    /// `report_gossip`
    ReportGossip,
    /// `shard_takeover`
    ShardTakeover,
    /// `acct_merge`
    AcctMerge,
}

impl TraceKind {
    /// Every kind, in declaration order.
    pub const ALL: [TraceKind; 28] = [
        TraceKind::SchedCycle,
        TraceKind::Dispatch,
        TraceKind::Enqueue,
        TraceKind::Drop,
        TraceKind::SpliceSetup,
        TraceKind::SpliceTeardown,
        TraceKind::AcctReport,
        TraceKind::NodeLoad,
        TraceKind::NodeDown,
        TraceKind::NodeUp,
        TraceKind::RpnCrash,
        TraceKind::RpnRecover,
        TraceKind::RequestRetry,
        TraceKind::RequestFailed,
        TraceKind::RoutesPurged,
        TraceKind::DispatchRequeued,
        TraceKind::ReservationScale,
        TraceKind::ReqArrival,
        TraceKind::ReqServed,
        TraceKind::ReqDropped,
        TraceKind::ReqComplete,
        TraceKind::Reservation,
        TraceKind::QueueStats,
        TraceKind::RdnCrash,
        TraceKind::RdnRecover,
        TraceKind::ReportGossip,
        TraceKind::ShardTakeover,
        TraceKind::AcctMerge,
    ];

    /// Stable snake_case tag used in dumps and `tracedump` filters.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::SchedCycle => "sched_cycle",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Enqueue => "enqueue",
            TraceKind::Drop => "drop",
            TraceKind::SpliceSetup => "splice_setup",
            TraceKind::SpliceTeardown => "splice_teardown",
            TraceKind::AcctReport => "acct_report",
            TraceKind::NodeLoad => "node_load",
            TraceKind::NodeDown => "node_down",
            TraceKind::NodeUp => "node_up",
            TraceKind::RpnCrash => "rpn_crash",
            TraceKind::RpnRecover => "rpn_recover",
            TraceKind::RequestRetry => "request_retry",
            TraceKind::RequestFailed => "request_failed",
            TraceKind::RoutesPurged => "routes_purged",
            TraceKind::DispatchRequeued => "dispatch_requeue",
            TraceKind::ReservationScale => "reservation_scale",
            TraceKind::ReqArrival => "req_arrival",
            TraceKind::ReqServed => "req_served",
            TraceKind::ReqDropped => "req_dropped",
            TraceKind::ReqComplete => "req_complete",
            TraceKind::Reservation => "reservation",
            TraceKind::QueueStats => "queue_stats",
            TraceKind::RdnCrash => "rdn_crash",
            TraceKind::RdnRecover => "rdn_recover",
            TraceKind::ReportGossip => "report_gossip",
            TraceKind::ShardTakeover => "shard_takeover",
            TraceKind::AcctMerge => "acct_merge",
        }
    }

    /// Parses a dump tag back into a kind; `None` for unknown tags.
    pub fn parse(tag: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.as_str() == tag)
    }
}

impl TraceEvent {
    /// The variant's fieldless tag.
    pub fn kind_tag(&self) -> TraceKind {
        match self {
            TraceEvent::SchedCycle { .. } => TraceKind::SchedCycle,
            TraceEvent::Dispatch { .. } => TraceKind::Dispatch,
            TraceEvent::Enqueue { .. } => TraceKind::Enqueue,
            TraceEvent::Drop { .. } => TraceKind::Drop,
            TraceEvent::SpliceSetup { .. } => TraceKind::SpliceSetup,
            TraceEvent::SpliceTeardown { .. } => TraceKind::SpliceTeardown,
            TraceEvent::AcctReport { .. } => TraceKind::AcctReport,
            TraceEvent::NodeLoad { .. } => TraceKind::NodeLoad,
            TraceEvent::NodeDown { .. } => TraceKind::NodeDown,
            TraceEvent::NodeUp { .. } => TraceKind::NodeUp,
            TraceEvent::RpnCrash { .. } => TraceKind::RpnCrash,
            TraceEvent::RpnRecover { .. } => TraceKind::RpnRecover,
            TraceEvent::RequestRetry { .. } => TraceKind::RequestRetry,
            TraceEvent::RequestFailed { .. } => TraceKind::RequestFailed,
            TraceEvent::RoutesPurged { .. } => TraceKind::RoutesPurged,
            TraceEvent::DispatchRequeued { .. } => TraceKind::DispatchRequeued,
            TraceEvent::ReservationScale { .. } => TraceKind::ReservationScale,
            TraceEvent::ReqArrival { .. } => TraceKind::ReqArrival,
            TraceEvent::ReqServed { .. } => TraceKind::ReqServed,
            TraceEvent::ReqDropped { .. } => TraceKind::ReqDropped,
            TraceEvent::ReqComplete { .. } => TraceKind::ReqComplete,
            TraceEvent::Reservation { .. } => TraceKind::Reservation,
            TraceEvent::QueueStats { .. } => TraceKind::QueueStats,
            TraceEvent::RdnCrash { .. } => TraceKind::RdnCrash,
            TraceEvent::RdnRecover { .. } => TraceKind::RdnRecover,
            TraceEvent::ReportGossip { .. } => TraceKind::ReportGossip,
            TraceEvent::ShardTakeover { .. } => TraceKind::ShardTakeover,
            TraceEvent::AcctMerge { .. } => TraceKind::AcctMerge,
        }
    }

    /// Stable snake_case kind tag used in dumps and `tracedump` filters.
    pub fn kind(&self) -> &'static str {
        self.kind_tag().as_str()
    }

    /// The subscriber this record is about, for per-subscriber filtering.
    pub fn subscriber(&self) -> Option<u32> {
        match self {
            TraceEvent::Dispatch { sub, .. }
            | TraceEvent::Enqueue { sub, .. }
            | TraceEvent::Drop { sub, .. }
            | TraceEvent::RequestRetry { sub, .. }
            | TraceEvent::RequestFailed { sub, .. }
            | TraceEvent::DispatchRequeued { sub, .. }
            | TraceEvent::ReqArrival { sub, .. }
            | TraceEvent::ReqServed { sub, .. }
            | TraceEvent::ReqDropped { sub, .. }
            | TraceEvent::ReqComplete { sub, .. }
            | TraceEvent::Reservation { sub, .. } => Some(*sub),
            _ => None,
        }
    }

    /// The request id this record is about, for per-request filtering.
    /// `None` for records not tied to one request (and for records whose
    /// emitter carries no request identity, where `req` is 0).
    pub fn request(&self) -> Option<u64> {
        match self {
            TraceEvent::Dispatch { req, .. }
            | TraceEvent::Enqueue { req, .. }
            | TraceEvent::Drop { req, .. }
            | TraceEvent::SpliceSetup { req, .. }
            | TraceEvent::SpliceTeardown { req, .. }
            | TraceEvent::RequestRetry { req, .. }
            | TraceEvent::RequestFailed { req, .. }
            | TraceEvent::DispatchRequeued { req, .. }
            | TraceEvent::ReqArrival { req, .. }
            | TraceEvent::ReqServed { req, .. }
            | TraceEvent::ReqDropped { req, .. }
            | TraceEvent::ReqComplete { req, .. } => Some(*req),
            _ => None,
        }
    }

    /// The record's payload as ordered JSON fields (dump time only).
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            TraceEvent::SchedCycle {
                cycle,
                dispatched,
                spare,
                backlog,
            } => vec![
                ("cycle", Json::from(cycle)),
                ("dispatched", Json::from(dispatched)),
                ("spare", Json::from(spare)),
                ("backlog", Json::from(backlog)),
            ],
            TraceEvent::Dispatch {
                sub,
                req,
                rpn,
                spare,
                predicted_cpu_us,
                balance_cpu_us,
            } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("rpn", Json::from(rpn)),
                ("spare", Json::from(spare)),
                ("predicted_cpu_us", Json::from(predicted_cpu_us)),
                ("balance_cpu_us", Json::from(balance_cpu_us)),
            ],
            TraceEvent::Enqueue { sub, req, backlog } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("backlog", Json::from(backlog)),
            ],
            TraceEvent::Drop { sub, req } => {
                vec![("sub", Json::from(sub)), ("req", Json::from(req))]
            }
            TraceEvent::SpliceSetup {
                req,
                client_ip,
                client_port,
                rpn_ip,
                seq_delta,
            } => vec![
                ("req", Json::from(req)),
                ("client_ip", Json::from(client_ip)),
                ("client_port", Json::from(client_port)),
                ("rpn_ip", Json::from(rpn_ip)),
                ("seq_delta", Json::from(seq_delta)),
            ],
            TraceEvent::SpliceTeardown {
                req,
                client_ip,
                client_port,
            } => vec![
                ("req", Json::from(req)),
                ("client_ip", Json::from(client_ip)),
                ("client_port", Json::from(client_port)),
            ],
            TraceEvent::AcctReport {
                rpn,
                subscribers,
                completed,
            } => vec![
                ("rpn", Json::from(rpn)),
                ("subscribers", Json::from(subscribers)),
                ("completed", Json::from(completed)),
            ],
            TraceEvent::NodeLoad { rpn, load } => {
                vec![("rpn", Json::from(rpn)), ("load", Json::from(load))]
            }
            TraceEvent::NodeDown { rpn }
            | TraceEvent::NodeUp { rpn }
            | TraceEvent::RpnCrash { rpn }
            | TraceEvent::RpnRecover { rpn } => vec![("rpn", Json::from(rpn))],
            TraceEvent::RequestRetry { sub, req, attempt } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("attempt", Json::from(attempt)),
            ],
            TraceEvent::RequestFailed { sub, req, attempts } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("attempts", Json::from(attempts)),
            ],
            TraceEvent::RoutesPurged { rpn, count } => {
                vec![("rpn", Json::from(rpn)), ("count", Json::from(count))]
            }
            TraceEvent::DispatchRequeued { sub, req, rpn } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("rpn", Json::from(rpn)),
            ],
            TraceEvent::ReservationScale { scale } => vec![("scale", Json::from(scale))],
            TraceEvent::ReqArrival { sub, req }
            | TraceEvent::ReqServed { sub, req }
            | TraceEvent::ReqDropped { sub, req } => {
                vec![("sub", Json::from(sub)), ("req", Json::from(req))]
            }
            TraceEvent::ReqComplete { sub, req, rpn } => vec![
                ("sub", Json::from(sub)),
                ("req", Json::from(req)),
                ("rpn", Json::from(rpn)),
            ],
            TraceEvent::Reservation { sub, grps, shard } => vec![
                ("sub", Json::from(sub)),
                ("grps", Json::from(grps)),
                ("shard", Json::from(shard)),
            ],
            TraceEvent::QueueStats {
                depth,
                scheduled,
                cancelled,
            } => vec![
                ("depth", Json::from(depth)),
                ("scheduled", Json::from(scheduled)),
                ("cancelled", Json::from(cancelled)),
            ],
            TraceEvent::RdnCrash { rdn } | TraceEvent::RdnRecover { rdn } => {
                vec![("rdn", Json::from(rdn))]
            }
            TraceEvent::ReportGossip { from, to, rows } => vec![
                ("from", Json::from(from)),
                ("to", Json::from(to)),
                ("rows", Json::from(rows)),
            ],
            TraceEvent::ShardTakeover {
                shard,
                from,
                to,
                subs,
            } => vec![
                ("shard", Json::from(shard)),
                ("from", Json::from(from)),
                ("to", Json::from(to)),
                ("subs", Json::from(subs)),
            ],
            TraceEvent::AcctMerge { rdn, from, changed } => vec![
                ("rdn", Json::from(rdn)),
                ("from", Json::from(from)),
                ("changed", Json::from(changed)),
            ],
        }
    }
}

/// One stamped record in the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Monotonic emission number (survives wraparound, so gaps in a dump
    /// reveal exactly how much history the ring overwrote).
    pub seq: u64,
    /// Simulated instant the record was emitted at.
    pub at: SimTime,
    /// The payload.
    pub event: TraceEvent,
}

/// Schema tag stamped into the first line of every dump.
pub const TRACE_SCHEMA: &str = "gage-trace-v1";

/// A fixed-capacity ring of [`TraceRecord`]s. When full, the oldest record
/// is overwritten and counted in [`TraceRing::overwritten`].
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Next slot to write (wraps at `capacity`).
    next: usize,
    overwritten: u64,
    emitted: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records. The buffer is
    /// allocated up front; pushes never allocate.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (configuration error, not runtime
    /// input).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            overwritten: 0,
            emitted: 0,
        }
    }

    /// Appends a record, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.emitted,
            at,
            event,
        };
        self.emitted += 1;
        // Branch instead of `%`: the capacity is not a compile-time constant,
        // and an integer divide on every push is measurable at the traced
        // cluster simulation's event rate.
        if self.buf.len() < self.capacity {
            self.buf.push(record);
            self.next = if self.buf.len() == self.capacity {
                0
            } else {
                self.buf.len()
            };
        } else {
            self.buf[self.next] = record;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to overwriting since creation.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total records ever emitted (retained + overwritten).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Serializes the ring as a line-oriented dump: a header object, then
    /// one JSON object per retained record, oldest first. Same-seed runs
    /// produce byte-identical dumps (the determinism contract the cluster
    /// test suite enforces).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("schema", Json::str(TRACE_SCHEMA)),
            ("emitted", Json::from(self.emitted)),
            ("retained", Json::from(self.len())),
            ("overwritten", Json::from(self.overwritten)),
            ("capacity", Json::from(self.capacity)),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for r in self.iter() {
            let mut pairs = vec![
                ("seq", Json::from(r.seq)),
                ("t_ns", Json::from(r.at.as_nanos())),
                ("kind", Json::str(r.event.kind())),
            ];
            pairs.extend(r.event.fields());
            out.push_str(&Json::obj(pairs).to_string());
            out.push('\n');
        }
        out
    }
}

/// Shared tracer state: the ring plus the "current instant" the emitting
/// subsystems are stamped with.
#[derive(Debug)]
struct TraceShared {
    /// Current simulated instant, nanoseconds. An atomic so `set_now` and
    /// `emit` need no lock ordering; in the single-threaded simulator this
    /// is simply a cell.
    now_ns: AtomicU64,
    ring: Mutex<TraceRing>,
}

/// A cheap, cloneable handle subsystems emit trace records through.
///
/// Disabled (the default) it is a `None` inside: every call is one branch
/// and nothing is allocated. Enabled, it shares one [`TraceRing`] among all
/// clones — the scheduler, the cluster world and the splice layer all write
/// into the same time-ordered stream.
///
/// ```rust
/// use gage_obs::{TraceEvent, Tracer};
/// use gage_des::SimTime;
///
/// let t = Tracer::enabled(1024);
/// t.set_now(SimTime::from_millis(10));
/// t.emit(TraceEvent::Drop { sub: 3, req: 17 });
/// let dump = t.dump().expect("enabled tracer dumps");
/// assert!(dump.lines().count() == 2); // header + one record
/// assert!(Tracer::disabled().dump().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TraceShared>>,
}

impl Tracer {
    /// A tracer that drops every record (near-zero cost: one branch).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer backed by a fresh ring of `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer {
            shared: Some(Arc::new(TraceShared {
                now_ns: AtomicU64::new(0),
                ring: Mutex::new(TraceRing::new(capacity)),
            })),
        }
    }

    /// Whether records are being retained. Emitters can use this to skip
    /// computing record payloads entirely when tracing is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Sets the instant subsequent [`Tracer::emit`] calls are stamped with.
    /// The simulation loop calls this as virtual time advances; a no-op
    /// when disabled.
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(s) = &self.shared {
            s.now_ns.store(now.as_nanos(), Ordering::Relaxed);
        }
    }

    /// Emits a record stamped with the instant from [`Tracer::set_now`].
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(s) = &self.shared {
            let at = SimTime::from_nanos(s.now_ns.load(Ordering::Relaxed));
            s.ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(at, event);
        }
    }

    /// Emits a record stamped with an explicit instant.
    #[inline]
    pub fn emit_at(&self, at: SimTime, event: TraceEvent) {
        if let Some(s) = &self.shared {
            s.ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(at, event);
        }
    }

    /// Runs `f` against the underlying ring; `None` when disabled.
    pub fn with_ring<R>(&self, f: impl FnOnce(&TraceRing) -> R) -> Option<R> {
        self.shared
            .as_ref()
            .map(|s| f(&s.ring.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Serializes the ring (see [`TraceRing::dump`]); `None` when disabled.
    pub fn dump(&self) -> Option<String> {
        self.with_ring(TraceRing::dump)
    }

    /// Records lost to ring overwriting so far (0 when disabled).
    pub fn overwritten(&self) -> u64 {
        self.with_ring(TraceRing::overwritten).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sub: u32) -> TraceEvent {
        TraceEvent::Drop {
            sub,
            req: sub as u64,
        }
    }

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

    #[test]
    fn ring_retains_in_emission_order() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.emitted(), 5);
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(r.len(), 4, "capacity bounds retention");
        assert_eq!(r.overwritten(), 6, "six records lost");
        assert_eq!(r.emitted(), 10);
        // The survivors are exactly the newest four, oldest-first.
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let subs: Vec<u32> = r.iter().filter_map(|x| x.event.subscriber()).collect();
        assert_eq!(subs, vec![6, 7, 8, 9]);
        // Exactly at the boundary there is no loss.
        let mut exact = TraceRing::new(4);
        for i in 0..4u64 {
            exact.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(exact.overwritten(), 0);
        assert_eq!(exact.iter().count(), 4);
    }

    #[test]
    fn dump_header_reflects_overflow() {
        let mut r = TraceRing::new(2);
        for i in 0..3u64 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        let dump = r.dump();
        let mut lines = dump.lines();
        let header = gage_json::parse(lines.next().expect("header")).expect("valid json");
        assert_eq!(
            header.get("schema").and_then(gage_json::Json::as_str),
            Some(TRACE_SCHEMA)
        );
        assert_eq!(
            header.get("overwritten").and_then(gage_json::Json::as_u64),
            Some(1)
        );
        assert_eq!(
            header.get("retained").and_then(gage_json::Json::as_u64),
            Some(2)
        );
        assert_eq!(lines.count(), 2, "one line per retained record");
    }

    #[test]
    fn every_kind_dumps_and_parses() {
        let events = one_of_each();
        assert_eq!(
            events.len(),
            TraceKind::ALL.len(),
            "one_of_each must cover every kind"
        );
        let mut r = TraceRing::new(32);
        for (i, e) in events.iter().enumerate() {
            r.push(SimTime::from_millis(i as u64), *e);
        }
        let dump = r.dump();
        for (line, e) in dump.lines().skip(1).zip(&events) {
            let v = gage_json::parse(line).expect("record parses");
            assert_eq!(
                v.get("kind").and_then(gage_json::Json::as_str),
                Some(e.kind())
            );
        }
    }

    #[test]
    fn trace_kind_tags_roundtrip() {
        // ALL covers each variant exactly once, tags are unique, and
        // parse() inverts as_str().
        let mut tags: Vec<&str> = TraceKind::ALL.iter().map(|k| k.as_str()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), TraceKind::ALL.len(), "tags must be unique");
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(TraceKind::parse("no_such_kind"), None);
        // kind_tag() agrees with kind() for every variant.
        for e in one_of_each() {
            assert_eq!(e.kind_tag().as_str(), e.kind());
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.set_now(SimTime::from_secs(1));
        t.emit(ev(0));
        assert!(t.dump().is_none());
        assert_eq!(t.overwritten(), 0);
    }

    #[test]
    fn tracer_clones_share_one_ring() {
        let t = Tracer::enabled(8);
        let clone = t.clone();
        t.set_now(SimTime::from_millis(5));
        clone.emit(ev(1));
        t.emit_at(SimTime::from_millis(7), ev(2));
        let records: Vec<(u64, u64)> = t
            .with_ring(|r| r.iter().map(|x| (x.seq, x.at.as_nanos())).collect())
            .expect("enabled");
        assert_eq!(records, vec![(0, 5_000_000), (1, 7_000_000)]);
    }
}
