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
//! * **One schema** — every trace kind is declared once, in the
//!   `trace_table!` invocation below: its variant, dump name, docs and
//!   typed fields. The enum, the kind names ([`KINDS`]), the dump writer
//!   and the typed reader ([`TraceRecord::from_json`]) are all generated
//!   from that row, so the reader agrees with the writer by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use gage_des::SimTime;
use gage_json::Json;

/// Generates [`TraceEvent`], [`KINDS`], [`TraceEvent::kind`], the dump
/// writer [`TraceEvent::fields`] and the typed reader from one table. A
/// row is `Variant = "dump_name" { field: type, ... }` with its docs; the
/// field order is the order the dump writes them in.
macro_rules! trace_table {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )+
        }
    )+) => {
        /// One typed trace record payload.
        ///
        /// Every variant is `Copy` and scalar-only: emitting must not
        /// allocate. Endpoint addresses are carried as raw `u32` IPv4 bits
        /// + port so this crate needs no dependency on `gage-net`.
        ///
        /// Request-lifecycle variants carry a `req` id: a per-run
        /// monotonically assigned request identifier threaded end-to-end
        /// (client issue → RDN → RPN → splice → resolution) so the
        /// [`crate::spans`] reconstructor can fold a dump back into
        /// per-request causal timelines.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $variant { $( $(#[$fdoc])* $field: $ty, )+ }, )+
        }

        /// Every kind's dump name, in declaration order.
        pub const KINDS: &[&str] = &[$($name),+];

        impl TraceEvent {
            /// Stable snake_case kind name used in dumps and `tracedump`
            /// filters.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )+
                }
            }

            /// The payload as ordered JSON fields, as the dump writes them.
            pub fn fields(&self) -> Vec<(&'static str, Json)> {
                match *self {
                    $( TraceEvent::$variant { $($field),+ } => {
                        vec![$((stringify!($field), Json::from($field))),+]
                    } )+
                }
            }

            /// Reads a payload of kind `kind` back from a dump record.
            fn read(kind: &str, rec: &Json) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $( $name => TraceEvent::$variant {
                        $( $field: read_field(rec, stringify!($field))?, )+
                    }, )+
                    other => return Err(format!("unknown kind {other:?}")),
                })
            }
        }
    };
}

trace_table! {
    /// One scheduler cycle finished (`RequestScheduler::run_cycle_into`).
    SchedCycle = "sched_cycle" {
        /// Monotonic cycle number since scheduler construction.
        cycle: u64,
        /// Requests dispatched this cycle (reserved + spare).
        dispatched: u32,
        /// How many of those were funded by the spare pass.
        spare: u32,
        /// Total backlog across all subscriber queues after the cycle.
        backlog: u32,
    }
    /// One request left a subscriber queue for an RPN.
    Dispatch = "dispatch" {
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
    }
    /// A classified request was accepted into a subscriber queue.
    Enqueue = "enqueue" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Queue length after the insert.
        backlog: u32,
    }
    /// A classified request was dropped because its queue was full.
    Drop = "drop" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    }
    /// An RPN's local service manager built a splice for a connection.
    SpliceSetup = "splice_setup" {
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
    }
    /// A spliced connection completed and its remap state was retired.
    SpliceTeardown = "splice_teardown" {
        /// The request's run-wide id.
        req: u64,
        /// Client IPv4 address (raw bits).
        client_ip: u32,
        /// Client port.
        client_port: u16,
    }
    /// An RPN accounting report was reconciled at the RDN.
    AcctReport = "acct_report" {
        /// The reporting node.
        rpn: u16,
        /// Per-subscriber lines in the report.
        subscribers: u32,
        /// Requests completed across all lines.
        completed: u32,
    }
    /// An RPN's load estimate after reconciling its report.
    NodeLoad = "node_load" {
        /// The node.
        rpn: u16,
        /// Estimated load fraction of the node's dispatch window, `[0, 1+]`.
        load: f64,
    }
    /// The report watchdog wrote a node off (no report within the grace
    /// window) and the scheduler stopped dispatching to it.
    NodeDown = "node_down" {
        /// The node written off.
        rpn: u16,
    }
    /// A written-off node's report arrived again and the scheduler resumed
    /// dispatching to it (the watchdog's symmetric up-path).
    NodeUp = "node_up" {
        /// The node readmitted.
        rpn: u16,
    }
    /// A fault plan (or `schedule_rpn_crash`) fail-stopped an RPN: all its
    /// in-flight work is lost and its accounting chain goes silent.
    RpnCrash = "rpn_crash" {
        /// The crashed node.
        rpn: u16,
    }
    /// A fault plan rebooted a crashed RPN: cold caches, fresh process
    /// table, accounting chain restarted.
    RpnRecover = "rpn_recover" {
        /// The recovered node.
        rpn: u16,
    }
    /// A client request timed out and is being retried on a new connection
    /// (bounded deterministic backoff).
    RequestRetry = "request_retry" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id (stable across retries).
        req: u64,
        /// Retry attempt number just started (1 = first retry).
        attempt: u32,
    }
    /// A client request exhausted its retries and terminally failed — the
    /// third conservation bucket next to served and dropped.
    RequestFailed = "request_failed" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Total attempts made (initial try + retries).
        attempts: u32,
    }
    /// The RDN purged a written-off node's splice routes from its
    /// connection table.
    RoutesPurged = "routes_purged" {
        /// The node whose routes were removed.
        rpn: u16,
        /// Entries removed.
        count: u32,
    }
    /// A dispatch addressed to a dead node was intercepted and re-queued at
    /// the front of its subscriber's queue (its booking refunded).
    DispatchRequeued = "dispatch_requeue" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The dead node the dispatch was bound for.
        rpn: u16,
    }
    /// The scheduler re-scaled effective reservations because live capacity
    /// fell below (or recovered to cover) the sum of reservations.
    ReservationScale = "reservation_scale" {
        /// Multiplier applied to every reservation this cycle, `(0, 1]`.
        scale: f64,
    }
    /// A client issued a request — the start of its causal timeline and the
    /// unit the conservation invariant counts (`offered`).
    ReqArrival = "req_arrival" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    }
    /// A client received its response — the `served` terminal state.
    ReqServed = "req_served" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    }
    /// A client's request was refused at admission (queue full, RST) —
    /// the `dropped` terminal state.
    ReqDropped = "req_dropped" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    }
    /// An RPN finished servicing a request (response handed to the NIC).
    /// Not a terminal state — the client still has to receive it.
    ReqComplete = "req_complete" {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The node that serviced it.
        rpn: u16,
    }
    /// A subscriber's configured reservation, emitted once when tracing is
    /// enabled so dumps are self-describing for the conformance auditor.
    Reservation = "reservation" {
        /// The subscriber.
        sub: u32,
        /// Reserved general requests per second.
        grps: f64,
        /// The RDN shard the subscriber is homed on (0 with one RDN).
        shard: u16,
    }
    /// Periodic snapshot of the DES event queue's depth and lifetime
    /// counts (emitted every 64th scheduling cycle). Counts that depend
    /// on the queue's internal layout, such as timing-wheel cascades, are
    /// left to the metrics registry (`des.wheel_cascades`), so the dump's
    /// bytes depend only on the events the model scheduled.
    QueueStats = "queue_stats" {
        /// Events pending in the queue at the snapshot.
        depth: u32,
        /// Lifetime events scheduled.
        scheduled: u64,
        /// Lifetime events cancelled before firing.
        cancelled: u64,
    }
    /// A fault plan fail-stopped a front-end RDN: its scheduler state,
    /// connection routes and accounting epoch are lost; its subscriber
    /// shard fails over to a surviving peer after the watchdog grace.
    RdnCrash = "rdn_crash" {
        /// The crashed front end.
        rdn: u16,
    }
    /// A fault plan rebooted a crashed RDN: fresh scheduler, new
    /// accounting epoch; its home shard fails back at the next cycle.
    RdnRecover = "rdn_recover" {
        /// The recovered front end.
        rdn: u16,
    }
    /// One RDN gossiped its replicated accounting table to a peer.
    ReportGossip = "report_gossip" {
        /// The sending front end.
        from: u16,
        /// The receiving front end.
        to: u16,
        /// Rows in the gossiped snapshot.
        rows: u32,
    }
    /// A subscriber shard changed owner (failover to a surviving peer, or
    /// failback to its recovered home RDN).
    ShardTakeover = "shard_takeover" {
        /// The shard that moved.
        shard: u16,
        /// The previous owner.
        from: u16,
        /// The new owner.
        to: u16,
        /// Subscribers in the shard.
        subs: u32,
    }
    /// A gossiped accounting snapshot was merged into a peer's table.
    AcctMerge = "acct_merge" {
        /// The merging front end.
        rdn: u16,
        /// The snapshot's sender.
        from: u16,
        /// Rows the merge actually changed (0 = duplicate delivery).
        changed: u32,
    }
}

/// A scalar a trace field can hold, read back from dump JSON with exactly
/// the range of its Rust type: a value that does not fit is an error, never
/// silently narrowed.
trait FieldValue: Sized {
    /// The type's name, for error messages.
    const NAME: &'static str;
    /// The value, if `v` holds one in range.
    fn from_json(v: &Json) -> Option<Self>;
}

impl FieldValue for u64 {
    const NAME: &'static str = "u64";
    fn from_json(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl FieldValue for u32 {
    const NAME: &'static str = "u32";
    fn from_json(v: &Json) -> Option<u32> {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    }
}

impl FieldValue for u16 {
    const NAME: &'static str = "u16";
    fn from_json(v: &Json) -> Option<u16> {
        v.as_u64().and_then(|n| u16::try_from(n).ok())
    }
}

impl FieldValue for bool {
    const NAME: &'static str = "bool";
    fn from_json(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

impl FieldValue for f64 {
    const NAME: &'static str = "f64";
    /// JSON has no infinities or NaN, so the writer emits every non-finite
    /// value as `null`; `null` reads back as NaN, the one value that says
    /// "not a finite number" without claiming which.
    fn from_json(v: &Json) -> Option<f64> {
        match v {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

fn read_field<T: FieldValue>(rec: &Json, key: &str) -> Result<T, String> {
    let v = rec
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    T::from_json(v).ok_or_else(|| format!("field {key:?} is not a {}: {v}", T::NAME))
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

impl TraceRecord {
    /// The record as one dump line's object: `seq`, `t_ns`, `kind`, then
    /// the payload fields in declaration order.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::from(self.seq)),
            ("t_ns", Json::from(self.at.as_nanos())),
            ("kind", Json::str(self.event.kind())),
        ];
        pairs.extend(self.event.fields());
        Json::obj(pairs)
    }

    /// Reads one dump line's object back into a typed record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the record's kind and the offending field
    /// if the kind is unknown, or a field is missing or out of its type's
    /// range. Unknown extra fields are ignored.
    pub fn from_json(rec: &Json) -> Result<TraceRecord, String> {
        let kind = rec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "record missing kind".to_string())?;
        let stamp = |rec| -> Result<TraceRecord, String> {
            Ok(TraceRecord {
                seq: read_field(rec, "seq")?,
                at: SimTime::from_nanos(read_field(rec, "t_ns")?),
                event: TraceEvent::read(kind, rec)?,
            })
        };
        stamp(rec).map_err(|e| format!("{kind} record: {e}"))
    }
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
            out.push_str(&r.to_json().to_string());
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
        let subs: Vec<u32> = r
            .iter()
            .map(|x| match x.event {
                TraceEvent::Drop { sub, .. } => sub,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
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
