//! Per-request causal timelines reconstructed from a trace dump.
//!
//! A [`TraceRing`](crate::TraceRing) dump is a flat, time-ordered stream of
//! events from every subsystem at once. This module folds that stream back
//! into one [`Span`] per request — arrival → classify → enqueue → dispatch
//! → splice → terminal state, including crash-era requeues and client
//! retries — with per-stage durations (queue wait, service, splice legs,
//! retry backoff), the same request-path accounting Magpie/X-Trace apply to
//! real systems, here exact because the stream is deterministic.
//!
//! The reconstruction enforces a hard invariant: **every request resolves
//! into at most one terminal state** (`req_served`, `req_dropped` or
//! `request_failed` — exactly the three conservation buckets of
//! `SubscriberMetrics`). A second terminal for the same request id is a
//! reconstruction error; a request with no terminal is *unterminated* and
//! reported so callers (the `gage-audit` binary, the CI smoke job) can fail
//! on it.
//!
//! The fold matches on [`TraceEvent`] exhaustively, so a newly added trace
//! kind is a compile error here until someone decides how the auditor
//! should treat it. The two clippy lints denied below reject a wildcard
//! arm standing in for the missing variants (CI runs clippy with
//! `-D warnings`).

#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use crate::{TraceEvent, TraceRecord};

/// The three ways a request's timeline can end, mirroring the
/// `offered == served + dropped + failed` conservation buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Terminal {
    /// The client received its response.
    Served,
    /// The request was refused at admission (queue full → RST).
    Dropped,
    /// The client exhausted its retries.
    Failed,
}

impl Terminal {
    /// Stable snake_case tag for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Terminal::Served => "served",
            Terminal::Dropped => "dropped",
            Terminal::Failed => "failed",
        }
    }
}

/// One request's reconstructed timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request's run-wide id.
    pub req: u64,
    /// The owning subscriber.
    pub sub: u32,
    /// When the client issued the request (`req_arrival`), ns.
    pub arrival_ns: u64,
    /// How (and when, ns) the timeline ended; `None` while in flight.
    pub terminal: Option<(Terminal, u64)>,
    /// Attempts made: 1 + observed `request_retry` records.
    pub attempts: u32,
    /// Crash-era `dispatch_requeue` interceptions.
    pub requeues: u32,
    /// Scheduler queue-full drops observed (each leads to an RST and then
    /// either a retry or the `Dropped` terminal).
    pub sched_drops: u32,
    /// Total time spent waiting in a subscriber queue (every enqueue or
    /// requeue → the dispatch that drained it), ns.
    pub queue_wait_ns: u64,
    /// Total RPN service time (splice setup → teardown, summed over
    /// attempts), ns.
    pub service_ns: u64,
    /// Network/splice legs: dispatch → splice setup, plus last teardown →
    /// the served terminal, ns.
    pub splice_ns: u64,
    /// Dead time between a retry decision and the attempt re-entering a
    /// subscriber queue (client timeout backoff + resend), ns.
    pub retry_backoff_ns: u64,
    /// Trace records folded into this span.
    pub records: u32,
}

impl Span {
    /// End-to-end latency (arrival → terminal), ns; `None` while in flight.
    pub fn latency_ns(&self) -> Option<u64> {
        self.terminal
            .map(|(_, at)| at.saturating_sub(self.arrival_ns))
    }
}

/// Per-subscriber span totals, shaped exactly like the
/// `SubscriberMetrics` conservation buckets for field-for-field
/// cross-checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Requests issued (`req_arrival` records).
    pub offered: u64,
    /// Spans ending in [`Terminal::Served`].
    pub served: u64,
    /// Spans ending in [`Terminal::Dropped`].
    pub dropped: u64,
    /// Spans ending in [`Terminal::Failed`].
    pub failed: u64,
}

impl SpanTotals {
    /// Whether every offered request reached a terminal state.
    pub fn conserved(&self) -> bool {
        self.offered == self.served + self.dropped + self.failed
    }
}

/// The result of folding a dump: all spans, ordered by request id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    /// One span per request id seen in the dump, ascending by id.
    pub spans: Vec<Span>,
}

impl SpanReport {
    /// Request ids that never reached a terminal state (still in flight at
    /// dump time). Empty on a run that drained completely.
    pub fn unterminated(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.terminal.is_none())
            .map(|s| s.req)
            .collect()
    }

    /// Subscriber ids present, ascending.
    pub fn subscribers(&self) -> Vec<u32> {
        let mut subs: Vec<u32> = self.spans.iter().map(|s| s.sub).collect();
        subs.sort_unstable();
        subs.dedup();
        subs
    }

    /// Conservation totals for one subscriber.
    pub fn totals_for(&self, sub: u32) -> SpanTotals {
        let mut t = SpanTotals::default();
        for s in self.spans.iter().filter(|s| s.sub == sub) {
            t.offered += 1;
            match s.terminal {
                Some((Terminal::Served, _)) => t.served += 1,
                Some((Terminal::Dropped, _)) => t.dropped += 1,
                Some((Terminal::Failed, _)) => t.failed += 1,
                None => {}
            }
        }
        t
    }
}

/// Mutable fold state for one request, turned into a [`Span`] at the end.
#[derive(Debug, Clone)]
struct SpanState {
    span: Span,
    last_enqueue_ns: Option<u64>,
    last_dispatch_ns: Option<u64>,
    splice_open_ns: Option<u64>,
    last_teardown_ns: Option<u64>,
    retry_pending_ns: Option<u64>,
}

impl SpanState {
    fn new(req: u64, sub: u32, arrival_ns: u64) -> SpanState {
        SpanState {
            span: Span {
                req,
                sub,
                arrival_ns,
                terminal: None,
                attempts: 1,
                requeues: 0,
                sched_drops: 0,
                queue_wait_ns: 0,
                service_ns: 0,
                splice_ns: 0,
                retry_backoff_ns: 0,
                records: 1,
            },
            last_enqueue_ns: None,
            last_dispatch_ns: None,
            splice_open_ns: None,
            last_teardown_ns: None,
            retry_pending_ns: None,
        }
    }

    fn terminate(&mut self, how: Terminal, at: u64) -> Result<(), String> {
        if let Some((prev, prev_at)) = self.span.terminal {
            return Err(format!(
                "req {}: second terminal {} at {}ns after {} at {}ns",
                self.span.req,
                how.as_str(),
                at,
                prev.as_str(),
                prev_at
            ));
        }
        if how == Terminal::Served {
            if let Some(td) = self.last_teardown_ns {
                self.span.splice_ns += at.saturating_sub(td);
            }
        }
        self.span.terminal = Some((how, at));
        Ok(())
    }
}

/// Folds typed dump records (from [`crate::parse_dump`]) into spans.
///
/// # Errors
///
/// Returns a message naming the offending record if it references a
/// request id before its `req_arrival` (or one too large for the dump),
/// or lands a second terminal state on a request.
pub fn reconstruct_records(records: &[TraceRecord]) -> Result<SpanReport, String> {
    // Request ids are assigned densely from 0 in emission order, so a
    // Vec indexed by id is both the natural store and deterministic.
    let mut states: Vec<Option<SpanState>> = Vec::new();

    // Looks up the live state for a request-scoped record; `req_arrival`
    // must come first because ids are born there.
    fn state_of<'a>(
        states: &'a mut [Option<SpanState>],
        req: u64,
        kind: &str,
    ) -> Result<&'a mut SpanState, String> {
        let s = states
            .get_mut(req as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| format!("req {req}: {kind} before req_arrival"))?;
        s.span.records += 1;
        Ok(s)
    }

    for (i, rec) in records.iter().enumerate() {
        let fail = |e: String| format!("record {i}: {e}");
        let t = rec.at.as_nanos();
        let kind = rec.event.kind();
        match rec.event {
            // Cluster-level records carry no single request's identity;
            // the auditor consumes them separately (cycle mapping,
            // reservation scale) and the span fold skips them.
            TraceEvent::SchedCycle { .. }
            | TraceEvent::AcctReport { .. }
            | TraceEvent::NodeLoad { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. }
            | TraceEvent::RpnCrash { .. }
            | TraceEvent::RpnRecover { .. }
            | TraceEvent::RoutesPurged { .. }
            | TraceEvent::ReservationScale { .. }
            | TraceEvent::Reservation { .. }
            | TraceEvent::QueueStats { .. }
            | TraceEvent::RdnCrash { .. }
            | TraceEvent::RdnRecover { .. }
            | TraceEvent::ReportGossip { .. }
            | TraceEvent::ShardTakeover { .. }
            | TraceEvent::AcctMerge { .. } => {}
            TraceEvent::ReqArrival { sub, req } => {
                // Dense ids mean a complete dump holds at least `req + 1`
                // records; a larger id is corrupt input, and sizing the
                // store to it would abort on allocation.
                if req >= records.len() as u64 {
                    return Err(fail(format!(
                        "req {req}: id out of range for a dump of {} records",
                        records.len()
                    )));
                }
                let idx = req as usize;
                if states.len() <= idx {
                    states.resize(idx + 1, None);
                }
                if states[idx].is_some() {
                    return Err(fail(format!("req {req}: duplicate req_arrival")));
                }
                states[idx] = Some(SpanState::new(req, sub, t));
            }
            TraceEvent::Enqueue { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.last_enqueue_ns = Some(t);
                if let Some(r) = s.retry_pending_ns.take() {
                    s.span.retry_backoff_ns += t.saturating_sub(r);
                }
            }
            TraceEvent::Drop { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.span.sched_drops += 1;
            }
            TraceEvent::Dispatch { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                if let Some(e) = s.last_enqueue_ns.take() {
                    s.span.queue_wait_ns += t.saturating_sub(e);
                }
                s.last_dispatch_ns = Some(t);
            }
            TraceEvent::DispatchRequeued { req, .. } => {
                // The dispatch was intercepted en route to a dead node and
                // put back at the queue head: queue waiting resumes now.
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.span.requeues += 1;
                s.last_enqueue_ns = Some(t);
                s.last_dispatch_ns = None;
            }
            TraceEvent::SpliceSetup { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                if let Some(d) = s.last_dispatch_ns.take() {
                    s.span.splice_ns += t.saturating_sub(d);
                }
                s.splice_open_ns = Some(t);
            }
            TraceEvent::SpliceTeardown { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                if let Some(open) = s.splice_open_ns.take() {
                    s.span.service_ns += t.saturating_sub(open);
                }
                s.last_teardown_ns = Some(t);
            }
            TraceEvent::ReqComplete { req, .. } => {
                state_of(&mut states, req, kind).map_err(fail)?;
            }
            TraceEvent::RequestRetry { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.span.attempts += 1;
                s.retry_pending_ns = Some(t);
                // The timed-out attempt's partial stage markers are stale.
                s.last_enqueue_ns = None;
                s.last_dispatch_ns = None;
                s.splice_open_ns = None;
            }
            TraceEvent::ReqServed { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.terminate(Terminal::Served, t).map_err(fail)?;
            }
            TraceEvent::ReqDropped { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.terminate(Terminal::Dropped, t).map_err(fail)?;
            }
            TraceEvent::RequestFailed { req, .. } => {
                let s = state_of(&mut states, req, kind).map_err(fail)?;
                s.terminate(Terminal::Failed, t).map_err(fail)?;
            }
        }
    }

    Ok(SpanReport {
        spans: states
            .into_iter()
            .flatten()
            .map(|state| state.span)
            .collect(),
    })
}

/// Parses a full dump and folds it into spans.
///
/// # Errors
///
/// Fails on anything [`crate::parse_dump`] rejects, on a dump whose ring
/// overwrote history (`overwritten > 0` — the timeline would be missing
/// its oldest records), and on everything [`reconstruct_records`] rejects.
pub fn reconstruct(dump: &str) -> Result<SpanReport, String> {
    let (header, records) = crate::parse_dump(dump)?;
    let overwritten = header
        .get("overwritten")
        .and_then(gage_json::Json::as_u64)
        .unwrap_or(0);
    if overwritten > 0 {
        return Err(format!(
            "ring overwrote {overwritten} records; timelines would be incomplete \
             (re-run with a larger trace capacity)"
        ));
    }
    reconstruct_records(&records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, Tracer};
    use gage_des::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A hand-written lifecycle: arrival at 0, enqueue at 1, dispatch at 4,
    /// splice 5..=9, served at 11.
    #[test]
    fn happy_path_stages_add_up() {
        let t = Tracer::enabled(64);
        t.emit_at(ms(0), TraceEvent::ReqArrival { sub: 2, req: 0 });
        t.emit_at(
            ms(1),
            TraceEvent::Enqueue {
                sub: 2,
                req: 0,
                backlog: 1,
            },
        );
        t.emit_at(
            ms(4),
            TraceEvent::Dispatch {
                sub: 2,
                req: 0,
                rpn: 1,
                spare: false,
                predicted_cpu_us: 10.0,
                balance_cpu_us: 1.0,
            },
        );
        t.emit_at(
            ms(5),
            TraceEvent::SpliceSetup {
                req: 0,
                client_ip: 1,
                client_port: 2,
                rpn_ip: 3,
                seq_delta: 4,
            },
        );
        t.emit_at(
            ms(9),
            TraceEvent::SpliceTeardown {
                req: 0,
                client_ip: 1,
                client_port: 2,
            },
        );
        t.emit_at(
            ms(9),
            TraceEvent::ReqComplete {
                sub: 2,
                req: 0,
                rpn: 1,
            },
        );
        t.emit_at(ms(11), TraceEvent::ReqServed { sub: 2, req: 0 });
        let rep = reconstruct(&t.dump().expect("enabled")).expect("reconstructs");
        assert_eq!(rep.spans.len(), 1);
        let s = &rep.spans[0];
        assert_eq!(s.sub, 2);
        assert_eq!(s.terminal, Some((Terminal::Served, 11_000_000)));
        assert_eq!(s.latency_ns(), Some(11_000_000));
        assert_eq!(s.queue_wait_ns, 3_000_000, "enqueue 1ms -> dispatch 4ms");
        assert_eq!(s.service_ns, 4_000_000, "splice open 5ms -> 9ms");
        assert_eq!(
            s.splice_ns, 3_000_000,
            "dispatch->setup 1ms + teardown->served 2ms"
        );
        assert_eq!(s.attempts, 1);
        assert!(rep.unterminated().is_empty());
        let totals = rep.totals_for(2);
        assert_eq!(totals.offered, 1);
        assert_eq!(totals.served, 1);
        assert!(totals.conserved());
    }

    #[test]
    fn retry_and_requeue_accumulate() {
        let t = Tracer::enabled(64);
        t.emit_at(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        t.emit_at(
            ms(1),
            TraceEvent::Enqueue {
                sub: 0,
                req: 0,
                backlog: 1,
            },
        );
        // Crash-era interception: back to the queue head at 3ms.
        t.emit_at(
            ms(2),
            TraceEvent::Dispatch {
                sub: 0,
                req: 0,
                rpn: 1,
                spare: false,
                predicted_cpu_us: 1.0,
                balance_cpu_us: 0.0,
            },
        );
        t.emit_at(
            ms(3),
            TraceEvent::DispatchRequeued {
                sub: 0,
                req: 0,
                rpn: 1,
            },
        );
        // Client times out at 10ms, retries; new attempt enqueued at 14ms.
        t.emit_at(
            ms(10),
            TraceEvent::RequestRetry {
                sub: 0,
                req: 0,
                attempt: 1,
            },
        );
        t.emit_at(
            ms(14),
            TraceEvent::Enqueue {
                sub: 0,
                req: 0,
                backlog: 1,
            },
        );
        t.emit_at(
            ms(15),
            TraceEvent::Dispatch {
                sub: 0,
                req: 0,
                rpn: 0,
                spare: false,
                predicted_cpu_us: 1.0,
                balance_cpu_us: 0.0,
            },
        );
        t.emit_at(ms(20), TraceEvent::ReqServed { sub: 0, req: 0 });
        let rep = reconstruct(&t.dump().expect("enabled")).expect("reconstructs");
        let s = &rep.spans[0];
        assert_eq!(s.attempts, 2);
        assert_eq!(s.requeues, 1);
        assert_eq!(s.retry_backoff_ns, 4_000_000, "retry 10ms -> enqueue 14ms");
        // enqueue 1 -> dispatch 2 (1ms) + requeue 3 -> retry void, then
        // enqueue 14 -> dispatch 15 (1ms).
        assert_eq!(s.queue_wait_ns, 2_000_000);
    }

    #[test]
    fn double_terminal_is_an_error() {
        let t = Tracer::enabled(16);
        t.emit_at(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        t.emit_at(ms(1), TraceEvent::ReqServed { sub: 0, req: 0 });
        t.emit_at(ms(2), TraceEvent::ReqDropped { sub: 0, req: 0 });
        let err = reconstruct(&t.dump().expect("enabled")).expect_err("double terminal");
        assert!(err.contains("second terminal"), "{err}");
    }

    #[test]
    fn orphan_and_inflight_are_distinguished() {
        // A request-scoped record before its arrival is a hard error...
        let t = Tracer::enabled(16);
        t.emit_at(ms(1), TraceEvent::ReqServed { sub: 0, req: 7 });
        let err = reconstruct(&t.dump().expect("enabled")).expect_err("orphan");
        assert!(err.contains("before req_arrival"), "{err}");
        // ...while an arrival with no terminal is merely unterminated.
        let t = Tracer::enabled(16);
        t.emit_at(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        let rep = reconstruct(&t.dump().expect("enabled")).expect("valid");
        assert_eq!(rep.unterminated(), vec![0]);
        assert!(!rep.totals_for(0).conserved());
    }

    /// A hostile id must be refused before the span store is sized to it:
    /// `2^53 - 1` once aborted the process on a ~1.5 EB allocation.
    #[test]
    fn out_of_range_request_ids_are_rejected() {
        for req in [(1u64 << 53) - 1, 1 << 40] {
            let dump = format!(
                "{{\"schema\":\"{}\"}}\n\
                 {{\"seq\":0,\"t_ns\":0,\"kind\":\"req_arrival\",\"sub\":0,\"req\":{req}}}\n",
                crate::TRACE_SCHEMA
            );
            let err = reconstruct(&dump).expect_err("out-of-range id");
            assert!(
                err.contains("record 0") && err.contains("out of range"),
                "{err}"
            );
            // `gage-audit` goes through the same fold.
            let config = crate::audit::AuditConfig::default();
            assert!(crate::audit::audit_dump(&dump, &config).is_err());
        }
    }

    /// A field wider than its type is refused, not narrowed: `sub` is a
    /// `u32`, and `2^32 + 1` once folded into subscriber 1.
    #[test]
    fn out_of_range_fields_are_rejected_not_narrowed() {
        for (field, line) in [
            ("\"sub\":4294967297,\"req\":0", "req_arrival"),
            ("\"sub\":0,\"grps\":10,\"shard\":65536", "reservation"),
        ] {
            let dump = format!(
                "{{\"schema\":\"{}\"}}\n\
                 {{\"seq\":0,\"t_ns\":0,\"kind\":\"{line}\",{field}}}\n",
                crate::TRACE_SCHEMA
            );
            let err = reconstruct(&dump).expect_err("out-of-range field");
            assert!(err.contains("line 2") && err.contains(line), "{err}");
            let config = crate::audit::AuditConfig::default();
            let err = crate::audit::audit_dump(&dump, &config).expect_err("same reader");
            assert!(err.contains("line 2") && err.contains(line), "{err}");
        }
    }

    #[test]
    fn overwritten_ring_is_rejected() {
        let t = Tracer::enabled(2);
        for req in 0..4 {
            t.emit_at(ms(req), TraceEvent::ReqArrival { sub: 0, req });
        }
        let err = reconstruct(&t.dump().expect("enabled")).expect_err("lossy ring");
        assert!(err.contains("overwrote"), "{err}");
    }
}
