//! Deterministic structured tracing and live metrics for the Gage stack.
//!
//! The paper's argument is only checkable if the *online* behaviour of the
//! RDN is visible: which subscriber a cycle dispatched for, what the credit
//! balance was when it did, which RPN a splice landed on, how loaded each
//! node looked when an accounting report arrived. `gage-obs` provides that
//! visibility without perturbing the system under test:
//!
//! * [`TraceRing`] / [`Tracer`] — a fixed-capacity ring of typed, `Copy`
//!   [`TraceEvent`] records stamped with [`gage_des::SimTime`]. Emission is
//!   allocation-free; a disabled tracer costs one branch. Dumps are
//!   line-oriented JSON and byte-identical across same-seed runs. Every
//!   kind is declared once, and [`parse_dump`] reads a dump back into
//!   typed, range-checked [`TraceRecord`]s.
//! * [`Registry`] — named counters / gauges / [`Histogram`]s (with
//!   deterministic p50/p95/p99 estimation) and insertion-ordered,
//!   deterministic export as `gage-json` or a table.
//! * [`spans`] — folds a dump back into per-request causal timelines
//!   (arrival → enqueue → dispatch → splice → terminal state) with
//!   per-stage durations.
//! * [`audit`] — the per-subscriber QoS conformance auditor: delivered
//!   GRPS per window vs. the (possibly fault-rescaled) reservation.
//! * `tracedump` (bin) — pretty-prints and filters dumps by subscriber,
//!   request, event kind and time range.
//! * `gage-audit` (bin) — runs the auditor over a dump file and emits a
//!   human table or a machine JSON conformance report.
//!
//! See DESIGN.md §11 for the record schema, the determinism contract and
//! the overhead budget, and §13 for the span model and the
//! conformance-window definition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod registry;
mod ring;
pub mod spans;

pub use registry::{Histogram, Registry, METRICS_SCHEMA};
pub use ring::{TraceEvent, TraceRecord, TraceRing, Tracer, KINDS, TRACE_SCHEMA};

use gage_json::Json;

/// Parses a dump produced by [`TraceRing::dump`] back into its header and
/// typed records, validating the schema tag, every line's JSON and every
/// record's fields (see [`TraceRecord::from_json`]).
///
/// # Errors
///
/// Returns a human-readable message naming the first offending line if the
/// dump is empty, the header is missing or mistagged, or any line fails to
/// parse as JSON or as a record of its kind.
pub fn parse_dump(text: &str) -> Result<(Json, Vec<TraceRecord>), String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| "empty dump".to_string())?;
    let header = gage_json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(TRACE_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("header missing schema tag".to_string()),
    }
    let mut records = Vec::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let record = gage_json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| TraceRecord::from_json(&v))
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(record);
    }
    Ok((header, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_des::SimTime;

    #[test]
    fn parse_dump_round_trips() {
        let t = Tracer::enabled(8);
        t.emit_at(SimTime::from_millis(1), TraceEvent::Drop { sub: 0, req: 5 });
        t.emit_at(
            SimTime::from_millis(2),
            TraceEvent::Enqueue {
                sub: 1,
                req: 6,
                backlog: 2,
            },
        );
        let dump = t.dump().expect("enabled");
        let (header, records) = parse_dump(&dump).expect("valid dump");
        assert_eq!(header.get("retained").and_then(Json::as_u64), Some(2));
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[1].event,
            TraceEvent::Enqueue {
                sub: 1,
                req: 6,
                backlog: 2,
            }
        );
        assert_eq!(records[1].at, SimTime::from_millis(2));
    }

    #[test]
    fn parse_dump_rejects_garbage() {
        assert!(parse_dump("").is_err());
        assert!(parse_dump("{\"schema\":\"other\"}\n").is_err());
        assert!(parse_dump("{\"no_schema\":1}\n").is_err());
        let t = Tracer::enabled(4);
        t.emit(TraceEvent::Drop { sub: 0, req: 0 });
        let mut dump = t.dump().expect("enabled");
        dump.push_str("not json\n");
        assert!(parse_dump(&dump).is_err());
    }
}
