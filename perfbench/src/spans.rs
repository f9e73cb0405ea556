//! Spans recorded by the benchmark around its calls into the program:
//! name, start, end, parent and a shared id per request. They stay in
//! memory and are summarised once, at the end of the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Identifier shared by the spans of one request (or one run).
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// An in-memory span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Per-name totals over a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by children), ns.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder timing from `origin`; records only when `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the handle is `None` when the recorder is disabled.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes the span `handle` refers to (no-op for `None`).
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Appends another recorder's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Whether every child span carries its parent's id.
    pub fn ids_consistent(&self) -> bool {
        self.spans
            .iter()
            .all(|s| s.parent.is_none_or(|p| self.spans[p].id == s.id))
    }

    /// Count, total and self time per span name, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += own;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = [
            span("run", None, 0, 100),
            span("slice", Some(0), 10, 40),
            // Overlaps the first slice by 10 ns: counted once.
            span("slice", Some(0), 30, 60),
            span("leaf", Some(1), 15, 25),
            // Sticks out past its parent: only the covered part counts.
            span("report", Some(0), 90, 120),
        ];
        // run: 100 - (10..60 = 50) - (90..100 = 10) = 40.
        // first slice: 30 - 10 = 20; second slice: 30; leaf: 10;
        // report: 30 (no children).
        assert_eq!(self_times(&tree), vec![40, 20, 30, 10, 30]);
    }

    #[test]
    fn totals_group_by_name_and_absorb_reindexes() {
        let origin = Instant::now();
        let mut a = Spans::new(origin, true);
        a.spans = vec![span("req", None, 0, 10), span("connect", Some(0), 0, 4)];
        let mut b = Spans::new(origin, true);
        b.spans = vec![span("req", None, 20, 26), span("connect", Some(0), 20, 21)];
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        let t = a.totals();
        assert_eq!(
            t["req"],
            SpanTotal {
                count: 2,
                total_ns: 16,
                self_ns: 11
            }
        );
        assert_eq!(t["connect"].self_ns, 5);
        assert!(a.ids_consistent());
        a.spans[3].id = 2;
        assert!(!a.ids_consistent());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(Instant::now(), false);
        let h = s.open("x", 0, None);
        s.close(h);
        assert!(h.is_none() && s.spans.is_empty());
    }
}
