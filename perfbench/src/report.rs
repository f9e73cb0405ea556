//! What one run prints: every metric by name with its unit and sample
//! count, grouped by module, then one JSON line with the metrics listed in
//! `BENCHMARK.json` and the correctness verdict.

use gage_json::Json;

use crate::spans::Spans;

/// End-to-end metrics carried in the JSON line of an untraced run, with
/// their units. Every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("served_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics carried in the JSON line of a traced run. Every
/// workload reports each of them; a count reads 0 on a workload whose path
/// never reaches that layer (the live stack has no event queue).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_req", "ns"),
    ("des.pops_per_served", "count"),
    ("des.credits_per_served", "count"),
    ("des.cancelled_per_served", "count"),
    ("des.cascades_per_sim_s", "count/s"),
    ("des.churn_ns", "ns"),
    ("core.classify_ns", "ns"),
    ("core.sched.cycle_ns.s10", "ns"),
    ("core.sched.cycle_ns.s100", "ns"),
    ("core.sched.cycle_ns.s1000", "ns"),
    ("core.sched.report_ns", "ns"),
    ("core.sched.reserved_share", "ratio"),
    ("core.sched.refused_share", "ratio"),
    ("core.conn_table.lookup_ns.10k", "ns"),
    ("core.conn_table.lookup_ns.100k", "ns"),
    ("core.merge.rows_ns", "ns"),
    ("net.rdn_setup_ns", "ns"),
    ("net.rpn_setup_ns", "ns"),
    ("net.classify_packet_ns", "ns"),
    ("net.remap_in_ns", "ns"),
    ("net.remap_out_ns", "ns"),
    ("net.splice_new_ns", "ns"),
    ("allocs_per_req", "count"),
    ("cluster.rdn_packets_per_served", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.audit_violations", "count"),
    ("rt.http.parse_head_ns", "ns"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name printed in the text report.
    pub name: String,
    /// Key in the JSON line, when the metric is carried there.
    pub key: Option<&'static str>,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (repetitions, requests or timed batches).
    pub samples: u64,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    end_to_end: Vec<Metric>,
    /// `(module, metrics)`, in the order modules were first reported.
    layers: Vec<(&'static str, Vec<Metric>)>,
    notes: Vec<String>,
    failures: Vec<String>,
    /// Operations attempted: requests offered.
    pub attempted: u64,
    /// Operations that failed: simulated requests missing from
    /// `offered == served + dropped + failed`, or live requests that met a
    /// transport error, a timeout, a non-200 or a short body.
    pub failed: u64,
}

impl Report {
    /// Records an end-to-end metric; `key` names it in the JSON line.
    pub fn e2e(
        &mut self,
        name: &str,
        key: Option<&'static str>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            key,
            value,
            unit,
            samples,
        });
    }

    /// Records an end-to-end metric kept out of the JSON line, or a note
    /// saying why it could not be measured.
    pub fn e2e_or_note(
        &mut self,
        name: &str,
        value: Result<f64, String>,
        unit: &'static str,
        samples: u64,
    ) {
        match value {
            Ok(v) => self.e2e(name, None, v, unit, samples),
            Err(e) => self.note(format!("{name} not reported: {e}")),
        }
    }

    /// Records a per-layer metric under `module`. It goes into the JSON
    /// line of a traced run when [`PER_LAYER`] lists its name.
    pub fn layer(
        &mut self,
        module: &'static str,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        let key = PER_LAYER.iter().find(|(n, _)| *n == name).map(|(n, _)| *n);
        let metric = Metric {
            name: name.to_string(),
            key,
            value,
            unit,
            samples,
        };
        match self.layers.iter_mut().find(|(m, _)| *m == module) {
            Some((_, list)) => list.push(metric),
            None => self.layers.push((module, vec![metric])),
        }
    }

    /// Adds an informational line to the text report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds the count, total and self time of every span name, and checks
    /// that each child span carries its parent's id.
    pub fn spans(&mut self, spans: &Spans) {
        self.check(spans.ids_consistent(), || {
            "a child span carries another id than its parent".to_string()
        });
        for (name, t) in spans.totals() {
            self.note(format!(
                "span {name:<16} count {:>6} total {:>12.3} ms self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a measurement that could not be taken as a failure.
    pub fn require<T>(&mut self, r: Result<T, String>, fallback: T) -> T {
        r.unwrap_or_else(|e| {
            self.failures.push(e);
            fallback
        })
    }

    /// The JSON line: the metrics of `wanted`, each present and finite, or
    /// a correctness failure naming the one that is not.
    fn json_line(&mut self, wanted: &[(&'static str, &'static str)]) -> String {
        let all: Vec<&Metric> = self
            .end_to_end
            .iter()
            .chain(self.layers.iter().flat_map(|(_, l)| l))
            .collect();
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for &(key, unit) in wanted {
            match all.iter().find(|m| m.key == Some(key)) {
                Some(m) if m.value.is_finite() && m.unit == unit => metrics.push((
                    key,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::str(unit))]),
                )),
                _ => missing.push(format!("metric {key} ({unit}) not measured")),
            }
        }
        self.failures.extend(missing);
        Json::obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// The text report ending in the JSON line, and whether every check
    /// passed.
    pub fn render(mut self, traced: bool) -> (String, bool) {
        use std::fmt::Write as _;
        let line = self.json_line(if traced { PER_LAYER } else { END_TO_END });
        let mut out = String::from("# end to end\n");
        let row = |out: &mut String, m: &Metric| {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        };
        for m in &self.end_to_end {
            row(&mut out, m);
        }
        for (module, list) in &self.layers {
            let _ = writeln!(out, "# {module}");
            for m in list {
                row(&mut out, m);
                if let Some(p) = crate::layers::prediction(&m.name).filter(|_| traced) {
                    let _ = writeln!(out, "  {:<34} predicts: {p}", "");
                }
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} error_pct {:.6} %\n{line}",
            self.attempted,
            self.failed,
            100.0 * self.failed as f64 / self.attempted.max(1) as f64
        );
        (out, self.failures.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = gage_json::parse(&text).expect("valid JSON");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section}");
        }
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.e2e("x", Some("served_per_s"), 1.0, "req/s", 3);
        let line = r.json_line(&END_TO_END[..2]);
        assert!(line.contains("\"correct\":false"), "{line}");
        assert!(r.failures[0].contains("setup_s"));
    }
}
