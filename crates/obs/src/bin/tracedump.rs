//! `tracedump` — pretty-print and filter a gage trace dump.
//!
//! ```text
//! tracedump <path> [--kind K] [--sub N] [--req N] [--from SECS] [--to SECS]
//!           [--check] [--stats]
//! ```
//!
//! * `--kind K`   keep only records of kind `K` (e.g. `dispatch`).
//! * `--sub N`    keep only records about subscriber `N`
//!   (`--subscriber` is accepted as a long alias).
//! * `--req N`    keep only records about request id `N` — one request's
//!   whole causal timeline.
//! * `--from S` / `--to S`   keep records with `S_from <= t < S_to` (seconds).
//! * `--check`    validate only: read every record through the typed
//!   reader, print a summary, exit non-zero on any line that is not valid
//!   JSON or not a well-typed record of its kind (used by the CI
//!   trace-smoke steps).
//! * `--stats`    print per-kind record counts instead of the records.
//!
//! A filter value that does not parse, and a `--kind` that names no trace
//! kind, are usage errors: a filter that silently matched everything (or
//! nothing) would print a misleading view of the dump.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use gage_json::Json;
use gage_obs::{parse_dump, TraceRecord, KINDS};

#[derive(Debug, Default, PartialEq)]
struct Opts {
    path: String,
    kind: Option<&'static str>,
    sub: Option<u64>,
    req: Option<u64>,
    from_secs: Option<f64>,
    to_secs: Option<f64>,
    check: bool,
    stats: bool,
}

const USAGE: &str = "usage: tracedump <path> [--kind K] [--sub N] [--req N] [--from SECS] \
                     [--to SECS] [--check] [--stats]";

/// The value following `flag`, parsed as `T`.
fn value<'a, T: FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// A time bound in seconds: finite, or the filter would match everything.
fn secs<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<f64, String> {
    let v: f64 = value(flag, it)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{flag}: {v} is not a finite number of seconds"))
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--stats" => opts.stats = true,
            "--kind" => {
                let kind: String = value("--kind", &mut it)?;
                let known = KINDS.iter().find(|k| **k == kind).ok_or_else(|| {
                    format!(
                        "--kind: unknown kind {kind:?} (known: {})",
                        KINDS.join(", ")
                    )
                })?;
                opts.kind = Some(known);
            }
            "--sub" | "--subscriber" => opts.sub = Some(value(arg, &mut it)?),
            "--req" => opts.req = Some(value(arg, &mut it)?),
            "--from" => opts.from_secs = Some(secs(arg, &mut it)?),
            "--to" => opts.to_secs = Some(secs(arg, &mut it)?),
            _ if opts.path.is_empty() && !arg.starts_with("--") => opts.path = arg.clone(),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    if opts.path.is_empty() {
        return Err("missing dump path".to_string());
    }
    Ok(opts)
}

/// The payload field `key` of a record, if its kind has one.
fn field(record: &TraceRecord, key: &str) -> Option<u64> {
    record
        .event
        .fields()
        .into_iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_u64())
}

fn t_secs(record: &TraceRecord) -> f64 {
    record.at.as_nanos() as f64 / 1e9
}

fn keep(record: &TraceRecord, opts: &Opts) -> bool {
    opts.kind.is_none_or(|k| record.event.kind() == k)
        && opts.sub.is_none_or(|s| field(record, "sub") == Some(s))
        && opts.req.is_none_or(|r| field(record, "req") == Some(r))
        && opts.from_secs.is_none_or(|from| t_secs(record) >= from)
        && opts.to_secs.is_none_or(|to| t_secs(record) < to)
}

/// Renders one record as `  12.345678s  #seq  kind  k=v k=v ...`.
fn render(record: &TraceRecord) -> String {
    let (t, seq, kind) = (t_secs(record), record.seq, record.event.kind());
    let mut line = format!("{t:>12.6}s  #{seq:<8}  {kind:<15}");
    for (k, v) in record.event.fields() {
        line.push_str(&format!("  {k}={v}"));
    }
    line
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tracedump: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (header, records) = match parse_dump(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tracedump: invalid dump {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let emitted = header.get("emitted").and_then(Json::as_u64).unwrap_or(0);
    let overwritten = header
        .get("overwritten")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if opts.check {
        println!(
            "ok: {} records retained ({emitted} emitted, {overwritten} overwritten)",
            records.len()
        );
        return ExitCode::SUCCESS;
    }
    let kept: Vec<&TraceRecord> = records.iter().filter(|r| keep(r, &opts)).collect();
    if opts.stats {
        // Per-kind counts in first-seen order (deterministic, no hash map).
        let mut counts: Vec<(&str, u64)> = Vec::new();
        for r in &kept {
            let kind = r.event.kind();
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += 1,
                None => counts.push((kind, 1)),
            }
        }
        for (kind, count) in &counts {
            println!("{kind:<16} {count}");
        }
        println!("total            {}", kept.len());
        return ExitCode::SUCCESS;
    }
    // Write through a handle so a downstream `head` closing the pipe ends
    // the program quietly instead of panicking mid-print.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if overwritten > 0
        && writeln!(
            out,
            "# ring overwrote {overwritten} of {emitted} records; dump starts mid-stream"
        )
        .is_err()
    {
        return ExitCode::SUCCESS;
    }
    for r in &kept {
        if writeln!(out, "{}", render(r)).is_err() {
            return ExitCode::SUCCESS;
        }
    }
    let _ = writeln!(
        out,
        "# {} records shown ({} retained)",
        kept.len(),
        records.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn filters_parse_into_typed_options() {
        let opts = parse(&[
            "d.jsonl",
            "--kind",
            "dispatch_requeue",
            "--subscriber",
            "3",
            "--req",
            "17",
            "--from",
            "1.5",
            "--to",
            "2",
            "--check",
        ])
        .expect("valid arguments");
        assert_eq!(
            opts,
            Opts {
                path: "d.jsonl".into(),
                kind: Some("dispatch_requeue"),
                sub: Some(3),
                req: Some(17),
                from_secs: Some(1.5),
                to_secs: Some(2.0),
                check: true,
                stats: false,
            }
        );
    }

    #[test]
    fn bad_filter_values_are_usage_errors() {
        for flag in ["--sub", "--subscriber", "--req", "--from", "--to"] {
            let err = parse(&["d.jsonl", flag, "x"]).expect_err("unparsable value");
            assert!(err.contains(flag) && err.contains("\"x\""), "{err}");
            let err = parse(&["d.jsonl", flag]).expect_err("missing value");
            assert!(err.contains("needs a value"), "{err}");
        }
        for flag in ["--sub", "--req"] {
            assert!(parse(&["d.jsonl", flag, "-1"]).is_err(), "{flag} -1");
        }
        for v in ["nan", "inf", "-inf"] {
            assert!(parse(&["d.jsonl", "--from", v]).is_err(), "--from {v}");
            assert!(parse(&["d.jsonl", "--to", v]).is_err(), "--to {v}");
        }
    }

    #[test]
    fn kind_must_name_a_trace_kind() {
        let err = parse(&["d.jsonl", "--kind", "dispatch_requeued"]).expect_err("unknown kind");
        assert!(err.contains("unknown kind"), "{err}");
        for kind in KINDS {
            let opts = parse(&["d.jsonl", "--kind", kind]).expect("known kind");
            assert_eq!(opts.kind, Some(*kind));
        }
    }

    #[test]
    fn path_is_required_once() {
        assert!(parse(&["--check"]).is_err(), "no path");
        assert!(parse(&["a.jsonl", "b.jsonl"]).is_err(), "two paths");
        assert!(parse(&["a.jsonl", "--bogus"]).is_err(), "unknown flag");
    }
}
