//! The repository's benchmark: one command runs a named workload with a
//! given seed, times the simulator (`gage-cluster`) or the live stack
//! (`gage-rt`) through their public functions from outside, checks the
//! outputs, and prints every metric by name with its unit and sample
//! count. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; an untraced run carries
//! the end-to-end metrics, a traced run (`--trace 1`) the per-layer ones.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload regime --seed 42 --seconds 25 --trace 0
//! ```
//!
//! The exit code is non-zero when any correctness check fails.

mod alloc;
mod layers;
mod live;
mod reference;
mod report;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The benchmark's workloads; `BENCHMARK.json` records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1's cluster at ~0.8 utilisation.
    Regime,
    /// The overloaded old `cluster_sim` mix.
    Overload,
    /// 4 RDNs x 32 RPNs, 16 subscribers.
    Sharded,
    /// The `gage-rt` loopback deployment.
    Live,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "regime" => Workload::Regime,
                    "overload" => Workload::Overload,
                    "sharded" => Workload::Sharded,
                    "live" => Workload::Live,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload regime|overload|sharded|live [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut report = report::Report::default();
    match args.workload {
        Workload::Live => live::run(args.seed, args.seconds, args.trace, &mut report),
        w => sim::run(w, args.seed, args.seconds, args.trace, &mut report),
    }
    let (text, correct) = report.render(args.trace);
    print!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
