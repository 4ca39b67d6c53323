//! prxbench — the benchmark of `prxd` and the layers under it.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path prxbench/Cargo.toml -- \
//!     --workload warm-eval --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Each run starts an in-process server on loopback, sets it up over the
//! wire, drives it with closed-loop clients for `--seconds`, checks every
//! answer, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the layer ladder instead and reports the per-layer
//! metrics. `--tiny` shrinks every size (the benchmark's own tests use
//! it). See `prxbench/README.md` for the workloads and metrics.

mod fixture;
mod ladder;
mod oracle;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use report::{END_TO_END, PER_LAYER};
use workload::Workload;

const USAGE: &str =
    "usage: prxbench --workload <warm-eval|budget-tpi|edit-checkpoint> --seed <n> --seconds <n> --trace <0|1> [--tiny]";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prxbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Results are only comparable between identical stamps.
    println!(
        "stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \"nproc\": {}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"git\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
        wire::cores(),
        env!("PRXBENCH_RUSTC"),
        env!("PRXBENCH_GIT"),
    );
    let outcome = if args.trace {
        ladder::run(args.workload, args.seed, args.seconds, args.tiny)
    } else {
        workload::run(args.workload, args.seed, args.seconds, args.tiny)
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prxbench: run aborted: {e}");
            std::process::exit(1);
        }
    };
    report.expect_exactly(if args.trace { PER_LAYER } else { END_TO_END });
    if !report.finish() {
        std::process::exit(1);
    }
}
