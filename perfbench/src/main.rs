//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit, a provenance line, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero when an output check or a service invariant fails.

use perfbench::report::result_line;
use perfbench::run::{run, Opts, Workload, WORKLOADS};
use std::path::PathBuf;

/// Elements per triad array per thread: 3 arrays × 2 threads × 96 MiB
/// = 576 MiB, about twice the 300 MiB shared L3 of the reference host.
const TRIAD_ELEMS: usize = 12 << 20;

const USAGE: &str = "usage: perfbench --workload <kernel-ml|served-large|served-small> --seed <n> \
--seconds <s> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(match value.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--seconds needs a positive number, got {value:?}")),
                })
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: 1.0,
        triad_elems: TRIAD_ELEMS,
        out_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    })
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&opts);
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for m in &out.ungated {
        println!("{} = {} {} (printed, not gated)", m.name, m.value, m.unit);
    }
    println!(
        "failed_share = {} ({} of {} attempts)",
        out.acc.failed_share(),
        out.acc.failed(),
        out.acc.attempted
    );
    if let Some(p) = &out.spans_path {
        println!("spans written to {}", p.display());
    }
    println!("provenance {}", out.provenance);
    println!("{}", result_line(&out.acc, &out.metrics));
    if !out.acc.correct() {
        eprintln!("perfbench: output check failed: {:?}", out.acc);
        std::process::exit(1);
    }
}
