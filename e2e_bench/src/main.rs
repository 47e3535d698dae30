//! Command-line driver of the end-to-end benchmark.
//!
//! ```text
//! aim-e2e-bench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints each workload's context and metrics by name and unit, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics, or per-layer metrics with
//! `--trace 1`). Exits 1 when an output check fails, 2 on bad usage.
//! Results, determinism fingerprints and span files go under
//! `.bench_out/` in the working directory.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aim_e2e_bench::report::{determinism_guard, Outcome};
use aim_e2e_bench::spans::write_chrome_trace;
use aim_e2e_bench::{probe, run_workload, RunArgs, WORKLOADS};

const USAGE: &str =
    "usage: aim-e2e-bench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: "all".to_string(),
        seed: 42,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|&(n, _)| n == args.workload);
    known
        .then_some(args)
        .ok_or_else(|| "unknown workload".to_string())
}

/// Identifies the running binary, so determinism fingerprints from an
/// older build of the code are never compared with this one's.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{mtime:x}", m.len())
        })
        .unwrap_or_default()
}

fn report(name: &str, args: &RunArgs, out: &mut Outcome, dir: &Path) {
    let key = format!("{name}-seed{}-{}", args.seed, build_id());
    if let Some(f) = determinism_guard(&dir.join("fingerprints"), &key, &out.fingerprint) {
        out.failures.push(f);
    }
    println!(
        "== {name} (seed {}, {} s{})",
        args.seed,
        args.seconds,
        if args.traced { ", traced" } else { "" }
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<26} {:>16.6} ({} of {} operations)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(layers) = &out.layers {
        println!("  per layer:");
        for (n, v, u) in layers.iter() {
            println!("  {n:<26} {v:>16.6} {u}");
        }
        let path = dir.join(format!("{name}.trace.json"));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_chrome_trace(&out.spans, &mut w)?;
            w.flush()
        });
        match written {
            Ok(()) => println!("  spans: {} ({} spans)", path.display(), out.spans.len()),
            Err(e) => out
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    let json = out.json();
    let suffix = if args.traced { "traced" } else { "e2e" };
    let _ = std::fs::write(
        dir.join(format!("{name}.{suffix}.json")),
        format!("{json}\n"),
    );
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&dir);
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|&(n, _)| n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    let mut last = String::new();
    for name in names {
        if args.workload == "all" {
            probe::reset_peak_rss();
        }
        let run = RunArgs {
            workload: name.to_string(),
            ..args.clone()
        };
        let mut out = run_workload(&run);
        report(name, &run, &mut out, &dir);
        all_correct &= out.correct();
        last = out.json();
        if args.workload == "all" {
            println!("{last}");
        }
    }
    if args.workload != "all" {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
