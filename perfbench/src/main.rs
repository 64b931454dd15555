//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <cold_sweep|trace_figures|kern_compile|serve_mix|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, a
//! traced run (`--trace 1`) the per-layer ones. Every metric is printed
//! as `name value unit`; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The full
//! report, and in traced runs the spans as JSON lines, are written to
//! the output directory (default `perfbench/results`).
//!
//! A run of one workload pins its process to one CPU first (see
//! `perfbench::host::pin_to_one_cpu`). `--workload all` runs each
//! workload as a child process of its own (see `perfbench::child`) and
//! prints their tables and one merged summary, with every metric
//! prefixed by its workload's name.
//!
//! Exit status: 0 when every correctness check passed, 1 when one
//! failed or the run could not complete, 2 on a usage error.

use ch_common::json::Json;
use perfbench::harness::{Outcome, RunOpts};
use perfbench::metrics::{Metrics, END_TO_END, PER_LAYER};
use perfbench::{child, host, run_workload, span, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/results");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" && !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload `{v}` (one of {} or all)",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(v);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, not {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not `{v}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn print_table(name: &str, args: &Args, o: &Outcome) {
    println!(
        "# {name} seed={} trace={} rounds={} ops={} failed={}",
        args.seed, args.trace as u8, o.rounds, o.attempted, o.failed
    );
    for (metric, unit) in reported(args.trace) {
        let v = o.metrics.get(metric).unwrap_or(0.0);
        println!("{name}.{metric} {v} {unit}");
    }
    if !args.trace {
        let v = o.metrics.get("error_rate").unwrap_or(0.0);
        println!("{name}.error_rate {v} ratio");
    }
    for f in &o.failures {
        eprintln!("{name}: FAILED: {f}");
    }
    for r in &o.refused {
        eprintln!("{name}: note: {r}");
    }
}

fn strings(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect())
}

/// Writes the full report and, for traced runs, the spans.
fn write_results(dir: &Path, name: &str, args: &Args, o: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let all = |m: &Metrics| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v)))
                .collect(),
        )
    };
    let report = Json::Obj(vec![
        ("workload".into(), Json::Str(name.into())),
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("rounds".into(), Json::Int(o.rounds as i64)),
        ("attempted".into(), Json::Int(o.attempted as i64)),
        ("failed".into(), Json::Int(o.failed as i64)),
        ("failures".into(), strings(&o.failures)),
        ("refused".into(), strings(&o.refused)),
        ("metrics".into(), all(&o.metrics)),
    ]);
    let tag = if args.trace { 1 } else { 0 };
    std::fs::write(
        dir.join(format!("{name}.trace{tag}.json")),
        report.render() + "\n",
    )?;
    if args.trace {
        span::write_jsonl(&dir.join(format!("{name}.spans.jsonl")), &o.spans)?;
    }
    Ok(())
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating this program: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut attempted, mut failed, mut success) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("--workload").arg(name);
        cmd.arg("--seed").arg(args.seed.to_string());
        cmd.arg("--seconds").arg(args.seconds.to_string());
        cmd.arg("--trace").arg(if args.trace { "1" } else { "0" });
        cmd.arg("--out").arg(&args.out);
        let run = match child::run(cmd) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        for line in &run.lines {
            println!("{line}");
        }
        let s = &run.summary;
        attempted += s.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += s.get("failed").and_then(Json::as_u64).unwrap_or(0);
        success &= run.success;
        for (metric, v) in s.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.push((format!("{name}.{metric}"), v.clone()));
        }
    }
    println!("{}", child::summary(attempted, failed, metrics).render());
    if success && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match host::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        Err(e) => eprintln!("perfbench: not pinned to one CPU: {e}"),
    }
    let name = args.workload.as_str();
    let opts = RunOpts::new(args.seed, args.seconds, args.trace);
    let o = match run_workload(name, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    print_table(name, &args, &o);
    if let Err(e) = write_results(&args.out, name, &args, &o) {
        eprintln!("perfbench: writing results to {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    let metrics = o.metrics.catalogue_json(reported(args.trace), "");
    println!(
        "{}",
        child::summary(o.attempted, o.failed, metrics).render()
    );
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
