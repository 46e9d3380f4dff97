//! Layered service benchmark for the three-way epistasis job service.
//!
//! ```text
//! epi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     as JSON (end-to-end metrics with --trace 0, per-layer with 1)
//! epi-benchmark [--seed <n>] [--seconds <s>] [--quick] [--check-repeat]
//!     every workload, each timed and traced in a fresh child process
//! epi-benchmark --manifest
//!     print BENCHMARK.json as rendered from the metric tables
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod fixture;
mod host;
mod layers;
mod metrics;
mod spoolfs;
mod trace;
mod workloads;

use fixture::{Fixture, Workload, RESULT_PROBE_TOP};
use host::Host;
use metrics::{
    parse_result, percentile, ParsedResult, RunResult, END_TO_END, PER_LAYER, RUN_SECONDS,
    WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 9,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects a number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                // `--trace 0|1` from the driver; bare `--trace` means on
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(2.0);
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The highest of p90/p95/p99 with at least ten samples beyond it.
fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples.len() as f64 * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, percentile(samples, p)))
}

/// One workload, once, in this process.
fn run_single(workload: Workload, args: &Args) {
    let run_dir = out_dir().join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        traced(workload, args, &run_dir)
    } else {
        timed(workload, args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = result.values.get(d.name) {
            eprintln!("  {:<28} {v:>16.6} {}", d.name, d.unit);
        }
    }
    eprintln!(
        "  failed_share {} ({} failed / {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.to_json(defs));
}

fn timed(workload: Workload, args: &Args, run_dir: &Path) -> RunResult {
    let (fx, setup_s) = Fixture::set_up_timed(workload, run_dir, args.seed);
    let out = workloads::run(&fx, args.seconds, None);
    drop(fx);
    eprintln!(
        "{} (seed {}, {} s): {} latency samples ({:.2}/s){}",
        workload.name(),
        args.seed,
        args.seconds,
        out.latencies_ms.len(),
        out.latencies_ms.len() as f64 / args.seconds,
        tail_percentile(&out.latencies_ms)
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.3} ms"))
    );
    for e in &out.errors {
        eprintln!("failed operation: {e}");
    }
    let mut result = RunResult {
        attempted: out.attempted,
        failed: out.failed,
        ..RunResult::default()
    };
    result.values.set("geps", out.geps());
    result.values.set("latency_p50_ms", out.latency_p50_ms());
    result.values.set("peak_rss_mb", peak_rss_mb());
    result.values.set("setup_s", setup_s);
    result
}

fn traced(workload: Workload, args: &Args, run_dir: &Path) -> RunResult {
    let host = Host::detect();
    eprintln!(
        "{} traced (seed {}): {}",
        workload.name(),
        args.seed,
        host.describe()
    );
    let fx = Fixture::set_up(workload, run_dir, args.seed, RESULT_PROBE_TOP);
    let tracer = trace::Tracer::new();
    let (result, ladder) = layers::traced_run(&fx, args.seconds, &tracer, &host);
    drop(fx);
    eprintln!("span self times (count, total s, self s):");
    for (name, (count, total, own)) in tracer.self_times() {
        eprintln!("  {name:<13} {count:>7} {total:>10.4} {own:>10.4}");
    }
    let file = out_dir().join(format!("trace-{}.json", workload.name()));
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {},\n{},\n{ladder},\n\"spans\": {}\n}}\n",
        workload.name(),
        args.seed,
        host.json_member(),
        tracer.to_json()
    );
    match std::fs::write(&file, json) {
        Ok(()) => eprintln!("spans written to {}", file.display()),
        Err(e) => eprintln!("cannot write {}: {e}", file.display()),
    }
    result
}

/// Run one workload in a fresh child so peak RSS and caches do not leak
/// between workloads; the child's commentary goes straight to stderr.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or_else(|| format!("{workload}: child printed no result ({})", output.status))
}

/// What the issue calls the metric on this workload.
fn alias(workload: &str, metric: &str) -> &'static str {
    match (workload, metric) {
        ("batch_scan", "geps") => "scan_geps",
        ("small_jobs", "geps") => "jobs_per_s x elements",
        ("small_jobs" | "batch_scan", "latency_p50_ms") => "job_p50_ms",
        ("durable_scan", "geps") => "durable_geps",
        ("durable_scan", "latency_p50_ms") => "restore_ms",
        ("federated_scan", "geps") => "fed_geps",
        ("federated_scan", "latency_p50_ms") => "federate p50",
        ("mixed_priority", "geps") => "bulk_geps",
        ("mixed_priority", "latency_p50_ms") => "interactive_p50_ms",
        _ => "",
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// Every workload timed (and traced unless `timed_only`); `Err` counts
/// the workloads that failed.
fn run_suite(args: &Args, timed_only: bool) -> Result<Vec<(&'static str, ParsedResult)>, usize> {
    let mut rows = Vec::new();
    let mut broken = 0;
    let mut traces = Vec::new();
    for w in WORKLOADS {
        let timed = match run_child(w.name, args, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                broken += 1;
                continue;
            }
        };
        println!("{}", w.name);
        for (name, value) in &timed.metrics {
            println!(
                "  {name:<16} {value:>14.4} {:<8} {}",
                unit_of(name),
                alias(w.name, name)
            );
        }
        println!(
            "  {:<16} {:>14.4} {:<8} {} failed / {} attempted",
            "failed_share",
            timed.failed as f64 / timed.attempted.max(1) as f64,
            "ratio",
            timed.failed,
            timed.attempted
        );
        if !timed.correct {
            broken += 1;
        }
        if !timed_only {
            match run_child(w.name, args, true) {
                Ok(traced) => {
                    let metric = |r: &ParsedResult, name: &str| {
                        r.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
                    };
                    if let (Some(off), Some(on)) =
                        (metric(&timed, "geps"), metric(&traced, "trace.e2e_geps"))
                    {
                        println!(
                            "  {:<16} {:>14.4} {:<8} geps, timed run against the traced loop",
                            "trace_overhead_pct",
                            (off - on) / off * 100.0,
                            "%"
                        );
                    }
                    for (name, value) in &traced.metrics {
                        println!("    {name:<28} {value:>16.6} {}", unit_of(name));
                    }
                    if !traced.correct {
                        broken += 1;
                    }
                    traces.push(w.name);
                }
                Err(e) => {
                    eprintln!("{e}");
                    broken += 1;
                }
            }
        }
        rows.push((w.name, timed));
    }
    if !traces.is_empty() {
        merge_traces(&traces);
    }
    if broken == 0 {
        Ok(rows)
    } else {
        Err(broken)
    }
}

/// `out/trace.json`: the per-workload trace files as one object.
fn merge_traces(workloads: &[&str]) {
    let mut merged = String::from("{");
    for (i, w) in workloads.iter().enumerate() {
        let Ok(one) = std::fs::read_to_string(out_dir().join(format!("trace-{w}.json"))) else {
            continue;
        };
        merged.push_str(if i == 0 { "\n" } else { ",\n" });
        merged.push_str(&format!("\"{w}\": {}", one.trim_end()));
    }
    merged.push_str("\n}\n");
    let file = out_dir().join("trace.json");
    match std::fs::write(&file, merged) {
        Ok(()) => println!("traces written to {}", file.display()),
        Err(e) => eprintln!("cannot write {}: {e}", file.display()),
    }
}

/// Print two runs of a workload side by side; how many end-to-end
/// metrics differ by more than their bound.
fn differences(workload: &str, a: &ParsedResult, b: &ParsedResult) -> usize {
    let mut differing = 0;
    for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound)
            .unwrap_or(0.0);
        let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
        let ok = diff <= bound;
        differing += usize::from(!ok);
        println!(
            "  {workload:<15} {name:<16} {va:>12.4} {vb:>12.4} {:>6.2}% of {:>4.0}% {}",
            diff * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "DIFFERS" }
        );
    }
    differing
}

/// Two timed passes of the whole suite must agree on every end-to-end
/// metric within its bound. A workload whose passes differ gets a third
/// run, which must agree with one of them: a single run that met a
/// burst of host noise is an outlier, two that differ from each other
/// and from a third are a benchmark that does not repeat.
fn check_repeat(args: &Args) -> bool {
    let (Ok(first), Ok(second)) = (run_suite(args, true), run_suite(args, true)) else {
        return false;
    };
    let mut agree = true;
    println!("repeat check:");
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        let mut differing = differences(workload, a, b);
        if differing > 0 {
            println!("  {workload}: third run, against the first and the second");
            let Ok(c) = run_child(workload, args, false) else {
                return false;
            };
            differing = differences(workload, a, &c).min(differences(workload, b, &c));
        }
        agree &= differing == 0;
    }
    agree
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = args.workload {
        run_single(workload, &args);
        return ExitCode::SUCCESS;
    }
    println!("{}", Host::detect().describe());
    let ok = if args.check_repeat && !args.quick {
        check_repeat(&args)
    } else {
        run_suite(&args, false).is_ok()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
