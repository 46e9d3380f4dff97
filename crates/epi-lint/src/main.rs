//! `cargo run -p epi-lint` — standalone entry point; `epi3 lint` wraps
//! the same library.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: epi-lint [--root DIR] [--check NAME]... [--json] [--list]

Runs the workspace static-analysis checks that clippy cannot replace.
Exits non-zero when any finding remains.

  --root DIR    repo root to lint (default: .)
  --check NAME  run only this named check (repeatable; see --list)
  --json        machine-readable output
  --list        list the nameable checks and their IDs
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("epi-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut only: Vec<String> = Vec::new();
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--check" => only.push(it.next().ok_or("--check needs a value")?),
            "--json" => json = true,
            "--list" => {
                print!("{}", epi_lint::list_checks());
                return Ok(true);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let valid: Vec<&str> = epi_lint::checks::CHECKS
        .iter()
        .map(|(n, _, _)| *n)
        .collect();
    for o in &only {
        if !valid.contains(&o.as_str()) {
            return Err(format!(
                "unknown check `{o}`; available: {}",
                valid.join(", ")
            ));
        }
    }
    let report = epi_lint::run_lint(&root, &only)?;
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    Ok(report.findings.is_empty())
}
