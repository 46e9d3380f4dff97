//! Host shape, recorded with every result: numbers from a 2-core
//! container and a 64-core server are not the same measurement.

use devices::{detect_l1d, detect_l2, detect_l3};
use std::process::Command;

#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    l1d: Option<(usize, usize)>,
    l2: Option<(usize, usize)>,
    l3: Option<(usize, usize)>,
    simd: String,
    rustc: String,
    commit: String,
}

/// First line a command prints, or `unknown` (the driver's checkout is
/// not a git repository; a host may lack either tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l1d: detect_l1d().map(|g| (g.size_bytes, 1)),
            l2: detect_l2().map(|c| (c.geom.size_bytes, c.shared_cpus)),
            l3: detect_l3().map(|c| (c.geom.size_bytes, c.shared_cpus)),
            simd: bitgenome::SimdLevel::detect().to_string(),
            rustc: first_line("rustc", &["-V"]),
            // only a checkout that is itself a repository has a commit
            // to name; never let git walk up and out of the checkout
            commit: if std::path::Path::new(".git").exists() {
                first_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        }
    }

    /// A row using more compute threads than `nproc - 1` shares cores
    /// with the harness's own client and event-loop threads: its
    /// wall-clock scaling is informational only.
    pub fn oversubscribed(&self, threads: usize) -> bool {
        threads > self.nproc.saturating_sub(1)
    }

    pub fn describe(&self) -> String {
        let cache = |c: Option<(usize, usize)>| {
            c.map_or("?".to_string(), |(bytes, shared)| {
                format!("{} KiB/{shared} cpu", bytes / 1024)
            })
        };
        format!(
            "host: nproc={} L1d={} L2={} L3={} simd={} rustc=\"{}\" commit={}",
            self.nproc,
            cache(self.l1d),
            cache(self.l2),
            cache(self.l3),
            self.simd,
            self.rustc,
            self.commit
        )
    }

    /// `"host": {...}` for the trace file.
    pub fn json_member(&self) -> String {
        let cache = |c: Option<(usize, usize)>| {
            c.map_or("null".to_string(), |(bytes, shared)| {
                format!("{{\"bytes\": {bytes}, \"shared_cpus\": {shared}}}")
            })
        };
        format!(
            "\"host\": {{\"nproc\": {}, \"l1d\": {}, \"l2\": {}, \"l3\": {}, \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc,
            cache(self.l1d),
            cache(self.l2),
            cache(self.l3),
            self.simd,
            self.rustc,
            self.commit
        )
    }
}
