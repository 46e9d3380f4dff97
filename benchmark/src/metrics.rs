//! The benchmark's vocabulary: every workload and metric by name, with
//! unit, direction and regression bound. `BENCHMARK.json` is rendered
//! from these tables (`--manifest`), so the file the driver reads and
//! the numbers the harness prints cannot drift apart.

use std::fmt::Write as _;

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "batch_scan",
        why: "One client, back-to-back exhaustive scans: the paper's use case. Kernel is >=90% of wall time, so kernel/SIMD/cache-budget work shows here and service-layer work must not.",
    },
    WorkloadDef {
        name: "small_jobs",
        why: "Two tenants, closed loop, tiny jobs on a biobank-size cohort: per-job fixed cost (load+hash+encode at SUBMIT, admission, round trips) is over half of each job; kernel work predicted flat.",
    },
    WorkloadDef {
        name: "durable_scan",
        why: "Spooled jobs then restart+RESULT on the same spool: checkpoint writes and restore reads share one codec, so a write-side gain that costs restore (or the reverse) shows.",
    },
    WorkloadDef {
        name: "federated_scan",
        why: "The batch_scan dataset federated over 2 loopback nodes with unique job tokens: geps here against batch_scan's is the coordinator+wire+merge tax.",
    },
    WorkloadDef {
        name: "mixed_priority",
        why: "One worker, a priority-1 bulk tenant resubmitting 512-shard jobs while a priority-9 tenant runs small jobs closed-loop: only here do stride lanes, claim length and preemption decide.",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the service sees. Every workload reports all four;
/// what `geps` and `latency_p50_ms` time on each workload is in the
/// README's table.
pub const END_TO_END: &[MetricDef] = &[
    e2e("geps", "Gelem/s", true, 0.20),
    e2e("latency_p50_ms", "ms", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// One layer each, module name = layer. `true` = higher is better.
pub const PER_LAYER: &[MetricDef] = &[
    layer("datagen.load_ms", "ms", false),
    layer("integrity.hash_ms", "ms", false),
    layer("bitgenome.encode_ms", "ms", false),
    layer("kernel.scan_s", "s", false),
    layer("kernel.geps", "Gelem/s", true),
    layer("kernel.elements", "count", true),
    layer("kernel.bytes_computed", "B", false),
    layer("kernel.ops_per_byte", "ops/B", true),
    layer("kernel.pct_of_popcnt_peak", "%", true),
    layer("shard.scan_s", "s", false),
    layer("shard.overhead_pct", "%", false),
    layer("shard.prefix_hit_rate", "ratio", true),
    layer("pool.speedup_2w", "x", true),
    layer("pool.oversubscribed", "flag", false),
    layer("engine.submit_ms", "ms", false),
    layer("engine.job_s", "s", false),
    layer("engine.overhead_pct", "%", false),
    layer("engine.spool_job_s", "s", false),
    layer("engine.spool_overhead_pct", "%", false),
    layer("engine.restore_ms", "ms", false),
    layer("engine.rescanned_shards", "count", false),
    layer("engine.mem_used_end", "B", false),
    layer("engine.rejected", "count", false),
    layer("queue.push_pop_ns", "ns", false),
    layer("queue.claim_wait_p50_ms", "ms", false),
    layer("queue.claim_wait_p95_ms", "ms", false),
    layer("spool.bytes_written", "B", false),
    layer("spool.ops", "count", false),
    layer("spool.write_busy_s", "s", false),
    layer("spool.bytes_per_shard", "B", false),
    layer("spool.read_busy_s", "s", false),
    layer("codec.write_ms", "ms", false),
    layer("codec.read_ms", "ms", false),
    layer("codec.bytes", "B", false),
    layer("spec.parse_us", "us", false),
    layer("frame.roundtrip_mb_s", "MB/s", true),
    layer("wire.ping_rtt_us_text", "us", false),
    layer("wire.ping_rtt_us_framed", "us", false),
    layer("wire.job_s_text", "s", false),
    layer("wire.job_s_framed", "s", false),
    layer("wire.overhead_pct", "%", false),
    layer("wire.result_mb_s", "MB/s", true),
    layer("client.submit_ms", "ms", false),
    layer("client.wait_ms", "ms", false),
    layer("client.result_ms", "ms", false),
    layer("client.polls_per_job", "count", false),
    layer("client.job_p95_ms", "ms", false),
    layer("client.wait_overshoot_ms", "ms", false),
    layer("coord.job_s_1node", "s", false),
    layer("coord.job_s", "s", false),
    layer("coord.tax_pct", "%", false),
    layer("coord.steals", "count", false),
    layer("coord.node_imbalance", "ratio", false),
    layer("coord.fleet_scanned", "count", false),
    layer("coord.oversubscribed", "flag", false),
    layer("server.pair_hit_rate", "ratio", true),
    layer("server.accept_errors", "count", false),
    layer("trace.e2e_geps", "Gelem/s", true),
    layer("trace.e2e_latency_p50_ms", "ms", false),
    layer("trace.spans", "count", false),
];

/// Measured values of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The outcome of one run: what the driver reads from the last line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly the metrics of `defs`, every digit kept.
    /// A metric the run failed to measure renders as 0 and makes the
    /// run incorrect rather than dropping the key.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut complete = true;
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    complete = false;
                    0.0
                }
            };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct() && complete,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A result line read back by the suite runner from a child it started.
#[derive(Debug)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parse a line written by [`RunResult::to_json`] (that format only).
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |s: &str| -> Option<f64> {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        s[..end].parse().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\": {")?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = rest[name_end..].find("\"value\":")? + name_end + "\"value\":".len();
        metrics.push((name.to_string(), number(rest[value_at..].trim_start())?));
        rest = &rest[rest[value_at..].find('}')? + value_at + 1..];
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, d) in defs.iter().enumerate() {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}{}",
                d.name,
                d.unit,
                if i + 1 < defs.len() { "," } else { "" }
            );
        }
        out.push_str(if key == "end_to_end" {
            "  ],\n"
        } else {
            "  ]\n"
        });
    }
    out.push_str("}\n");
    out
}

/// Median of `samples` (mean of the middle pair for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile; 0 for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// `(a - b) / b` as a percentage: how much slower `a` is than `b`.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        (a - b) / b * 100.0
    } else {
        0.0
    }
}
