//! Job specifications and the `key=value` token format they share with
//! the wire protocol and the checkpoint codec.

use bitgenome::SimdLevel;
use epi_core::scan::{ObjectiveKind, ScanConfig, Version};
use epi_core::shard::ShardSet;

/// Everything needed to (re)create a scan job deterministically: the
/// dataset location plus the scan and sharding configuration. A spec is
/// value-like — two equal specs always denote the same work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Path of the dataset file (server-side, `datagen::io::load` format).
    pub path: String,
    /// Scan approach (V1–V5).
    pub version: Version,
    /// Number of shards the combination range is split into.
    pub shards: u64,
    /// Subset of the global shard plan this job owns (`shard_set=` key,
    /// compact `0-4,7,9` form). `None` = every shard. A federation
    /// coordinator uses this to hand each node a partition of **one**
    /// global plan: all parties index the same `ShardPlan::triples(m,
    /// shards)`, so completed-shard accounting (and steal resubmission)
    /// is exact across machines.
    pub shard_set: Option<ShardSet>,
    /// Candidates retained per shard and in the final result.
    pub top_k: usize,
    /// Objective function.
    pub objective: ObjectiveKind,
    /// Forced SIMD tier for the scan kernels (`simd=` spec key). `None`
    /// = the server host's best tier. The engine clamps a requested tier
    /// to the *server's* capability at submit (the job runs there, not
    /// on the submitting client) and echoes the effective tier in
    /// STATUS replies.
    pub simd: Option<SimdLevel>,
    /// Artificial delay per shard in milliseconds. `0` in production;
    /// tests use it to make cancellation windows deterministic, and
    /// operators can use it to pace a low-priority job.
    pub throttle_ms: u64,
    /// Fault injection: panic the worker when it picks up this shard
    /// index. `None` in production; the resilience tests (and chaos
    /// drills) use it to prove a panicking worker fails only its job
    /// instead of wedging the engine.
    pub panic_shard: Option<u64>,
    /// Expected dataset content hash (`dataset_hash=` key, 16 hex
    /// digits of [`epi_core::integrity::dataset_hash`]). When set, the
    /// engine recomputes the hash of the node-local file at SUBMIT (and
    /// RESUME) and rejects the job with `ERR hash mismatch …` if it
    /// differs — a federation coordinator pins this so a node with a
    /// stale or corrupted dataset copy can never contribute candidates.
    /// `None` skips verification.
    pub dataset_hash: Option<u64>,
    /// Fault injection: answer the first N `PARTIAL` requests for this
    /// job with a protocol-level `ERR injected fault …` (`fail_partial=`
    /// key). `0` in production; the chaos tests use it to prove the
    /// coordinator retries harvests instead of losing shards.
    pub fail_partial: u32,
    /// Tenant this job is accounted to (`tenant=` key). Per-tenant
    /// concurrent-job and queued-shard quotas apply at SUBMIT, and the
    /// weighted-fair dispatcher round-robins shard claims across the
    /// tenants of one priority band. `None` = the `default` tenant.
    pub tenant: Option<String>,
    /// Dispatch priority 0–9 (`priority=` key), default
    /// [`JobSpec::DEFAULT_PRIORITY`]. The shard dispatcher is
    /// weighted-fair, not strict: a priority-`p` lane gets `p + 1`
    /// shares, so high-priority interactive jobs dominate the pool while
    /// a bulk priority-0 scan still makes progress instead of starving.
    pub priority: u8,
    /// Wall-clock budget in milliseconds from admission (`deadline_ms=`
    /// key). When it expires the engine fails the job with
    /// `deadline exceeded` and workers abandon its remaining shards;
    /// completed shards stay checkpointed. `None` = no deadline. A
    /// RESUME restarts the window.
    pub deadline_ms: Option<u64>,
    /// Client-supplied idempotency token (`job_token=` key). A SUBMIT
    /// whose token the engine has already admitted returns the existing
    /// job's status instead of creating a duplicate — what makes the
    /// client's retry-on-`over capacity` backoff loop safe even when a
    /// reply was lost in transit. `None` = every SUBMIT is a new job.
    pub job_token: Option<String>,
}

impl JobSpec {
    /// Default dispatch priority (`priority=` absent): one notch above
    /// the bulk floor, so operators can both boost (`priority=9`) and
    /// demote (`priority=0`) relative to unmarked jobs.
    pub const DEFAULT_PRIORITY: u8 = 1;
    /// Highest accepted `priority=` value.
    pub const MAX_PRIORITY: u8 = 9;

    /// Spec with the service defaults: V5, 64 shards, top-10, K2.
    pub fn new(path: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            version: Version::V5,
            shards: 64,
            shard_set: None,
            top_k: 10,
            objective: ObjectiveKind::K2,
            simd: None,
            throttle_ms: 0,
            panic_shard: None,
            dataset_hash: None,
            fail_partial: 0,
            tenant: None,
            priority: Self::DEFAULT_PRIORITY,
            deadline_ms: None,
            job_token: None,
        }
    }

    /// The `ScanConfig` a worker uses for one shard of this job.
    /// Workers always scan single-threaded: parallelism comes from
    /// draining many shards concurrently, not from threads per shard.
    pub fn scan_config(&self) -> ScanConfig {
        let mut cfg = ScanConfig::new(self.version);
        cfg.top_k = self.top_k.max(1);
        cfg.threads = 1;
        cfg.objective = self.objective;
        cfg.simd = self.simd;
        cfg
    }

    /// Render as `key=value` tokens (the SUBMIT argument format).
    pub fn to_tokens(&self) -> String {
        let mut s = format!(
            "path={} version={} shards={} top={}",
            escape(&self.path),
            self.version.name().to_ascii_lowercase(),
            self.shards,
            self.top_k,
        );
        if let Some(set) = &self.shard_set {
            s.push_str(&format!(" shard_set={}", set.to_compact()));
        }
        if self.objective == ObjectiveKind::NegMutualInformation {
            s.push_str(" mi");
        }
        if let Some(level) = self.simd {
            s.push_str(&format!(" simd={}", level.token()));
        }
        if self.throttle_ms > 0 {
            s.push_str(&format!(" throttle_ms={}", self.throttle_ms));
        }
        if let Some(shard) = self.panic_shard {
            s.push_str(&format!(" panic_shard={shard}"));
        }
        if let Some(hash) = self.dataset_hash {
            s.push_str(&format!(" dataset_hash={hash:016x}"));
        }
        if self.fail_partial > 0 {
            s.push_str(&format!(" fail_partial={}", self.fail_partial));
        }
        if let Some(tenant) = &self.tenant {
            s.push_str(&format!(" tenant={}", escape(tenant)));
        }
        if self.priority != Self::DEFAULT_PRIORITY {
            s.push_str(&format!(" priority={}", self.priority));
        }
        if let Some(ms) = self.deadline_ms {
            s.push_str(&format!(" deadline_ms={ms}"));
        }
        if let Some(token) = &self.job_token {
            s.push_str(&format!(" job_token={}", escape(token)));
        }
        s
    }

    /// Parse `key=value` tokens (inverse of [`JobSpec::to_tokens`]).
    /// Unknown keys are rejected so typos fail loudly.
    pub fn parse_tokens(tokens: &[&str]) -> Result<Self, String> {
        let mut path: Option<String> = None;
        let mut spec = Self::new(String::new());
        for tok in tokens {
            if *tok == "mi" {
                spec.objective = ObjectiveKind::NegMutualInformation;
                continue;
            }
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token {tok:?}, expected key=value"))?;
            match key {
                "path" => path = Some(unescape(value)?),
                "version" => {
                    spec.version = match value.to_ascii_lowercase().as_str() {
                        "v1" => Version::V1,
                        "v2" => Version::V2,
                        "v3" => Version::V3,
                        "v4" => Version::V4,
                        "v5" => Version::V5,
                        other => return Err(format!("unknown version {other:?}")),
                    }
                }
                "shards" => {
                    spec.shards = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("shards expects a positive number, got {value:?}"))?
                }
                "top" => {
                    spec.top_k = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k > 0)
                        .ok_or_else(|| format!("top expects a positive number, got {value:?}"))?
                }
                "shard_set" => {
                    let set = ShardSet::parse_compact(value)?;
                    if set.is_empty() {
                        return Err("shard_set selects no shards".into());
                    }
                    spec.shard_set = Some(set);
                }
                "simd" => spec.simd = Some(SimdLevel::parse_token(value)?),
                "throttle_ms" => {
                    spec.throttle_ms = value
                        .parse::<u64>()
                        .map_err(|_| format!("throttle_ms expects a number, got {value:?}"))?
                }
                "panic_shard" => {
                    spec.panic_shard = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("panic_shard expects a number, got {value:?}"))?,
                    )
                }
                "dataset_hash" => {
                    spec.dataset_hash = Some(u64::from_str_radix(value, 16).map_err(|_| {
                        format!("dataset_hash expects 16 hex digits, got {value:?}")
                    })?)
                }
                "fail_partial" => {
                    spec.fail_partial = value
                        .parse::<u32>()
                        .map_err(|_| format!("fail_partial expects a number, got {value:?}"))?
                }
                "tenant" => {
                    let tenant = unescape(value)?;
                    if tenant.is_empty() {
                        return Err("tenant expects a non-empty name".into());
                    }
                    spec.tenant = Some(tenant);
                }
                "priority" => {
                    spec.priority = value
                        .parse::<u8>()
                        .ok()
                        .filter(|&p| p <= Self::MAX_PRIORITY)
                        .ok_or_else(|| {
                            format!("priority expects 0-{}, got {value:?}", Self::MAX_PRIORITY)
                        })?
                }
                "deadline_ms" => {
                    spec.deadline_ms = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&ms| ms > 0)
                            .ok_or_else(|| {
                                format!("deadline_ms expects a positive number, got {value:?}")
                            })?,
                    )
                }
                "job_token" => {
                    let token = unescape(value)?;
                    if token.is_empty() {
                        return Err("job_token expects a non-empty token".into());
                    }
                    spec.job_token = Some(token);
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        spec.path = path.ok_or("missing required key path=")?;
        Ok(spec)
    }
}

/// Escape a string into a single all-ASCII, whitespace-free token
/// (`%`-encoding of `%`, whitespace, control bytes, and every non-ASCII
/// byte), so values survive the space-separated wire and checkpoint
/// formats and [`unescape`] restores the exact original — including
/// multi-byte UTF-8 sequences, which are escaped byte by byte.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        #[expect(
            clippy::unwrap_used,
            reason = "argument is a nibble (< 16), and from_digit with radix 16 is Some for all values < 16"
        )]
        if b == b'%' || b >= 0x80 || b.is_ascii_whitespace() || b.is_ascii_control() {
            out.push('%');
            out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Inverse of [`escape`].
pub fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "i < bytes.len() is the loop condition of the percent-decoder"
        )]
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape decodes to invalid UTF-8 in {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v5_roundtrips() {
        let mut spec = JobSpec::new("/data/x.epi3");
        spec.version = Version::V5;
        let line = spec.to_tokens();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);
        assert_eq!(
            JobSpec::parse_tokens(&["path=x", "version=v5"])
                .unwrap()
                .version,
            Version::V5
        );
    }

    #[test]
    fn tokens_roundtrip() {
        let mut spec = JobSpec::new("/data/with space/x.epi3");
        spec.version = Version::V2;
        spec.shards = 7;
        spec.top_k = 3;
        spec.objective = ObjectiveKind::NegMutualInformation;
        spec.simd = Some(SimdLevel::Avx2);
        spec.throttle_ms = 25;
        spec.panic_shard = Some(4);
        spec.shard_set = Some(ShardSet::from_indices([0, 1, 2, 5]));
        spec.dataset_hash = Some(0x0123_4567_89ab_cdef);
        spec.fail_partial = 2;
        spec.tenant = Some("team a/β".into());
        spec.priority = 7;
        spec.deadline_ms = Some(1500);
        spec.job_token = Some("retry token %1".into());
        let line = spec.to_tokens();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);
    }

    #[test]
    fn governance_keys_roundtrip_and_validate() {
        // defaults: no tenant/token/deadline, default priority
        let spec = JobSpec::parse_tokens(&["path=x"]).unwrap();
        assert_eq!(spec.tenant, None);
        assert_eq!(spec.priority, JobSpec::DEFAULT_PRIORITY);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.job_token, None);
        // the default priority is not emitted, so old wire forms persist
        assert!(!spec.to_tokens().contains("priority="));

        let spec =
            JobSpec::parse_tokens(&["path=x", "tenant=alice", "priority=9", "deadline_ms=250"])
                .unwrap();
        assert_eq!(spec.tenant.as_deref(), Some("alice"));
        assert_eq!(spec.priority, 9);
        assert_eq!(spec.deadline_ms, Some(250));
        let line = spec.to_tokens();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);

        // validation failures are clean parse errors
        assert!(JobSpec::parse_tokens(&["path=x", "priority=10"]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "priority=-1"]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "deadline_ms=0"]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "tenant="]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "job_token="]).is_err());
    }

    #[test]
    fn dataset_hash_key_roundtrips_full_width() {
        // leading zeros and the top bit must both survive the hex form
        for hash in [0u64, 1, 0x8000_0000_0000_0000, u64::MAX] {
            let mut spec = JobSpec::new("/data/x.epi3");
            spec.dataset_hash = Some(hash);
            let line = spec.to_tokens();
            let tokens: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);
        }
        assert!(JobSpec::parse_tokens(&["path=x", "dataset_hash=xyz"]).is_err());
        assert_eq!(
            JobSpec::parse_tokens(&["path=x"]).unwrap().dataset_hash,
            None
        );
    }

    #[test]
    fn shard_set_key_roundtrips_and_rejects_empty() {
        let spec = JobSpec::parse_tokens(&["path=x", "shard_set=0-2,5"]).unwrap();
        assert_eq!(spec.shard_set, Some(ShardSet::from_indices([0, 1, 2, 5])));
        let line = spec.to_tokens();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);
        // an empty selection is a spec error, not a degenerate job
        assert!(JobSpec::parse_tokens(&["path=x", "shard_set="]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "shard_set=3-1"]).is_err());
    }

    #[test]
    fn simd_key_parses_and_rejects_unknown_tiers() {
        for (token, level) in [
            ("scalar", SimdLevel::Scalar),
            ("avx2", SimdLevel::Avx2),
            ("avx512", SimdLevel::Avx512),
            ("vpopcnt", SimdLevel::Avx512Vpopcnt),
        ] {
            let spec = JobSpec::parse_tokens(&["path=x", &format!("simd={token}")]).unwrap();
            assert_eq!(spec.simd, Some(level));
            assert_eq!(spec.scan_config().simd, Some(level));
            // roundtrip through the wire form
            let line = spec.to_tokens();
            let tokens: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(JobSpec::parse_tokens(&tokens).unwrap(), spec);
        }
        // unknown tier names are a clean parse error, not a panic
        let err = JobSpec::parse_tokens(&["path=x", "simd=sse9"]).unwrap_err();
        assert!(err.contains("sse9"), "unhelpful error: {err}");
        // default stays unforced
        assert_eq!(JobSpec::parse_tokens(&["path=x"]).unwrap().simd, None);
    }

    #[test]
    fn defaults_and_errors() {
        let spec = JobSpec::parse_tokens(&["path=x.epi3"]).unwrap();
        assert_eq!(spec.version, Version::V5);
        assert_eq!(spec.shards, 64);
        assert_eq!(spec.top_k, 10);
        assert!(JobSpec::parse_tokens(&[]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "shards=0"]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "nope=1"]).is_err());
        assert!(JobSpec::parse_tokens(&["path=x", "version=v9"]).is_err());
    }

    #[test]
    fn escape_roundtrips_awkward_strings() {
        for s in [
            "plain",
            "with space",
            "tab\there",
            "pct%25",
            "new\nline",
            "",
            "/data/café.epi3",
            "日本語/パス.epi3",
            "mixed café\ttab%",
        ] {
            let esc = escape(s);
            assert!(esc.is_ascii(), "escape must emit pure ASCII: {esc:?}");
            let esc = escape(s);
            assert!(!esc.contains(char::is_whitespace));
            assert_eq!(unescape(&esc).unwrap(), s);
        }
    }
}
