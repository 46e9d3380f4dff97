//! Checkpoint codec: a tiny std-only, line-oriented serialization of a
//! job's spec and completed shard results.
//!
//! Scores are stored as the hex of `f64::to_bits`, so a resumed or
//! transferred job reproduces results **bit-identically** — the ordering
//! guarantees of `TopK` depend on exact score values, and a lossy decimal
//! round-trip would break them.
//!
//! One format serves all three spool files of a job: the header-only
//! base written at SUBMIT, the one-record delta a worker writes per
//! finished shard ([`Checkpoint::write_records`]) and the compacted
//! whole-job file ([`Checkpoint::write_to`]). The reader checks the
//! magic, each record's declared candidate count and the `end`
//! sentinel — there is no checksum — so a torn file of any kind is
//! rejected as a whole, never half-applied.
//!
//! Format (one record per line, space-separated, values `%`-escaped):
//!
//! ```text
//! epi3ckpt v1
//! job <id>
//! spec <key=value tokens...>
//! shard <index> <candidate-count>
//! cand <i0> <i1> <i2> <score-bits-hex>
//! ...
//! end
//! ```

#![warn(clippy::disallowed_methods)]

use crate::job::{Job, JobState};
use crate::spec::JobSpec;
use epi_core::result::Candidate;
use epi_core::shard::ShardPlan;
use std::io::{self, BufRead, Write};

const MAGIC: &str = "epi3ckpt v1";

/// A checkpoint: everything needed to resume a job except the dataset
/// itself (reloaded from `spec.path`).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub job_id: u64,
    pub spec: JobSpec,
    /// SNP count of the dataset the shard plan was derived from. Stored
    /// so a restore rebuilds the identical plan without touching the
    /// dataset file (which may be temporarily unavailable).
    pub snps: usize,
    /// Completed shard results, indexed by shard; `None` = not scanned.
    pub shard_results: Vec<Option<Vec<Candidate>>>,
}

impl Checkpoint {
    /// Snapshot a job's durable state.
    pub fn of_job(job: &Job) -> Self {
        Self {
            job_id: job.id,
            spec: job.spec.clone(),
            snps: job.plan.num_snps(),
            shard_results: job.shard_results.clone(),
        }
    }

    /// Does every shard the job owns (all of them, or its `shard_set`)
    /// have a record?
    pub fn is_complete(&self) -> bool {
        let unowned = |i: usize| match &self.spec.shard_set {
            Some(set) => !set.contains(i as u64),
            None => false,
        };
        let mut slots = self.shard_results.iter().enumerate();
        slots.all(|(i, r)| r.is_some() || unowned(i))
    }

    /// Take the shard records of another file of the same job that
    /// this one lacks (a shard in both carries the same bits). A file
    /// of another job, or laid out for another shard count, is ignored.
    pub fn absorb(&mut self, other: Checkpoint) {
        if other.job_id == self.job_id && other.shard_results.len() == self.shard_results.len() {
            for (slot, theirs) in self.shard_results.iter_mut().zip(other.shard_results) {
                *slot = slot.take().or(theirs);
            }
        }
    }

    /// Rebuild a `Job` in `Cancelled` state (resume re-enqueues the
    /// missing shards); `Done` if no shard the job owns is missing.
    pub fn into_job(self) -> Job {
        let plan = ShardPlan::triples(self.snps, self.spec.shards);
        let complete = self.is_complete();
        let fail_partial_left = self.spec.fail_partial;
        let mut job = Job {
            id: self.job_id,
            spec: self.spec,
            plan,
            state: if complete {
                JobState::Done
            } else {
                JobState::Cancelled
            },
            shard_results: self.shard_results,
            in_flight: Default::default(),
            data: None,
            error: None,
            dataset_hash: None,
            fail_partial_left,
            // restored jobs carry no deadline or memory charge until
            // RESUME re-admits them through the accountant
            deadline: None,
            mem_charge: 0,
        };
        if job.shard_results.len() as u64 != job.plan.num_shards() {
            job.state = JobState::Failed;
            job.error = Some(format!(
                "checkpoint has {} shards but plan expects {}",
                job.shard_results.len(),
                job.plan.num_shards()
            ));
        }
        job
    }

    /// Serialize to a writer.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let done = self.shard_results.iter().enumerate();
        let records = done.filter_map(|(idx, r)| Some((idx as u64, r.as_deref()?)));
        Self::write_records(w, self.job_id, &self.spec, self.snps, records)
    }

    /// Serialize a checkpoint that carries exactly `records` (ascending
    /// shard index), from borrowed parts: what [`Checkpoint::write_to`]
    /// emits for a checkpoint holding those shards and no others. The
    /// engine's per-shard delta is the one-record case, built from what
    /// the worker already holds — no [`Checkpoint`], no clone.
    pub fn write_records<'a, W: Write>(
        mut w: W,
        job_id: u64,
        spec: &JobSpec,
        snps: usize,
        records: impl IntoIterator<Item = (u64, &'a [Candidate])>,
    ) -> io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "job {job_id}")?;
        writeln!(w, "spec {}", spec.to_tokens())?;
        writeln!(w, "snps {snps}")?;
        for (idx, cands) in records {
            writeln!(w, "shard {idx} {}", cands.len())?;
            for c in cands {
                writeln!(
                    w,
                    "cand {} {} {} {:016x}",
                    c.triple.0,
                    c.triple.1,
                    c.triple.2,
                    c.score.to_bits()
                )?;
            }
        }
        writeln!(w, "end")
    }

    /// Deserialize from a reader.
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, String> {
        let mut lines = r.lines();
        let mut next_line = || -> Result<String, String> {
            lines
                .next()
                .ok_or("truncated checkpoint")?
                .map_err(|e| format!("read error: {e}"))
        };
        if next_line()? != MAGIC {
            return Err("not an epi3 v1 checkpoint".into());
        }
        let job_line = next_line()?;
        let job_id = job_line
            .strip_prefix("job ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad job line {job_line:?}"))?;
        let spec_line = next_line()?;
        let spec_tokens: Vec<&str> = spec_line
            .strip_prefix("spec ")
            .ok_or_else(|| format!("bad spec line {spec_line:?}"))?
            .split_whitespace()
            .collect();
        let spec = JobSpec::parse_tokens(&spec_tokens)?;
        let snps_line = next_line()?;
        let snps = snps_line
            .strip_prefix("snps ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad snps line {snps_line:?}"))?;
        let mut shard_results: Vec<Option<Vec<Candidate>>> =
            vec![None; usize::try_from(spec.shards).map_err(|_| "shard count overflow")?];
        loop {
            let line = next_line()?;
            if line == "end" {
                break;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("shard") {
                return Err(format!("unexpected record {line:?}"));
            }
            let idx: usize = parse_field(parts.next(), "shard index")?;
            let count: usize = parse_field(parts.next(), "candidate count")?;
            if idx >= shard_results.len() {
                return Err(format!("shard index {idx} out of range"));
            }
            // `count` is the file's claim (a torn or crafted spool can
            // say anything): grow as records actually arrive
            let mut cands = Vec::new();
            for _ in 0..count {
                let cand_line = next_line()?;
                let mut f = cand_line.split_whitespace();
                if f.next() != Some("cand") {
                    return Err(format!("expected cand record, got {cand_line:?}"));
                }
                let a: u32 = parse_field(f.next(), "i0")?;
                let b: u32 = parse_field(f.next(), "i1")?;
                let c: u32 = parse_field(f.next(), "i2")?;
                let bits = f.next().ok_or("missing score bits")?;
                let bits = u64::from_str_radix(bits, 16)
                    .map_err(|_| format!("bad score bits {bits:?}"))?;
                cands.push(Candidate {
                    score: f64::from_bits(bits),
                    triple: (a, b, c),
                });
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "idx is range-checked against the shard count a few lines above and rejected with a protocol error first"
            )]
            let slot = &mut shard_results[idx];
            if slot.is_some() {
                return Err(format!("duplicate shard record {idx}"));
            }
            *slot = Some(cands);
        }
        Ok(Self {
            job_id,
            spec,
            snps,
            shard_results,
        })
    }
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, String> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("missing or malformed {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_core::scan::Version;

    fn sample_checkpoint() -> Checkpoint {
        let mut spec = JobSpec::new("/tmp/some data.epi3");
        spec.version = Version::V2;
        spec.shards = 4;
        spec.top_k = 2;
        Checkpoint {
            job_id: 17,
            spec,
            snps: 30,
            shard_results: vec![
                Some(vec![
                    Candidate {
                        score: -1.5,
                        triple: (0, 1, 2),
                    },
                    Candidate {
                        // awkward subnormal-ish value: exact bit round-trip required
                        score: std::f64::consts::PI * 1e-300,
                        triple: (3, 4, 5),
                    },
                ]),
                None,
                Some(vec![]),
                None,
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let ck = sample_checkpoint();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ck);
        let orig = ck.shard_results[0].as_ref().unwrap()[1].score;
        let restored = back.shard_results[0].as_ref().unwrap()[1].score;
        assert_eq!(orig.to_bits(), restored.to_bits());
    }

    #[test]
    fn non_finite_scores_roundtrip_bit_for_bit() {
        // The "exact f64 bits" claim must hold even for values decimal
        // formatting cannot represent at all: NaNs (including distinct
        // payload bits, which `==` can never check — NaN != NaN), both
        // infinities, and the two zeros (-0.0 == 0.0 yet differs in
        // sign bit). Compare raw bits, not values. After the fixed
        // specials, a few thousand seeded bit patterns: every exponent
        // class, NaN payloads and subnormals included.
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN, nonzero payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-style NaN pattern
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal, while we're at it
        ];
        let scores: Vec<f64> = specials
            .into_iter()
            .chain((0..4096).map(|i| f64::from_bits(crate::spool::seeded_roll(0xf10a7, i))))
            .collect();
        let cands: Vec<Candidate> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| Candidate {
                score,
                triple: (i as u32, i as u32 + 1, i as u32 + 2),
            })
            .collect();
        let mut spec = JobSpec::new("/tmp/nonfinite.epi3");
        spec.shards = 1;
        let ck = Checkpoint {
            job_id: 99,
            spec,
            snps: 12,
            shard_results: vec![Some(cands)],
        };
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&buf[..]).unwrap();
        let restored = back.shard_results[0].as_ref().unwrap();
        assert_eq!(restored.len(), scores.len());
        for (got, want) in restored.iter().zip(&scores) {
            assert_eq!(
                got.score.to_bits(),
                want.to_bits(),
                "score {want:?} (bits {:016x}) corrupted to {:?} (bits {:016x})",
                want.to_bits(),
                got.score,
                got.score.to_bits()
            );
        }
        // sanity: the two NaNs with different payloads stayed distinct
        assert_ne!(restored[0].score.to_bits(), restored[2].score.to_bits());
        // and the signs of -0.0 / +0.0 survived even though they compare ==
        assert!(restored[6].score.is_sign_negative());
        assert!(restored[7].score.is_sign_positive());
    }

    #[test]
    fn rejects_corruption() {
        let ck = sample_checkpoint();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(Checkpoint::read_from("nope\n".as_bytes()).is_err());
        let truncated = &text[..text.len() - 10];
        assert!(Checkpoint::read_from(truncated.as_bytes()).is_err());
        let dup = text.replace("shard 2 0\n", "shard 0 0\n");
        assert!(Checkpoint::read_from(dup.as_bytes()).is_err());
        // a record count the file cannot back is a truncated checkpoint
        // (`.prev` is tried next), not a 2^50-entry allocation: that
        // aborts the process, and restore runs at server start
        let crafted = text.replace("shard 2 0\n", "shard 2 1125899906842624\n");
        assert_ne!(crafted, text);
        let err = Checkpoint::read_from(crafted.as_bytes()).unwrap_err();
        assert!(err.contains("cand record"), "{err}");
    }

    #[test]
    fn into_job_classifies_completeness() {
        let ck = sample_checkpoint();
        let job = ck.clone().into_job();
        assert_eq!(job.state, JobState::Cancelled);
        assert_eq!(job.missing_shards(), vec![1, 3]);
        let mut full = ck;
        for r in &mut full.shard_results {
            r.get_or_insert_with(Vec::new);
        }
        assert_eq!(full.into_job().state, JobState::Done);
    }
}
