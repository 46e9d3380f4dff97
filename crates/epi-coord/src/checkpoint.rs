//! Durable coordinator state: the `FederationCheckpoint` codec and its
//! torn-write-safe spool.
//!
//! After every merge batch the coordinator spools what it would lose in
//! a crash: the pinned sub-job spec, the set of globally merged shards,
//! the live per-node assignments, per-node merge attribution, and the
//! harvested top-K (scores in the same exact `f64::to_bits` hex codec
//! as the wire protocol and the server-side job checkpoint, so a resume
//! is bit-identical — not approximately equal). `epi3 federate --resume
//! <spool>` rebuilds a `Run` from this: merged shards are never
//! rescanned, still-running sub-jobs are adopted by job id, and only
//! the genuinely unfinished remainder is resubmitted.
//!
//! The spool is written through `epi_server::spool`'s rotation (tmp →
//! rotate last-good to `.prev` → rename) over a [`SpoolFs`], so a
//! coordinator killed *mid-write* — or a disk that fails one — leaves
//! either a complete new checkpoint or the complete previous one;
//! loading falls back to `.prev` when the primary is torn, and a
//! trailing `end` sentinel makes truncation detectable rather than
//! silently loading a prefix.

#![warn(clippy::disallowed_methods)]

use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use epi_server::spool::{self, SpoolFs};
use epi_server::JobSpec;
use std::io::{BufRead, Write};
use std::path::Path;

const MAGIC: &str = "epi3fedckpt v1";

/// One sub-job assignment as spooled: which node, which server-side job
/// id, what it owns, and what of that has already been merged globally.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointAssignment {
    pub node: String,
    pub job_id: u64,
    pub owned: ShardSet,
    pub done: ShardSet,
}

/// Everything a killed coordinator needs to continue bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct FederationCheckpoint {
    /// The sub-job template, including the pinned `dataset_hash=`.
    pub spec: JobSpec,
    /// Shards of the global plan already merged into `top`.
    pub merged: ShardSet,
    /// Merge attribution per node address (report continuity).
    pub node_merged: Vec<(String, u64)>,
    /// Assignments that were active at spool time.
    pub assignments: Vec<CheckpointAssignment>,
    /// Harvested top-K so far (sorted, bit-exact scores).
    pub top: Vec<Candidate>,
}

/// Compact `ShardSet` with a `-` sentinel for the empty set (an empty
/// compact form would vanish between the space-separated fields).
fn set_token(s: &ShardSet) -> String {
    if s.is_empty() {
        "-".into()
    } else {
        s.to_compact()
    }
}

fn parse_set(tok: &str) -> Result<ShardSet, String> {
    if tok == "-" {
        Ok(ShardSet::new())
    } else {
        ShardSet::parse_compact(tok)
    }
}

impl FederationCheckpoint {
    /// Serialize to a writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "spec {}", self.spec.to_tokens())?;
        writeln!(w, "merged {}", set_token(&self.merged))?;
        for (addr, n) in &self.node_merged {
            writeln!(w, "node {} {n}", epi_server::escape(addr))?;
        }
        for a in &self.assignments {
            writeln!(
                w,
                "assign {} {} {} {}",
                epi_server::escape(&a.node),
                a.job_id,
                set_token(&a.owned),
                set_token(&a.done),
            )?;
        }
        for c in &self.top {
            writeln!(
                w,
                "cand {} {} {} {:016x}",
                c.triple.0,
                c.triple.1,
                c.triple.2,
                c.score.to_bits()
            )?;
        }
        writeln!(w, "end")
    }

    /// Parse from a reader (inverse of [`FederationCheckpoint::write_to`]).
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, String> {
        let mut lines = r.lines();
        let magic = lines
            .next()
            .ok_or("empty checkpoint")?
            .map_err(|e| format!("read checkpoint: {e}"))?;
        if magic.trim_end() != MAGIC {
            return Err(format!("bad checkpoint magic {magic:?}"));
        }
        let mut spec: Option<JobSpec> = None;
        let mut merged: Option<ShardSet> = None;
        let mut node_merged = Vec::new();
        let mut assignments = Vec::new();
        let mut top = Vec::new();
        let mut complete = false;
        for line in lines {
            let line = line.map_err(|e| format!("read checkpoint: {e}"))?;
            let line = line.trim_end();
            if line == "end" {
                complete = true;
                break;
            }
            let (kind, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed checkpoint line {line:?}"))?;
            match kind {
                "spec" => {
                    let tokens: Vec<&str> = rest.split_whitespace().collect();
                    spec = Some(JobSpec::parse_tokens(&tokens)?);
                }
                "merged" => merged = Some(parse_set(rest)?),
                "node" => {
                    let mut parts = rest.split_whitespace();
                    let addr =
                        epi_server::unescape(parts.next().ok_or("node line: missing addr")?)?;
                    let n: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or("node line: bad count")?;
                    node_merged.push((addr, n));
                }
                "assign" => {
                    let mut parts = rest.split_whitespace();
                    let node =
                        epi_server::unescape(parts.next().ok_or("assign line: missing addr")?)?;
                    let job_id: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or("assign line: bad job id")?;
                    let owned = parse_set(parts.next().ok_or("assign line: missing owned")?)?;
                    let done = parse_set(parts.next().ok_or("assign line: missing done")?)?;
                    assignments.push(CheckpointAssignment {
                        node,
                        job_id,
                        owned,
                        done,
                    });
                }
                "cand" => {
                    let mut parts = rest.split_whitespace();
                    let mut num = |what: &str| -> Result<u64, String> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| format!("cand line: bad {what}"))
                    };
                    let (a, b, c) = (num("i0")?, num("i1")?, num("i2")?);
                    let bits = parts
                        .next()
                        .and_then(|t| u64::from_str_radix(t, 16).ok())
                        .ok_or("cand line: bad score bits")?;
                    top.push(Candidate {
                        score: f64::from_bits(bits),
                        triple: (a as u32, b as u32, c as u32),
                    });
                }
                other => return Err(format!("unknown checkpoint line kind {other:?}")),
            }
        }
        if !complete {
            return Err("truncated checkpoint: missing end sentinel".into());
        }
        Ok(Self {
            spec: spec.ok_or("checkpoint missing spec line")?,
            merged: merged.ok_or("checkpoint missing merged line")?,
            node_merged,
            assignments,
            top,
        })
    }

    /// Spool to `path` through [`spool::write_rotated`] (tmp → `.prev`
    /// → rename), the rotation the server's job checkpoints use: at
    /// every instant the disk holds at least one complete checkpoint.
    pub fn save(&self, fs: &dyn SpoolFs, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs.create_dir_all(dir)
                .map_err(|e| format!("create spool dir {}: {e}", dir.display()))?;
        }
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .and_then(|()| spool::write_rotated(fs, path, &buf))
            .map_err(|e| format!("write spool {}: {e}", path.display()))
    }

    /// Load from `path`, falling back to `<path>.prev` when the primary
    /// is missing or torn (a crash mid-write leaves exactly that shape).
    pub fn load(fs: &dyn SpoolFs, path: &Path) -> Result<Self, String> {
        spool::read_rotated(fs, path, |bytes| Self::read_from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FederationCheckpoint {
        let mut spec = JobSpec::new("/data/with space/x.epi3");
        spec.shards = 16;
        spec.top_k = 8;
        spec.dataset_hash = Some(0xdead_beef_0123_4567);
        FederationCheckpoint {
            spec,
            merged: ShardSet::from_indices([0, 1, 2, 5, 9]),
            node_merged: vec![("127.0.0.1:7001".into(), 3), ("127.0.0.1:7002".into(), 2)],
            assignments: vec![
                CheckpointAssignment {
                    node: "127.0.0.1:7001".into(),
                    job_id: 4,
                    owned: ShardSet::from_range(0..8),
                    done: ShardSet::from_indices([0, 1, 2, 5]),
                },
                CheckpointAssignment {
                    node: "127.0.0.1:7002".into(),
                    job_id: 2,
                    owned: ShardSet::from_range(8..16),
                    done: ShardSet::from_indices([9]),
                },
            ],
            top: vec![
                Candidate {
                    score: 12.5,
                    triple: (2, 7, 11),
                },
                Candidate {
                    score: 13.25,
                    triple: (0, 1, 2),
                },
            ],
        }
    }

    fn roundtrip(ck: &FederationCheckpoint) -> FederationCheckpoint {
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        FederationCheckpoint::read_from(buf.as_slice()).unwrap()
    }

    fn assert_bit_identical(a: &FederationCheckpoint, b: &FederationCheckpoint) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.node_merged, b.node_merged);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.top.len(), b.top.len());
        for (x, y) in a.top.iter().zip(&b.top) {
            assert_eq!(x.triple, y.triple);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits of {:?}",
                x.triple
            );
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ck = sample();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn non_finite_and_signed_zero_scores_roundtrip_bit_for_bit() {
        // the exact score set the server-side codec pins, reused here:
        // every one of these breaks a decimal-text codec. Then a few
        // thousand seeded bit patterns, NaN payloads and subnormals
        // included.
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-ish NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
        ];
        let random = (0..4096).map(|i| f64::from_bits(epi_server::spool::seeded_roll(0xc0a7, i)));
        let mut ck = sample();
        ck.top = specials
            .into_iter()
            .chain(random)
            .enumerate()
            .map(|(i, s)| Candidate {
                score: s,
                triple: (i as u32, i as u32 + 1, i as u32 + 2),
            })
            .collect();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn empty_and_full_shard_sets_roundtrip() {
        let mut ck = sample();
        // empty everything: a checkpoint taken before the first merge
        ck.merged = ShardSet::new();
        ck.assignments[0].done = ShardSet::new();
        ck.top = Vec::new();
        assert_bit_identical(&ck, &roundtrip(&ck));
        // full everything: a checkpoint taken at the finish line
        ck.merged = ShardSet::from_range(0..16);
        ck.assignments[0].done = ck.assignments[0].owned.clone();
        ck.assignments[1].done = ck.assignments[1].owned.clone();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // cut anywhere before the end sentinel: clean error, never a
        // silently shorter checkpoint
        for cut in [text.len() - 5, text.len() / 2, MAGIC.len() + 1] {
            let err = FederationCheckpoint::read_from(&text.as_bytes()[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
        assert!(FederationCheckpoint::read_from("not a checkpoint\n".as_bytes()).is_err());
        assert!(FederationCheckpoint::read_from("".as_bytes()).is_err());
    }

    #[test]
    fn save_rotates_and_load_falls_back_to_last_good_checkpoint() {
        use epi_server::{FaultySpoolFs, RealSpoolFs, SpoolFault, SpoolSchedule};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("epi_fedckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("federation.ckpt");
        let fs = &RealSpoolFs;

        let mut first = sample();
        first.merged = ShardSet::from_indices([0, 1]);
        first.save(fs, &path).unwrap();
        assert_bit_identical(&FederationCheckpoint::load(fs, &path).unwrap(), &first);

        let mut second = sample();
        second.merged = ShardSet::from_indices([0, 1, 2, 3]);
        second.save(fs, &path).unwrap();
        assert_bit_identical(&FederationCheckpoint::load(fs, &path).unwrap(), &second);

        // simulate a crash mid-write of a third checkpoint: the primary
        // is torn, the rotated .prev still holds the last good state
        let mut torn = Vec::new();
        second.write_to(&mut torn).unwrap();
        let torn = &torn[..torn.len() - 7]; // lose the end sentinel
        std::fs::write(&path, torn).unwrap();
        let recovered = FederationCheckpoint::load(fs, &path).unwrap();
        assert_bit_identical(&recovered, &first); // .prev = the first save

        // with both torn, the error reports the primary's problem
        std::fs::write(dir.join("federation.ckpt.prev"), b"garbage\n").unwrap();
        let err = FederationCheckpoint::load(fs, &path).unwrap_err();
        assert!(err.contains("truncated"), "unhelpful error: {err}");

        // injected disk faults: a save is three mutating ops (write tmp,
        // rotate primary to .prev, rename tmp into place). Two clean
        // saves, then the third save meets one fault; whichever op it
        // hits, load still returns the last good checkpoint.
        let mut third = sample();
        third.merged = ShardSet::from_range(0..6);
        for (op, fault, save_reports_ok) in [
            (6, SpoolFault::Enospc, false), // tmp never written
            (7, SpoolFault::Eio, false),    // rotation failed, primary intact
            (8, SpoolFault::Eio, false),    // primary rotated away, tmp stranded
            (6, SpoolFault::Torn, true),    // half a tmp renamed into place
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut script = vec![None; op];
            script.push(Some(fault));
            let faulty = FaultySpoolFs::new(Arc::new(RealSpoolFs), SpoolSchedule::Scripted(script));
            first.save(&faulty, &path).unwrap();
            second.save(&faulty, &path).unwrap();
            let saved = third.save(&faulty, &path);
            assert_eq!(
                saved.is_ok(),
                save_reports_ok,
                "op {op} {fault:?}: {saved:?}"
            );
            assert_eq!(faulty.faults_injected(), 1, "op {op} {fault:?}");
            let recovered = FederationCheckpoint::load(&faulty, &path).unwrap();
            assert_bit_identical(&recovered, &second);
            // and the spool is not wedged: the next clean save lands
            third.save(&faulty, &path).unwrap();
            let reloaded = FederationCheckpoint::load(&faulty, &path).unwrap();
            assert_bit_identical(&reloaded, &third);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
