//! Incremental harvest is the full harvest, cut differently.
//!
//! Property, over random completion orders and random `have` sets:
//! `partial(have)` ∪ {completed shards in `have`} equals `partial(∅)`
//! shard for shard and bit for bit, and nothing in `have` is ever
//! returned. Completion order is made exact (not left to a scheduler)
//! by restoring checkpoints: job `k` of a case holds the first `k`
//! shards of a random permutation, so one engine start yields every
//! prefix of that order.

use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use epi_server::spool::seeded_roll;
use epi_server::{Checkpoint, Client, Engine, EngineConfig, JobSpec, Server};
use std::io::{BufRead, BufReader, Write};

const SHARDS: u64 = 12;

/// Deterministic draws for one case.
struct Draws {
    seed: u64,
    next: u64,
}

impl Draws {
    fn roll(&mut self) -> u64 {
        self.next += 1;
        seeded_roll(self.seed, self.next)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.roll() % n
    }
}

/// A shard's candidate list: arbitrary score bit patterns (NaNs,
/// subnormals and negative zero included — the wire carries bits, the
/// test compares bits), never more than `top_k`.
fn candidates(d: &mut Draws, top_k: usize) -> Vec<Candidate> {
    (0..d.below(top_k as u64 + 1))
        .map(|_| Candidate {
            score: f64::from_bits(d.roll()),
            triple: (
                d.below(40) as u32,
                d.below(40) as u32 + 40,
                d.below(40) as u32 + 80,
            ),
        })
        .collect()
}

/// A random `have`: empty, everything, or a mix of completed, missing,
/// unowned and past-the-plan indices.
fn random_have(d: &mut Draws) -> ShardSet {
    match d.below(6) {
        0 => ShardSet::new(),
        1 => ShardSet::from_range(0..SHARDS + 5),
        _ => ShardSet::from_indices((0..d.below(10)).map(|_| d.below(SHARDS + 8))),
    }
}

fn assert_same_lists(got: &[(u64, Vec<Candidate>)], want: &[(u64, Vec<Candidate>)], ctx: &str) {
    let shards = |l: &[(u64, Vec<Candidate>)]| l.iter().map(|(s, _)| *s).collect::<Vec<_>>();
    assert_eq!(shards(got), shards(want), "{ctx}: shard lists");
    for ((s, a), (_, b)) in got.iter().zip(want) {
        assert_eq!(a.len(), b.len(), "{ctx}: shard {s}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.triple, y.triple, "{ctx}: shard {s}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: shard {s}");
        }
    }
}

#[test]
fn incremental_harvest_reassembles_the_full_harvest_bit_for_bit() {
    for seed in 1..=6u64 {
        let mut d = Draws { seed, next: 0 };
        let dir =
            std::env::temp_dir().join(format!("epi3_partial_prop-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // the job owns a random subset of the plan (odd seeds) or all of
        // it, and its shards complete in a random order
        let mut spec = JobSpec::new("/nonexistent/never-read.epi3");
        spec.shards = SHARDS;
        spec.top_k = 5;
        if seed % 2 == 1 {
            // at least one shard, so the set is never empty
            let mut owned = ShardSet::from_indices([d.below(SHARDS)]);
            for s in 0..SHARDS {
                if d.below(3) != 0 {
                    owned.insert(s);
                }
            }
            spec.shard_set = Some(owned);
        }
        let mut order: Vec<u64> = match &spec.shard_set {
            Some(set) => set.iter().collect(),
            None => (0..SHARDS).collect(),
        };
        for i in (1..order.len()).rev() {
            order.swap(i, d.below(i as u64 + 1) as usize);
        }
        let lists: Vec<Vec<Candidate>> = (0..SHARDS).map(|_| candidates(&mut d, 5)).collect();
        for k in 0..=order.len() {
            let mut shard_results = vec![None; SHARDS as usize];
            for &s in &order[..k] {
                shard_results[s as usize] = Some(lists[s as usize].clone());
            }
            let ck = Checkpoint {
                job_id: k as u64 + 1,
                spec: spec.clone(),
                snps: 120,
                shard_results,
            };
            let mut buf = Vec::new();
            ck.write_to(&mut buf).unwrap();
            std::fs::write(dir.join(format!("job-{}.ckpt", ck.job_id)), buf).unwrap();
        }

        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        for k in 0..=order.len() {
            let id = k as u64 + 1;
            let full = engine.partial(id, &ShardSet::new()).unwrap();
            let completed = ShardSet::from_indices(order[..k].iter().copied());
            assert_eq!(
                ShardSet::from_indices(full.iter().map(|(s, _)| *s)),
                completed,
                "seed {seed} prefix {k}: the empty have= is the full harvest"
            );
            for trial in 0..8 {
                let have = random_have(&mut d);
                let ctx = format!(
                    "seed {seed} prefix {k} trial {trial} have={}",
                    have.to_compact()
                );
                let inc = engine.partial(id, &have).unwrap();
                assert!(
                    inc.iter().all(|(s, _)| !have.contains(*s)),
                    "{ctx}: returned a shard the caller already has"
                );
                // what the caller holds (from the full harvest) plus
                // what it was just sent, in shard order, is the full
                // harvest
                let mut union: Vec<(u64, Vec<Candidate>)> = full
                    .iter()
                    .filter(|(s, _)| have.contains(*s))
                    .cloned()
                    .chain(inc)
                    .collect();
                union.sort_by_key(|(s, _)| *s);
                assert_same_lists(&union, &full, &ctx);
            }
        }
        engine.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_malformed_have_is_an_error_on_the_wire_and_the_connection_survives() {
    let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    for bad in [
        "PARTIAL 1 have=3-1",
        "PARTIAL 1 have=a-b",
        "PARTIAL 1 have=1,,2",
        "PARTIAL 1 have=-",
        "PARTIAL 1 have=18446744073709551615",
        "PARTIAL 1 have=0-18446744073709551615",
        "PARTIAL 1 has=0-3",
        "PARTIAL 1 have=0 have=1",
        "PARTIAL have=0-3",
    ] {
        writeln!(stream, "{bad}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        // refused for its form, before any job lookup
        assert!(
            line.starts_with("ERR ") && !line.contains("no such job"),
            "{bad:?} answered {line:?}"
        );
    }
    // a well-formed have= for a job that does not exist is the ordinary
    // error, and the client wrapper sends exactly that form
    let mut client = Client::connect(addr).unwrap();
    let err = client.partial(1, &ShardSet::from_range(0..4)).unwrap_err();
    assert!(err.contains("no such job"), "{err}");
    handle.shutdown();
}
