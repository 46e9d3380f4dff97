//! The spool contract of a resumable job.
//!
//! A spooled job is three kinds of file in one format: the base
//! `job-<id>.ckpt` (header only until the job finishes), its rotation
//! `job-<id>.ckpt.prev`, and one `job-<id>.shard-<n>` delta per recorded
//! shard. These tests pin what that buys: a recorded shard writes itself
//! and nothing else, restore is the union of whatever decodes, a disk
//! fault costs exactly the record it hit, and no delta is unlinked
//! before two verified complete copies supersede it.

use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use epi_server::{
    Checkpoint, Engine, EngineConfig, FaultySpoolFs, JobSpec, JobState, RealSpoolFs, SpoolFault,
    SpoolFs, SpoolSchedule,
};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const SNPS: usize = 14;
const WAIT: Duration = Duration::from_secs(30);

fn dataset() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("epi_durable_{}.epi3", std::process::id()));
        let data = datagen::DatasetSpec::with_planted_triple(SNPS, 160, [2, 5, 9], 41).generate();
        datagen::io::save_binary(&path, &data).unwrap();
        path
    })
}

fn spec(shards: u64, top_k: usize) -> JobSpec {
    let mut spec = JobSpec::new(dataset().to_str().unwrap());
    spec.shards = shards;
    spec.top_k = top_k;
    spec
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epi_durable_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_on(spool: &Path, fs: Option<Arc<dyn SpoolFs>>) -> Arc<Engine> {
    Engine::start(EngineConfig {
        workers: 1,
        spool_dir: Some(spool.to_path_buf()),
        spool_fs: fs,
        ..EngineConfig::default()
    })
}

/// Sorted file names in a spool directory.
fn listing(spool: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(spool)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn deltas(spool: &Path) -> Vec<String> {
    let all = listing(spool);
    all.into_iter().filter(|n| n.contains(".shard-")).collect()
}

fn encode(ck: &Checkpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).unwrap();
    bytes
}

fn wait_for_done(engine: &Engine, id: u64, at_least: u64) {
    let deadline = Instant::now() + WAIT;
    while engine.status(id).unwrap().done < at_least {
        assert!(Instant::now() < deadline, "no progress");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One job's true per-shard lists and merged result, from an engine
/// without a spool.
struct Truth {
    spec: JobSpec,
    shards: Vec<Vec<Candidate>>,
    merged: Vec<Candidate>,
}

impl Truth {
    fn of(spec: JobSpec) -> Self {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let id = engine.submit(spec.clone()).unwrap().id;
        assert_eq!(engine.wait(id, WAIT).unwrap().state, JobState::Done);
        let shards = engine.partial(id, &ShardSet::new()).unwrap();
        let merged = engine.result(id).unwrap();
        engine.stop();
        Self {
            spec,
            shards: shards.into_iter().map(|(_, cands)| cands).collect(),
            merged,
        }
    }

    /// The checkpoint of job `id` holding exactly the shards `keep`
    /// selects.
    fn checkpoint(&self, id: u64, keep: impl Fn(usize) -> bool) -> Checkpoint {
        let slots = self.shards.iter().enumerate();
        Checkpoint {
            job_id: id,
            spec: self.spec.clone(),
            snps: SNPS,
            shard_results: slots.map(|(i, c)| keep(i).then(|| c.clone())).collect(),
        }
    }
}

fn same_bits(got: &[Candidate], want: &[Candidate]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.triple == b.triple && a.score.to_bits() == b.score.to_bits())
}

/// Bytes written and mutating calls, counted at the `SpoolFs` boundary.
#[derive(Debug, Default)]
struct CountingFs {
    inner: RealSpoolFs,
    ops: AtomicU64,
    bytes: AtomicU64,
}

impl CountingFs {
    fn op<T>(&self, out: T) -> T {
        self.ops.fetch_add(1, Ordering::SeqCst);
        out
    }
}

impl SpoolFs for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op(self.inner.create_dir_all(dir))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        self.op(self.inner.write(path, bytes))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op(self.inner.rename(from, to))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op(self.inner.remove_file(path))
    }
}

#[test]
fn a_job_with_no_finished_shard_survives_a_crash_with_its_token() {
    let spool = fresh_dir("base");
    let engine = engine_on(&spool, None);
    let mut spec = spec(4, 3);
    spec.throttle_ms = 400; // nothing finishes before the "crash"
    spec.job_token = Some("tok-base".into());
    let id = engine.submit(spec.clone()).unwrap().id;

    // kill -9 as seen from the disk: what the spool holds right now
    let crashed = fresh_dir("base_copy");
    for name in listing(&spool) {
        std::fs::copy(spool.join(&name), crashed.join(&name)).unwrap();
    }
    assert_eq!(engine.status(id).unwrap().done, 0, "a shard already landed");

    let restarted = engine_on(&crashed, None);
    let restored = restarted.status(id).expect("the job is not on disk");
    assert_eq!(restored.state, JobState::Cancelled);
    assert_eq!((restored.done, restored.total), (0, 4));
    // the client's retry is the same job, not a second one
    assert_eq!(restarted.submit(spec).unwrap().id, id);
    assert_eq!(restarted.jobs().len(), 1);
    restarted.stop();
    engine.stop();
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn a_recorded_shard_writes_itself_not_the_whole_job() {
    const SHARDS: u64 = 64;
    let spool = fresh_dir("amplification");
    let fs = Arc::new(CountingFs::default());
    let engine = engine_on(&spool, Some(fs.clone()));
    let spec = spec(SHARDS, 16);
    let id = engine.submit(spec.clone()).unwrap().id;
    assert_eq!(engine.wait(id, WAIT).unwrap().state, JobState::Done);
    let per_shard = engine.partial(id, &ShardSet::new()).unwrap();
    engine.stop();

    // the finished file is the whole job in index order, exactly what
    // one `write_to` of it gives
    let want = encode(&Checkpoint {
        job_id: id,
        spec,
        snps: SNPS,
        shard_results: per_shard.into_iter().map(|(_, c)| Some(c)).collect(),
    });
    let primary = spool.join(format!("job-{id}.ckpt"));
    assert!(std::fs::read(&primary).unwrap() == want);

    // a write and an unlink per shard plus a constant; bytes linear in
    // the job (every delta once, the whole job twice)
    let (ops, bytes) = (
        fs.ops.load(Ordering::SeqCst),
        fs.bytes.load(Ordering::SeqCst),
    );
    assert!(ops <= 2 * SHARDS + 12, "{ops} mutating spool ops");
    assert!(
        bytes <= 4 * want.len() as u64,
        "{bytes} bytes written for a {}-byte checkpoint",
        want.len()
    );

    // and what is left is that file, its equally whole rotation, nothing else
    assert!(std::fs::read(primary.with_extension("ckpt.prev")).unwrap() == want);
    assert_eq!(listing(&spool).len(), 2, "{:?}", listing(&spool));
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_cancelled_job_is_deltas_beside_a_base_and_none_is_named_ckpt() {
    let spool = fresh_dir("names");
    let engine = engine_on(&spool, None);
    let mut spec = spec(10, 3);
    spec.throttle_ms = 15;
    let id = engine.submit(spec).unwrap().id;
    wait_for_done(&engine, id, 3);
    engine.cancel(id).unwrap();
    let parked = engine.wait(id, WAIT).unwrap();
    engine.stop();
    assert_eq!(parked.state, JobState::Cancelled, "cancel landed too late");

    // one delta per recorded shard, and anything that lists `*.ckpt`
    // finds only the (still header-only) base
    assert_eq!(deltas(&spool).len() as u64, parked.done);
    let ckpts: Vec<PathBuf> = std::fs::read_dir(&spool)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert_eq!(ckpts, vec![spool.join(format!("job-{id}.ckpt"))]);
    let base = Checkpoint::read_from(&std::fs::read(&ckpts[0]).unwrap()[..]).unwrap();
    assert!(base.shard_results.iter().all(Option::is_none));
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_shard_set_sub_job_compacts_when_its_owned_shards_are_done() {
    let spool = fresh_dir("subjob");
    let engine = engine_on(&spool, None);
    let mut spec = spec(8, 3);
    spec.shard_set = Some(ShardSet::from_indices([1, 3, 4]));
    let id = engine.submit(spec).unwrap().id;
    let done = engine.wait(id, WAIT).unwrap();
    engine.stop();
    assert_eq!((done.state, done.done, done.total), (JobState::Done, 3, 3));
    assert!(deltas(&spool).is_empty(), "{:?}", listing(&spool));

    let restarted = engine_on(&spool, None);
    let restored = restarted.status(id).unwrap();
    assert_eq!((restored.state, restored.done), (JobState::Done, 3));
    restarted.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_spool_in_the_previous_layout_restores_and_resumes() {
    // what the whole-checkpoint-per-shard engine left behind: a partial
    // primary, the generation before it as `.prev`, no deltas
    let truth = Truth::of(spec(8, 4));
    let spool = fresh_dir("oldlayout");
    std::fs::write(
        spool.join("job-5.ckpt"),
        encode(&truth.checkpoint(5, |i| i < 4)),
    )
    .unwrap();
    std::fs::write(
        spool.join("job-5.ckpt.prev"),
        encode(&truth.checkpoint(5, |i| i < 3)),
    )
    .unwrap();

    let engine = engine_on(&spool, None);
    let restored = engine.status(5).unwrap();
    assert_eq!((restored.state, restored.done), (JobState::Cancelled, 4));
    engine.resume(5).unwrap();
    assert_eq!(engine.wait(5, WAIT).unwrap().state, JobState::Done);
    assert_eq!(engine.shards_scanned(), 4);
    assert!(same_bits(&engine.result(5).unwrap(), &truth.merged));
    engine.stop();
    assert!(deltas(&spool).is_empty(), "{:?}", listing(&spool));
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_stray_delta_beside_a_complete_primary_is_removed_at_restore() {
    let truth = Truth::of(spec(6, 4));
    let spool = fresh_dir("stray");
    let whole = encode(&truth.checkpoint(2, |_| true));
    std::fs::write(spool.join("job-2.ckpt"), &whole).unwrap();
    std::fs::write(
        spool.join("job-2.shard-4"),
        encode(&truth.checkpoint(2, |i| i == 4)),
    )
    .unwrap();

    let engine = engine_on(&spool, None);
    assert_eq!(engine.status(2).unwrap().state, JobState::Done);
    assert!(same_bits(&engine.result(2).unwrap(), &truth.merged));
    engine.stop();
    // unlinked under the same rule as ever: both copies first
    assert_eq!(listing(&spool), ["job-2.ckpt", "job-2.ckpt.prev"]);
    assert!(std::fs::read(spool.join("job-2.ckpt.prev")).unwrap() == whole);
    let _ = std::fs::remove_dir_all(&spool);
}

/// Spool ops of a one-worker job, by `FaultySpoolFs` index: the base's
/// tmp write and two renames, one write per delta in record order, then
/// the compaction (tmp write, two renames, `.prev` write, the unlinks).
const BASE_WRITE: usize = 0;
const FIRST_DELTA: usize = 3;

fn script(at: usize, fault: SpoolFault) -> Arc<FaultySpoolFs> {
    let mut ops = vec![None; at];
    ops.push(Some(fault));
    Arc::new(FaultySpoolFs::new(
        Arc::new(RealSpoolFs),
        SpoolSchedule::Scripted(ops),
    ))
}

#[test]
fn a_torn_compaction_is_caught_by_the_read_back_and_the_deltas_survive() {
    const SHARDS: u64 = 6;
    let spool = fresh_dir("torncompact");
    let compaction_tmp = FIRST_DELTA + SHARDS as usize;
    let fs = script(compaction_tmp, SpoolFault::Torn);
    let engine = engine_on(&spool, Some(fs.clone()));
    let id = engine.submit(spec(SHARDS, 4)).unwrap().id;
    assert_eq!(engine.wait(id, WAIT).unwrap().state, JobState::Done);
    let want = engine.result(id).unwrap();
    engine.stop();
    assert_eq!(fs.faults_injected(), 1);
    // the torn file reported success; nothing was unlinked on its word
    assert_eq!(deltas(&spool).len() as u64, SHARDS);

    let restarted = engine_on(&spool, None);
    let restored = restarted.status(id).unwrap();
    assert_eq!((restored.state, restored.done), (JobState::Done, SHARDS));
    assert!(same_bits(&restarted.result(id).unwrap(), &want));
    assert_eq!(restarted.shards_scanned(), 0);
    restarted.stop();
    // found complete only through its deltas: compacted at restore
    assert_eq!(
        listing(&spool),
        [format!("job-{id}.ckpt"), format!("job-{id}.ckpt.prev")]
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_failed_delta_write_costs_exactly_its_shard() {
    const SHARDS: u64 = 10;
    let spool = fresh_dir("lostdelta");
    let fs = script(FIRST_DELTA + 1, SpoolFault::Enospc);
    let engine = engine_on(&spool, Some(fs.clone()));
    let mut spec = spec(SHARDS, 4);
    spec.throttle_ms = 15;
    let id = engine.submit(spec).unwrap().id;
    wait_for_done(&engine, id, 3);
    engine.cancel(id).unwrap();
    let parked = engine.wait(id, WAIT).unwrap();
    engine.stop();
    assert_eq!(parked.state, JobState::Cancelled, "cancel landed too late");
    assert_eq!(fs.faults_injected(), 1);

    let restarted = engine_on(&spool, None);
    assert_eq!(restarted.status(id).unwrap().done, parked.done - 1);
    restarted.resume(id).unwrap();
    assert_eq!(restarted.wait(id, WAIT).unwrap().state, JobState::Done);
    // the shards never scanned, plus the one whose delta the disk refused
    assert_eq!(restarted.shards_scanned(), SHARDS - parked.done + 1);
    assert!(same_bits(
        &restarted.result(id).unwrap(),
        &Truth::of(self::spec(SHARDS, 4)).merged
    ));
    restarted.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_failed_unlink_leaves_a_stray_the_next_restore_removes() {
    const SHARDS: u64 = 6;
    let spool = fresh_dir("unlink");
    let first_unlink = FIRST_DELTA + SHARDS as usize + 4;
    let fs = script(first_unlink + 2, SpoolFault::Eio);
    let engine = engine_on(&spool, Some(fs.clone()));
    let id = engine.submit(spec(SHARDS, 4)).unwrap().id;
    assert_eq!(engine.wait(id, WAIT).unwrap().state, JobState::Done);
    engine.stop();
    assert_eq!(fs.faults_injected(), 1);
    assert_eq!(deltas(&spool), [format!("job-{id}.shard-2")]);

    let restarted = engine_on(&spool, None);
    assert_eq!(restarted.status(id).unwrap().state, JobState::Done);
    restarted.stop();
    assert!(deltas(&spool).is_empty(), "{:?}", listing(&spool));
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_job_whose_base_write_failed_restores_from_its_first_delta() {
    let spool = fresh_dir("nobase");
    let fs = script(BASE_WRITE, SpoolFault::Enospc);
    let engine = engine_on(&spool, Some(fs.clone()));
    let mut spec = spec(10, 4);
    spec.throttle_ms = 15;
    spec.job_token = Some("tok-nobase".into());
    let id = engine.submit(spec.clone()).unwrap().id;
    wait_for_done(&engine, id, 2);
    engine.cancel(id).unwrap();
    let parked = engine.wait(id, WAIT).unwrap();
    engine.stop();
    assert_eq!(parked.state, JobState::Cancelled, "cancel landed too late");
    assert!(!spool.join(format!("job-{id}.ckpt")).exists());

    let restarted = engine_on(&spool, None);
    assert_eq!(restarted.status(id).unwrap().done, parked.done);
    assert_eq!(restarted.submit(spec).unwrap().id, id);
    restarted.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// What one spool file of the case holds and what happens to it.
#[derive(Clone, Copy, Debug)]
enum Fate {
    Absent,
    Intact,
    /// Cut at this fraction (of 2^16) of its length.
    Cut(u16),
}

fn fate() -> impl Strategy<Value = Fate> {
    (0u8..4, any::<u16>()).prop_map(|(kind, at)| match kind {
        0 => Fate::Absent,
        1 => Fate::Cut(at),
        _ => Fate::Intact,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random subsets of a job's files, each possibly cut short:
    /// restore never panics, restores exactly the union of the shard
    /// records in files the strict decoder accepts (header from `.ckpt`,
    /// else `.ckpt.prev`, else a delta), bit for bit, and RESUME scans
    /// the rest to the exact result.
    #[test]
    fn restore_is_the_union_of_what_decodes(
        case in any::<u32>(),
        primary_holds in any::<u8>(),
        files in prop::collection::vec(fate(), 10),
    ) {
        const SHARDS: usize = 8;
        static TRUTH: OnceLock<Truth> = OnceLock::new();
        let truth = TRUTH.get_or_init(|| Truth::of(spec(SHARDS as u64, 4)));
        let id = 7;
        let spool = fresh_dir(&format!("union_{case}"));

        // `.ckpt` holds everything, nothing, or some of the job; `.prev`
        // everything; then one delta per shard
        let in_primary = |i: usize| match primary_holds % 3 {
            0 => true,
            1 => false,
            _ => ((primary_holds >> 2) >> (i % 6)) & 1 == 1,
        };
        let mut written = vec![
            ("job-7.ckpt".to_string(), truth.checkpoint(id, in_primary)),
            ("job-7.ckpt.prev".to_string(), truth.checkpoint(id, |_| true)),
        ];
        for s in 0..SHARDS {
            written.push((format!("job-7.shard-{s}"), truth.checkpoint(id, |i| i == s)));
        }
        // what the strict decoder accepts of each file as it lies on disk
        let mut decodes: Vec<Option<Checkpoint>> = Vec::new();
        for ((name, ck), fate) in written.iter().zip(&files) {
            let mut bytes = encode(ck);
            match fate {
                Fate::Absent => {
                    decodes.push(None);
                    continue;
                }
                Fate::Intact => {}
                Fate::Cut(at) => bytes.truncate((bytes.len() * *at as usize) >> 16),
            }
            std::fs::write(spool.join(name), &bytes).unwrap();
            decodes.push(Checkpoint::read_from(&bytes[..]).ok());
        }
        let base = decodes[0].as_ref().or(decodes[1].as_ref());
        let complete = |ck: &Checkpoint| ck.shard_results.iter().all(Option::is_some);
        let carried: Vec<bool> = (0..SHARDS)
            .map(|s| {
                let has = |ck: &Option<Checkpoint>| {
                    ck.as_ref().is_some_and(|ck| ck.shard_results[s].is_some())
                };
                base.is_some_and(|ck| ck.shard_results[s].is_some()) || has(&decodes[2 + s])
            })
            .collect();
        let any_header = base.is_some() || decodes[2..].iter().any(Option::is_some);
        // a complete primary is all restore opens
        let carried = match &decodes[0] {
            Some(ck) if complete(ck) => vec![true; SHARDS],
            _ => carried,
        };

        let engine = engine_on(&spool, None);
        let Ok(restored) = engine.status(id) else {
            prop_assert!(!any_header, "a decodable file was ignored");
            engine.stop();
            let _ = std::fs::remove_dir_all(&spool);
            continue;
        };
        prop_assert!(any_header, "a job restored from no decodable file");
        let have = engine.partial(id, &ShardSet::new()).unwrap();
        let got: Vec<u64> = have.iter().map(|(s, _)| *s).collect();
        let want: Vec<u64> = (0..SHARDS as u64).filter(|s| carried[*s as usize]).collect();
        prop_assert_eq!(&got, &want, "restored shard set");
        for (s, cands) in &have {
            prop_assert!(same_bits(cands, &truth.shards[*s as usize]), "shard {s}");
        }
        let all = want.len() == SHARDS;
        prop_assert_eq!(restored.state == JobState::Done, all);

        engine.resume(id).unwrap();
        prop_assert_eq!(engine.wait(id, WAIT).unwrap().state, JobState::Done);
        prop_assert_eq!(engine.shards_scanned(), (SHARDS - want.len()) as u64);
        prop_assert!(same_bits(&engine.result(id).unwrap(), &truth.merged));
        engine.stop();
        // however it got there, a job that finished with deltas on disk
        // is two whole copies and no deltas
        if !all || files[2..].iter().any(|f| !matches!(f, Fate::Absent)) {
            prop_assert_eq!(listing(&spool), ["job-7.ckpt", "job-7.ckpt.prev"]);
        }
        let _ = std::fs::remove_dir_all(&spool);
    }
}
