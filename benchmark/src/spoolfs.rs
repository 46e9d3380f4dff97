//! Counting and timing [`SpoolFs`] wrapper: measures what the engine
//! asks of its spool at the layer boundary, handed in through
//! `EngineConfig::spool_fs`, with `epi-server` untouched.

use epi_server::{RealSpoolFs, SpoolFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bytes written, calls and busy nanoseconds of the spool, split into the write
/// side (`write`, `rename`, `remove_file`, `create_dir_all`) and the
/// read side (`read`, `read_dir`). Statistics only, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct CountingSpoolFs {
    inner: RealSpoolFs,
    bytes_written: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
    write_busy_ns: AtomicU64,
    read_busy_ns: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SpoolCounts {
    pub bytes_written: u64,
    pub write_ops: u64,
    pub read_ops: u64,
    pub write_busy_s: f64,
    pub read_busy_s: f64,
}

impl CountingSpoolFs {
    pub fn counts(&self) -> SpoolCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SpoolCounts {
            bytes_written: get(&self.bytes_written),
            write_ops: get(&self.write_ops),
            read_ops: get(&self.read_ops),
            write_busy_s: get(&self.write_busy_ns) as f64 / 1e9,
            read_busy_s: get(&self.read_busy_ns) as f64 / 1e9,
        }
    }

    fn timed<T>(&self, ops: &AtomicU64, busy: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ops.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn write_side<T>(&self, f: impl FnOnce() -> T) -> T {
        self.timed(&self.write_ops, &self.write_busy_ns, f)
    }

    fn read_side<T>(&self, f: impl FnOnce() -> T) -> T {
        self.timed(&self.read_ops, &self.read_busy_ns, f)
    }
}

impl SpoolFs for CountingSpoolFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.write_side(|| self.inner.create_dir_all(dir))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.write_side(|| self.inner.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.write_side(|| self.inner.rename(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_side(|| self.inner.read(path))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.read_side(|| self.inner.read_dir(dir))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.write_side(|| self.inner.remove_file(path))
    }
}
