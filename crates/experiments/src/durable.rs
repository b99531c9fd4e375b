//! The durable-write path shared by the trace cache and the result cache.
//!
//! Both caches keep one file per key in a directory that other processes
//! — and, over a network filesystem, other machines — may use at the same
//! time. A write lands in a pid-stamped temporary sibling
//! (`<name>.tmp-<pid>`), is **fsynced**, and only then renamed into place,
//! followed by a best-effort directory fsync. Neither a crashed writer nor
//! a machine crash right after the rename can expose a torn or empty file
//! under the final name. The temporary files a crashed writer strands are
//! swept by the next cache user ([`OrphanSweep`]).

use std::ffi::OsString;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Once;
use std::time::Duration;

/// Writes `path` durably: `fill` writes the contents into a temporary
/// sibling, which is flushed, fsynced and renamed over `path`. On any
/// failure the temporary file is removed and the error returned.
pub(crate) fn write_durably<T, E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<fs::File>) -> Result<T, E>,
) -> Result<T, E> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut writer = BufWriter::new(fs::File::create(&tmp)?);
        let filled = fill(&mut writer)?;
        writer.flush()?;
        // Durability, not just atomicity: rename orders the directory
        // entry, but only an fsync orders the *data* against a crash —
        // without it a power cut can leave the final name pointing at a
        // zero-length or partial file.
        writer.get_ref().sync_all()?;
        fs::rename(&tmp, path)?;
        // Best-effort: persist the rename itself. Filesystems without
        // directory fsync (or sandboxed runs) still get atomicity.
        if let Some(dir) = path.parent() {
            if let Ok(dir) = fs::File::open(dir) {
                let _ = dir.sync_all();
            }
        }
        Ok(filled)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// `<path>.tmp-<this pid>`.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(OsString::from).unwrap_or_default();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// The once-per-cache-instance sweep of `*.tmp-<pid>` leftovers of dead
/// writers.
///
/// A file is swept only when its recorded pid is not this process, does
/// not exist in the local `/proc` (when present), *and* the file is older
/// than the age gate: a pid absent locally may be a live writer on
/// another machine sharing the directory over a network filesystem, so
/// neither signal alone is trusted.
#[derive(Debug)]
pub(crate) struct OrphanSweep {
    min_age: Duration,
    done: Once,
}

impl OrphanSweep {
    /// A sweep that has not run yet, keeping files younger than `min_age`.
    pub(crate) fn new(min_age: Duration) -> OrphanSweep {
        OrphanSweep { min_age, done: Once::new() }
    }

    /// Sweeps `dir` on the first call; later calls do nothing.
    pub(crate) fn run(&self, dir: &Path) {
        self.done.call_once(|| {
            let Ok(entries) = fs::read_dir(dir) else { return };
            for entry in entries.flatten() {
                let path = entry.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                let Some((_, pid)) = name.rsplit_once(".tmp-") else { continue };
                let Ok(pid) = pid.parse::<u32>() else { continue };
                if pid == std::process::id()
                    || writer_may_be_alive(pid)
                    || younger_than(&entry, self.min_age)
                {
                    continue;
                }
                let _ = fs::remove_file(&path);
            }
        });
    }
}

/// Whether the process that owns a temporary file could still be running
/// *on this machine*: its pid exists under `/proc`. Without `/proc` the
/// answer is unknowable and `false` is returned — the age gate is then
/// the only protection.
fn writer_may_be_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && proc_root.join(pid.to_string()).exists()
}

/// Whether the file was modified less than `min_age` ago. Unreadable
/// metadata or a future mtime (clock skew) count as young — when in
/// doubt, keep the file.
fn younger_than(entry: &fs::DirEntry, min_age: Duration) -> bool {
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_none_or(|age| age < min_age)
}
