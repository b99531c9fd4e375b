//! The fingerprint-keyed result cache behind `repro serve`.
//!
//! A replay job is deterministic: the same (workload or scenario) ×
//! predictor bank × parameters always renders the same payload, byte for
//! byte. That makes finished cells perfect memoization targets for a
//! long-lived daemon: the first client pays for the replay, every later
//! identical job is answered from cache — and the answer must be
//! **byte-identical** to the cold one, or the cache is corrupting results.
//!
//! [`ResultCache`] is a two-tier store:
//!
//! * an in-memory LRU of at most `capacity` entries (recency updated on
//!   every hit, least-recently-used evicted first), and
//! * an optional on-disk tier ([`ResultCache::with_dir`]) of one
//!   checksummed entry file per key, written with the same
//!   fsync-then-rename durability idiom as the trace cache
//!   ([`TraceCache::write_through`](crate::cache::TraceCache::write_through)):
//!   a `kill -9` mid-write can never leave a torn entry under the final
//!   name, and orphaned `.tmp-<pid>` files of dead writers are swept on
//!   first use.
//!
//! Like the trace cache, the disk tier is **safe by construction**: every
//! read re-validates the entry byte for byte (magic, version, lengths,
//! checksum, exact file size, stored key, stored engine epoch) and any
//! violation is rejected, counted in [`ResultCacheStats::invalid`], and
//! treated as a miss — a corrupt *or stale* entry is recomputed, never
//! served. The on-disk entry layout is specified byte-level in
//! `docs/RESULT_FORMAT.md`; [`encode_entry`] / [`decode_entry`] are the
//! reference codec and are public so the corruption test suite can attack
//! the format directly.
//!
//! # Versioning: the engine epoch
//!
//! A payload is only as durable as the semantics that rendered it. Every
//! v2 entry therefore stamps the **engine epoch**
//! ([`dvp_engine::engine_epoch`]) — a fingerprint of the
//! predictor-semantics surface — into its header, and [`decode_entry`]
//! rejects entries whose epoch differs from the reader's. Pre-epoch v1
//! entries carry no such stamp and are rejected unconditionally:
//! recomputing a result is cheap, serving a stale one is a correctness
//! bug. [`scan_entries`] and [`purge_stale`] are the header-level
//! maintenance surface behind `repro cache stats` / `repro cache purge
//! --stale`.

use crate::durable::{self, OrphanSweep};
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File extension of persisted result entries.
pub const RESULT_EXTENSION: &str = "dvpr";

/// Magic bytes opening every result entry file.
pub const RESULT_MAGIC: [u8; 4] = *b"DVPR";

/// The current entry format version. v2 added the engine-epoch field;
/// v1 entries (which predate epochs) are always rejected and recomputed.
pub const RESULT_VERSION: u8 = 2;

/// Default minimum age before an orphaned `.tmp-*` file may be swept.
/// Protects live temp files of *other machines* sharing the cache
/// directory over a network filesystem, whose pids are meaningless in
/// the local `/proc`.
pub const SWEEP_MIN_AGE: Duration = Duration::from_secs(3600);

/// FNV-1a 64 of one byte slice — the entry checksum function (the trace
/// container's, [`Fnv1a64`](dvp_trace::Fnv1a64)).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    dvp_trace::Fnv1a64::hash(bytes)
}

/// Byte length of the fixed v2 header: magic (4) + version (1) + engine
/// epoch (8) + key length (4) + payload length (4).
const HEAD_V2: usize = 4 + 1 + 8 + 4 + 4;

/// Byte length of the fixed pre-epoch v1 header (no epoch field).
const HEAD_V1: usize = 4 + 1 + 4 + 4;

/// Encodes one v2 result-cache entry: `"DVPR"` + version + engine epoch
/// (u64 LE) + key length (u32 LE) + payload length (u32 LE) + key +
/// payload + FNV-1a 64 (u64 LE) over everything before the checksum. See
/// `docs/RESULT_FORMAT.md`.
#[must_use]
pub fn encode_entry(key: &str, payload: &str, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEAD_V2 + key.len() + payload.len() + 8);
    out.extend_from_slice(&RESULT_MAGIC);
    out.push(RESULT_VERSION);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes and validates one entry read under `key` at engine epoch
/// `epoch`, returning the payload. Every framing invariant is checked —
/// magic, version (v1 entries predate epochs and are rejected
/// unconditionally), declared lengths vs the exact file size (trailing
/// bytes are an error), the checksum over everything before it, the
/// stored engine epoch vs the reader's, UTF-8 of both strings, and that
/// the stored key equals the expected one (a mis-filed entry must never
/// be served for the wrong job).
///
/// # Errors
///
/// A human-readable description of the first violated invariant, naming
/// the byte offset and the expected-vs-found values.
pub fn decode_entry(key: &str, epoch: u64, bytes: &[u8]) -> Result<String, String> {
    if bytes.len() < HEAD_V2 + 8 {
        return Err(format!(
            "entry too short: {} bytes on disk, at least {} required",
            bytes.len(),
            HEAD_V2 + 8
        ));
    }
    if bytes[..4] != RESULT_MAGIC {
        return Err(format!(
            "bad magic at offset 0: expected {RESULT_MAGIC:02x?}, found {:02x?}",
            &bytes[..4]
        ));
    }
    if bytes[4] != RESULT_VERSION {
        let hint = if bytes[4] == 1 { " (pre-epoch v1 entries are never trusted)" } else { "" };
        return Err(format!(
            "unsupported version at offset 4: expected {RESULT_VERSION}, found {}{hint}",
            bytes[4]
        ));
    }
    let stored_epoch = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes")) as usize;
    let payload_len = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes")) as usize;
    let expected_len = HEAD_V2 + key_len + payload_len + 8;
    if bytes.len() != expected_len {
        return Err(format!(
            "length mismatch: {} bytes on disk, {expected_len} declared \
             (key_len {key_len} at offset 13, payload_len {payload_len} at offset 17)",
            bytes.len()
        ));
    }
    let body_end = HEAD_V2 + key_len + payload_len;
    let stored_sum = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let actual_sum = fnv1a64(&bytes[..body_end]);
    if stored_sum != actual_sum {
        return Err(format!(
            "checksum mismatch at offset {body_end}: stored {stored_sum:016x}, \
             actual {actual_sum:016x}"
        ));
    }
    // Epoch staleness is checked after the checksum so a corrupted epoch
    // field reports as corruption, and only an intact entry from a
    // different build reports as stale.
    if stored_epoch != epoch {
        return Err(format!(
            "stale engine epoch at offset 5: entry {stored_epoch:016x}, current {epoch:016x}"
        ));
    }
    let stored_key = std::str::from_utf8(&bytes[HEAD_V2..HEAD_V2 + key_len])
        .map_err(|err| format!("key at offset {HEAD_V2} is not UTF-8: {err}"))?;
    if stored_key != key {
        return Err(format!(
            "key mismatch at offset {HEAD_V2}: entry holds `{stored_key}`, expected `{key}`"
        ));
    }
    let payload = std::str::from_utf8(&bytes[HEAD_V2 + key_len..body_end])
        .map_err(|err| format!("payload at offset {} is not UTF-8: {err}", HEAD_V2 + key_len))?;
    Ok(payload.to_owned())
}

/// The validated header of one on-disk entry, either version — the
/// key-independent view `repro cache` maintenance works from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryHeader {
    /// Entry format version (1 or 2).
    pub version: u8,
    /// The engine epoch stamped into a v2 entry; `None` for pre-epoch v1.
    pub epoch: Option<u64>,
    /// The canonical job key the entry was written under.
    pub key: String,
    /// Declared payload length in bytes.
    pub payload_len: u32,
}

impl EntryHeader {
    /// Whether the entry may be served at `current` epoch: a v2 entry
    /// stamped with exactly that epoch. v1 entries are never current.
    #[must_use]
    pub fn is_current(&self, current: u64) -> bool {
        self.version == RESULT_VERSION && self.epoch == Some(current)
    }
}

/// Parses and integrity-checks one entry without knowing its key or the
/// current epoch: framing, lengths, and checksum are validated for both
/// the v2 and the legacy v1 layout, and the stored identity is returned
/// for the caller to judge (staleness is a policy, corruption a fact).
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn read_entry_header(bytes: &[u8]) -> Result<EntryHeader, String> {
    if bytes.len() < HEAD_V1 + 8 {
        return Err(format!(
            "entry too short: {} bytes on disk, at least {} required",
            bytes.len(),
            HEAD_V1 + 8
        ));
    }
    if bytes[..4] != RESULT_MAGIC {
        return Err(format!(
            "bad magic at offset 0: expected {RESULT_MAGIC:02x?}, found {:02x?}",
            &bytes[..4]
        ));
    }
    let version = bytes[4];
    let (head, epoch) = match version {
        1 => (HEAD_V1, None),
        2 => {
            if bytes.len() < HEAD_V2 + 8 {
                return Err(format!(
                    "entry too short: {} bytes on disk, at least {} required",
                    bytes.len(),
                    HEAD_V2 + 8
                ));
            }
            (HEAD_V2, Some(u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"))))
        }
        other => {
            return Err(format!("unsupported version at offset 4: expected 1 or 2, found {other}"))
        }
    };
    let key_len = u32::from_le_bytes(bytes[head - 8..head - 4].try_into().expect("4 bytes"));
    let payload_len = u32::from_le_bytes(bytes[head - 4..head].try_into().expect("4 bytes"));
    let expected_len = head + key_len as usize + payload_len as usize + 8;
    if bytes.len() != expected_len {
        return Err(format!(
            "length mismatch: {} bytes on disk, {expected_len} declared",
            bytes.len()
        ));
    }
    let body_end = head + key_len as usize + payload_len as usize;
    let stored_sum = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let actual_sum = fnv1a64(&bytes[..body_end]);
    if stored_sum != actual_sum {
        return Err(format!(
            "checksum mismatch at offset {body_end}: stored {stored_sum:016x}, \
             actual {actual_sum:016x}"
        ));
    }
    let key = std::str::from_utf8(&bytes[head..head + key_len as usize])
        .map_err(|err| format!("key at offset {head} is not UTF-8: {err}"))?
        .to_owned();
    Ok(EntryHeader { version, epoch, key, payload_len })
}

/// One on-disk `.dvpr` file as seen by maintenance: its path, size, and
/// header verdict.
#[derive(Debug)]
pub struct EntryInfo {
    /// The entry file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// The parsed header, or why parsing/validation failed.
    pub header: Result<EntryHeader, String>,
}

/// Lists every `.dvpr` entry under `dir` (sorted by file name for
/// deterministic output) with its header verdict. Temp files and foreign
/// files are ignored.
///
/// # Errors
///
/// Any I/O error listing the directory (a missing directory is an error;
/// an unreadable *entry* is reported in its [`EntryInfo::header`]).
pub fn scan_entries(dir: &Path) -> io::Result<Vec<EntryInfo>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(RESULT_EXTENSION) {
            continue;
        }
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        let header = match fs::read(&path) {
            Ok(raw) => read_entry_header(&raw),
            Err(err) => Err(format!("unreadable: {err}")),
        };
        out.push(EntryInfo { path, bytes, header });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// What [`purge_stale`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Entries removed: stale-epoch, pre-epoch v1, or invalid.
    pub removed: usize,
    /// Entries kept: valid v2 entries at the current epoch.
    pub kept: usize,
}

/// Removes every entry under `dir` that [`decode_entry`] would refuse to
/// serve at `current` epoch — stale-epoch v2 entries, pre-epoch v1
/// entries, and corrupt files — keeping only current, intact entries.
///
/// # Errors
///
/// Any I/O error listing the directory or removing a file.
pub fn purge_stale(dir: &Path, current: u64) -> io::Result<PurgeReport> {
    let mut report = PurgeReport::default();
    for info in scan_entries(dir)? {
        if info.header.as_ref().is_ok_and(|h| h.is_current(current)) {
            report.kept += 1;
        } else {
            fs::remove_file(&info.path)?;
            report.removed += 1;
        }
    }
    Ok(report)
}

/// Counters describing what a [`ResultCache`] did. `repro serve` prints
/// them on shutdown; a warm identical job shows up as a result hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Jobs answered from the in-memory tier.
    pub hits: u64,
    /// Jobs found in neither tier (and therefore computed).
    pub misses: u64,
    /// Jobs answered from a valid on-disk entry (counted separately from
    /// `hits`; a disk hit also repopulates the memory tier).
    pub disk_hits: u64,
    /// Entries written through to disk.
    pub written: u64,
    /// In-memory entries evicted by the LRU policy.
    pub evictions: u64,
    /// On-disk candidates rejected (corrupt, truncated, mis-keyed) and
    /// recomputed.
    pub invalid: u64,
}

impl fmt::Display for ResultCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} result hits, {} misses, {} disk hits, {} written, {} evicted, {} invalid",
            self.hits, self.misses, self.disk_hits, self.written, self.evictions, self.invalid
        )
    }
}

/// A two-tier (in-memory LRU + optional on-disk) cache of rendered job
/// payloads, keyed by the job's canonical fingerprint string (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use dvp_experiments::result_cache::ResultCache;
///
/// let mut cache = ResultCache::new(2);
/// assert_eq!(cache.get("job-a"), None);
/// cache.insert("job-a", "payload-a");
/// assert_eq!(cache.get("job-a").as_deref(), Some("payload-a"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    /// Most-recently-used first. Linear scans are fine: the memory tier
    /// is small by design (tens of entries), and payloads dominate.
    entries: VecDeque<(String, String)>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// The engine epoch stamped into every written entry and required of
    /// every read one.
    epoch: u64,
    stats: ResultCacheStats,
    /// The one-time orphaned-`.tmp-*` sweep of the directory.
    sweep: OrphanSweep,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` entries, at the
    /// process-wide engine epoch ([`dvp_engine::engine_epoch`]). Capacity
    /// 0 disables the memory tier (every insert is immediately dropped).
    #[must_use]
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: VecDeque::new(),
            capacity,
            dir: None,
            epoch: dvp_engine::engine_epoch(),
            stats: ResultCacheStats::default(),
            sweep: OrphanSweep::new(SWEEP_MIN_AGE),
        }
    }

    /// Adds the on-disk tier rooted at `dir` (created on first write).
    /// Disk failures never fail a job — they are reported to stderr,
    /// counted, and treated as misses.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> ResultCache {
        self.dir = Some(dir.into());
        self
    }

    /// Overrides the engine epoch this cache writes and accepts —
    /// primarily for tests simulating a restart on a different binary.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> ResultCache {
        self.epoch = epoch;
        self
    }

    /// Overrides the orphan-sweep age gate ([`SWEEP_MIN_AGE`] by
    /// default). `Duration::ZERO` restores pid-liveness-only sweeping.
    #[must_use]
    pub fn with_sweep_min_age(mut self, min_age: Duration) -> ResultCache {
        self.sweep = OrphanSweep::new(min_age);
        self
    }

    /// The engine epoch this cache writes and accepts.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The on-disk entry path for `key`: the key's FNV-1a 64 digest as
    /// the file name (keys hold `|`-separated spec fields, not
    /// path-safe characters).
    #[must_use]
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("{:016x}.{RESULT_EXTENSION}", fnv1a64(key.as_bytes()))))
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }

    /// Entries currently resident in the memory tier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up: memory first (refreshing its recency), then disk
    /// (a valid entry repopulates the memory tier). `None` is a miss —
    /// including the case of an on-disk entry that fails validation,
    /// which is reported and counted in
    /// [`ResultCacheStats::invalid`] so the caller recomputes it.
    pub fn get(&mut self, key: &str) -> Option<String> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            let entry = self.entries.remove(pos).expect("position just found");
            let payload = entry.1.clone();
            self.entries.push_front(entry);
            self.stats.hits += 1;
            return Some(payload);
        }
        if let Some(payload) = self.disk_get(key) {
            self.stats.disk_hits += 1;
            self.remember(key, &payload);
            return Some(payload);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a computed payload in both tiers: front of the memory LRU
    /// (evicting from the back while over capacity) and, when a directory
    /// is configured, written through to disk atomically (temporary
    /// sibling file, fsync, rename — the trace cache's durability idiom).
    pub fn insert(&mut self, key: &str, payload: &str) {
        self.remember(key, payload);
        if let Err(err) = self.disk_put(key, payload) {
            eprintln!("[result-cache] write failed for `{key}`: {err}");
        }
    }

    fn remember(&mut self, key: &str, payload: &str) {
        self.entries.retain(|(k, _)| k != key);
        self.entries.push_front((key.to_owned(), payload.to_owned()));
        while self.entries.len() > self.capacity {
            self.entries.pop_back();
            self.stats.evictions += 1;
        }
    }

    fn disk_get(&mut self, key: &str) -> Option<String> {
        let path = self.path_for(key)?;
        self.sweep_orphans();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return None,
            Err(err) => {
                self.stats.invalid += 1;
                eprintln!(
                    "[result-cache] rejected {}: unreadable: {err}; recomputing",
                    path.display()
                );
                return None;
            }
        };
        match decode_entry(key, self.epoch, &bytes) {
            Ok(payload) => Some(payload),
            Err(why) => {
                self.stats.invalid += 1;
                eprintln!("[result-cache] rejected {}: {why}; recomputing", path.display());
                None
            }
        }
    }

    fn disk_put(&mut self, key: &str, payload: &str) -> io::Result<()> {
        let Some(path) = self.path_for(key) else { return Ok(()) };
        fs::create_dir_all(path.parent().expect("path_for joins the dir"))?;
        self.sweep_orphans();
        durable::write_durably(&path, |file| {
            file.write_all(&encode_entry(key, payload, self.epoch))
        })?;
        self.stats.written += 1;
        Ok(())
    }

    fn sweep_orphans(&self) {
        if let Some(dir) = &self.dir {
            self.sweep.run(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique, self-cleaning temp dir under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("dvp-result-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Hand-builds a pre-epoch v1 entry (the PR 8 layout) byte for byte.
    fn encode_v1_entry(key: &str, payload: &str) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&RESULT_MAGIC);
        out.push(1u8);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(payload.as_bytes());
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (key, payload) in
            [("k", "v"), ("", ""), ("job a|b|c", "line one\nline two\n"), ("π", "τ✓")]
        {
            let bytes = encode_entry(key, payload, 7);
            assert_eq!(decode_entry(key, 7, &bytes).as_deref(), Ok(payload), "key `{key}`");
        }
    }

    #[test]
    fn decode_rejects_wrong_key_magic_version_and_length() {
        let bytes = encode_entry("right-key", "payload", 7);
        assert_eq!(
            decode_entry("wrong-key", 7, &bytes).unwrap_err(),
            "key mismatch at offset 21: entry holds `right-key`, expected `wrong-key`"
        );

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_entry("right-key", 7, &bad).unwrap_err(),
            "bad magic at offset 0: expected [44, 56, 50, 52], found [58, 56, 50, 52]"
        );

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            decode_entry("right-key", 7, &bad).unwrap_err(),
            "unsupported version at offset 4: expected 2, found 9"
        );

        let mut long = bytes.clone();
        long.push(0);
        let err = decode_entry("right-key", 7, &long).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
        assert!(err.contains("key_len 9 at offset 13"), "{err}");
        assert!(err.contains("payload_len 7 at offset 17"), "{err}");
        assert!(decode_entry("right-key", 7, &bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("length mismatch"));
        assert_eq!(
            decode_entry("right-key", 7, b"DV").unwrap_err(),
            "entry too short: 2 bytes on disk, at least 29 required"
        );
    }

    #[test]
    fn decode_rejects_stale_epochs_and_v1_entries() {
        // An intact entry from a different build: stale, with both epochs
        // named so the operator can see which build wrote it.
        let bytes = encode_entry("k", "payload", 0xAAAA);
        assert_eq!(
            decode_entry("k", 0xBBBB, &bytes).unwrap_err(),
            "stale engine epoch at offset 5: entry 000000000000aaaa, current 000000000000bbbb"
        );
        // A pre-epoch v1 entry is structurally valid but carries no epoch
        // stamp: rejected unconditionally.
        let v1 = encode_v1_entry("k", "payload");
        assert_eq!(
            decode_entry("k", 0xBBBB, &v1).unwrap_err(),
            "unsupported version at offset 4: expected 2, found 1 \
             (pre-epoch v1 entries are never trusted)"
        );
    }

    #[test]
    fn headers_parse_for_both_versions_and_judge_currency() {
        let v2 = read_entry_header(&encode_entry("job|x", "body", 42)).unwrap();
        assert_eq!(
            v2,
            EntryHeader { version: 2, epoch: Some(42), key: "job|x".into(), payload_len: 4 }
        );
        assert!(v2.is_current(42));
        assert!(!v2.is_current(43));

        let v1 = read_entry_header(&encode_v1_entry("job|x", "body")).unwrap();
        assert_eq!(
            v1,
            EntryHeader { version: 1, epoch: None, key: "job|x".into(), payload_len: 4 }
        );
        assert!(!v1.is_current(42), "v1 entries are never current");

        let mut corrupt = encode_entry("job|x", "body", 42);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        assert!(read_entry_header(&corrupt).unwrap_err().contains("checksum mismatch"));
    }

    #[test]
    fn scan_and_purge_keep_only_current_entries() {
        let tmp = TempDir::new("purge");
        fs::create_dir_all(&tmp.0).unwrap();
        fs::write(tmp.0.join("current.dvpr"), encode_entry("a", "A", 7)).unwrap();
        fs::write(tmp.0.join("stale.dvpr"), encode_entry("b", "B", 6)).unwrap();
        fs::write(tmp.0.join("legacy.dvpr"), encode_v1_entry("c", "C")).unwrap();
        fs::write(tmp.0.join("torn.dvpr"), b"DVPR").unwrap();
        fs::write(tmp.0.join("ignored.txt"), b"not an entry").unwrap();
        fs::write(tmp.0.join("inflight.dvpr.tmp-1"), b"partial").unwrap();

        let infos = scan_entries(&tmp.0).unwrap();
        let names: Vec<_> =
            infos.iter().map(|i| i.path.file_name().unwrap().to_str().unwrap()).collect();
        assert_eq!(names, ["current.dvpr", "legacy.dvpr", "stale.dvpr", "torn.dvpr"]);
        let current: Vec<bool> =
            infos.iter().map(|i| i.header.as_ref().is_ok_and(|h| h.is_current(7))).collect();
        assert_eq!(current, [true, false, false, false]);

        let report = purge_stale(&tmp.0, 7).unwrap();
        assert_eq!(report, PurgeReport { removed: 3, kept: 1 });
        assert!(tmp.0.join("current.dvpr").exists());
        assert!(!tmp.0.join("stale.dvpr").exists());
        assert!(!tmp.0.join("legacy.dvpr").exists());
        assert!(!tmp.0.join("torn.dvpr").exists());
        assert!(tmp.0.join("ignored.txt").exists(), "foreign files are untouched");
        assert!(tmp.0.join("inflight.dvpr.tmp-1").exists(), "temp files are the sweep's job");
    }

    #[test]
    fn memory_tier_hits_and_misses_are_counted() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get("a"), None);
        cache.insert("a", "A");
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        assert_eq!(cache.get("b"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.written), (1, 2, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_and_get_refreshes_recency() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "A");
        cache.insert("b", "B");
        // Touch `a` so `b` is now least recently used.
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        cache.insert("c", "C");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None, "LRU entry `b` was evicted");
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        assert_eq!(cache.get("c").as_deref(), Some("C"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_replaces_without_growing() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "old");
        cache.insert("a", "new");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").as_deref(), Some("new"));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_zero_disables_the_memory_tier() {
        let mut cache = ResultCache::new(0);
        cache.insert("a", "A");
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
    }

    #[test]
    fn disk_tier_survives_a_fresh_instance() {
        let tmp = TempDir::new("disk-roundtrip");
        let mut cold = ResultCache::new(4).with_dir(&tmp.0);
        cold.insert("job|x", "result body\n");
        assert_eq!(cold.stats().written, 1);

        // A fresh instance (new process, after a crash, …) misses memory
        // but hits disk — and repopulates its memory tier.
        let mut warm = ResultCache::new(4).with_dir(&tmp.0);
        assert_eq!(warm.get("job|x").as_deref(), Some("result body\n"));
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.get("job|x").as_deref(), Some("result body\n"));
        assert_eq!(warm.stats().hits, 1);
    }

    #[test]
    fn corrupt_disk_entry_is_rejected_and_recomputable() {
        let tmp = TempDir::new("corrupt");
        let mut cache = ResultCache::new(0).with_dir(&tmp.0);
        cache.insert("job|x", "good payload");
        let path = cache.path_for("job|x").expect("disk tier configured");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut fresh = ResultCache::new(0).with_dir(&tmp.0);
        assert_eq!(fresh.get("job|x"), None, "corrupt entry must read as a miss");
        assert_eq!(fresh.stats().invalid, 1);
        // Recompute-and-overwrite heals the entry.
        fresh.insert("job|x", "good payload");
        assert_eq!(fresh.get("job|x").as_deref(), Some("good payload"));
    }

    #[test]
    fn hash_collision_with_a_different_key_is_rejected() {
        // Two keys can map to the same file only via an FNV collision; a
        // mis-filed entry simulates that by renaming.
        let tmp = TempDir::new("mis-filed");
        let mut cache = ResultCache::new(0).with_dir(&tmp.0);
        cache.insert("key-one", "payload-one");
        let from = cache.path_for("key-one").unwrap();
        let to = cache.path_for("key-two").unwrap();
        fs::rename(from, to).unwrap();
        assert_eq!(cache.get("key-two"), None, "stored key must match the lookup key");
        assert_eq!(cache.stats().invalid, 1);
    }

    #[test]
    fn orphaned_tmp_files_of_dead_processes_are_swept() {
        let tmp = TempDir::new("sweep");
        fs::create_dir_all(&tmp.0).unwrap();
        // Pid 4_000_000_000 is far above any real pid_max: a dead writer.
        let dead = tmp.0.join(format!("stale.{RESULT_EXTENSION}.tmp-4000000000"));
        let own = tmp.0.join(format!("inflight.{RESULT_EXTENSION}.tmp-{}", std::process::id()));
        let unrelated = tmp.0.join("keep.txt");
        for p in [&dead, &own, &unrelated] {
            fs::write(p, b"partial").unwrap();
        }

        // Age gate disabled: pid liveness alone decides.
        let mut cache = ResultCache::new(2).with_dir(&tmp.0).with_sweep_min_age(Duration::ZERO);
        let _ = cache.get("anything");
        assert!(!dead.exists(), "dead process's tmp file must be swept");
        assert!(own.exists(), "this process's in-flight tmp file must survive");
        assert!(unrelated.exists(), "non-tmp files are untouched");
    }

    #[test]
    fn fresh_tmp_files_survive_the_default_age_gate_even_with_a_dead_pid() {
        // A pid that is dead *locally* may be a live writer on another
        // machine sharing this directory over a network filesystem; a
        // freshly written temp file must therefore never be swept, only
        // one both dead and older than the gate.
        let tmp = TempDir::new("sweep-age-gate");
        fs::create_dir_all(&tmp.0).unwrap();
        let foreign = tmp.0.join(format!("peer.{RESULT_EXTENSION}.tmp-4000000001"));
        fs::write(&foreign, b"live on another machine").unwrap();

        let mut cache = ResultCache::new(2).with_dir(&tmp.0);
        let _ = cache.get("anything");
        assert!(foreign.exists(), "a fresh tmp file must survive the default age gate");
    }

    #[test]
    fn entries_from_an_older_epoch_are_never_served() {
        // The epoch-staleness regression, disk tier: epoch A writes, a
        // restart at epoch B (new binary, changed semantics) must
        // recompute — the stale payload is rejected, counted, and then
        // healed by the recompute's write-through.
        let tmp = TempDir::new("epoch-flip");
        let mut before = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xA);
        before.insert("job|x", "old bytes\n");
        assert_eq!(before.get("job|x").as_deref(), Some("old bytes\n"));

        let mut after = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xB);
        assert_eq!(after.get("job|x"), None, "stale-epoch entry must read as a miss");
        assert_eq!((after.stats().invalid, after.stats().misses), (1, 1));
        after.insert("job|x", "new bytes\n");
        assert_eq!(after.get("job|x").as_deref(), Some("new bytes\n"));

        // And the old binary, restarted, now refuses the new entry too:
        // staleness is symmetric, never a downgrade path.
        let mut rollback = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xA);
        assert_eq!(rollback.get("job|x"), None);
    }

    #[test]
    fn stats_render_greppable() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "A");
        let _ = cache.get("a");
        assert_eq!(
            cache.stats().to_string(),
            "1 result hits, 0 misses, 0 disk hits, 0 written, 0 evicted, 0 invalid"
        );
    }
}
