//! The persistent trace cache: a disk tier under the in-memory
//! [`TraceStore`](crate::TraceStore).
//!
//! Generating a trace — compiling the workload and simulating it to
//! completion — is pure fixed cost that every `repro` invocation used to
//! repeat, because the in-memory trace cache dies with the process. This
//! module persists each generated trace as a v2 container
//! ([`dvp_trace::io::v2`], specified in `docs/TRACE_FORMAT.md`) inside a
//! cache directory, keyed by the workload's [`Fingerprint`] (benchmark,
//! input, seed, scale, optimization level, record cap). A later run with
//! the same configuration loads the container — decoded chunk-for-chunk
//! on the replay engine's worker pool, which parallelizes where the
//! simulator cannot — instead of simulating, is byte-identical to a cold
//! run, and needs neither the compiler nor the simulator. The containers
//! themselves are durable, externally consumable artifacts (`repro trace
//! export/stats/verify` manages them).
//!
//! The cache is **safe by construction**, not by trust:
//!
//! * a hit is only served when the stored fingerprint equals the expected
//!   one — a stale file (different scale, input, …) is reported and
//!   treated as a miss;
//! * every load validates the header checksum and each chunk's checksum,
//!   so a corrupted file is detected, reported, and regenerated;
//! * writes go to a temporary file first and are renamed into place, so a
//!   crashed run never leaves a torn container behind;
//! * cache failures (unwritable directory, corrupt file) never fail the
//!   run — they fall back to simulation and are counted in
//!   [`CacheStats`].

use crate::durable::{self, OrphanSweep};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_trace::io::v2::{self, Fingerprint, Header, TraceMeta};
use dvp_trace::io::TraceIoError;
use dvp_trace::PhasePlan;
use dvp_workloads::Workload;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File extension of persisted trace containers.
pub const TRACE_EXTENSION: &str = "dvpt";

/// Counters describing what a [`TraceStore`](crate::TraceStore) did across
/// its memory and disk tiers. `repro --trace-dir` prints them at the end
/// of a run; a fully warm run shows `0 simulated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Traces generated by running the simulator.
    pub simulated: u64,
    /// Traces served from a valid on-disk container.
    pub disk_hits: u64,
    /// Containers written through to disk after simulation.
    pub written: u64,
    /// On-disk candidates rejected (corrupt container or stale
    /// fingerprint) and regenerated.
    pub invalid: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} disk hits, {} simulated, {} written, {} invalid",
            self.disk_hits, self.simulated, self.written, self.invalid
        )
    }
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid container with the expected fingerprint: its metadata and
    /// the loaded trace.
    Hit(TraceMeta, SharedTrace),
    /// No container on disk for this fingerprint.
    Miss,
    /// A container exists but must not be used; the string says why
    /// (corrupt, or a stale fingerprint).
    Invalid(String),
}

/// One `*.dvpt` file found in a cache directory (see
/// [`TraceCache::entries`]).
#[derive(Debug)]
pub struct CacheEntry {
    /// Absolute path of the container.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// The parsed header, or why parsing failed. A parsed header does not
    /// imply the payload is intact — [`TraceCache::verify_file`] checks
    /// that.
    pub header: Result<Header, TraceIoError>,
}

/// The disk tier: a directory of fingerprint-keyed v2 trace containers.
///
/// This type only does I/O and validation; hit/miss accounting lives in
/// the owning [`TraceStore`](crate::TraceStore)'s [`CacheStats`].
///
/// # Examples
///
/// ```no_run
/// use dvp_experiments::cache::TraceCache;
/// use dvp_experiments::REFERENCE_OPT;
/// use dvp_workloads::{Benchmark, Workload};
///
/// let cache = TraceCache::new("/tmp/dvp-traces");
/// let workload = Workload::reference(Benchmark::M88k);
/// let fp = TraceCache::fingerprint(&workload, REFERENCE_OPT, None);
/// println!("would cache at {}", cache.path_for(&fp).display());
/// ```
#[derive(Debug)]
pub struct TraceCache {
    dir: PathBuf,
    /// Write new containers compressed ([`v2::write_compressed`], the
    /// version-4 format). Old v2/v3 files load either way.
    compress: bool,
    /// The one-time orphaned-`.tmp-*` sweep of the directory.
    sweep: OrphanSweep,
}

impl TraceCache {
    /// A cache rooted at `dir`. The directory is created on first use; a
    /// directory that cannot be created surfaces as write warnings, never
    /// as a failed run. New containers are written compressed by default
    /// (see [`TraceCache::with_compression`]).
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache {
            dir: dir.into(),
            compress: true,
            sweep: OrphanSweep::new(crate::result_cache::SWEEP_MIN_AGE),
        }
    }

    /// Overrides the orphan-sweep age gate
    /// ([`SWEEP_MIN_AGE`](crate::result_cache::SWEEP_MIN_AGE) by
    /// default). `Duration::ZERO` restores pid-liveness-only sweeping.
    #[must_use]
    pub fn with_sweep_min_age(mut self, min_age: std::time::Duration) -> TraceCache {
        self.sweep = OrphanSweep::new(min_age);
        self
    }

    /// Chooses whether [`write_through`](TraceCache::write_through) emits
    /// compressed (version-4) or uncompressed (version-3) containers.
    /// Reading is unaffected: every supported version always loads.
    #[must_use]
    pub fn with_compression(mut self, compress: bool) -> TraceCache {
        self.compress = compress;
        self
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint identifying the trace `workload` produces at `opt`
    /// with `record_cap` — the cache key.
    #[must_use]
    pub fn fingerprint(
        workload: &Workload,
        opt: OptLevel,
        record_cap: Option<usize>,
    ) -> Fingerprint {
        Fingerprint {
            workload: workload.benchmark().name().to_owned(),
            input: workload.input_name().to_owned(),
            opt_level: opt.to_string(),
            seed: workload.seed(),
            scale: workload.scale(),
            record_cap: record_cap.map_or(u64::MAX, |cap| cap as u64),
        }
    }

    /// The container path for `fingerprint`: human-scannable prefix
    /// (workload, input, opt level) plus the full digest, so distinct
    /// configurations never collide.
    #[must_use]
    pub fn path_for(&self, fingerprint: &Fingerprint) -> PathBuf {
        let name = format!(
            "{}-{}-{}-{:016x}.{TRACE_EXTENSION}",
            fingerprint.workload,
            fingerprint.input,
            fingerprint.opt_level,
            fingerprint.digest()
        );
        self.dir.join(name)
    }

    /// Looks `fingerprint` up on disk, decoding a candidate container on
    /// `engine`'s worker pool and validating its checksums and stored
    /// fingerprint.
    #[must_use]
    pub fn lookup(&self, engine: &ReplayEngine, fingerprint: &Fingerprint) -> CacheLookup {
        self.sweep.run(&self.dir);
        let path = self.path_for(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(err) => {
                return CacheLookup::Invalid(format!("{}: unreadable: {err}", path.display()))
            }
        };
        match engine.load_trace(&bytes) {
            Ok((header, trace)) if header.meta.fingerprint == *fingerprint => {
                CacheLookup::Hit(header.meta, trace)
            }
            Ok((header, _)) => CacheLookup::Invalid(format!(
                "{}: stale fingerprint (file: {:?}, expected: {:?})",
                path.display(),
                header.meta.fingerprint,
                fingerprint
            )),
            Err(err) => CacheLookup::Invalid(format!("{}: {err}", path.display())),
        }
    }

    /// Persists a trace as a trace container, chunk for chunk from the
    /// shared buffer, with the trace's PC interner appended as an optional
    /// section (so a warm load assigns dense ids by parallel read-only
    /// lookups instead of a sequential interning pass) and its SimPoint
    /// phase plan as another ([`v2::SECTION_PHASES`], so a sampled replay
    /// needs no profiling pass). The write lands in
    /// a temporary sibling file first, is **fsynced**, and only then
    /// renamed into place (followed by a best-effort directory sync), so
    /// neither a crashed run nor a machine crash right after the rename
    /// can expose a torn or empty container under the final name.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TraceIoError`] on any I/O or encoding
    /// failure (callers treat this as a warning, not a fatal error).
    pub fn write_through(
        &self,
        meta: &TraceMeta,
        trace: &SharedTrace,
    ) -> Result<PathBuf, TraceIoError> {
        fs::create_dir_all(&self.dir)?;
        self.sweep.run(&self.dir);
        let path = self.path_for(&meta.fingerprint);
        durable::write_durably(&path, |writer| {
            let plan = dvp_engine::phase_plan(trace, &dvp_engine::PhaseOptions::default());
            let sections = [
                (v2::SECTION_INTERNER, v2::encode_interner(trace.interner())),
                (v2::SECTION_PHASES, v2::encode_phases(&plan)),
            ];
            let chunks = trace.chunks().iter().map(Vec::as_slice);
            if self.compress {
                v2::write_compressed(writer, meta, chunks, &sections)
            } else {
                v2::write_with_sections(writer, meta, chunks, &sections)
            }
        })?;
        Ok(path)
    }

    /// All `*.dvpt` containers in the cache directory, sorted by file
    /// name, each with its parsed (but not payload-verified) header. A
    /// missing directory is an empty cache.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures other than a missing
    /// directory.
    pub fn entries(&self) -> io::Result<Vec<CacheEntry>> {
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        let mut entries = Vec::new();
        for entry in dir {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(TRACE_EXTENSION) {
                continue;
            }
            let bytes = entry.metadata()?.len();
            let header = fs::File::open(&path)
                .map_err(TraceIoError::from)
                .and_then(|file| v2::read_header(&mut io::BufReader::new(file)));
            entries.push(CacheEntry { path, bytes, header });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Fully verifies one container: header, every chunk checksum, every
    /// record decodes, no trailing bytes. Decoding fans out on `engine`.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceIoError`] the container violates.
    pub fn verify_file(engine: &ReplayEngine, path: &Path) -> Result<Header, TraceIoError> {
        let bytes = fs::read(path)?;
        engine.load_trace(&bytes).map(|(header, _)| header)
    }

    /// Reads the phase plan stored in a container's
    /// [`v2::SECTION_PHASES`] section without materializing the record
    /// payload: the payload bytes stream past unparsed, only the header
    /// and the trailing section frames are validated. `Ok(None)` means
    /// the container is intact but carries no plan (e.g. it was written
    /// before phase sampling existed).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the file cannot be read, the header
    /// or any trailing section frame fails validation, or the plan body
    /// decodes to an inconsistent plan.
    pub fn read_phase_plan(path: &Path) -> Result<Option<PhasePlan>, TraceIoError> {
        let mut reader = io::BufReader::new(fs::File::open(path)?);
        let (version, header) = v2::read_versioned_header(&mut reader)?;
        let payload_bytes: u64 = header.chunks.iter().map(|c| u64::from(c.len)).sum();
        let copied = io::copy(&mut io::Read::take(&mut reader, payload_bytes), &mut io::sink())?;
        if copied != payload_bytes {
            return Err(TraceIoError::Format {
                message: format!("payload truncated: {copied} of {payload_bytes} bytes present"),
            });
        }
        let mut rest = Vec::new();
        io::Read::read_to_end(&mut reader, &mut rest)?;
        let sections = v2::validate_trailing(version, &rest)?;
        sections
            .iter()
            .find(|section| section.magic == v2::SECTION_PHASES)
            .map(|section| v2::decode_phases(section.body))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::REFERENCE_OPT;
    use dvp_trace::{InstrCategory, Pc, TraceRecord};
    use dvp_workloads::Benchmark;

    /// A unique, self-cleaning temp dir under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("dvp-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_trace(n: u64) -> SharedTrace {
        (0..n)
            .map(|i| TraceRecord::new(Pc(0x400 + 4 * (i % 31)), InstrCategory::AddSub, i % 17))
            .collect()
    }

    fn sample_meta() -> TraceMeta {
        let workload = Workload::reference(Benchmark::M88k);
        TraceMeta {
            fingerprint: TraceCache::fingerprint(&workload, REFERENCE_OPT, Some(4096)),
            retired: 99,
            predicted: 77,
        }
    }

    #[test]
    fn lookup_misses_then_hits_after_write_through() {
        let tmp = TempDir::new("roundtrip");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        assert!(matches!(cache.lookup(&engine, &meta.fingerprint), CacheLookup::Miss));

        let trace = sample_trace(5000);
        let path = cache.write_through(&meta, &trace).expect("writes");
        assert!(path.exists());
        match cache.lookup(&engine, &meta.fingerprint) {
            CacheLookup::Hit(got_meta, got_trace) => {
                assert_eq!(got_meta, meta);
                assert_eq!(got_trace.to_vec(), trace.to_vec());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(TraceCache::verify_file(&engine, &path).is_ok());
    }

    #[test]
    fn stale_fingerprint_is_invalid_not_hit() {
        let tmp = TempDir::new("stale");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        cache.write_through(&meta, &sample_trace(100)).expect("writes");
        // Same path, different expectation: simulate a config change by
        // renaming the file onto another fingerprint's path.
        let mut expected = meta.fingerprint.clone();
        expected.scale += 1;
        fs::rename(cache.path_for(&meta.fingerprint), cache.path_for(&expected)).unwrap();
        match cache.lookup(&engine, &expected) {
            CacheLookup::Invalid(why) => assert!(why.contains("stale fingerprint"), "{why}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_container_is_invalid_and_fails_verify() {
        let tmp = TempDir::new("corrupt");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        let path = cache.write_through(&meta, &sample_trace(2000)).expect("writes");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.lookup(&engine, &meta.fingerprint), CacheLookup::Invalid(_)));
        assert!(TraceCache::verify_file(&engine, &path).is_err());
    }

    #[test]
    fn entries_lists_containers_and_flags_unparsable_ones() {
        let tmp = TempDir::new("entries");
        let cache = TraceCache::new(&tmp.0);
        assert!(cache.entries().expect("missing dir is empty").is_empty());

        let meta = sample_meta();
        cache.write_through(&meta, &sample_trace(300)).expect("writes");
        fs::write(tmp.0.join("garbage.dvpt"), b"not a container").unwrap();
        fs::write(tmp.0.join("ignored.txt"), b"other file").unwrap();

        let entries = cache.entries().expect("lists");
        assert_eq!(entries.len(), 2);
        let parsed: Vec<bool> = entries.iter().map(|e| e.header.is_ok()).collect();
        assert_eq!(parsed.iter().filter(|ok| **ok).count(), 1);
        let good = entries.iter().find(|e| e.header.is_ok()).unwrap();
        assert_eq!(good.header.as_ref().unwrap().record_count, 300);
        assert_eq!(good.bytes, fs::metadata(&good.path).unwrap().len());
    }

    #[test]
    fn writes_are_compressed_by_default_and_v3_on_request() {
        let tmp = TempDir::new("versions");
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        let trace = sample_trace(4000);

        let compressed = TraceCache::new(&tmp.0);
        let path = compressed.write_through(&meta, &trace).expect("writes");
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4], v2::VERSION_COMPRESSED, "default writes are version 4");
        assert!((bytes.len() as u64) < 17 * 4000, "far smaller than the flat encoding");
        match compressed.lookup(&engine, &meta.fingerprint) {
            CacheLookup::Hit(_, got) => assert_eq!(got.to_vec(), trace.to_vec()),
            other => panic!("expected hit, got {other:?}"),
        }

        let plain = TraceCache::new(&tmp.0).with_compression(false);
        let path = plain.write_through(&meta, &trace).expect("writes");
        let plain_bytes = fs::read(&path).unwrap();
        assert_eq!(plain_bytes[4], v2::VERSION_SECTIONS, "--no-compress writes version 3");
        assert!(bytes.len() < plain_bytes.len(), "compression shrinks this trace");
        match plain.lookup(&engine, &meta.fingerprint) {
            CacheLookup::Hit(_, got) => assert_eq!(got.to_vec(), trace.to_vec()),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn orphaned_tmp_files_of_dead_processes_are_swept() {
        let tmp = TempDir::new("sweep");
        fs::create_dir_all(&tmp.0).unwrap();
        // Pid 4_000_000_000 is far above any real pid_max: a dead writer.
        let dead = tmp.0.join(format!("stale.{TRACE_EXTENSION}.tmp-4000000000"));
        let own = tmp.0.join(format!("inflight.{TRACE_EXTENSION}.tmp-{}", std::process::id()));
        let unrelated = tmp.0.join("keep.txt");
        for p in [&dead, &own, &unrelated] {
            fs::write(p, b"partial").unwrap();
        }

        // Age gate disabled: pid liveness alone decides.
        let cache = TraceCache::new(&tmp.0).with_sweep_min_age(std::time::Duration::ZERO);
        let _ = cache.lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(!dead.exists(), "dead process's tmp file must be swept");
        assert!(own.exists(), "this process's in-flight tmp file must survive");
        assert!(unrelated.exists(), "non-tmp files are untouched");

        // The sweep runs once per cache instance: a re-planted orphan
        // survives lookups on the same instance…
        fs::write(&dead, b"partial again").unwrap();
        let _ = cache.lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(dead.exists());
        // …and is collected by the next gate-free instance.
        let _ = TraceCache::new(&tmp.0)
            .with_sweep_min_age(std::time::Duration::ZERO)
            .lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(!dead.exists());
        // A default-gated instance keeps a *fresh* dead-pid file: locally
        // dead may be another machine's live writer on a shared FS.
        fs::write(&dead, b"fresh again").unwrap();
        let _ =
            TraceCache::new(&tmp.0).lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(dead.exists(), "a fresh tmp file must survive the default age gate");
    }

    #[test]
    fn write_through_embeds_the_recomputed_phase_plan() {
        let tmp = TempDir::new("phases");
        let meta = sample_meta();
        let trace = sample_trace(6000);
        let expected = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
        for compress in [true, false] {
            let cache = TraceCache::new(&tmp.0).with_compression(compress);
            let path = cache.write_through(&meta, &trace).expect("writes");
            let stored = TraceCache::read_phase_plan(&path)
                .expect("section frames validate")
                .expect("plan section present");
            assert_eq!(stored, expected, "compress={compress}");
        }
    }

    #[test]
    fn containers_without_a_phase_section_read_as_none() {
        let tmp = TempDir::new("no-phases");
        fs::create_dir_all(&tmp.0).unwrap();
        let trace = sample_trace(500);
        let path = tmp.0.join(format!("legacy.{TRACE_EXTENSION}"));
        let mut writer = io::BufWriter::new(fs::File::create(&path).unwrap());
        let chunks = trace.chunks().iter().map(Vec::as_slice);
        v2::write_with_sections(&mut writer, &sample_meta(), chunks, &[]).unwrap();
        io::Write::flush(&mut writer).unwrap();
        drop(writer);
        assert_eq!(TraceCache::read_phase_plan(&path).expect("valid container"), None);
    }

    #[test]
    fn distinct_configs_get_distinct_paths() {
        let cache = TraceCache::new("/nowhere");
        let w = Workload::reference(Benchmark::Cc);
        let a = TraceCache::fingerprint(&w, OptLevel::O0, None);
        let b = TraceCache::fingerprint(&w, OptLevel::O2, None);
        let c = TraceCache::fingerprint(&w.clone().with_scale(1), OptLevel::O0, None);
        let d = TraceCache::fingerprint(&w, OptLevel::O0, Some(10));
        let paths = [&a, &b, &c, &d].map(|fp| cache.path_for(fp));
        for (i, p) in paths.iter().enumerate() {
            for q in &paths[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }
}
