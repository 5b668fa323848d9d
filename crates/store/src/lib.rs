//! `mcm-store`: the crash-safe, on-disk, content-addressed result
//! store behind the sweep harness's `Memo` (`MCM_STORE=<dir>`).
//!
//! Design-space sweeps are "heavy traffic": most queries repeat, so
//! each simulation should run *once, ever* — across process restarts,
//! crashes, and corrupted disks. This crate provides that foundation:
//!
//! * **Content addressing.** Records are keyed by a caller-supplied
//!   64-bit fingerprint plus workload name. The harness folds in
//!   everything that determines a result (config fingerprint, scaled
//!   instruction count, fault knobs), so a stale hit is structurally
//!   impossible — a different simulation is a different key.
//! * **Hermetic record format** (`mcm-store-v1`, [`format`](mod@format)): per-record
//!   FNV-1a checksums over header and body, a file magic that doubles
//!   as a schema gate, and hard plausibility bounds.
//! * **Atomic commits.** Every put writes a fresh immutable segment
//!   file via write-to-temp → fsync → atomic rename → directory fsync.
//!   A crash at any instant leaves either a committed segment or an
//!   ignorable temp file — never a half-renamed record.
//! * **Startup recovery.** [`Store::open`] scans every segment,
//!   quarantines torn tails, bit-flipped records, and foreign or
//!   future-schema files as *misses* — loudly on stderr and in the
//!   `store.*` telemetry counters, never with a panic. A sweep
//!   restarted over a damaged store resimulates exactly the damaged
//!   records.
//! * **Single-writer lock.** A `LOCK` file holding the owner's PID and
//!   its `/proc` start-time token keeps two harness processes from
//!   interleaving writes: the second opener degrades to read-only
//!   (counted, loud) instead of corrupting the first's segments. Locks
//!   left by dead processes (the crash case) are detected via `/proc`
//!   and broken — including when the dead owner's PID has been recycled
//!   by an unrelated process, which the start-time token distinguishes
//!   from the true owner. A token-less PID-only `LOCK` (the pre-token
//!   format, still written by external tooling) is honoured on PID
//!   liveness alone.
//!
//! The scripted crash knob `MCM_STORE_CRASH_AFTER=<n>` (test-only,
//! wired through the tier-1 crash-recovery smoke) makes the *n*+1-th
//! commit write a deliberately torn record prefix and abort the
//! process — a deterministic stand-in for power loss mid-append.
//!
//! Hermetic per the workspace rule: `std` plus sibling crates only.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod format;

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use mcm_gpu::RunReport;
use mcm_telemetry::{global, Class, Counter};

use format::{FileRejection, ScanEvent};

/// Number of segment files above which [`Store::open`] compacts the
/// directory into a single segment before serving.
const COMPACT_AT: usize = 256;

/// Pre-registered `store.*` telemetry. All [`Class::PerConfig`]: with
/// `MCM_STORE` unset every counter stays zero (the determinism suites
/// run that way); with it set, the values are a function of the knob
/// *and* of what previous processes left on disk.
struct StoreTele {
    hits: Counter,
    misses: Counter,
    puts: Counter,
    recovered: Counter,
    quarantined: Counter,
    quarantined_files: Counter,
    lock_contended: Counter,
    lock_broken: Counter,
    compactions: Counter,
    read_only_drops: Counter,
}

fn tele() -> &'static StoreTele {
    static TELE: OnceLock<StoreTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = global();
        StoreTele {
            hits: reg.counter("store.hits", Class::PerConfig),
            misses: reg.counter("store.misses", Class::PerConfig),
            puts: reg.counter("store.puts", Class::PerConfig),
            recovered: reg.counter("store.recovered", Class::PerConfig),
            quarantined: reg.counter("store.quarantined", Class::PerConfig),
            quarantined_files: reg.counter("store.quarantined_files", Class::PerConfig),
            lock_contended: reg.counter("store.lock_contended", Class::PerConfig),
            lock_broken: reg.counter("store.lock_broken", Class::PerConfig),
            compactions: reg.counter("store.compactions", Class::PerConfig),
            read_only_drops: reg.counter("store.read_only_drops", Class::PerConfig),
        }
    })
}

/// Per-instance mirror of the global `store.*` counters — race-free
/// for tests that run alongside other store-using tests in one
/// process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// [`Store::get`] calls answered from the index.
    pub hits: u64,
    /// [`Store::get`] calls that found nothing.
    pub misses: u64,
    /// Records durably committed.
    pub puts: u64,
    /// Records loaded by the recovery scan at open.
    pub recovered: u64,
    /// Records or file tails dropped by the recovery scan.
    pub quarantined: u64,
    /// Whole files refused (foreign magic or future schema).
    pub quarantined_files: u64,
    /// Opens that found a live competing writer and degraded to
    /// read-only.
    pub lock_contended: u64,
    /// Stale locks (dead owner) broken at open.
    pub lock_broken: u64,
    /// Puts dropped because this instance is read-only.
    pub read_only_drops: u64,
}

/// Who owns the store directory's write lock.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum LockState {
    /// This instance created `LOCK` and removes it on drop.
    Owned,
    /// Another live process holds `LOCK`; this instance serves reads
    /// from its recovery snapshot and drops writes.
    ReadOnly,
}

/// Everything mutable, behind one mutex so worker threads can `put`
/// concurrently from a sweep.
#[derive(Debug)]
struct Inner {
    index: HashMap<(u64, String), RunReport>,
    next_segment: u64,
    commits: u64,
    stats: StoreStats,
}

/// A crash-safe, content-addressed on-disk map from
/// `(fingerprint, workload name)` to [`RunReport`]. See the crate docs
/// for the durability contract.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    lock: LockState,
    inner: Mutex<Inner>,
    /// Scripted crash: abort the process (after writing a torn record
    /// prefix) on commit number `n` (0-based). Test-only.
    crash_after: Option<u64>,
}

fn warn(msg: &str) {
    eprintln!("mcm-store: warning: {msg}");
}

/// True when `pid` names a live process. On Linux this consults
/// `/proc`; elsewhere it conservatively assumes the process is alive
/// (a stale lock then needs manual removal, but a live writer is never
/// trampled).
fn pid_alive(pid: u64) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The start-time token of `pid`: field 22 of `/proc/<pid>/stat`
/// (clock ticks between boot and process start). A `(pid, start-time)`
/// pair names one *incarnation* of a process — when the kernel recycles
/// a dead owner's PID, the new holder gets a different start time, so a
/// recycled PID cannot pin the store read-only forever. `None` when the
/// stat file is unreadable (the process is gone, or not Linux).
fn pid_start_token(pid: u64) -> Option<String> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field (2) is parenthesised and may itself contain spaces
    // or ')' characters; everything after the *last* ')' is fields 3
    // onward, whitespace-split — starttime (field 22 overall) is at
    // index 19 of that remainder.
    let rest = stat.rsplit_once(')')?.1;
    rest.split_whitespace().nth(19).map(str::to_string)
}

/// True when the `LOCK` holder described by `(pid, token)` is still the
/// process that wrote the lock. Token-less locks (the pre-token format,
/// and whatever external tooling writes) degrade to PID liveness alone,
/// as does a platform where start times cannot be read.
fn holder_alive(pid: u64, recorded_token: Option<&str>) -> bool {
    if !pid_alive(pid) {
        return false;
    }
    match (recorded_token, pid_start_token(pid)) {
        // Both sides have a token: the holder is alive only if the
        // live process *is* the incarnation that locked.
        (Some(recorded), Some(current)) => recorded == current,
        // Missing on either side: never trample a possibly-live writer.
        _ => true,
    }
}

/// Opens `dir` for file-content fsync.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

impl Store {
    /// Opens (creating if necessary) the store at `dir`, acquiring the
    /// write lock and running the recovery scan. Corruption on disk is
    /// *never* an error: damaged records are quarantined as misses,
    /// loudly. A live competing writer degrades this instance to
    /// read-only rather than failing.
    ///
    /// # Errors
    ///
    /// Returns an error only for environmental failures that make the
    /// directory unusable at all: it cannot be created, listed, or the
    /// lock file cannot be written.
    ///
    /// # Panics
    ///
    /// Panics when `MCM_STORE_CRASH_AFTER` is set but is not valid
    /// Unicode or not a non-negative integer.
    pub fn open(dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let lock = Store::acquire_lock(dir)?;
        let mut inner = Inner {
            index: HashMap::new(),
            next_segment: 0,
            commits: 0,
            stats: StoreStats::default(),
        };
        if lock == LockState::ReadOnly {
            inner.stats.lock_contended += 1;
        }
        let mut store = Store {
            dir: dir.to_path_buf(),
            lock,
            inner: Mutex::new(inner),
            crash_after: std::env::var_os("MCM_STORE_CRASH_AFTER").map(|raw| {
                let raw = raw.to_str().unwrap_or_else(|| {
                    panic!("MCM_STORE_CRASH_AFTER is set to non-Unicode bytes ({raw:?})")
                });
                raw.trim().parse().unwrap_or_else(|_| {
                    panic!("MCM_STORE_CRASH_AFTER must be a non-negative integer, got {raw:?}")
                })
            }),
        };
        store.recover()?;
        if store.lock == LockState::Owned {
            let segments = store.segment_paths()?.len();
            if segments > COMPACT_AT {
                store.compact()?;
            }
        }
        Ok(store)
    }

    /// Takes or breaks the `LOCK` file. See the crate docs.
    fn acquire_lock(dir: &Path) -> io::Result<LockState> {
        let lock_path = dir.join("LOCK");
        for attempt in 0..2 {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut f) => {
                    let pid = u64::from(std::process::id());
                    match pid_start_token(pid) {
                        Some(token) => writeln!(f, "{pid} {token}")?,
                        None => writeln!(f, "{pid}")?,
                    }
                    f.sync_all()?;
                    return Ok(LockState::Owned);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let content = std::fs::read_to_string(&lock_path).unwrap_or_default();
                    let mut fields = content.split_whitespace();
                    let holder: Option<u64> = fields.next().and_then(|s| s.parse().ok());
                    let token = fields.next();
                    match holder {
                        Some(pid) if !holder_alive(pid, token) && attempt == 0 => {
                            // Crash leftovers: the tier-1 smoke kills a
                            // writer mid-sweep; its successor must not
                            // be locked out forever — even when the
                            // dead owner's pid was recycled.
                            warn(&format!(
                                "breaking stale lock {} (owner pid {pid} is gone)",
                                lock_path.display()
                            ));
                            tele().lock_broken.inc();
                            let _ = std::fs::remove_file(&lock_path);
                            continue;
                        }
                        Some(pid) => {
                            warn(&format!(
                                "{} is held by live pid {pid}; opening read-only \
                                 (results are served but new ones are not persisted)",
                                lock_path.display()
                            ));
                            tele().lock_contended.inc();
                            return Ok(LockState::ReadOnly);
                        }
                        None => {
                            // Unreadable/garbled lock: could be a
                            // writer caught between create and write.
                            // Treat as live — never trample a writer.
                            warn(&format!(
                                "{} exists but holds no readable pid; opening read-only",
                                lock_path.display()
                            ));
                            tele().lock_contended.inc();
                            return Ok(LockState::ReadOnly);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Second create_new also lost the race: a live writer took it.
        warn(&format!(
            "{} was re-taken while breaking a stale lock; opening read-only",
            lock_path.display()
        ));
        tele().lock_contended.inc();
        Ok(LockState::ReadOnly)
    }

    /// All committed segment paths, in commit (name) order.
    fn segment_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".mcmstore"))
            })
            .collect();
        segs.sort();
        Ok(segs)
    }

    /// The startup recovery scan: loads every surviving record,
    /// quarantines damage, removes leftover temp files, and primes the
    /// next segment number.
    fn recover(&mut self) -> io::Result<()> {
        let t = tele();
        // Uncommitted temp files are crash debris by definition.
        for entry in std::fs::read_dir(&self.dir)?.filter_map(Result::ok) {
            let p = entry.path();
            let is_tmp = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("tmp-"));
            if is_tmp && self.lock == LockState::Owned {
                let _ = std::fs::remove_file(&p);
            }
        }
        let paths = self.segment_paths()?;
        let inner = self.inner.get_mut().expect("store mutex poisoned");
        for path in paths {
            if let Some(n) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("seg-"))
                .and_then(|n| n.strip_suffix(".mcmstore"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                inner.next_segment = inner.next_segment.max(n + 1);
            }
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    warn(&format!("cannot read {}: {e}; skipping", path.display()));
                    t.quarantined_files.inc();
                    inner.stats.quarantined_files += 1;
                    continue;
                }
            };
            match format::check_magic(&bytes) {
                Ok(()) => {}
                Err(rejection @ (FileRejection::ForeignMagic | FileRejection::TooShort)) => {
                    warn(&format!("quarantining {}: {rejection}", path.display()));
                    t.quarantined_files.inc();
                    inner.stats.quarantined_files += 1;
                    continue;
                }
                Err(rejection @ FileRejection::SchemaVersion(_)) => {
                    warn(&format!(
                        "refusing {}: {rejection}; \
                         not reinterpreting a foreign schema",
                        path.display()
                    ));
                    t.quarantined_files.inc();
                    inner.stats.quarantined_files += 1;
                    continue;
                }
            }
            for event in format::scan_records(&bytes) {
                match event {
                    ScanEvent::Record {
                        fingerprint,
                        name,
                        report,
                    } => {
                        t.recovered.inc();
                        inner.stats.recovered += 1;
                        // Later segments win: a record rewritten after
                        // compaction supersedes its ancestors.
                        inner.index.insert((fingerprint, name), *report);
                    }
                    ScanEvent::Quarantined { offset, reason } => {
                        warn(&format!(
                            "quarantining record(s) in {} at byte {offset}: {reason}",
                            path.display()
                        ));
                        t.quarantined.inc();
                        inner.stats.quarantined += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether this instance owns the write lock (false = read-only).
    pub fn writable(&self) -> bool {
        self.lock == LockState::Owned
    }

    /// Number of records currently served.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store mutex poisoned").index.len()
    }

    /// True when the store serves no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of committed segment files on disk.
    ///
    /// # Panics
    ///
    /// Panics if the store directory vanished out from under the
    /// process.
    pub fn segment_count(&self) -> usize {
        self.segment_paths().expect("list store directory").len()
    }

    /// This instance's counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store mutex poisoned").stats
    }

    /// Looks up a record. A hit is a clone of the recovered report —
    /// bit-exact with what was `put`.
    pub fn get(&self, fingerprint: u64, name: &str) -> Option<RunReport> {
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        let found = inner.index.get(&(fingerprint, name.to_string())).cloned();
        match &found {
            Some(_) => {
                tele().hits.inc();
                inner.stats.hits += 1;
            }
            None => {
                tele().misses.inc();
                inner.stats.misses += 1;
            }
        }
        found
    }

    /// Durably commits one record: a fresh segment file written via
    /// temp + fsync + rename + directory fsync. Read-only instances
    /// drop the write (counted) instead of interleaving with the lock
    /// owner. Returns whether the record is now durable.
    ///
    /// # Panics
    ///
    /// Panics if the filesystem fails mid-commit (disk full, directory
    /// removed): a store that silently loses acknowledged writes would
    /// defeat its purpose, so environmental failure is loud.
    pub fn put(&self, fingerprint: u64, name: &str, report: &RunReport) -> bool {
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        if self.lock == LockState::ReadOnly {
            tele().read_only_drops.inc();
            inner.stats.read_only_drops += 1;
            inner
                .index
                .insert((fingerprint, name.to_string()), report.clone());
            return false;
        }
        let record = format::encode_record(fingerprint, name, report);
        let seg = inner.next_segment;
        inner.next_segment += 1;
        let final_path = self.segment_path(seg);
        if let Some(n) = self.crash_after {
            if inner.commits >= n {
                self.scripted_torn_crash(&final_path, &record);
            }
        }
        self.commit_segment(&final_path, &record)
            .unwrap_or_else(|e| {
                panic!(
                    "mcm-store: cannot commit {}: {e} — refusing to continue \
                     with an unpersisted acknowledged write",
                    final_path.display()
                )
            });
        inner.commits += 1;
        tele().puts.inc();
        inner.stats.puts += 1;
        inner
            .index
            .insert((fingerprint, name.to_string()), report.clone());
        true
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.dir.join(format!("seg-{seg:08}.mcmstore"))
    }

    /// The atomic commit protocol for one segment's bytes.
    fn commit_segment(&self, final_path: &Path, body: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            final_path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("seg")
        ));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(format::MAGIC)?;
            f.write_all(body)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, final_path)?;
        fsync_dir(&self.dir)
    }

    /// The scripted crash: emulate power loss mid-append by writing a
    /// torn prefix of the record *directly* to the final path (no
    /// temp, no rename — precisely the failure the commit protocol
    /// exists to prevent) and aborting the process.
    fn scripted_torn_crash(&self, final_path: &Path, record: &[u8]) -> ! {
        let cut = format::HEADER_LEN + (record.len() - format::HEADER_LEN) / 2;
        let torn = &record[..cut.min(record.len())];
        if let Ok(mut f) = File::create(final_path) {
            let _ = f.write_all(format::MAGIC);
            let _ = f.write_all(torn);
            let _ = f.sync_all();
        }
        eprintln!(
            "mcm-store: MCM_STORE_CRASH_AFTER tripped: wrote torn record to {} and aborting",
            final_path.display()
        );
        std::process::abort();
    }

    /// Rewrites every live record into a single fresh segment (same
    /// atomic commit protocol), then deletes the old segments. Safe at
    /// any crash point: the new segment only becomes visible via
    /// rename, and until the old segments are unlinked the records are
    /// merely duplicated (last-writer-wins makes that harmless).
    ///
    /// # Errors
    ///
    /// Returns an error on environmental filesystem failure; read-only
    /// instances return `Ok` without touching the directory.
    pub fn compact(&self) -> io::Result<()> {
        if self.lock == LockState::ReadOnly {
            return Ok(());
        }
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        let old = self.segment_paths()?;
        let mut entries: Vec<(&(u64, String), &RunReport)> = inner.index.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut body = Vec::new();
        for ((fp, name), report) in entries {
            body.extend_from_slice(&format::encode_record(*fp, name, report));
        }
        let seg = inner.next_segment;
        inner.next_segment += 1;
        self.commit_segment(&self.segment_path(seg), &body)?;
        for p in old {
            std::fs::remove_file(&p)?;
        }
        fsync_dir(&self.dir)?;
        tele().compactions.inc();
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if self.lock == LockState::Owned {
            let _ = std::fs::remove_file(self.dir.join("LOCK"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mcm-store-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(salt: u64) -> RunReport {
        crate::codec::tests::sample_report(salt)
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = temp_store_dir("reopen");
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.writable());
            assert!(store.put(7, "CFD", &sample(7)));
            assert!(store.put(9, "Stream", &sample(9)));
            assert_eq!(store.stats().puts, 2);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.stats().quarantined, 0);
        assert_eq!(store.get(7, "CFD"), Some(sample(7)));
        assert_eq!(store.get(9, "Stream"), Some(sample(9)));
        assert_eq!(store.get(7, "Stream"), None);
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_degrades_to_read_only() {
        let dir = temp_store_dir("lock");
        let first = Store::open(&dir).unwrap();
        assert!(first.put(1, "a", &sample(1)));
        let second = Store::open(&dir).unwrap();
        assert!(!second.writable());
        assert_eq!(second.stats().lock_contended, 1);
        // Reads work; writes are dropped, not interleaved.
        assert_eq!(second.get(1, "a"), Some(sample(1)));
        assert!(!second.put(2, "b", &sample(2)));
        assert_eq!(second.stats().read_only_drops, 1);
        drop(second);
        // The read-only instance must not have removed the owner's lock.
        assert!(dir.join("LOCK").exists());
        drop(first);
        let third = Store::open(&dir).unwrap();
        assert!(third.writable());
        assert_eq!(third.get(2, "b"), None, "read-only writes must not persist");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = temp_store_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // No live process has this pid (pid_max on Linux < 2^22 by
        // default; 2^31 + spread keeps it safely dead).
        std::fs::write(dir.join("LOCK"), "2147483646\n").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.writable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the recycled-PID lockout: a lock whose PID is
    /// alive but belongs to a *different incarnation* (mismatched
    /// start-time token) is crash debris, not a live writer. Using our
    /// own live PID with a bogus token is exactly that shape.
    #[test]
    #[cfg(target_os = "linux")]
    fn recycled_pid_lock_is_broken() {
        let dir = temp_store_dir("recycled");
        std::fs::create_dir_all(&dir).unwrap();
        let own = u64::from(std::process::id());
        let real = pid_start_token(own).expect("own start token readable");
        let bogus = "1";
        assert_ne!(real, bogus, "a real start token is never 1 tick");
        std::fs::write(dir.join("LOCK"), format!("{own} {bogus}\n")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(
            store.writable(),
            "a recycled pid must not pin the store read-only"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The matching-token side of the same coin: a live PID whose token
    /// matches the lock really is the owner and must be respected.
    #[test]
    #[cfg(target_os = "linux")]
    fn live_owner_with_matching_token_is_respected() {
        let dir = temp_store_dir("liveowner");
        std::fs::create_dir_all(&dir).unwrap();
        let own = u64::from(std::process::id());
        let token = pid_start_token(own).expect("own start token readable");
        std::fs::write(dir.join("LOCK"), format!("{own} {token}\n")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(!store.writable());
        drop(store);
        assert!(dir.join("LOCK").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Back-compat: a token-less PID-only lock (the pre-token format,
    /// still written by the tier-1 contention smoke) is judged on PID
    /// liveness alone — a live PID is honoured.
    #[test]
    fn pid_only_live_lock_is_respected() {
        let dir = temp_store_dir("pidonly");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("LOCK"), format!("{}\n", std::process::id())).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(!store.writable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_lock_is_respected() {
        let dir = temp_store_dir("garbled");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("LOCK"), "not a pid").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(!store.writable(), "unreadable lock must not be trampled");
        drop(store);
        assert!(dir.join("LOCK").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_temp_files_are_cleaned() {
        let dir = temp_store_dir("tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tmp-123-seg-0.mcmstore"), b"debris").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(!dir.join("tmp-123-seg-0.mcmstore").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_every_record_bit_exact() {
        let dir = temp_store_dir("compact");
        let store = Store::open(&dir).unwrap();
        for salt in 0..10u64 {
            store.put(salt, "w", &sample(salt));
        }
        assert_eq!(store.segment_count(), 10);
        store.compact().unwrap();
        assert_eq!(store.segment_count(), 1);
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        for salt in 0..10u64 {
            assert_eq!(store.get(salt, "w"), Some(sample(salt)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_in_dir_is_ignored_loudly() {
        let dir = temp_store_dir("foreign");
        let store = Store::open(&dir).unwrap();
        store.put(1, "a", &sample(1));
        drop(store);
        std::fs::write(dir.join("seg-99999999.mcmstore"), b"CSV,not,a,store,file").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().quarantined_files, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_after_quarantine_round_trips() {
        let dir = temp_store_dir("rewrite");
        let store = Store::open(&dir).unwrap();
        store.put(5, "w", &sample(5));
        drop(store);
        // Corrupt the record's body on disk.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "mcmstore"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.get(5, "w"), None, "corrupt record must be a miss");
        // Rewriting the record makes it durable again, bit-exact.
        store.put(5, "w", &sample(5));
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(5, "w"), Some(sample(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
