//! The storage seam under the WAL and checkpoints, plus the
//! always-compiled storage fault injector ([`FaultFs`]).
//!
//! Everything the durability layer persists goes through the
//! [`Storage`] / [`VFile`] traits: WAL segment appends and fsyncs,
//! checkpoint tmp-write/rename, directory syncs. The production
//! implementation is real files ([`RealFs`]); [`FaultFs`] wraps it and —
//! exactly like the in-memory chaos injector in `txmem::hooks::chaos` —
//! costs **one relaxed atomic load** when disarmed, so it is compiled
//! into every build and armed only by tests, soaks, and fault-smoke CI.
//!
//! ## Fault model
//!
//! A [`FaultPlan`] scripts and randomizes the errors real disks return
//! (the failure classes persistent-memory TM designs must survive):
//!
//! * **transient / permanent fsync failure** — `fsync` reports an error;
//!   the page-cache state is unknown from then on (the *fsyncgate*
//!   problem), so the WAL never retries an fsync on the same file;
//! * **ENOSPC** — writes (and file creation) fail with "no space";
//! * **short writes** — a prefix of the buffer reaches the medium and
//!   the rest is lost, the torn-frame artifact checksummed recovery cuts;
//! * **post-write bit corruption** — the write *succeeds* but one bit of
//!   what lands differs from what was written: latent damage only a
//!   checksum re-scan (the scrubber, or recovery) can catch;
//! * **I/O stalls** — the call sleeps before completing, the slow-disk
//!   case that must not stall appenders (flush I/O happens outside the
//!   shard mutex). [`FaultGuard::hold_syncs`] is the deterministic
//!   variant: eligible fsyncs block until [`FaultGuard::release_syncs`].
//!
//! Faults target by shard (the `shard-<s>/` path component), by file
//! kind (segment vs checkpoint), and by an optional directory substring
//! so concurrent tests in one process cannot fault each other's files.
//! Installation is process-global and exclusive; [`install`] returns a
//! [`FaultGuard`] whose `Drop` disarms, and [`FaultGuard::clear`] "heals
//! the medium" without uninstalling — the rejoin-probe trigger.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// What kind of storage failure occurred (the typed error the WAL's
/// health machine dispatches on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// Generic I/O error (includes injected fsync failures).
    Io,
    /// The device is out of space.
    NoSpace,
    /// Only a prefix of the buffer reached the medium.
    ShortWrite,
    /// `fsync` failed: everything written since the last successful sync
    /// is in an unknown state and must be rewritten elsewhere.
    SyncFailed,
    /// The file is missing (e.g. a lost segment handle).
    Missing,
}

impl StorageErrorKind {
    pub fn name(self) -> &'static str {
        match self {
            StorageErrorKind::Io => "io",
            StorageErrorKind::NoSpace => "no_space",
            StorageErrorKind::ShortWrite => "short_write",
            StorageErrorKind::SyncFailed => "sync_failed",
            StorageErrorKind::Missing => "missing",
        }
    }
}

/// A typed storage-layer error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageError {
    pub kind: StorageErrorKind,
}

impl StorageError {
    pub fn new(kind: StorageErrorKind) -> Self {
        StorageError { kind }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage error: {}", self.kind.name())
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        let kind = match e.kind() {
            std::io::ErrorKind::NotFound => StorageErrorKind::Missing,
            std::io::ErrorKind::WriteZero => StorageErrorKind::ShortWrite,
            _ if e.raw_os_error() == Some(28) => StorageErrorKind::NoSpace, // ENOSPC
            _ => StorageErrorKind::Io,
        };
        StorageError { kind }
    }
}

/// An open file the durability layer writes through.
pub trait VFile: Send {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError>;
    fn sync_data(&mut self) -> Result<(), StorageError>;
}

/// The filesystem operations beneath WAL segments and checkpoints.
/// Reads stay on plain `std::fs` — corruption is injected at write time
/// and discovered by checksum, like on a real disk.
pub trait Storage: Send + Sync {
    /// Open (creating if absent) an append-only file.
    fn open_append(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError>;
    /// Create/truncate a file for writing (the checkpoint tmp).
    fn create(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError>;
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError>;
    fn remove_file(&self, path: &Path) -> Result<(), StorageError>;
    /// Best-effort directory sync (rename durability).
    fn sync_dir(&self, dir: &Path);
}

// ---------------------------------------------------------------------
// Real files
// ---------------------------------------------------------------------

/// Direct `std::fs` implementation.
pub struct RealFs;

struct RealFile(std::fs::File);

impl VFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.0.write_all(buf).map_err(StorageError::from)
    }
    fn sync_data(&mut self) -> Result<(), StorageError> {
        self.0.sync_data().map_err(StorageError::from)
    }
}

impl Storage for RealFs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(f)))
    }
    fn create(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        std::fs::rename(from, to).map_err(StorageError::from)
    }
    fn remove_file(&self, path: &Path) -> Result<(), StorageError> {
        std::fs::remove_file(path).map_err(StorageError::from)
    }
    fn sync_dir(&self, dir: &Path) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

// ---------------------------------------------------------------------
// Fault plan + global injector state
// ---------------------------------------------------------------------

/// Which files a plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Everything under the targeted shard(s).
    All,
    /// WAL segment files (`wal-*.log`) only.
    Segment,
    /// Checkpoint files (`ckpt-*`) only.
    Checkpoint,
}

/// Scripted + probabilistic storage fault schedule.
///
/// Scripted knobs count *eligible* operations (those matching the
/// shard/target/tag filters) and are deterministic; the `*_p` knobs are
/// per-operation probabilities drawn from a seeded xorshift stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub seed: u64,
    /// Restrict faults to one shard (`shard-<s>/` path component);
    /// `None` faults every shard.
    pub shard: Option<usize>,
    pub target: FaultTarget,
    /// Only fault paths containing this substring (test isolation:
    /// installation is process-global, the tag is not).
    pub dir_tag: Option<String>,
    /// Scripted fsync failures: eligible fsyncs number 0,1,2,…; those in
    /// `[sync_fail_after, sync_fail_after + sync_fail_count)` fail.
    /// `sync_fail_count == u64::MAX` is a permanent failure (until
    /// [`FaultGuard::clear`]).
    pub sync_fail_after: u64,
    pub sync_fail_count: u64,
    /// Scripted ENOSPC: eligible writes (and file creations) from the
    /// `after`-th on fail with [`StorageErrorKind::NoSpace`] until
    /// cleared — a full disk stays full.
    pub enospc_after: Option<u64>,
    /// Probabilistic per-op fault rates.
    pub sync_fail_p: f64,
    pub enospc_p: f64,
    pub short_write_p: f64,
    /// Probability a successful write lands with one flipped bit
    /// (silent: caught only by checksum re-verification).
    pub corrupt_p: f64,
    pub stall_p: f64,
    pub stall_max_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5173_57AB,
            shard: None,
            target: FaultTarget::All,
            dir_tag: None,
            sync_fail_after: 0,
            sync_fail_count: 0,
            enospc_after: None,
            sync_fail_p: 0.0,
            enospc_p: 0.0,
            short_write_p: 0.0,
            corrupt_p: 0.0,
            stall_p: 0.0,
            stall_max_us: 0,
        }
    }
}

impl FaultPlan {
    /// `count` consecutive fsync failures on `shard` starting at the
    /// `after`-th eligible fsync (the transient-fsync script).
    pub fn fsync_transient(shard: usize, after: u64, count: u64) -> Self {
        FaultPlan {
            shard: Some(shard),
            target: FaultTarget::Segment,
            sync_fail_after: after,
            sync_fail_count: count,
            ..FaultPlan::default()
        }
    }

    /// Every fsync on `shard` fails from the `after`-th on, until the
    /// guard is cleared (the dead-medium script).
    pub fn fsync_permanent(shard: usize, after: u64) -> Self {
        Self::fsync_transient(shard, after, u64::MAX)
    }

    /// The disk fills up at the `after`-th eligible write to `target`
    /// files on `shard` and stays full until cleared.
    pub fn enospc(shard: usize, target: FaultTarget, after: u64) -> Self {
        FaultPlan { shard: Some(shard), target, enospc_after: Some(after), ..FaultPlan::default() }
    }

    /// Restrict the plan to paths containing `tag`.
    pub fn tagged(mut self, tag: impl Into<String>) -> Self {
        self.dir_tag = Some(tag.into());
        self
    }

    /// Reseed the probabilistic stream.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed | 1;
        self
    }
}

/// Counters of faults actually delivered (snapshot via
/// [`FaultGuard::report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    pub sync_fails: u64,
    pub write_fails: u64,
    pub short_writes: u64,
    pub corruptions: u64,
    pub stalls: u64,
    /// Fsyncs that blocked on [`FaultGuard::hold_syncs`].
    pub held_syncs: u64,
}

struct FaultState {
    plan: FaultPlan,
    cleared: AtomicBool,
    rng: AtomicU64,
    sync_ops: AtomicU64,
    write_ops: AtomicU64,
    sync_fails: AtomicU64,
    write_fails: AtomicU64,
    short_writes: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    /// Eligible fsyncs numbered this or later block until released
    /// (`u64::MAX`: none).
    hold_from: AtomicU64,
    held_syncs: AtomicU64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: RwLock<Option<Arc<FaultState>>> = RwLock::new(None);

/// Arm the process-global storage fault injector. Panics if already
/// installed — exactly one plan at a time, like the chaos injector.
/// Tests that arm faults must serialize through [`gate`].
pub fn install(plan: FaultPlan) -> FaultGuard {
    let mut slot = STATE.write().unwrap();
    assert!(slot.is_none(), "storage faults already installed");
    let state = Arc::new(FaultState {
        rng: AtomicU64::new(plan.seed | 1),
        plan,
        cleared: AtomicBool::new(false),
        sync_ops: AtomicU64::new(0),
        write_ops: AtomicU64::new(0),
        sync_fails: AtomicU64::new(0),
        write_fails: AtomicU64::new(0),
        short_writes: AtomicU64::new(0),
        corruptions: AtomicU64::new(0),
        stalls: AtomicU64::new(0),
        hold_from: AtomicU64::new(u64::MAX),
        held_syncs: AtomicU64::new(0),
    });
    *slot = Some(Arc::clone(&state));
    ARMED.store(true, Ordering::Release);
    FaultGuard { state }
}

/// Whether the injector is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Serialization gate for anything that installs faults: installation
/// is process-global and exclusive, so concurrent tests must hold this.
pub fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// RAII handle on an installed [`FaultPlan`]. Dropping it disarms.
pub struct FaultGuard {
    state: Arc<FaultState>,
}

impl FaultGuard {
    /// Heal the medium: every fault stops firing, but the plan stays
    /// installed (counters keep their values). The rejoin-probe test
    /// lever: clear, then watch the shard come back.
    pub fn clear(&self) {
        self.state.cleared.store(true, Ordering::Release);
    }

    /// Un-heal: faults resume firing (scripted countdowns continue from
    /// where they were).
    pub fn unclear(&self) {
        self.state.cleared.store(false, Ordering::Release);
    }

    /// Block every eligible fsync, before it reaches the medium, until
    /// [`FaultGuard::release_syncs`]: a stall of known extent.
    pub fn hold_syncs(&self) {
        self.hold_syncs_from(0);
    }

    /// Like [`FaultGuard::hold_syncs`], but only for the eligible fsyncs
    /// numbered `n` and later (numbered from installation, like the
    /// scripted failures): the first `n` go through.
    pub fn hold_syncs_from(&self, n: u64) {
        self.state.hold_from.store(n, Ordering::Release);
    }

    /// Let held fsyncs go on (and fail, if the plan scripts it).
    pub fn release_syncs(&self) {
        self.state.hold_from.store(u64::MAX, Ordering::Release);
    }

    /// Snapshot of faults delivered so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            sync_fails: self.state.sync_fails.load(Ordering::Relaxed),
            write_fails: self.state.write_fails.load(Ordering::Relaxed),
            short_writes: self.state.short_writes.load(Ordering::Relaxed),
            corruptions: self.state.corruptions.load(Ordering::Relaxed),
            stalls: self.state.stalls.load(Ordering::Relaxed),
            held_syncs: self.state.held_syncs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        self.release_syncs();
        ARMED.store(false, Ordering::Release);
        *STATE.write().unwrap() = None;
    }
}

impl FaultState {
    fn next_rand(&self) -> u64 {
        // xorshift64* advanced through a CAS loop; contention is one
        // fault decision per real I/O call, i.e. negligible.
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut n = x;
            n ^= n << 13;
            n ^= n >> 7;
            n ^= n << 17;
            match self.rng.compare_exchange_weak(x, n, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return n.wrapping_mul(0x2545_F491_4F6C_DD1D),
                Err(cur) => x = cur,
            }
        }
    }

    fn roll(&self, p: f64) -> bool {
        p > 0.0 && ((self.next_rand() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    fn stall(&self) {
        if self.roll(self.plan.stall_p) && self.plan.stall_max_us > 0 {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            let us = self.next_rand() % self.plan.stall_max_us + 1;
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

// ---------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------

/// File kind derived from the path, for [`FaultTarget`] matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Segment,
    Checkpoint,
    Other,
}

/// Per-file fault context, parsed once at open.
#[derive(Clone)]
struct FaultCtx {
    shard: Option<usize>,
    kind: FileKind,
    path: String,
}

impl FaultCtx {
    fn of(path: &Path) -> FaultCtx {
        let p = path.to_string_lossy().into_owned();
        let shard = path.components().find_map(|c| {
            c.as_os_str().to_string_lossy().strip_prefix("shard-").and_then(|s| s.parse().ok())
        });
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let kind = if name.starts_with("wal-") && name.ends_with(".log") {
            FileKind::Segment
        } else if name.starts_with("ckpt-") {
            FileKind::Checkpoint
        } else {
            FileKind::Other
        };
        FaultCtx { shard, kind, path: p }
    }

    fn eligible(&self, st: &FaultState) -> bool {
        if st.cleared.load(Ordering::Acquire) {
            return false;
        }
        if let Some(s) = st.plan.shard {
            if self.shard != Some(s) {
                return false;
            }
        }
        match st.plan.target {
            FaultTarget::All => {}
            FaultTarget::Segment if self.kind == FileKind::Segment => {}
            FaultTarget::Checkpoint if self.kind == FileKind::Checkpoint => {}
            _ => return false,
        }
        match &st.plan.dir_tag {
            Some(tag) => self.path.contains(tag.as_str()),
            None => true,
        }
    }
}

#[cold]
fn current_state() -> Option<Arc<FaultState>> {
    STATE.read().unwrap().clone()
}

/// [`Storage`] over real files with the global fault injector spliced
/// into every write path. This is the storage every [`WalSet`] and
/// recovery uses: when the injector is disarmed the only overhead is
/// one relaxed load per operation.
///
/// [`WalSet`]: super::wal::WalSet
pub struct FaultFs;

/// The storage the durability layer uses by default.
pub fn default_storage() -> Arc<dyn Storage> {
    Arc::new(FaultFs)
}

struct FaultFile {
    inner: RealFile,
    ctx: FaultCtx,
}

impl FaultFile {
    /// Scripted-then-probabilistic write fault decision; returns the
    /// error to deliver, after any partial (short) write went through.
    #[cold]
    fn faulty_write(&mut self, st: &FaultState, buf: &[u8]) -> Result<(), StorageError> {
        st.stall();
        let n = st.write_ops.fetch_add(1, Ordering::Relaxed);
        let enospc = match st.plan.enospc_after {
            Some(after) if n >= after => true,
            _ => st.roll(st.plan.enospc_p),
        };
        if enospc {
            st.write_fails.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::new(StorageErrorKind::NoSpace));
        }
        if st.roll(st.plan.short_write_p) && buf.len() > 1 {
            // A prefix lands on the medium; the caller sees an error.
            let cut = (st.next_rand() as usize % (buf.len() - 1)).max(1);
            let _ = self.inner.write_all(&buf[..cut]);
            st.short_writes.fetch_add(1, Ordering::Relaxed);
            st.write_fails.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::new(StorageErrorKind::ShortWrite));
        }
        if st.roll(st.plan.corrupt_p) && !buf.is_empty() {
            // The write "succeeds" but one bit lies: latent corruption
            // only the scrubber or recovery checksums can see.
            let mut bad = buf.to_vec();
            let bit = st.next_rand() as usize % (bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            st.corruptions.fetch_add(1, Ordering::Relaxed);
            return self.inner.write_all(&bad);
        }
        self.inner.write_all(buf)
    }

    #[cold]
    fn faulty_sync(&mut self, st: &FaultState) -> Result<(), StorageError> {
        st.stall();
        let n = st.sync_ops.fetch_add(1, Ordering::Relaxed);
        if n >= st.hold_from.load(Ordering::Acquire) {
            st.held_syncs.fetch_add(1, Ordering::Relaxed);
            while n >= st.hold_from.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        let scripted =
            n >= st.plan.sync_fail_after && n - st.plan.sync_fail_after < st.plan.sync_fail_count;
        if scripted || st.roll(st.plan.sync_fail_p) {
            st.sync_fails.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::new(StorageErrorKind::SyncFailed));
        }
        self.inner.sync_data()
    }
}

impl VFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        if ARMED.load(Ordering::Relaxed) {
            if let Some(st) = current_state() {
                if self.ctx.eligible(&st) {
                    return self.faulty_write(&st, buf);
                }
            }
        }
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> Result<(), StorageError> {
        if ARMED.load(Ordering::Relaxed) {
            if let Some(st) = current_state() {
                if self.ctx.eligible(&st) {
                    return self.faulty_sync(&st);
                }
            }
        }
        self.inner.sync_data()
    }
}

impl FaultFs {
    /// ENOSPC also hits file creation: a full disk cannot grow a new
    /// segment or checkpoint tmp.
    fn check_open(&self, path: &Path) -> Result<(), StorageError> {
        if !ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        if let Some(st) = current_state() {
            if FaultCtx::of(path).eligible(&st) {
                let n = st.write_ops.fetch_add(1, Ordering::Relaxed);
                let enospc = match st.plan.enospc_after {
                    Some(after) if n >= after => true,
                    _ => st.roll(st.plan.enospc_p),
                };
                if enospc {
                    st.write_fails.fetch_add(1, Ordering::Relaxed);
                    return Err(StorageError::new(StorageErrorKind::NoSpace));
                }
            }
        }
        Ok(())
    }
}

impl Storage for FaultFs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError> {
        self.check_open(path)?;
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(FaultFile { inner: RealFile(f), ctx: FaultCtx::of(path) }))
    }
    fn create(&self, path: &Path) -> Result<Box<dyn VFile>, StorageError> {
        self.check_open(path)?;
        let f = std::fs::File::create(path)?;
        Ok(Box::new(FaultFile { inner: RealFile(f), ctx: FaultCtx::of(path) }))
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        std::fs::rename(from, to).map_err(StorageError::from)
    }
    fn remove_file(&self, path: &Path) -> Result<(), StorageError> {
        std::fs::remove_file(path).map_err(StorageError::from)
    }
    fn sync_dir(&self, dir: &Path) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir()
            .join(format!("txkv-storage-test-{}-{tag}-{n}", std::process::id()))
            .join("shard-0");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disarmed_faultfs_is_a_real_fs() {
        let dir = tmpdir("real");
        let fs = FaultFs;
        let path = dir.join("wal-1.log");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn scripted_fsync_failures_fire_then_heal() {
        let _serial = gate();
        let dir = tmpdir("fsync");
        let tag = dir.parent().unwrap().to_string_lossy().into_owned();
        let guard = install(FaultPlan::fsync_transient(0, 1, 2).tagged(&tag));
        let fs = FaultFs;
        let mut f = fs.open_append(&dir.join("wal-1.log")).unwrap();
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_ok(), "fsync 0 is before the script window");
        assert_eq!(f.sync_data().unwrap_err().kind, StorageErrorKind::SyncFailed);
        assert_eq!(f.sync_data().unwrap_err().kind, StorageErrorKind::SyncFailed);
        assert!(f.sync_data().is_ok(), "script window closed");
        assert_eq!(guard.report().sync_fails, 2);
        // Checkpoint files are outside this plan's target.
        let mut c = fs.create(&dir.join("ckpt-1.tmp")).unwrap();
        assert!(c.sync_data().is_ok());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn enospc_persists_until_cleared() {
        let _serial = gate();
        let dir = tmpdir("enospc");
        let tag = dir.parent().unwrap().to_string_lossy().into_owned();
        let guard = install(FaultPlan::enospc(0, FaultTarget::All, 0).tagged(&tag));
        let fs = FaultFs;
        assert_eq!(
            fs.open_append(&dir.join("wal-1.log")).err().map(|e| e.kind),
            Some(StorageErrorKind::NoSpace),
            "a full disk cannot create files"
        );
        guard.clear();
        let mut f = fs.open_append(&dir.join("wal-1.log")).unwrap();
        f.write_all(b"ok").unwrap();
        assert!(guard.report().write_fails >= 1);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn corruption_is_silent_and_off_by_one_bit() {
        let _serial = gate();
        let dir = tmpdir("corrupt");
        let tag = dir.parent().unwrap().to_string_lossy().into_owned();
        let guard =
            install(FaultPlan { corrupt_p: 1.0, ..FaultPlan::default() }.tagged(&tag).seeded(7));
        let fs = FaultFs;
        let path = dir.join("wal-1.log");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(&[0u8; 16]).unwrap();
        drop(f);
        drop(guard);
        let bytes = std::fs::read(&path).unwrap();
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped, write reported success");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn shard_filter_scopes_faults() {
        let _serial = gate();
        let base = tmpdir("scope");
        let base = base.parent().unwrap().to_path_buf();
        let other = base.join("shard-1");
        std::fs::create_dir_all(&other).unwrap();
        let tag = base.to_string_lossy().into_owned();
        let _guard = install(FaultPlan::fsync_permanent(1, 0).tagged(&tag));
        let fs = FaultFs;
        let mut f0 = fs.open_append(&base.join("shard-0/wal-1.log")).unwrap();
        let mut f1 = fs.open_append(&other.join("wal-1.log")).unwrap();
        assert!(f0.sync_data().is_ok(), "shard 0 untouched");
        assert_eq!(f1.sync_data().unwrap_err().kind, StorageErrorKind::SyncFailed);
        let _ = std::fs::remove_dir_all(&base);
    }
}
