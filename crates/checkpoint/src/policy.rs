//! Checkpoint cadence, atomic persistence, and keep-K rotation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use sparsetrain_faults::Faults;

use crate::framing::DecodeError;
use crate::snapshot::Snapshot;

/// Environment variable naming the checkpoint run directory, consistent with
/// `SPARSETRAIN_ENGINE`.
pub const CHECKPOINT_DIR_ENV: &str = "SPARSETRAIN_CHECKPOINT_DIR";

/// File extension for snapshot files.
pub const SNAPSHOT_EXT: &str = "stck";

/// When and where to write checkpoints.
///
/// Cadence is expressed in optimizer steps and/or completed epochs; either (or both) may be
/// set. `keep` bounds how many snapshot files survive rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Run directory snapshots are written into (created on first use).
    pub dir: PathBuf,
    /// Write a snapshot every N optimizer steps.
    pub every_steps: Option<u64>,
    /// Write a snapshot every N completed epochs.
    pub every_epochs: Option<u64>,
    /// Keep at most this many snapshot files (oldest deleted first). 0 means keep all.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Snapshot after every `n` completed epochs into `dir`, keeping the 3 most recent files.
    pub fn every_epochs(dir: impl Into<PathBuf>, n: u64) -> Self {
        assert!(n > 0, "epoch cadence must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps: None,
            every_epochs: Some(n),
            keep: 3,
        }
    }

    /// Snapshot after every `n` optimizer steps into `dir`, keeping the 3 most recent files.
    pub fn every_steps(dir: impl Into<PathBuf>, n: u64) -> Self {
        assert!(n > 0, "step cadence must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps: Some(n),
            every_epochs: None,
            keep: 3,
        }
    }

    /// Override the keep-K rotation bound.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Build a per-epoch policy from [`CHECKPOINT_DIR_ENV`], if set (empty value = unset).
    pub fn from_env() -> Option<Self> {
        match std::env::var(CHECKPOINT_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(CheckpointPolicy::every_epochs(dir, 1)),
            _ => None,
        }
    }

    /// Whether a snapshot is due after `steps` total optimizer steps.
    pub fn step_due(&self, steps: u64) -> bool {
        matches!(self.every_steps, Some(n) if steps > 0 && steps.is_multiple_of(n))
    }

    /// Whether a snapshot is due after `epochs` completed epochs.
    pub fn epoch_due(&self, epochs: u64) -> bool {
        matches!(self.every_epochs, Some(n) if epochs > 0 && epochs.is_multiple_of(n))
    }
}

/// Errors raised while loading a snapshot file. Both variants name the
/// offending file, so a recovery scan can report exactly which snapshot it
/// skipped and why.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// The snapshot file that failed to read.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
    /// The bytes did not parse as a snapshot.
    Decode {
        /// The snapshot file that failed to decode.
        path: PathBuf,
        /// The typed decode failure.
        error: DecodeError,
    },
}

impl LoadError {
    /// The snapshot file this error is about.
    pub fn path(&self) -> &Path {
        match self {
            LoadError::Io { path, .. } | LoadError::Decode { path, .. } => path,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, error } => {
                write!(f, "checkpoint read failed for {}: {error}", path.display())
            }
            LoadError::Decode { path, error } => {
                write!(f, "checkpoint decode failed for {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Background writes handed off and not yet on disk, in this process.
static PENDING: Mutex<usize> = Mutex::new(0);
/// Signalled whenever a background write finishes.
static SETTLED: Condvar = Condvar::new();

/// Blocks until every background write this process handed off has
/// finished. Everything here that reads or sweeps a run directory calls it
/// first, so a reader in the writer's process never sees a directory one
/// hand-off behind.
fn wait_for_background_writes() {
    let mut pending = PENDING.lock().unwrap_or_else(PoisonError::into_inner);
    while *pending > 0 {
        pending = SETTLED.wait(pending).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Counts one background write from its hand-off until the writer thread
/// drops it, on success, error or panic alike.
struct PendingWrite;

impl PendingWrite {
    fn start() -> Self {
        *PENDING.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        PendingWrite
    }
}

impl Drop for PendingWrite {
    fn drop(&mut self) {
        *PENDING.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        SETTLED.notify_all();
    }
}

/// Writes snapshots atomically (write `.tmp`, fsync, rename, fsync the
/// directory) and rotates old files.
///
/// [`CheckpointManager::save`] writes on the caller's thread.
/// [`CheckpointManager::save_in_background`] hands the snapshot to the
/// manager's writer thread and returns, so the write overlaps whatever the
/// caller does next. The writer persists snapshots in hand-off order, one at
/// a time, with one more queued behind it; a hand-off blocks only while the
/// writer is two behind. [`CheckpointManager::flush`], a foreground save and
/// dropping the manager wait for the queue to drain. The write fault seam
/// ([`CheckpointManager::set_faults`]) is consulted at the hand-off, on the
/// caller's thread, so an injected fault lands on the same save either way.
///
/// The writer recycles the oldest file rotation retires: instead of
/// deleting it, it renames it to a `.tmp` name of its own, and its next
/// write overwrites that file rather than creating one. While the manager
/// lives, the run directory may hold that one spare; the writer deletes it
/// when it stops.
///
/// ```
/// use sparsetrain_checkpoint::{
///     CheckpointManager, CheckpointPolicy, OptimizerState, RunPosition, Snapshot,
/// };
///
/// let dir = std::env::temp_dir().join(format!("stck-doctest-{}", std::process::id()));
/// let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(2))?;
/// let snap = Snapshot {
///     position: RunPosition { seed: 1, epoch: 0, step: 0, steps_into_epoch: 0 },
///     shuffle_rng: [0; 4],
///     plan: None,
///     optimizer: OptimizerState { lr: 0.1, velocities: vec![] },
///     layers: vec![],
/// };
/// mgr.save_in_background(snap.clone())?;
/// // ... the caller's next step runs while the write is in flight ...
/// mgr.flush()?;
/// assert_eq!(sparsetrain_checkpoint::load(&mgr.files()[0])?, snap);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CheckpointManager {
    policy: CheckpointPolicy,
    written: Vec<PathBuf>,
    /// Spawned by the first background save.
    writer: Option<Writer>,
    faults: Faults,
}

/// One snapshot for the writer thread: where it goes, the files keep-K
/// rotation removes once it is there, and its count in `PENDING`.
struct Job {
    snap: Snapshot,
    torn: bool,
    path: PathBuf,
    rotated: Vec<PathBuf>,
    _pending: PendingWrite,
}

/// A manager's writer thread. Jobs go in through a one-slot queue and their
/// results come back in the same order.
#[derive(Debug)]
struct Writer {
    jobs: SyncSender<Job>,
    results: Receiver<io::Result<()>>,
    /// Jobs handed off whose result has not been collected.
    outstanding: usize,
    thread: JoinHandle<()>,
}

impl Writer {
    fn spawn() -> io::Result<Writer> {
        let (jobs, queue) = mpsc::sync_channel::<Job>(1);
        let (done, results) = mpsc::channel();
        let mut spare = Spare::new();
        let thread = thread::Builder::new().name("stck-writer".into()).spawn(move || {
            for job in queue {
                let result = persist(&job.snap, job.torn, &job.path, &job.rotated, Some(&mut spare));
                if done.send(result).is_err() {
                    break;
                }
            }
            spare.delete();
        })?;
        Ok(Writer {
            jobs,
            results,
            outstanding: 0,
            thread,
        })
    }

    fn hand_off(&mut self, job: Job) -> io::Result<()> {
        self.jobs.send(job).map_err(|_| writer_stopped())?;
        self.outstanding += 1;
        Ok(())
    }

    /// Collects the results already in, or every outstanding one when
    /// `wait` is set, and returns the first error among them.
    fn collect(&mut self, wait: bool) -> io::Result<()> {
        let mut first = Ok(());
        while self.outstanding > 0 {
            let received = if wait {
                self.results.recv().map_err(|_| writer_stopped())
            } else {
                match self.results.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    received => received.map_err(|_| writer_stopped()),
                }
            };
            self.outstanding -= 1;
            first = first.and(received.and_then(|persisted| persisted));
        }
        first
    }
}

fn writer_stopped() -> io::Error {
    io::Error::other("the checkpoint writer thread stopped")
}

impl CheckpointManager {
    /// Create the run directory if needed, sweep any `.tmp` files a crashed predecessor left
    /// between write and rename, and adopt the snapshot files already present (so rotation
    /// keeps working across resumed processes).
    pub fn new(policy: CheckpointPolicy) -> io::Result<Self> {
        fs::create_dir_all(&policy.dir)?;
        // A `.tmp` file of this process's own writer is not an orphan.
        wait_for_background_writes();
        sweep_orphaned_tmp(&policy.dir)?;
        let mut written = snapshot_files(&policy.dir)?;
        sort_chronologically(&mut written);
        Ok(CheckpointManager {
            policy,
            written,
            writer: None,
            faults: Faults::default(),
        })
    }

    /// Hands every later save's write fault seam to `faults`; a manager
    /// starts with the default handle, which injects nothing.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// The policy this manager enforces.
    pub fn policy(&self) -> &CheckpointPolicy {
        &self.policy
    }

    /// Encode and persist `snap` atomically on this thread, then rotate down to `keep`
    /// files. Waits for the background writer's queue to drain first. Returns the final
    /// snapshot path.
    pub fn save(&mut self, snap: &Snapshot) -> io::Result<PathBuf> {
        self.flush()?;
        let torn = self.faults.on_checkpoint_write()?;
        let (path, rotated) = self.rotation_after(snap);
        persist(snap, torn, &path, &rotated, None)?;
        self.track(&path, &rotated);
        Ok(path)
    }

    /// Hand `snap` to the background writer, which encodes, persists and
    /// rotates like [`CheckpointManager::save`], and return without waiting
    /// for the disk (unless the writer is two snapshots behind).
    ///
    /// Returns the first error among the background writes that finished
    /// since the last call, before handing anything off; the error of a
    /// write still in flight surfaces at a later hand-off or at
    /// [`CheckpointManager::flush`]. An injected write-error fault fails this
    /// call before anything is handed off.
    pub fn save_in_background(&mut self, snap: Snapshot) -> io::Result<()> {
        if let Some(writer) = &mut self.writer {
            writer.collect(false)?;
        }
        let torn = self.faults.on_checkpoint_write()?;
        let (path, rotated) = self.rotation_after(&snap);
        self.track(&path, &rotated);
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self.writer.insert(Writer::spawn()?),
        };
        writer.hand_off(Job {
            snap,
            torn,
            path,
            rotated,
            _pending: PendingWrite::start(),
        })
    }

    /// Wait until every snapshot handed to the background writer is on disk
    /// and rotated; returns the first of their errors.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.writer {
            Some(writer) => writer.collect(true),
            None => Ok(()),
        }
    }

    /// Where `snap` goes, and the oldest tracked files keep-K rotation
    /// removes once it is there — never `snap`'s own path, which a save of
    /// an already tracked position writes again.
    fn rotation_after(&self, snap: &Snapshot) -> (PathBuf, Vec<PathBuf>) {
        let name = format!(
            "ckpt-e{:05}-s{:09}.{SNAPSHOT_EXT}",
            snap.position.epoch, snap.position.step
        );
        let path = self.policy.dir.join(name);
        let tracked = self.written.len() + usize::from(!self.written.contains(&path));
        let excess = match self.policy.keep {
            0 => 0,
            keep => tracked.saturating_sub(keep),
        };
        let rotated = self
            .written
            .iter()
            .filter(|p| **p != path)
            .take(excess)
            .cloned()
            .collect();
        (path, rotated)
    }

    /// `path` joins the tracked files and the `rotated` ones leave.
    fn track(&mut self, path: &Path, rotated: &[PathBuf]) {
        self.written.retain(|p| !rotated.contains(p));
        if !self.written.iter().any(|p| p == path) {
            self.written.push(path.to_path_buf());
        }
    }

    /// Paths of the snapshot files this manager wrote, adopted or handed to its writer, oldest
    /// first. A failed background write stays listed, and the files it would have rotated stay
    /// on disk unlisted until a fresh manager adopts them.
    pub fn files(&self) -> &[PathBuf] {
        &self.written
    }
}

/// Dropping the manager waits for its writer's queue to drain and joins the
/// writer thread. The error of a write nobody flushed is dropped here; call
/// [`CheckpointManager::flush`] to see it.
impl Drop for CheckpointManager {
    fn drop(&mut self) {
        let _ = self.flush();
        if let Some(Writer { jobs, thread, .. }) = self.writer.take() {
            // Closing the queue ends the thread's loop. A panic of the thread
            // has already surfaced as an error of the flush above.
            drop(jobs);
            let _ = thread.join();
        }
    }
}

/// Encode `snap` and persist it at `path` atomically — write a temp file,
/// fsync, rename, fsync the directory — then retire the `rotated` files.
/// `torn` keeps only the first half of the bytes.
///
/// With a writer's `spare`, the temp file is the spare when one is on disk
/// (overwritten and cut to the new length) and the oldest rotated file
/// becomes the next spare instead of being deleted; the rest are deleted.
/// Either way a file leaves the kept set only once its successor is
/// durable.
fn persist(
    snap: &Snapshot,
    torn: bool,
    path: &Path,
    rotated: &[PathBuf],
    mut spare: Option<&mut Spare>,
) -> io::Result<()> {
    let mut bytes = snap
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if torn {
        bytes.truncate(bytes.len() / 2);
    }
    let tmp = {
        let (mut file, tmp) = match spare.as_deref_mut().and_then(Spare::open) {
            Some(recycled) => recycled,
            None => {
                let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
                (fs::File::create(&tmp)?, tmp)
            }
        };
        io::Write::write_all(&mut file, &bytes)?;
        // A recycled spare may be longer than this snapshot.
        file.set_len(bytes.len() as u64)?;
        file.sync_all()?;
        tmp
    };
    fs::rename(&tmp, path)?;
    // The rename is only durable once the directory entry itself is on disk.
    sync_dir(path.parent().expect("snapshot paths sit in the run directory"))?;
    for old in rotated {
        if let Some(spare) = spare.as_deref_mut() {
            if spare.retire(old)? {
                continue;
            }
        }
        match fs::remove_file(old) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Spares named so far in this process, so each writer's is its own.
static SPARES: AtomicUsize = AtomicUsize::new(0);

/// A writer thread's recycled temp file: a file rotation retired, renamed
/// to `spare-<pid>-<n>.stck.tmp` in the run directory. Overwriting it
/// costs less than creating a fresh file and deleting the retired one. The
/// name ends in `.stck.tmp`, so a crash leaves only what the orphan sweep
/// removes.
struct Spare {
    name: String,
    /// The spare's path, once a file has been retired to it.
    path: Option<PathBuf>,
    /// Whether a retired file waits at `path` for the next write.
    ready: bool,
}

impl Spare {
    fn new() -> Self {
        let n = SPARES.fetch_add(1, Ordering::Relaxed);
        Spare {
            name: format!("spare-{}-{n}.{SNAPSHOT_EXT}.tmp", std::process::id()),
            path: None,
            ready: false,
        }
    }

    /// The waiting spare, opened for overwriting, and its path. `None`
    /// when none waits, or it is gone (another manager's sweep).
    fn open(&mut self) -> Option<(fs::File, PathBuf)> {
        if !std::mem::take(&mut self.ready) {
            return None;
        }
        let path = self.path.clone()?;
        let file = fs::OpenOptions::new().write(true).open(&path).ok()?;
        Some((file, path))
    }

    /// Renames `old` to the spare unless one waits already; `false` when
    /// it did not (one waits, or `old` is gone).
    fn retire(&mut self, old: &Path) -> io::Result<bool> {
        if self.ready {
            return Ok(false);
        }
        let path = self.path.get_or_insert_with(|| old.with_file_name(&self.name));
        match fs::rename(old, path) {
            Ok(()) => {
                self.ready = true;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Deletes the spare, whether it waits or a failed write left it.
    fn delete(&mut self) {
        if let Some(path) = &self.path {
            let _ = fs::remove_file(path);
        }
    }
}

/// Most recent snapshot file in `dir`, by numeric `(epoch, step)` position, if any.
pub fn latest_in(dir: &Path) -> io::Result<Option<PathBuf>> {
    Ok(snapshot_files_in(dir)?.pop())
}

/// Read and decode a snapshot file.
pub fn load(path: &Path) -> Result<Snapshot, LoadError> {
    wait_for_background_writes();
    read(path, &Faults::default())
}

/// Reads and decodes `path` through the read fault seam: a short read or a
/// flipped bit must surface as a typed decode error, never a panic.
fn read(path: &Path, faults: &Faults) -> Result<Snapshot, LoadError> {
    let mut bytes = fs::read(path).map_err(|error| LoadError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    faults.on_checkpoint_read(&mut bytes);
    Snapshot::decode(&bytes).map_err(|error| LoadError::Decode {
        path: path.to_path_buf(),
        error,
    })
}

/// Result of [`scan_latest_valid`]: the newest snapshot that actually
/// decodes, plus a typed record of every newer file the scan had to skip.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Newest decodable snapshot, with its path; `None` when the directory
    /// holds no valid snapshot at all.
    pub latest_valid: Option<(PathBuf, Snapshot)>,
    /// Load failures for the newer files skipped on the way (newest first),
    /// each naming its file.
    pub skipped: Vec<LoadError>,
}

/// Scan `dir` newest-first for a snapshot that loads, skipping corrupt,
/// truncated, or unreadable files instead of aborting — a crashed run's
/// torn final write must not block resuming from the older valid snapshot
/// behind it. Each read goes through `faults`' read seam. Only directory
/// enumeration itself can fail.
pub fn scan_latest_valid(dir: &Path, faults: &Faults) -> io::Result<ScanOutcome> {
    let mut skipped = Vec::new();
    for path in snapshot_files_in(dir)?.into_iter().rev() {
        match read(&path, faults) {
            Ok(snap) => {
                return Ok(ScanOutcome {
                    latest_valid: Some((path, snap)),
                    skipped,
                })
            }
            Err(e) => skipped.push(e),
        }
    }
    Ok(ScanOutcome {
        latest_valid: None,
        skipped,
    })
}

/// Numeric `(epoch, step)` of a `ckpt-e{epoch}-s{step}.stck` path, if it matches the scheme.
fn parse_position(path: &Path) -> Option<(u64, u64)> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix("ckpt-e")?;
    let (epoch, step) = rest.split_once("-s")?;
    Some((epoch.parse().ok()?, step.parse().ok()?))
}

/// Oldest-first by numeric `(epoch, step)` — NOT lexicographically: once a step outgrows the
/// zero-padded `{:09}` width, `1_000_000_000` sorts before `999_999_999` as a string. Files
/// outside the naming scheme sort first (no position), ties fall back to the path.
fn sort_chronologically(files: &mut [PathBuf]) {
    files.sort_by(|a, b| (parse_position(a), a).cmp(&(parse_position(b), b)));
}

/// Remove `*.{SNAPSHOT_EXT}.tmp` files a crashed process left between write and rename. Only
/// this manager's own naming scheme is touched; a concurrent writer renaming a swept file away
/// is tolerated.
fn sweep_orphaned_tmp(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let suffix = format!(".{SNAPSHOT_EXT}.tmp");
    for entry in entries {
        let path = entry?.path();
        let is_orphan = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(&suffix));
        if is_orphan {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Flush a directory's entry table so a preceding rename survives power loss.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing on this platform; renames stay
/// atomic-but-not-durable, as before.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Snapshot files in `dir`, oldest first by numeric `(epoch, step)`, once
/// every background write of this process has landed.
pub fn snapshot_files_in(dir: &Path) -> io::Result<Vec<PathBuf>> {
    wait_for_background_writes();
    let mut files = snapshot_files(dir)?;
    sort_chronologically(&mut files);
    Ok(files)
}

fn snapshot_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT) {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{LayerState, OptimizerState, RunPosition};
    use sparsetrain_faults::{FaultPlan, Site, Trigger};

    fn tiny_snapshot(epoch: u64, step: u64) -> Snapshot {
        Snapshot {
            position: RunPosition {
                seed: 1,
                epoch,
                step,
                steps_into_epoch: 0,
            },
            shuffle_rng: [1, 2, 3, 4],
            plan: None,
            optimizer: OptimizerState {
                lr: 0.1,
                velocities: vec![],
            },
            layers: vec![],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sparsetrain-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn file_names(mgr: &CheckpointManager) -> Vec<String> {
        mgr.files()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn cadence_checks() {
        let p = CheckpointPolicy::every_steps("/tmp/x", 10);
        assert!(!p.step_due(0));
        assert!(!p.step_due(9));
        assert!(p.step_due(10));
        assert!(p.step_due(20));
        assert!(!p.epoch_due(1));

        let p = CheckpointPolicy::every_epochs("/tmp/x", 2);
        assert!(!p.epoch_due(0));
        assert!(!p.epoch_due(1));
        assert!(p.epoch_due(2));
        assert!(!p.step_due(2));
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_panics() {
        let _ = CheckpointPolicy::every_epochs("/tmp/x", 0);
    }

    #[test]
    fn save_rotate_and_reload() {
        let dir = temp_dir("rotate");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        for epoch in 1..=4 {
            mgr.save(&tiny_snapshot(epoch, epoch * 10)).unwrap();
        }
        assert_eq!(mgr.files().len(), 2, "rotation should keep only 2 files");
        let latest = latest_in(&dir).unwrap().expect("a snapshot should exist");
        assert!(latest.to_string_lossy().contains("e00004"));
        let snap = load(&latest).unwrap();
        assert_eq!(snap.position.epoch, 4);
        // No .tmp leftovers after atomic renames.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_saves_write_what_foreground_saves_write() {
        let fg = temp_dir("foreground");
        let bg = temp_dir("background");
        let mut fg_mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&fg, 1).with_keep(2)).unwrap();
        let mut bg_mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&bg, 1).with_keep(2)).unwrap();
        for step in 1..=4 {
            fg_mgr.save(&tiny_snapshot(0, step)).unwrap();
            bg_mgr.save_in_background(tiny_snapshot(0, step)).unwrap();
            // A reader in this process waits for the writes in flight, so the
            // newest file is already the one just handed off.
            let newest = latest_in(&bg).unwrap().expect("the hand-off has landed");
            assert_eq!(load(&newest).unwrap().position.step, step);
        }
        // Two more hand-offs back to back: the second queues behind the first.
        for step in 5..=6 {
            fg_mgr.save(&tiny_snapshot(0, step)).unwrap();
            bg_mgr.save_in_background(tiny_snapshot(0, step)).unwrap();
        }
        bg_mgr.flush().unwrap();
        assert_eq!(file_names(&bg_mgr), file_names(&fg_mgr));
        assert_eq!(snapshot_files_in(&bg).unwrap(), bg_mgr.files(), "keep 2 on disk");
        for (a, b) in fg_mgr.files().iter().zip(bg_mgr.files()) {
            assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap());
        }
        fs::remove_dir_all(&fg).unwrap();
        fs::remove_dir_all(&bg).unwrap();
    }

    #[test]
    fn dropping_the_manager_lands_and_rotates_the_write_in_flight() {
        let dir = temp_dir("drop-in-flight");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(1)).unwrap();
        mgr.save_in_background(tiny_snapshot(0, 1)).unwrap();
        mgr.save_in_background(tiny_snapshot(0, 2)).unwrap();
        drop(mgr);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["ckpt-e00000-s000000002.stck"], "keep 1 on disk, no .tmp");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot whose file is `floats` × 4 bytes plus framing, with
    /// distinct bit patterns.
    fn sized_snapshot(step: u64, floats: usize) -> Snapshot {
        let mut snap = tiny_snapshot(0, step);
        snap.layers = vec![LayerState::Params {
            layer: "fc".into(),
            tensors: vec![(0..floats).map(|i| (i as f32 + step as f32).sin()).collect()],
        }];
        snap
    }

    /// The `*.stck.tmp` files in `dir`.
    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(&format!(".{SNAPSHOT_EXT}.tmp")))
            .collect()
    }

    #[test]
    fn background_rotation_keeps_at_most_one_spare() {
        let dir = temp_dir("spare-count");
        let keep = 2;
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(keep)).unwrap();
        for step in 1..=keep as u64 + 3 {
            mgr.save_in_background(sized_snapshot(step, 64)).unwrap();
        }
        mgr.flush().unwrap();
        assert_eq!(snapshot_files_in(&dir).unwrap(), mgr.files());
        let spares = tmp_files(&dir);
        assert!(spares.len() <= 1, "one spare at most: {spares:?}");
        for (path, step) in mgr.files().iter().zip(4..) {
            assert_eq!(load(path).unwrap(), sized_snapshot(step, 64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_the_manager_deletes_the_spare() {
        let dir = temp_dir("spare-drop");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(1)).unwrap();
        for step in 1..=4 {
            mgr.save_in_background(sized_snapshot(step, 64)).unwrap();
        }
        drop(mgr);
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        assert_eq!(snapshot_files_in(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_shorter_than_the_spare_loads_bitwise() {
        let dir = temp_dir("spare-shorter");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(1)).unwrap();
        // The second save retires the first, long file; the third, short
        // one is written over it.
        mgr.save_in_background(sized_snapshot(1, 4096)).unwrap();
        mgr.save_in_background(sized_snapshot(2, 4096)).unwrap();
        mgr.flush().unwrap();
        assert_eq!(tmp_files(&dir).len(), 1, "the retired file waits as the spare");
        mgr.save_in_background(sized_snapshot(3, 16)).unwrap();
        mgr.flush().unwrap();
        let newest = latest_in(&dir).unwrap().expect("a snapshot is on disk");
        assert_eq!(
            fs::read(&newest).unwrap(),
            sized_snapshot(3, 16).encode().unwrap()
        );
        assert_eq!(load(&newest).unwrap(), sized_snapshot(3, 16));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_write_into_a_recycled_spare_is_skipped_by_the_scan() {
        let dir = temp_dir("spare-torn");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(2)).unwrap();
        for step in 1..=3 {
            mgr.save_in_background(sized_snapshot(step, 256)).unwrap();
        }
        mgr.flush().unwrap();
        assert_eq!(tmp_files(&dir).len(), 1, "the retired file waits as the spare");
        mgr.set_faults(FaultPlan::new(7).with(Site::CkptWriteTorn, Trigger::At(0)).arm());
        mgr.save_in_background(sized_snapshot(4, 256)).unwrap();
        mgr.flush().unwrap();
        let outcome = scan_latest_valid(&dir, &Faults::default()).unwrap();
        let (_, snap) = outcome.latest_valid.expect("the older snapshot is valid");
        assert_eq!(snap, sized_snapshot(3, 256));
        assert_eq!(outcome.skipped.len(), 1, "{:?}", outcome.skipped);
        assert!(outcome.skipped[0].path().to_string_lossy().contains("s000000004"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_background_write_surfaces_at_the_next_save() {
        let dir = temp_dir("bg-io-error");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        // The directory vanishes under the writer: its `.tmp` cannot be created.
        fs::remove_dir_all(&dir).unwrap();
        mgr.save_in_background(tiny_snapshot(0, 1))
            .expect("the hand-off itself succeeds");
        // Wait for it to land without collecting its result.
        assert!(snapshot_files_in(&dir).unwrap().is_empty());
        let err = mgr
            .save_in_background(tiny_snapshot(0, 2))
            .expect_err("the next hand-off returns the failed write's error");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        mgr.save_in_background(tiny_snapshot(0, 3))
            .expect("an error is returned once");
        let err = mgr.flush().expect_err("flush returns the last write's error");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        mgr.flush().expect("nothing left in flight");
    }

    #[test]
    fn manager_adopts_existing_files() {
        let dir = temp_dir("adopt");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        mgr.save(&tiny_snapshot(2, 20)).unwrap();
        drop(mgr);
        // A fresh manager (simulating a resumed process) must rotate the old files too.
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        assert_eq!(mgr.files().len(), 2);
        mgr.save(&tiny_snapshot(3, 30)).unwrap();
        assert_eq!(mgr.files().len(), 2);
        let names = file_names(&mgr);
        assert!(
            names[0].contains("e00002") && names[1].contains("e00003"),
            "kept: {names:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Saving a position a fresh manager adopted writes its file again;
    /// rotation removes the other files, never the one just written, on
    /// both save paths.
    #[test]
    fn saving_an_adopted_position_again_never_rotates_it_out() {
        for background in [false, true] {
            let dir = temp_dir(&format!("resave-{background}"));
            let mut mgr =
                CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
            for step in 1..=3 {
                mgr.save(&tiny_snapshot(0, step)).unwrap();
            }
            drop(mgr);
            let mut mgr =
                CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(1)).unwrap();
            let want = dir.join("ckpt-e00000-s000000001.stck");
            if background {
                mgr.save_in_background(tiny_snapshot(0, 1)).unwrap();
                mgr.flush().unwrap();
            } else {
                assert_eq!(mgr.save(&tiny_snapshot(0, 1)).unwrap(), want);
            }
            assert_eq!(
                mgr.files(),
                std::slice::from_ref(&want),
                "background: {background}"
            );
            assert_eq!(
                snapshot_files_in(&dir).unwrap(),
                std::slice::from_ref(&want),
                "background: {background}"
            );
            assert_eq!(load(&want).unwrap().position.step, 1);
            drop(mgr);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn latest_in_orders_numerically_across_padding_overflow() {
        // Regression: step 1_000_000_000 outgrows the `{:09}` zero padding, so a
        // lexicographic sort ranked it *before* 999_999_999 and resume picked the older file.
        let dir = temp_dir("overflow");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 999_999_999)).unwrap();
        mgr.save(&tiny_snapshot(1, 1_000_000_000)).unwrap();
        let latest = latest_in(&dir).unwrap().expect("snapshots exist");
        assert_eq!(load(&latest).unwrap().position.step, 1_000_000_000);

        // Epoch overflow across the `{:05}` width, same story.
        mgr.save(&tiny_snapshot(99_999, 5)).unwrap();
        mgr.save(&tiny_snapshot(100_000, 1)).unwrap();
        let latest = latest_in(&dir).unwrap().expect("snapshots exist");
        assert_eq!(load(&latest).unwrap().position.epoch, 100_000);

        // Rotation on a fresh manager must also drop the numerically-oldest file first.
        let mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(2)).unwrap();
        let first = mgr.files().first().and_then(|p| parse_position(p)).unwrap();
        assert_eq!(
            first,
            (1, 999_999_999),
            "oldest must sort first: {:?}",
            mgr.files()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manager_sweeps_orphaned_tmp_files() {
        // Regression: a crash between write and rename stranded `*.stck.tmp` files forever.
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(format!("ckpt-e00001-s000000010.{SNAPSHOT_EXT}.tmp"));
        fs::write(&orphan, b"half-written").unwrap();
        let unrelated = dir.join("notes.tmp");
        fs::write(&unrelated, b"keep me").unwrap();

        let mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1)).unwrap();
        assert!(!orphan.exists(), "orphaned snapshot tmp must be swept");
        assert!(unrelated.exists(), "files outside the naming scheme must survive");
        assert!(mgr.files().is_empty(), "a tmp file is not a snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reports_typed_errors_naming_the_file() {
        let dir = temp_dir("load-errors");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.stck");
        fs::write(&path, b"not a checkpoint").unwrap();
        match load(&path) {
            Err(
                e @ LoadError::Decode {
                    error: DecodeError::BadMagic,
                    ..
                },
            ) => {
                assert_eq!(e.path(), path.as_path());
                assert!(e.to_string().contains("bad.stck"), "{e}");
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        match load(&dir.join("absent.stck")) {
            Err(e @ LoadError::Io { .. }) => {
                assert!(e.to_string().contains("absent.stck"), "{e}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_truncated_newest_and_resumes_from_older_valid() {
        // Regression: a torn final write must not block recovery — the scan
        // has to report the corrupt newest file by name and fall back to the
        // valid snapshot behind it.
        let dir = temp_dir("scan-truncated");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        let newest = mgr.save(&tiny_snapshot(2, 20)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let outcome = scan_latest_valid(&dir, &Faults::default()).unwrap();
        let (path, snap) = outcome.latest_valid.expect("older snapshot is valid");
        assert_eq!(snap.position.epoch, 1);
        assert!(path.to_string_lossy().contains("e00001"));
        assert_eq!(outcome.skipped.len(), 1);
        assert_eq!(outcome.skipped[0].path(), newest.as_path());
        assert!(
            matches!(outcome.skipped[0], LoadError::Decode { .. }),
            "truncation must surface as a typed decode error: {:?}",
            outcome.skipped[0]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_zero_length_newest() {
        let dir = temp_dir("scan-empty");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        fs::write(dir.join("ckpt-e00002-s000000020.stck"), b"").unwrap();

        let outcome = scan_latest_valid(&dir, &Faults::default()).unwrap();
        let (_, snap) = outcome.latest_valid.expect("older snapshot is valid");
        assert_eq!(snap.position.epoch, 1);
        assert_eq!(outcome.skipped.len(), 1);
        assert!(outcome.skipped[0].path().to_string_lossy().contains("e00002"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_with_no_valid_snapshot_reports_every_skip() {
        let dir = temp_dir("scan-none");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-e00001-s000000010.stck"), b"garbage").unwrap();
        fs::write(dir.join("ckpt-e00002-s000000020.stck"), b"").unwrap();
        let outcome = scan_latest_valid(&dir, &Faults::default()).unwrap();
        assert!(outcome.latest_valid.is_none());
        assert_eq!(outcome.skipped.len(), 2, "{:?}", outcome.skipped);
        // An empty directory scans clean.
        let empty = temp_dir("scan-void");
        let outcome = scan_latest_valid(&empty, &Faults::default()).unwrap();
        assert!(outcome.latest_valid.is_none() && outcome.skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_faults_tear_and_fail_saves() {
        // The same plan lands on the same saves whether they write on this
        // thread or hand off to the background writer.
        for background in [false, true] {
            let dir = temp_dir(if background {
                "fault-write-bg"
            } else {
                "fault-write"
            });
            let mut mgr =
                CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
            mgr.set_faults(
                FaultPlan::new(5)
                    .with(Site::CkptWriteError, Trigger::At(0))
                    .with(Site::CkptWriteTorn, Trigger::At(1))
                    .arm(),
            );
            let mut save = |snap: Snapshot| -> io::Result<PathBuf> {
                if background {
                    mgr.save_in_background(snap)?;
                    mgr.flush()?;
                    Ok(mgr.files().last().expect("a write was handed off").clone())
                } else {
                    mgr.save(&snap)
                }
            };
            let err = save(tiny_snapshot(1, 10)).expect_err("write-error fault fails the save");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert!(latest_in(&dir).unwrap().is_none(), "nothing hit disk");

            let torn = save(tiny_snapshot(2, 20)).expect("torn write still renames into place");
            assert!(matches!(load(&torn), Err(LoadError::Decode { .. })));

            let good = save(tiny_snapshot(3, 30)).expect("faults exhausted");
            assert_eq!(load(&good).unwrap().position.epoch, 3);
            // The recovery scan rides over the torn file.
            let outcome = scan_latest_valid(&dir, &Faults::default()).unwrap();
            assert_eq!(outcome.latest_valid.unwrap().1.position.epoch, 3);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn injected_read_faults_surface_as_decode_errors() {
        let dir = temp_dir("fault-read");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        let path = mgr.save(&tiny_snapshot(1, 10)).unwrap();
        let faults = FaultPlan::new(6)
            .with(Site::CkptReadShort, Trigger::At(0))
            .with(Site::CkptReadFlip, Trigger::At(1))
            .arm();
        let short = scan_latest_valid(&dir, &faults).unwrap();
        assert!(short.latest_valid.is_none(), "short read");
        assert!(matches!(short.skipped[..], [LoadError::Decode { .. }]));
        // The format has no checksum, so a flipped bit either fails to decode
        // or decodes to a *different* snapshot — never silently round-trips.
        if let Some((_, snap)) = scan_latest_valid(&dir, &faults).unwrap().latest_valid {
            assert_ne!(snap, tiny_snapshot(1, 10), "flip must corrupt something");
        }
        let clean = scan_latest_valid(&dir, &faults).unwrap();
        assert_eq!(clean.latest_valid.unwrap().1.position.epoch, 1);
        // `load` never consults a fault seam.
        assert_eq!(load(&path).unwrap().position.epoch, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
