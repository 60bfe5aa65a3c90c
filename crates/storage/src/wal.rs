//! Write-ahead rollback journal — the crash-safety layer under every save.
//!
//! ## Commit protocol
//!
//! An append-save overwrites `[meta_off, EOF)` of a live file in place
//! (the old metadata region + footer). Before the first byte of the target
//! is touched, [`TailGuard::begin`] copies the old tail into a sidecar
//! journal (`<file>.wal`), checksums it, seals it, and `fsync`s it. Only
//! then is the target written, truncated to its new length, and synced.
//! **The commit point is the deletion of the journal** (SQLite hot-journal
//! semantics): a reader that finds a sealed journal next to a file knows a
//! save died mid-overwrite and [`recover`] rolls the tail back to the last
//! durable footer; a reader that finds a *torn* journal knows the save
//! died while journaling — before the target was modified — and simply
//! discards it. Every crash point therefore lands on exactly the old or
//! the new catalog:
//!
//! ```text
//! crash while journaling  → torn journal, target untouched   → new ignored, OLD wins
//! crash while overwriting → sealed journal, torn target      → rollback,    OLD wins
//! crash before wal unlink → sealed journal, complete target  → rollback,    OLD wins
//! after wal unlink        → committed                        → NEW wins
//! ```
//!
//! Full rewrites don't need a journal: they build the new image in a
//! sibling temp file, sync it, and `rename(2)` over the target — the
//! rename is the commit point.
//!
//! ## The frame format
//!
//! The journal body is a sequence of checksummed frames, reusable by any
//! subsystem that needs a rollback log (the `rowstore` page journal writes
//! through [`JournalWriter`] too):
//!
//! ```text
//! file  := magic:u32 version:u16 frame* seal
//! frame := tag:u32 len:u64 payload:[u8; len] fnv:u64
//! seal  := SEAL_TAG:u32 0:u64 fnv:u64
//! ```
//!
//! `fnv` is FNV-1a over `tag || len || payload`. A journal is *valid* only
//! if every frame checksums and the seal is the final bytes of the file —
//! anything else is torn and is treated as absent.

use crate::error::StorageError;
use crate::fault;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Journal file magic ("CODS WAL").
const JOURNAL_MAGIC: u32 = 0xC0D5_0A11;
/// Journal format version.
const JOURNAL_VERSION: u16 = 1;
/// Tag of the closing seal frame.
const SEAL_TAG: u32 = u32::MAX;
/// Frame tag used by [`TailGuard`] for the saved tail before-image.
const TAIL_TAG: u32 = 1;

/// Bytes of the journal file header (magic + version).
pub const JOURNAL_HEADER_BYTES: u64 = 6;
/// Fixed bytes added around every frame payload (tag + len + checksum).
pub const FRAME_OVERHEAD_BYTES: u64 = 20;
/// Bytes of the seal frame.
pub const SEAL_BYTES: u64 = FRAME_OVERHEAD_BYTES;

/// FNV-1a 64-bit over a list of byte chunks, hashed as if concatenated —
/// the one checksum behind rollback-journal and commit-log frames, wire
/// frames and retry jitter.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Serializes one frame (`tag len payload fnv`) — the unit both the
/// rollback journal and the catalog commit log append.
pub(crate) fn encode_frame(tag: u32, payload: &[u8]) -> Vec<u8> {
    let tag_b = tag.to_le_bytes();
    let len_b = (payload.len() as u64).to_le_bytes();
    let sum = fnv1a64(&[&tag_b, &len_b, payload]).to_le_bytes();
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD_BYTES as usize + payload.len());
    frame.extend_from_slice(&tag_b);
    frame.extend_from_slice(&len_b);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&sum);
    frame
}

/// Scans a frame area (file header already stripped) for the longest valid
/// frame prefix: frames are accepted until the first one that is
/// incomplete or fails its checksum. Returns the accepted frames and the
/// byte length of the valid prefix — anything past it is a torn tail.
///
/// This is the acknowledged-prefix reader of the commit log
/// ([`crate::commitlog`]): unlike [`read_frames`], it requires no seal and
/// never rejects the whole file because of a torn append at the end.
pub(crate) fn scan_frame_prefix(bytes: &[u8]) -> (Vec<(u32, Vec<u8>)>, usize) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    loop {
        if bytes.len().saturating_sub(at) < FRAME_OVERHEAD_BYTES as usize {
            return (frames, at);
        }
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let Some(end) = (at as u64)
            .checked_add(FRAME_OVERHEAD_BYTES)
            .and_then(|v| v.checked_add(len))
            .and_then(|v| usize::try_from(v).ok())
        else {
            return (frames, at);
        };
        if bytes.len() < end {
            return (frames, at);
        }
        let payload = &bytes[at + 12..end - 8];
        let sum = u64::from_le_bytes(bytes[end - 8..end].try_into().unwrap());
        if sum != fnv1a64(&[&bytes[at..at + 4], &bytes[at + 4..at + 12], payload]) {
            return (frames, at);
        }
        frames.push((tag, payload.to_vec()));
        at = end;
    }
}

/// What [`journal_status`] found next to a target file — the read-only
/// inspection behind the CLI's `wal` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// No `<file>.wal` sidecar: the last save committed cleanly.
    Absent,
    /// A sealed rollback journal: a save died mid-overwrite and the next
    /// open will roll the target back.
    Sealed {
        /// Bytes of the journal file.
        bytes: u64,
    },
    /// A torn journal: the save died while journaling, before the target
    /// was touched; the next open discards it.
    Torn {
        /// Bytes of the journal file.
        bytes: u64,
    },
}

/// Inspects the rollback journal of `target` without recovering it.
pub fn journal_status(target: &Path) -> JournalStatus {
    let wal = wal_path(target);
    let Ok(meta) = std::fs::metadata(&wal) else {
        return JournalStatus::Absent;
    };
    match read_frames(&wal) {
        Some(_) => JournalStatus::Sealed { bytes: meta.len() },
        None => JournalStatus::Torn { bytes: meta.len() },
    }
}

/// Appends checksummed frames to a journal file. Writes go through the
/// fault-injection layer so crash tests cover journaling itself.
pub struct JournalWriter {
    file: File,
    bytes: u64,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = fault::create(path)?;
        let mut header = [0u8; JOURNAL_HEADER_BYTES as usize];
        header[..4].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        header[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
        fault::write_all(&mut file, &header)?;
        Ok(JournalWriter {
            file,
            bytes: JOURNAL_HEADER_BYTES,
        })
    }

    /// Appends one frame. `tag` is caller-defined (page number, record
    /// kind, …) but must not collide with the seal tag `u32::MAX`.
    pub fn append(&mut self, tag: u32, payload: &[u8]) -> std::io::Result<()> {
        debug_assert_ne!(tag, SEAL_TAG);
        let frame = encode_frame(tag, payload);
        fault::write_all(&mut self.file, &frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Writes the seal frame and `fsync`s: after this returns, the journal
    /// is durably valid and will be honored by [`recover`].
    pub fn seal(&mut self) -> std::io::Result<()> {
        let frame = encode_frame(SEAL_TAG, &[]);
        fault::write_all(&mut self.file, &frame)?;
        self.bytes += frame.len() as u64;
        fault::sync(&self.file)
    }

    /// Rewinds to just past the header so the next transaction overwrites
    /// the previous frames in place (SQLite PERSIST journal mode — offered
    /// exactly because per-commit `ftruncate` is expensive).
    pub fn rewind(&mut self) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(JOURNAL_HEADER_BYTES))?;
        Ok(())
    }

    /// Total bytes written to the journal, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Reads back a journal. Returns the frame list, or `None` when the file
/// is torn or invalid in any way (bad header, bad checksum, missing seal,
/// trailing garbage) — a torn journal is treated as absent.
fn read_frames(path: &Path) -> Option<Vec<(u32, Vec<u8>)>> {
    let mut f = File::open(path).ok()?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).ok()?;
    if bytes.len() < JOURNAL_HEADER_BYTES as usize {
        return None;
    }
    if u32::from_le_bytes(bytes[..4].try_into().ok()?) != JOURNAL_MAGIC
        || u16::from_le_bytes(bytes[4..6].try_into().ok()?) != JOURNAL_VERSION
    {
        return None;
    }
    let mut frames = Vec::new();
    let mut at = JOURNAL_HEADER_BYTES as usize;
    loop {
        if bytes.len() < at + FRAME_OVERHEAD_BYTES as usize {
            return None; // ran out before a seal: torn
        }
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().ok()?);
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().ok()?) as usize;
        if tag == SEAL_TAG {
            let sum = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().ok()?);
            if len != 0 || sum != fnv1a64(&[&bytes[at..at + 4], &bytes[at + 4..at + 12]]) {
                return None;
            }
            if at + FRAME_OVERHEAD_BYTES as usize != bytes.len() {
                return None; // trailing garbage after the seal
            }
            return Some(frames);
        }
        let end = at
            .checked_add(FRAME_OVERHEAD_BYTES as usize)?
            .checked_add(len)?;
        if bytes.len() < end {
            return None;
        }
        let payload = &bytes[at + 12..at + 12 + len];
        let sum = u64::from_le_bytes(bytes[end - 8..end].try_into().ok()?);
        if sum != fnv1a64(&[&bytes[at..at + 4], &bytes[at + 4..at + 12], payload]) {
            return None;
        }
        frames.push((tag, payload.to_vec()));
        at = end;
    }
}

/// The sidecar journal path for a target file: `<file>.wal`.
pub fn wal_path(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    target.with_file_name(name)
}

/// Guards an in-place tail overwrite of `target`. Constructed *before* the
/// target is touched; [`TailGuard::commit`] (journal deletion) is the
/// commit point, [`TailGuard::abort`] rolls the target back in-process.
pub(crate) struct TailGuard {
    target: PathBuf,
    wal: PathBuf,
}

impl TailGuard {
    /// Journals the current `[meta_off, EOF)` tail of `target` durably.
    /// After this returns the target may be overwritten from `meta_off`:
    /// any crash will roll back to the state captured here.
    pub(crate) fn begin(target: &Path, meta_off: u64) -> Result<TailGuard, StorageError> {
        let old_len = std::fs::metadata(target)?.len();
        if meta_off > old_len {
            return Err(StorageError::Corrupt(format!(
                "cannot journal tail at {meta_off} past EOF {old_len} of {}",
                target.display()
            )));
        }
        let mut f = File::open(target)?;
        f.seek(SeekFrom::Start(meta_off))?;
        let mut tail = Vec::with_capacity((old_len - meta_off) as usize);
        f.read_to_end(&mut tail)?;

        // payload := meta_off:u64 old_len:u64 tail
        let mut payload = Vec::with_capacity(16 + tail.len());
        payload.extend_from_slice(&meta_off.to_le_bytes());
        payload.extend_from_slice(&old_len.to_le_bytes());
        payload.extend_from_slice(&tail);

        let wal = wal_path(target);
        let mut w = JournalWriter::create(&wal)?;
        w.append(TAIL_TAG, &payload)?;
        w.seal()?; // durable before the target is touched
        Ok(TailGuard {
            target: target.to_path_buf(),
            wal,
        })
    }

    /// Commit point: deletes the journal. The overwrite it guarded must be
    /// fully written *and synced* before calling this.
    pub(crate) fn commit(self) -> std::io::Result<()> {
        fault::remove_file(&self.wal)
    }

    /// Rolls the target back in-process after a failed overwrite — the
    /// same work [`recover`] would do on next open. Best-effort: under an
    /// injected crash the rollback itself fails (as it would have had the
    /// process died), and recovery happens at the next open instead.
    pub(crate) fn abort(self) {
        let _ = recover(&self.target);
    }
}

/// What [`recover`] found (and did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No journal: the file committed cleanly.
    Clean,
    /// A sealed journal was found — a save died mid-overwrite — and the
    /// tail was rolled back to the last durable footer.
    RolledBack,
    /// A torn journal was found — a save died while journaling, before the
    /// target was modified — and discarded.
    DiscardedTornJournal,
}

/// Recovers `target` from an interrupted save, if one is detected.
///
/// Call with the file's [`path_lock`] held (the save and vacuum paths do
/// this automatically). Uses the fault-injected fs wrappers so a crash
/// *during* recovery is itself recoverable.
pub fn recover(target: &Path) -> Result<Recovery, StorageError> {
    let wal = wal_path(target);
    if !wal.exists() {
        return Ok(Recovery::Clean);
    }
    let frames = read_frames(&wal);
    let rollback = frames.as_ref().and_then(|fr| {
        // Exactly one tail frame with a well-formed payload; anything else
        // is not a tail journal we understand — discard it.
        match fr.as_slice() {
            [(TAIL_TAG, payload)] if payload.len() >= 16 => {
                let meta_off = u64::from_le_bytes(payload[..8].try_into().ok()?);
                let old_len = u64::from_le_bytes(payload[8..16].try_into().ok()?);
                let tail = &payload[16..];
                (meta_off + tail.len() as u64 == old_len).then_some((meta_off, old_len, tail))
            }
            _ => None,
        }
    });
    match rollback {
        None => {
            // Torn or foreign journal ⇒ the guarded overwrite never began
            // (the journal is synced before the target is touched), so the
            // target is intact as-is.
            fault::remove_file(&wal)?;
            Ok(Recovery::DiscardedTornJournal)
        }
        Some((meta_off, old_len, tail)) => {
            let mut f = fault::open_rw(target)?;
            f.seek(SeekFrom::Start(meta_off))?;
            fault::write_all(&mut f, tail)?;
            fault::set_len(&f, old_len)?;
            fault::sync(&f)?;
            drop(f);
            fault::remove_file(&wal)?;
            Ok(Recovery::RolledBack)
        }
    }
}

/// Per-path save/vacuum lock. Serializes mutating operations (save,
/// recovery, vacuum) on the same file within this process, so a
/// threshold-triggered background vacuum can never interleave with — or
/// lose the update of — a concurrent save.
pub(crate) fn path_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let key = normalize(path);
    let mut map = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    map.entry(key).or_default().clone()
}

/// Best-effort stable key for a path: resolve symlinks when the file (or
/// at least its parent directory) exists, fall back to an absolutized
/// lexical path otherwise.
fn normalize(path: &Path) -> PathBuf {
    if let Ok(c) = path.canonicalize() {
        return c;
    }
    if let (Some(parent), Some(name)) = (path.parent(), path.file_name()) {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(c) = parent.canonicalize() {
            return c.join(name);
        }
    }
    match std::env::current_dir() {
        Ok(cwd) if path.is_relative() => cwd.join(path),
        _ => path.to_path_buf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_fnv1a64_vectors_hold_whatever_the_chunking() {
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(&[b"foo", b"", b"b", b"ar"]), fnv1a64(&[b"foobar"]));
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cods-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn frames_round_trip_and_torn_journals_read_as_none() {
        let p = scratch("j1.wal");
        let mut w = JournalWriter::create(&p).unwrap();
        w.append(7, b"abc").unwrap();
        w.append(9, b"").unwrap();
        w.seal().unwrap();
        assert_eq!(
            w.bytes_written(),
            JOURNAL_HEADER_BYTES + (FRAME_OVERHEAD_BYTES + 3) + FRAME_OVERHEAD_BYTES + SEAL_BYTES
        );
        let frames = read_frames(&p).unwrap();
        assert_eq!(frames, vec![(7, b"abc".to_vec()), (9, Vec::new())]);

        // Chop one byte off the end: torn.
        let bytes = std::fs::read(&p).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - SEAL_BYTES as usize, 3, 0] {
            std::fs::write(&p, &bytes[..cut]).unwrap();
            assert!(read_frames(&p).is_none(), "cut at {cut} should be torn");
        }
        // Flip a payload byte: checksum failure.
        let mut flipped = bytes.clone();
        flipped[JOURNAL_HEADER_BYTES as usize + 12] ^= 0xff;
        std::fs::write(&p, &flipped).unwrap();
        assert!(read_frames(&p).is_none());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tail_guard_rolls_back_an_overwrite() {
        let p = scratch("t1.bin");
        std::fs::write(&p, b"HEAP|OLDTAIL").unwrap();
        let guard = TailGuard::begin(&p, 5).unwrap();
        // Clobber the tail with something longer, as an append-save would.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(5)).unwrap();
        f.write_all(b"NEWMUCHLONGERTAIL").unwrap();
        drop(f);
        guard.abort();
        assert_eq!(std::fs::read(&p).unwrap(), b"HEAP|OLDTAIL");
        assert!(!wal_path(&p).exists());
        assert_eq!(recover(&p).unwrap(), Recovery::Clean);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_journal_is_discarded_and_target_untouched() {
        let p = scratch("t2.bin");
        std::fs::write(&p, b"ORIGINAL").unwrap();
        // A journal that never got sealed.
        let mut w = JournalWriter::create(&wal_path(&p)).unwrap();
        w.append(TAIL_TAG, b"garbage-before-image").unwrap();
        drop(w);
        assert_eq!(recover(&p).unwrap(), Recovery::DiscardedTornJournal);
        assert!(!wal_path(&p).exists());
        assert_eq!(std::fs::read(&p).unwrap(), b"ORIGINAL");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sealed_journal_rolls_back_on_recover() {
        let p = scratch("t3.bin");
        std::fs::write(&p, b"HEAP|TAIL").unwrap();
        let _guard = TailGuard::begin(&p, 5); // leak the guard: simulated crash
        std::fs::write(&p, b"HEAP|TORN-NEW-TAIL-XYZ").unwrap();
        assert_eq!(recover(&p).unwrap(), Recovery::RolledBack);
        assert_eq!(std::fs::read(&p).unwrap(), b"HEAP|TAIL");
        assert!(!wal_path(&p).exists());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn path_lock_is_stable_across_spellings() {
        let p = scratch("lock.bin");
        std::fs::write(&p, b"x").unwrap();
        let a = path_lock(&p);
        let b = path_lock(&p.canonicalize().unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        std::fs::remove_file(&p).ok();
    }
}
