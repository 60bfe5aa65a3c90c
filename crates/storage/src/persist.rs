//! Binary persistence of tables and catalogs.
//!
//! Version 6 splits a file into a payload heap and a metadata region so a
//! column opens as *metadata only* — schema, dictionary, per-segment stats,
//! zone maps, encoding/pin tags — while segment payloads stay on disk
//! behind a footer index and fault in through the buffer cache
//! ([`crate::store`]) on first touch:
//!
//! ```text
//! file     := preamble payload-heap metadata footer
//! preamble := magic:u32 version:u16
//! footer   := meta_off:u64 magic:u32               (the last 12 bytes)
//! metadata := table                                (table file)
//! metadata := table_count:u32 table*               (catalog file)
//! table    := name:str schema rows:u64 column*
//! schema   := arity:u16 (name:str tag:u8)* key_len:u16 key_idx:u16*
//! column   := dict flags:u8 seg_rows:u64 seg_count:u32 segment* zone*
//! dict     := tag:u8 dict_len:u32 value*
//! flags    := bit 0: whole column pinned by explicit recode
//! segment  := segtag:u8 off:u64 len:u64 rows:u64 runs:u64 bytes:u64
//!             present:u32 (id:u32)* (ones:u64)*
//! segtag   := bit 0: encoding (0 bitmap, 1 rle); bit 1: segment pinned
//! zone     := min_id:u32 max_id:u32                (one per segment)
//! value    := kind:u8 payload
//! str      := len:u32 utf8-bytes
//! ```
//!
//! `off`/`len` locate the segment's payload in the heap (bitmap segments
//! are the concatenation of each present id's WAH stream in id order, RLE
//! segments the run-sequence codec); `rows`/`runs`/`bytes`/ids/ones are
//! the resident stats scans prune on without faulting. The heap stores
//! each distinct (`Arc`-shared) segment once, however many columns or
//! table versions reference it, and a catalog decode re-shares slots with
//! identical locations.
//!
//! Saving onto a file that already backs some of the table's segments is
//! an *append*: reused payloads keep their offsets, only new segments'
//! payloads are appended at the old metadata offset, and the metadata
//! region plus footer are rewritten — O(new data + metadata), not O(file).
//! After any save, freshly built segments adopt their new on-disk location
//! and become evictable.
//!
//! Version 6 is the only format this build reads or writes. Files of
//! versions 1–5 (the eager, fully resident layouts of earlier releases)
//! are rejected with a typed [`StorageError::PersistError`] naming the
//! unsupported version.

use crate::dictionary::Dictionary;
use crate::encoded::{EncodedColumn, Encoding};
use crate::error::StorageError;
use crate::fault;
use crate::schema::{ColumnDef, Schema};
use crate::segment::Zone;
use crate::store::{
    encode_payload, file_id_of, payload_encoded_len, segment_cache, DiskLoc, FileId, PayloadSource,
    SegMeta, SegSlot,
};
use crate::table::Table;
use crate::value::{Value, ValueType};
use crate::wal;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u32 = 0xC0D5_0001;
/// The on-disk format version (demand-paged payload heap + footer) — the
/// only one this build reads or writes.
pub const VERSION: u16 = 6;

/// `magic:u32 version:u16`.
pub(crate) const PREAMBLE_LEN: usize = 6;
/// `meta_off:u64 magic:u32`.
const FOOTER_LEN: usize = 12;

const ENC_BITMAP: u8 = 0;
const ENC_RLE: u8 = 1;
/// Column flag bit: whole column pinned by an explicit recode.
const FLAG_PINNED: u8 = 1;
/// Segment tag bit: this segment pinned by a segment-range recode.
const SEG_FLAG_PINNED: u8 = 2;

fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str<B: Buf>(buf: &mut B) -> Result<String, StorageError> {
    if buf.remaining() < 4 {
        return Err(eof());
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(eof());
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| StorageError::PersistError(format!("invalid UTF-8: {e}")))
}

fn eof() -> StorageError {
    StorageError::PersistError("unexpected end of buffer".into())
}

fn put_value<B: BufMut>(buf: &mut B, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(3);
            buf.put_f64_le(f.0);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
    }
}

fn get_value<B: Buf>(buf: &mut B) -> Result<Value, StorageError> {
    if buf.remaining() < 1 {
        return Err(eof());
    }
    Ok(match buf.get_u8() {
        0 => Value::Null,
        1 => {
            if buf.remaining() < 1 {
                return Err(eof());
            }
            Value::Bool(buf.get_u8() != 0)
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(eof());
            }
            Value::Int(buf.get_i64_le())
        }
        3 => {
            if buf.remaining() < 8 {
                return Err(eof());
            }
            Value::float(buf.get_f64_le())
        }
        4 => Value::Str(get_str(buf)?.into()),
        k => {
            return Err(StorageError::PersistError(format!(
                "unknown value kind {k}"
            )))
        }
    })
}

fn put_schema<B: BufMut>(buf: &mut B, s: &Schema) {
    buf.put_u16_le(s.arity() as u16);
    for c in s.columns() {
        put_str(buf, &c.name);
        buf.put_u8(c.ty.tag());
    }
    buf.put_u16_le(s.key().len() as u16);
    for &k in s.key() {
        buf.put_u16_le(k as u16);
    }
}

fn get_schema<B: Buf>(buf: &mut B) -> Result<Schema, StorageError> {
    if buf.remaining() < 2 {
        return Err(eof());
    }
    let arity = buf.get_u16_le() as usize;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = get_str(buf)?;
        if buf.remaining() < 1 {
            return Err(eof());
        }
        let ty = ValueType::from_tag(buf.get_u8())
            .ok_or_else(|| StorageError::PersistError("bad type tag".into()))?;
        cols.push(ColumnDef::new(name, ty));
    }
    if buf.remaining() < 2 {
        return Err(eof());
    }
    let key_len = buf.get_u16_le() as usize;
    let mut key = Vec::with_capacity(key_len);
    for _ in 0..key_len {
        if buf.remaining() < 2 {
            return Err(eof());
        }
        key.push(buf.get_u16_le() as usize);
    }
    Schema::with_key(cols, key).map_err(|e| StorageError::PersistError(e.to_string()))
}

fn put_dict<B: BufMut>(buf: &mut B, ty: ValueType, dict: &Dictionary) {
    buf.put_u8(ty.tag());
    buf.put_u32_le(dict.len() as u32);
    for v in dict.values() {
        put_value(buf, v);
    }
}

fn put_zones<B: BufMut>(buf: &mut B, zones: &[Zone]) {
    for z in zones {
        buf.put_u32_le(z.min_id);
        buf.put_u32_le(z.max_id);
    }
}

fn get_zones<B: Buf>(
    buf: &mut B,
    count: usize,
    dict_len: usize,
) -> Result<Vec<Zone>, StorageError> {
    let mut zones = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 8 {
            return Err(eof());
        }
        let min_id = buf.get_u32_le();
        let max_id = buf.get_u32_le();
        if min_id as usize >= dict_len || max_id as usize >= dict_len {
            return Err(StorageError::PersistError(format!(
                "zone ids ({min_id}, {max_id}) beyond dictionary of {dict_len}"
            )));
        }
        zones.push(Zone { min_id, max_id });
    }
    Ok(zones)
}

fn get_dict<B: Buf>(buf: &mut B) -> Result<(ValueType, Dictionary), StorageError> {
    if buf.remaining() < 5 {
        return Err(eof());
    }
    let ty = ValueType::from_tag(buf.get_u8())
        .ok_or_else(|| StorageError::PersistError("bad column type tag".into()))?;
    let dict_len = buf.get_u32_le() as usize;
    let mut values = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        values.push(get_value(buf)?);
    }
    let dict = Dictionary::from_values(values).map_err(StorageError::PersistError)?;
    Ok((ty, dict))
}

/// Reads a column's `seg_rows`/`seg_count` directory header.
fn get_dir_header<B: Buf>(buf: &mut B) -> Result<(u64, usize), StorageError> {
    if buf.remaining() < 12 {
        return Err(eof());
    }
    let seg_rows = buf.get_u64_le();
    if seg_rows == 0 {
        return Err(StorageError::PersistError(
            "zero nominal segment size".into(),
        ));
    }
    Ok((seg_rows, buf.get_u32_le() as usize))
}

// ---------------------------------------------------------------------------
// v6 writer: payload heap + metadata region + footer.
// ---------------------------------------------------------------------------

/// A slot whose payload the current save placed (or will place) in the
/// target file, with its heap location — the post-save adoption list.
type Placement = (SegSlot, u64, u64);

/// Accumulates the payload heap of one save: each distinct slot's payload
/// is placed exactly once (keyed by slot identity), and on an append-save
/// slots already backed by the target file keep their existing offsets
/// without being read at all.
struct HeapBuilder<'a> {
    buf: BytesMut,
    /// Absolute file offset of the next placed payload.
    next: u64,
    placed: HashMap<usize, (u64, u64)>,
    /// Canonical path of the append target; slots whose payload source is
    /// this file are reused in place.
    reuse: Option<&'a Path>,
    /// Inode identity of the append target. A slot whose source path
    /// matches but whose handle is bound to a *different* inode (the file
    /// was vacuumed/replaced since that slot was opened) must not donate
    /// its stale offsets — it gets copied like any foreign payload.
    reuse_id: Option<FileId>,
    /// Distinct old-heap extents kept alive by this save (dead-space
    /// accounting for the auto-vacuum trigger).
    reused: std::collections::HashSet<(u64, u64)>,
    placements: Vec<Placement>,
}

impl<'a> HeapBuilder<'a> {
    fn new(base: u64, reuse: Option<&'a Path>, reuse_id: Option<FileId>) -> HeapBuilder<'a> {
        HeapBuilder {
            buf: BytesMut::new(),
            next: base,
            placed: HashMap::new(),
            reuse,
            reuse_id,
            reused: std::collections::HashSet::new(),
            placements: Vec::new(),
        }
    }

    /// Old-heap bytes still referenced by the metadata this save writes.
    fn reused_bytes(&self) -> u64 {
        self.reused.iter().map(|&(_, len)| len).sum()
    }

    /// Returns the heap location of `slot`'s payload, placing it on first
    /// sight. Disk-backed slots are raw-copied from their source without
    /// decoding; fresh slots are encoded from their resident payload.
    fn place(&mut self, slot: &SegSlot) -> Result<(u64, u64), StorageError> {
        if let Some(loc) = slot.disk_loc() {
            if self.reuse.is_some()
                && loc.source.path() == self.reuse
                && (self.reuse_id.is_none() || loc.source.file_id() == self.reuse_id)
            {
                self.reused.insert((loc.offset, loc.len));
                return Ok((loc.offset, loc.len));
            }
        }
        if let Some(&at) = self.placed.get(&slot.ident()) {
            return Ok(at);
        }
        let raw = match slot.disk_loc() {
            Some(loc) => loc.source.read_at(loc.offset, loc.len)?,
            None => {
                let enc = slot.try_enc()?;
                let mut v = Vec::with_capacity(payload_encoded_len(&enc));
                encode_payload(&enc, &mut v);
                v
            }
        };
        let at = (self.next, raw.len() as u64);
        self.buf.put_slice(&raw);
        self.next += at.1;
        self.placed.insert(slot.ident(), at);
        self.placements.push((slot.clone(), at.0, at.1));
        Ok(at)
    }
}

/// Writes one column's metadata record, placing its payloads in the heap.
fn put_column_v6<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    c: &EncodedColumn,
) -> Result<(), StorageError> {
    put_dict(meta, c.ty(), c.dict());
    let flags = if c.encoding_pinned() { FLAG_PINNED } else { 0 };
    meta.put_u8(flags);
    meta.put_u64_le(c.nominal_segment_rows());
    meta.put_u32_le(c.segment_count() as u32);
    for (i, slot) in c.segments().iter().enumerate() {
        let (off, len) = heap.place(slot)?;
        let mut tag = match slot.encoding() {
            Encoding::Bitmap => ENC_BITMAP,
            Encoding::Rle => ENC_RLE,
        };
        // Bit 1 records the *segment-range* pin only; the whole-column pin
        // lives in the column flags byte, so the two survive independently.
        if c.segment_pin_raw(i) {
            tag |= SEG_FLAG_PINNED;
        }
        meta.put_u8(tag);
        meta.put_u64_le(off);
        meta.put_u64_le(len);
        meta.put_u64_le(slot.rows());
        meta.put_u64_le(slot.run_count());
        meta.put_u64_le(slot.compressed_bytes() as u64);
        meta.put_u32_le(slot.distinct_count() as u32);
        for &id in slot.present_ids() {
            meta.put_u32_le(id);
        }
        for &n in slot.ones() {
            meta.put_u64_le(n);
        }
    }
    put_zones(meta, c.zones());
    Ok(())
}

fn put_table_v6<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    t: &Table,
) -> Result<(), StorageError> {
    put_str(meta, t.name());
    put_schema(meta, t.schema());
    meta.put_u64_le(t.rows());
    for c in t.columns() {
        put_column_v6(meta, heap, c)?;
    }
    Ok(())
}

/// What a save writes: one table, or a catalog snapshot.
pub(crate) enum Content<'a> {
    /// A single-table file.
    Table(&'a Table),
    /// A catalog file (table count + tables).
    Catalog(Vec<Arc<Table>>),
}

impl Content<'_> {
    fn tables(&self) -> Vec<&Table> {
        match self {
            Content::Table(t) => vec![t],
            Content::Catalog(ts) => ts.iter().map(|t| t.as_ref()).collect(),
        }
    }

    /// An owning copy (cheap: tables share their columns by `Arc`) for the
    /// background vacuum, which outlives the borrow a save holds.
    pub(crate) fn to_owned_content(&self) -> OwnedContent {
        match self {
            Content::Table(t) => OwnedContent::Table((*t).clone()),
            Content::Catalog(ts) => OwnedContent::Catalog(ts.clone()),
        }
    }
}

/// An owning [`Content`] — what a background vacuum task carries across
/// threads.
pub(crate) enum OwnedContent {
    /// A single-table file.
    Table(Table),
    /// A catalog file.
    Catalog(Vec<Arc<Table>>),
}

impl OwnedContent {
    /// Borrows back as a [`Content`] for the writer paths.
    pub(crate) fn as_content(&self) -> Content<'_> {
        match self {
            OwnedContent::Table(t) => Content::Table(t),
            OwnedContent::Catalog(ts) => Content::Catalog(ts.clone()),
        }
    }
}

fn put_content<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    what: &Content<'_>,
) -> Result<(), StorageError> {
    match what {
        Content::Table(t) => put_table_v6(meta, heap, t),
        Content::Catalog(ts) => {
            meta.put_u32_le(ts.len() as u32);
            for t in ts {
                put_table_v6(meta, heap, t)?;
            }
            Ok(())
        }
    }
}

/// Builds a complete v6 image in memory (fresh saves and the in-memory
/// encode path).
fn build_image(what: &Content<'_>) -> Result<(Bytes, Vec<Placement>), StorageError> {
    let mut heap = HeapBuilder::new(PREAMBLE_LEN as u64, None, None);
    let mut meta = BytesMut::new();
    put_content(&mut meta, &mut heap, what)?;
    let meta_off = heap.next;
    let HeapBuilder {
        buf, placements, ..
    } = heap;
    let mut out = BytesMut::new();
    out.put_u32_le(MAGIC);
    out.put_u16_le(VERSION);
    out.put_slice(buf.freeze().as_slice());
    out.put_slice(meta.freeze().as_slice());
    out.put_u64_le(meta_off);
    out.put_u32_le(MAGIC);
    Ok((out.freeze(), placements))
}

/// The product of [`build_append_tail`]: the bytes to write from the old
/// metadata offset, the adoption list, and the heap accounting the
/// auto-vacuum trigger wants.
struct AppendTail {
    tail: Bytes,
    placements: Vec<Placement>,
    /// Old-heap bytes the new metadata still references.
    live_reused: u64,
    /// Heap end (= new metadata offset) after this save.
    heap_end: u64,
}

/// Builds the tail of an append-save: payloads new to the target file,
/// the rewritten metadata region, and the footer — everything from the old
/// metadata offset to the new end of file.
fn build_append_tail(
    what: &Content<'_>,
    base: u64,
    target: &Path,
    target_id: Option<FileId>,
) -> Result<AppendTail, StorageError> {
    let mut heap = HeapBuilder::new(base, Some(target), target_id);
    let mut meta = BytesMut::new();
    put_content(&mut meta, &mut heap, what)?;
    let meta_off = heap.next;
    let live_reused = heap.reused_bytes();
    let HeapBuilder {
        buf, placements, ..
    } = heap;
    let mut tail = BytesMut::new();
    tail.put_slice(buf.freeze().as_slice());
    tail.put_slice(meta.freeze().as_slice());
    tail.put_u64_le(meta_off);
    tail.put_u32_le(MAGIC);
    Ok(AppendTail {
        tail: tail.freeze(),
        placements,
        live_reused,
        heap_end: meta_off,
    })
}

/// Decides whether saving `what` onto `path` can append: the target must
/// be a healthy v6 container that already backs at least one of the
/// content's segments. Returns the old metadata offset (where appended
/// payloads go) and the canonical target path. Any doubt falls back to a
/// full rewrite.
fn append_point(what: &Content<'_>, path: &Path) -> Option<(u64, PathBuf, Option<FileId>)> {
    let canon = std::fs::canonicalize(path).ok()?;
    // Identity of the inode currently at the path: a slot opened before a
    // vacuum replaced the file holds offsets into the *old* inode, and
    // must not be treated as already-present in the new one.
    let target_id = std::fs::metadata(&canon).ok().and_then(|m| file_id_of(&m));
    let referenced = what.tables().iter().any(|t| {
        t.columns().iter().any(|c| {
            c.segments().iter().any(|s| {
                s.disk_loc().is_some_and(|l| {
                    l.source.path() == Some(canon.as_path())
                        && (target_id.is_none() || l.source.file_id() == target_id)
                })
            })
        })
    });
    if !referenced {
        return None;
    }
    let (_, meta_off) = v6_footer(path).ok()?;
    Some((meta_off, canon, target_id))
}

/// After a successful save: freshly built segments adopt their new on-disk
/// location (and enrol in the buffer cache, becoming evictable). Slots
/// already backed elsewhere keep their original source.
fn adopt_placements(path: &Path, placements: Vec<Placement>) -> Result<(), StorageError> {
    if placements.is_empty() {
        return Ok(());
    }
    let file = std::fs::File::open(path)?;
    let canon = std::fs::canonicalize(path)?;
    let source = Arc::new(PayloadSource::for_file(file, canon));
    let store = segment_cache();
    for (slot, offset, len) in placements {
        let loc = DiskLoc {
            source: Arc::clone(&source),
            offset,
            len,
        };
        if slot.attach_disk(loc) {
            store.adopt(&slot);
        }
    }
    Ok(())
}

/// Durable whole-file replacement: the image is written to a sibling temp
/// file, synced, and atomically renamed over the target — the rename is
/// the commit point, so a crash leaves either the old file or the new one,
/// never a half-written hybrid.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let res = (|| -> Result<(), StorageError> {
        let mut f = fault::create(&tmp)?;
        fault::write_all(&mut f, bytes)?;
        fault::sync(&f)?;
        drop(f);
        fault::rename(&tmp, path)?;
        Ok(())
    })();
    if res.is_err() {
        // Best-effort cleanup; under a simulated crash this fails too (as
        // it would for real) and the stale temp file is simply re-created
        // by the next save.
        let _ = fault::remove_file(&tmp);
    }
    res
}

/// What an append-save leaves behind, for the auto-vacuum trigger: heap
/// accounting plus the exact `(file_len, meta_off)` it committed (so the
/// background task can tell whether it is still looking at this save).
struct AppendStats {
    dead_bytes: u64,
    heap_bytes: u64,
    file_len: u64,
    meta_off: u64,
}

/// In-place tail overwrite under a rollback journal (the append-save
/// commit protocol; see [`crate::wal`]).
fn save_append(
    what: &Content<'_>,
    path: &Path,
    base: u64,
    canon: &Path,
    target_id: Option<FileId>,
) -> Result<AppendStats, StorageError> {
    let AppendTail {
        tail,
        placements,
        live_reused,
        heap_end,
    } = build_append_tail(what, base, canon, target_id)?;
    // 1. Journal the old tail durably — before the target is touched.
    let guard = wal::TailGuard::begin(path, base)?;
    // 2. Overwrite the tail and sync.
    let write = (|| -> Result<(), StorageError> {
        use std::io::{Seek, SeekFrom};
        let mut f = fault::open_rw(path)?;
        f.seek(SeekFrom::Start(base))?;
        fault::write_all(&mut f, tail.as_slice())?;
        fault::set_len(&f, base + tail.len() as u64)?;
        fault::sync(&f)?;
        Ok(())
    })();
    if let Err(e) = write {
        guard.abort(); // roll back in-process; or at next open if we "died"
        return Err(e);
    }
    // 3. Commit point: delete the journal. If even this fails, the next
    //    open rolls back to the old catalog — so adoption must not happen.
    guard.commit()?;
    // 4. Only now — the file is fully committed — may fresh slots adopt
    //    their on-disk locations.
    adopt_placements(path, placements)?;
    let old_heap = base - PREAMBLE_LEN as u64;
    Ok(AppendStats {
        dead_bytes: old_heap.saturating_sub(live_reused),
        heap_bytes: heap_end - PREAMBLE_LEN as u64,
        file_len: base + tail.len() as u64,
        meta_off: heap_end,
    })
}

/// Full-rewrite save: a fresh image through [`write_atomic`].
fn save_rewrite(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let (image, placements) = build_image(what)?;
    write_atomic(path, image.as_slice())?;
    adopt_placements(path, placements)
}

fn save_content(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let lock = wal::path_lock(path);
    let stats = {
        let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        // A previous save may have died here: honor its journal first, so
        // `append_point` sees the last committed footer.
        if path.exists() {
            wal::recover(path)?;
        }
        match append_point(what, path) {
            Some((base, canon, id)) => Some(save_append(what, path, base, &canon, id)?),
            None => {
                save_rewrite(what, path)?;
                None
            }
        }
    };
    // Outside the lock: the background vacuum takes it itself.
    if let Some(s) = stats {
        crate::vacuum::consider_auto(
            what,
            path,
            s.dead_bytes,
            s.heap_bytes,
            (s.file_len, s.meta_off),
        );
    }
    Ok(())
}

/// Compacts `what` into a fresh heap at `path` via [`write_atomic`], then
/// *rebinds* every live slot to its location in the compacted file (the
/// vacuum path — offsets move, so this overwrites existing `DiskLoc`s
/// rather than attach-once). The caller must hold the file's
/// [`wal::path_lock`]. Returns `(before_bytes, after_bytes,
/// live_payload_bytes, segments)`.
pub(crate) fn rewrite_compacted(
    what: &Content<'_>,
    path: &Path,
) -> Result<(u64, u64, u64, usize), StorageError> {
    if path.exists() {
        wal::recover(path)?;
    }
    let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let (image, placements) = build_image(what)?;
    let after = image.len() as u64;
    write_atomic(path, image.as_slice())?;
    // Rebind: every distinct slot was placed, so every live payload now
    // points into the compacted file. Slots opened from the *old* inode by
    // other snapshots keep their open handle (the unlinked inode stays
    // readable on unix) and fall back to copy-on-save thanks to the
    // file-identity check in `append_point`/`HeapBuilder::place`.
    let file = std::fs::File::open(path)?;
    let canon = std::fs::canonicalize(path)?;
    let source = Arc::new(PayloadSource::for_file(file, canon));
    let store = segment_cache();
    let segments = placements.len();
    let mut live = 0u64;
    for (slot, offset, len) in placements {
        live += len;
        let loc = DiskLoc {
            source: Arc::clone(&source),
            offset,
            len,
        };
        if slot.rebind_disk(loc) {
            store.adopt(&slot);
        }
    }
    Ok((before, after, live, segments))
}

/// Reads and validates the footer of a v6 file without decoding anything
/// else. Returns `(file_len, meta_off)`.
pub(crate) fn v6_footer(path: &Path) -> Result<(u64, u64), StorageError> {
    read_footer(&mut std::fs::File::open(path)?, path)
}

/// Validates the preamble and footer of the open file at `path`; returns
/// `(file_len, meta_off)`.
fn read_footer(f: &mut std::fs::File, path: &Path) -> Result<(u64, u64), StorageError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut head = [0u8; PREAMBLE_LEN];
    f.read_exact(&mut head).map_err(|_| eof())?;
    check_header(&mut &head[..])?;
    let len = f.metadata()?.len();
    if len < (PREAMBLE_LEN + FOOTER_LEN) as u64 {
        return Err(torn_tail(path, format!("file is only {len} bytes")));
    }
    f.seek(SeekFrom::Start(len - FOOTER_LEN as u64))?;
    let mut foot = [0u8; FOOTER_LEN];
    f.read_exact(&mut foot)?;
    let tail_magic = u32::from_le_bytes(foot[8..12].try_into().unwrap());
    if tail_magic != MAGIC {
        return Err(torn_tail(
            path,
            format!("bad footer magic 0x{tail_magic:08x}"),
        ));
    }
    let meta_off = u64::from_le_bytes(foot[0..8].try_into().unwrap());
    if meta_off < PREAMBLE_LEN as u64 || meta_off > len - FOOTER_LEN as u64 {
        return Err(torn_tail(
            path,
            format!("footer metadata offset {meta_off} outside file of {len} bytes"),
        ));
    }
    Ok((len, meta_off))
}

/// The typed corruption error for a file whose footer does not validate:
/// an interrupted save tore the tail and no rollback journal survives to
/// repair it. Carries a recovery hint.
fn torn_tail(path: &Path, detail: String) -> StorageError {
    StorageError::Corrupt(format!(
        "{}: torn tail ({detail}); an interrupted save corrupted the footer and \
         no rollback journal ({}) is present to roll it back — restore the file \
         from a copy or re-create it with a fresh save",
        path.display(),
        wal::wal_path(path).display(),
    ))
}

// ---------------------------------------------------------------------------
// v6 reader: footer, metadata region, paged-out slots.
// ---------------------------------------------------------------------------

/// Slots decoded so far in this file, keyed by heap location — records
/// with identical locations (columns shared across catalog tables) come
/// back `Arc`-shared, so a cached payload keeps serving every snapshot.
type SlotDedup = HashMap<(u64, u64), SegSlot>;

/// Reads one segment's metadata record into a paged-out slot.
fn get_seg_slot<B: Buf>(
    buf: &mut B,
    dict_len: usize,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
) -> Result<(SegSlot, bool), StorageError> {
    let corrupt = |m: String| StorageError::PersistError(m);
    if buf.remaining() < 1 + 5 * 8 + 4 {
        return Err(eof());
    }
    let tag = buf.get_u8();
    if tag & !(ENC_RLE | SEG_FLAG_PINNED) != 0 {
        return Err(corrupt(format!("unknown segment tag {tag:#04x}")));
    }
    let pinned = tag & SEG_FLAG_PINNED != 0;
    let encoding = if tag & ENC_RLE != 0 {
        Encoding::Rle
    } else {
        Encoding::Bitmap
    };
    let off = buf.get_u64_le();
    let len = buf.get_u64_le();
    let rows = buf.get_u64_le();
    let runs = buf.get_u64_le();
    let bytes = buf.get_u64_le();
    let present = buf.get_u32_le() as usize;
    let end = off
        .checked_add(len)
        .ok_or_else(|| corrupt("segment payload offset overflows".into()))?;
    if off < PREAMBLE_LEN as u64 || len == 0 || end > heap_end {
        return Err(corrupt(format!(
            "segment payload [{off}, {end}) outside the heap [{}, {heap_end})",
            PREAMBLE_LEN
        )));
    }
    if rows == 0 {
        return Err(corrupt("empty segment".into()));
    }
    if runs == 0 || runs > rows {
        return Err(corrupt(format!(
            "segment of {rows} rows claims {runs} runs"
        )));
    }
    if present == 0 {
        return Err(corrupt(format!(
            "segment of {rows} rows with no present values"
        )));
    }
    if buf.remaining() < present * (4 + 8) {
        return Err(eof());
    }
    let mut ids = Vec::with_capacity(present);
    for _ in 0..present {
        let id = buf.get_u32_le();
        if id as usize >= dict_len {
            return Err(corrupt(format!(
                "segment id {id} beyond dictionary of {dict_len}"
            )));
        }
        if ids.last().is_some_and(|&prev| prev >= id) {
            return Err(corrupt("present ids not strictly ascending".into()));
        }
        ids.push(id);
    }
    let mut ones = Vec::with_capacity(present);
    let mut total = 0u64;
    for _ in 0..present {
        let n = buf.get_u64_le();
        if n == 0 {
            return Err(corrupt("present id with zero rows".into()));
        }
        total = total
            .checked_add(n)
            .ok_or_else(|| corrupt("per-id row counts overflow".into()))?;
        ones.push(n);
    }
    if total != rows {
        return Err(corrupt(format!(
            "per-id row counts sum to {total}, segment has {rows} rows"
        )));
    }
    let meta = SegMeta {
        rows,
        present_ids: ids.into(),
        ones: ones.into(),
        runs,
        bytes: usize::try_from(bytes)
            .map_err(|_| corrupt("segment byte size beyond address space".into()))?,
        encoding,
    };
    if let Some(shared) = dedup.get(&(off, len)) {
        // A previously decoded record (a column shared across catalog
        // tables) already owns this payload; the stats must agree.
        let m = shared.meta();
        if m.rows != meta.rows
            || m.encoding != meta.encoding
            || *m.present_ids != *meta.present_ids
            || *m.ones != *meta.ones
        {
            return Err(corrupt(
                "records share a payload but disagree on its stats".into(),
            ));
        }
        if pinned {
            shared.set_pinned(true);
        }
        return Ok((shared.clone(), pinned));
    }
    let loc = DiskLoc {
        source: Arc::clone(source),
        offset: off,
        len,
    };
    let slot = SegSlot::on_disk(meta, loc, pinned);
    dedup.insert((off, len), slot.clone());
    Ok((slot, pinned))
}

fn get_column_v6<B: Buf>(
    buf: &mut B,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
) -> Result<EncodedColumn, StorageError> {
    let (ty, dict) = get_dict(buf)?;
    if buf.remaining() < 1 {
        return Err(eof());
    }
    let flags = buf.get_u8();
    let dict_len = dict.len();
    let (seg_rows, seg_count) = get_dir_header(buf)?;
    let mut slots = Vec::with_capacity(seg_count);
    let mut pins = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let (slot, pin) = get_seg_slot(buf, dict_len, source, heap_end, dedup)?;
        pins.push(pin);
        slots.push(slot);
    }
    let zones = get_zones(buf, seg_count, dict_len)?;
    let mut col = EncodedColumn::from_slots_zoned(ty, dict, slots, zones, seg_rows);
    col.set_segment_pins(pins);
    col.set_encoding_pinned(flags & FLAG_PINNED != 0);
    Ok(col)
}

/// Decodes one table's metadata record; its columns come back paged out.
/// Runs the metadata tier of the invariants only — payloads are validated
/// against their stats as they fault in.
fn get_table_v6<B: Buf>(
    buf: &mut B,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
) -> Result<Table, StorageError> {
    let name = get_str(buf)?;
    let schema = get_schema(buf)?;
    if buf.remaining() < 8 {
        return Err(eof());
    }
    let rows = buf.get_u64_le();
    let mut columns = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        let col = get_column_v6(buf, source, heap_end, dedup)?;
        if col.rows() != rows {
            return Err(StorageError::PersistError(format!(
                "column covers {} rows, table claims {rows}",
                col.rows()
            )));
        }
        col.check_meta_invariants()?;
        columns.push(Arc::new(col));
    }
    Table::new(name, schema, columns)
}

/// Locates the metadata region of a v6 image: validates the footer and
/// returns `(metadata slice, heap end)`.
fn v6_regions(buf: &Bytes) -> Result<(Bytes, u64), StorageError> {
    let n = buf.len();
    if n < PREAMBLE_LEN + FOOTER_LEN {
        return Err(eof());
    }
    let s = buf.as_slice();
    let tail_magic = u32::from_le_bytes(s[n - 4..n].try_into().unwrap());
    if tail_magic != MAGIC {
        return Err(StorageError::PersistError(format!(
            "bad footer magic 0x{tail_magic:08x}"
        )));
    }
    let meta_off = u64::from_le_bytes(s[n - FOOTER_LEN..n - 4].try_into().unwrap());
    if meta_off < PREAMBLE_LEN as u64 || meta_off > (n - FOOTER_LEN) as u64 {
        return Err(StorageError::PersistError(format!(
            "footer metadata offset {meta_off} outside file of {n} bytes"
        )));
    }
    Ok((buf.slice(meta_off as usize..n - FOOTER_LEN), meta_off))
}

// ---------------------------------------------------------------------------
// Public encode/decode/save/read entry points.
// ---------------------------------------------------------------------------

/// Serializes one table as a complete current-format image (payload heap,
/// metadata region, footer).
///
/// # Panics
/// Panics when a lazily opened segment's backing file can no longer be
/// read (it changed or vanished under us) — the same contract as faulting
/// the segment in. [`save_table`] reports such errors instead.
pub fn encode_table(t: &Table) -> Bytes {
    let (image, _) = build_image(&Content::Table(t))
        .unwrap_or_else(|e| panic!("encode_table: cannot re-read segment payloads: {e}"));
    image
}

/// Deserializes one table. The image opens lazily: columns carry metadata
/// only, and payloads fault in from the image on first touch.
pub fn decode_table(buf: Bytes) -> Result<Table, StorageError> {
    check_header(&mut buf.clone())?;
    let (mut meta, heap_end) = v6_regions(&buf)?;
    let source = Arc::new(PayloadSource::Bytes(buf));
    let mut dedup = SlotDedup::new();
    let t = get_table_v6(&mut meta, &source, heap_end, &mut dedup)?;
    if meta.remaining() != 0 {
        return Err(StorageError::PersistError(
            "trailing bytes after table metadata".into(),
        ));
    }
    Ok(t)
}

/// Validates the preamble: the magic, then [`VERSION`] — every other
/// version, older or newer, is an "unsupported version" error.
fn check_header(buf: &mut impl Buf) -> Result<(), StorageError> {
    if buf.remaining() < PREAMBLE_LEN {
        return Err(eof());
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(StorageError::PersistError(format!(
            "bad magic 0x{magic:08x}"
        )));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(StorageError::PersistError(format!(
            "unsupported version {version}"
        )));
    }
    Ok(())
}

/// Writes a table to a file. When the file already backs some of the
/// table's segments (it was lazily opened from there, or saved there
/// before), the save *appends*: reused payloads keep their offsets, new
/// payloads go after the heap, and only the metadata region and footer are
/// rewritten — O(new data + metadata). Freshly built segments then adopt
/// their on-disk location and become evictable.
pub fn save_table(t: &Table, path: impl AsRef<Path>) -> Result<(), StorageError> {
    save_content(&Content::Table(t), path.as_ref())
}

/// Runs crash recovery for `path` (under its save lock) before a read:
/// a hot rollback journal from an interrupted save is applied — or, when
/// torn, discarded — so the read sees the last committed state.
fn recover_before_read(path: &Path) -> Result<(), StorageError> {
    if !path.exists() && !wal::wal_path(path).exists() {
        return Ok(());
    }
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    wal::recover(path)?;
    Ok(())
}

/// Reads a table from a file. The file opens as metadata only — segment
/// payloads stay on disk and fault in through the buffer cache on first
/// touch. Detects an interrupted save
/// first and rolls the file back to its last committed footer.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StorageError> {
    let path = path.as_ref();
    recover_before_read(path)?;
    read_table_raw(path)
}

/// [`read_table`] without the recovery step — for callers (vacuum) that
/// already hold the file's save lock and have recovered it.
pub(crate) fn read_table_raw(path: &Path) -> Result<Table, StorageError> {
    let (mut meta, heap_end, source) = open_v6_file(path)?;
    let mut dedup = SlotDedup::new();
    let t = get_table_v6(&mut meta, &source, heap_end, &mut dedup)?;
    if meta.remaining() != 0 {
        return Err(StorageError::PersistError(
            "trailing bytes after table metadata".into(),
        ));
    }
    Ok(t)
}

/// Opens `path` and reads *only* the preamble, footer, and metadata
/// region — never the payload heap. Returns `(metadata, heap end, payload
/// source)`.
fn open_v6_file(path: &Path) -> Result<(Bytes, u64, Arc<PayloadSource>), StorageError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path)?;
    let (len, meta_off) = read_footer(&mut file, path)?;
    file.seek(SeekFrom::Start(meta_off))?;
    let mut meta = vec![0u8; (len - FOOTER_LEN as u64 - meta_off) as usize];
    file.read_exact(&mut meta)?;
    let canon = std::fs::canonicalize(path)?;
    let source = Arc::new(PayloadSource::for_file(file, canon));
    Ok((Bytes::from(meta), meta_off, source))
}

/// Serializes all tables of a catalog as one current-format image. Each
/// distinct (`Arc`-shared) segment is stored once, however many table
/// versions reference it.
///
/// # Panics
/// See [`encode_table`].
pub fn encode_catalog(cat: &crate::catalog::Catalog) -> Bytes {
    let (image, _) = build_image(&Content::Catalog(cat.snapshot()))
        .unwrap_or_else(|e| panic!("encode_catalog: cannot re-read segment payloads: {e}"));
    image
}

/// Deserializes a catalog. Records with identical heap locations come back
/// as one shared slot, so columns shared across table versions stay shared
/// — and cached once.
pub fn decode_catalog(buf: Bytes) -> Result<crate::catalog::Catalog, StorageError> {
    check_header(&mut buf.clone())?;
    let (mut meta, heap_end) = v6_regions(&buf)?;
    let source = Arc::new(PayloadSource::Bytes(buf));
    decode_catalog_meta(&mut meta, heap_end, &source)
}

fn decode_catalog_meta(
    meta: &mut Bytes,
    heap_end: u64,
    source: &Arc<PayloadSource>,
) -> Result<crate::catalog::Catalog, StorageError> {
    if meta.remaining() < 4 {
        return Err(eof());
    }
    let count = meta.get_u32_le();
    let cat = crate::catalog::Catalog::new();
    let mut dedup = SlotDedup::new();
    for _ in 0..count {
        cat.create(get_table_v6(meta, source, heap_end, &mut dedup)?)?;
    }
    if meta.remaining() != 0 {
        return Err(StorageError::PersistError(
            "trailing bytes after catalog metadata".into(),
        ));
    }
    Ok(cat)
}

/// Writes a catalog to a file (append-save semantics — see [`save_table`]).
/// This is what makes the CLI's `save` O(new data + metadata) instead of
/// O(catalog).
pub fn save_catalog(
    cat: &crate::catalog::Catalog,
    path: impl AsRef<Path>,
) -> Result<(), StorageError> {
    save_content(&Content::Catalog(cat.snapshot()), path.as_ref())
}

/// Reads a catalog from a file (lazily — see [`read_table`]).
/// Detects an interrupted save first and rolls the file back to its last
/// committed footer.
pub fn read_catalog(path: impl AsRef<Path>) -> Result<crate::catalog::Catalog, StorageError> {
    let path = path.as_ref();
    recover_before_read(path)?;
    read_catalog_raw(path)
}

/// [`read_catalog`] without the recovery step — for callers (vacuum) that
/// already hold the file's save lock and have recovered it.
pub(crate) fn read_catalog_raw(path: &Path) -> Result<crate::catalog::Catalog, StorageError> {
    let (mut meta, heap_end, source) = open_v6_file(path)?;
    decode_catalog_meta(&mut meta, heap_end, &source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::encoded::Encoding;
    use crate::store::budget_guard;

    fn sample() -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("score", ValueType::Float),
                ("active", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::int(i),
                    Value::str(format!("user{}", i % 10)),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::float(i as f64 / 3.0)
                    },
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        Table::from_rows("users", schema, &rows).unwrap()
    }

    /// A table whose columns span several segments.
    fn multi_segment() -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000)
            .map(|i| vec![Value::int(i % 17), Value::int(i / 250)])
            .collect();
        Table::from_rows_with_segment_rows("multi", schema, &rows, 128).unwrap()
    }

    /// `multi_segment` with one column uniformly re-encoded RLE.
    fn mixed_encoding() -> Table {
        multi_segment()
            .with_column_encoding("v", Encoding::Rle)
            .unwrap()
    }

    /// `multi_segment` with a *mixed directory*: half of `k`'s segments
    /// recoded (and pinned) RLE, the other half left bitmap.
    fn mixed_directory() -> Table {
        let t = multi_segment();
        let segs = t.column_by_name("k").unwrap().segment_count();
        t.with_column_segment_range_encoding("k", Encoding::Rle, 0..segs / 2)
            .unwrap()
    }

    /// A unique temp path per test so parallel tests never collide.
    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cods_v6_{name}_{}.tbl", std::process::id()))
    }

    /// Total `(resident, on_disk)` over every column of a table.
    fn residency(t: &Table) -> (usize, usize) {
        t.columns().iter().fold((0, 0), |(r, d), c| {
            let (cr, cd) = c.residency_counts();
            (r + cr, d + cd)
        })
    }

    fn footer_meta_off(path: &Path) -> u64 {
        let raw = std::fs::read(path).unwrap();
        let n = raw.len();
        u64::from_le_bytes(raw[n - 12..n - 4].try_into().unwrap())
    }

    #[test]
    fn table_round_trip() {
        let t = sample();
        let bytes = encode_table(&t);
        let back = decode_table(bytes).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.to_rows(), t.to_rows());
    }

    #[test]
    fn multi_segment_round_trip_preserves_directory() {
        let t = multi_segment();
        let back = decode_table(encode_table(&t)).unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column(0);
        assert_eq!(col.segment_count(), t.column(0).segment_count());
        assert_eq!(col.nominal_segment_rows(), 128);
        col.check_invariants().unwrap();
    }

    #[test]
    fn v6_open_is_metadata_only() {
        let t = mixed_directory()
            .with_column_encoding_pinned("v", Encoding::Rle)
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        // Nothing resident until something touches a payload...
        let (resident, on_disk) = residency(&back);
        assert_eq!(resident, 0, "a v6 decode must not fault payloads in");
        assert!(on_disk > 0);
        // ...yet the full metadata surface is there: zones, pins,
        // per-segment encodings, stats.
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.zones(), b.zones());
            assert_eq!(a.encoding_counts(), b.encoding_counts());
            assert_eq!(a.encoding_pinned(), b.encoding_pinned());
            for i in 0..a.segment_count() {
                assert_eq!(a.segment_encoding(i), b.segment_encoding(i));
                assert_eq!(a.segment_pinned(i), b.segment_pinned(i), "segment {i} pin");
                assert_eq!(a.segments()[i].present_ids(), b.segments()[i].present_ids());
                assert_eq!(a.segments()[i].ones(), b.segments()[i].ones());
                assert_eq!(
                    a.segments()[i].compressed_bytes(),
                    b.segments()[i].compressed_bytes()
                );
                assert_eq!(a.segments()[i].run_count(), b.segments()[i].run_count());
            }
        }
        // Touching the data faults in and matches byte for byte.
        assert_eq!(back.to_rows(), t.to_rows());
        back.check_invariants().unwrap();
    }

    #[test]
    fn mixed_directory_round_trips() {
        let t = mixed_directory();
        let before = t.column_by_name("k").unwrap();
        assert_eq!(before.uniform_encoding(), None, "directory must be mixed");
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column_by_name("k").unwrap();
        assert_eq!(col.encoding_counts(), before.encoding_counts());
        for i in 0..col.segment_count() {
            assert_eq!(col.segment_encoding(i), before.segment_encoding(i));
            assert_eq!(
                col.segment_pinned(i),
                before.segment_pinned(i),
                "segment {i} pin"
            );
        }
        assert_eq!(col.zones(), before.zones());
    }

    #[test]
    fn v6_round_trip_preserves_zones_and_pins() {
        let t = mixed_encoding()
            .with_column_encoding_pinned("k", Encoding::Bitmap)
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.zones(), b.zones(), "zones round-trip byte-exactly");
            assert_eq!(a.encoding_pinned(), b.encoding_pinned());
        }
    }

    /// Finds the first segment record of the first column in a v6 image's
    /// metadata region, returning the offset of its `segtag` byte. The
    /// record is located by its distinctive `(off, len)` pair.
    fn first_seg_record(raw: &[u8], t: &Table) -> usize {
        let n = raw.len();
        let meta_off = u64::from_le_bytes(raw[n - 12..n - 4].try_into().unwrap()) as usize;
        let first = &t.column(0).segments()[0];
        let len0 = payload_encoded_len(&first.enc()) as u64;
        let mut pat = Vec::new();
        pat.extend_from_slice(&(PREAMBLE_LEN as u64).to_le_bytes());
        pat.extend_from_slice(&len0.to_le_bytes());
        let pos = raw[meta_off..]
            .windows(16)
            .position(|w| w == pat.as_slice())
            .expect("first segment record");
        meta_off + pos - 1
    }

    #[test]
    fn corrupt_segment_tag_is_rejected() {
        // A v6 record whose segment tag carries unknown bits must fail
        // decode with a PersistError, not be misread as some encoding.
        let t = multi_segment();
        let bytes = encode_table(&t);
        let mut raw = bytes.as_slice().to_vec();
        let tag_off = first_seg_record(&raw, &t);
        assert!(raw[tag_off] & !(ENC_RLE | SEG_FLAG_PINNED) == 0, "sanity");
        raw[tag_off] = 0xFC;
        let err = decode_table(Bytes::from(raw));
        assert!(
            matches!(err, Err(StorageError::PersistError(_))),
            "expected PersistError, got {err:?}"
        );
    }

    #[test]
    fn out_of_bounds_segment_offset_is_rejected() {
        // A record whose payload location falls outside the heap (or
        // overflows) must fail at open, never at fault time.
        let t = multi_segment();
        let bytes = encode_table(&t);
        for (field_at, bad) in [
            (1usize, u64::MAX - 8), // off: overflows off + len
            (1, 1u64 << 40),        // off: beyond the heap
            (9, 1u64 << 40),        // len: runs past the heap end
            (9, 0u64),              // len: empty payload
        ] {
            let mut raw = bytes.as_slice().to_vec();
            let tag_off = first_seg_record(&raw, &t);
            let at = tag_off + field_at;
            raw[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            let err = decode_table(Bytes::from(raw));
            assert!(
                matches!(err, Err(StorageError::PersistError(_))),
                "field at +{field_at} = {bad}: expected PersistError, got {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_footer_is_rejected() {
        let bytes = encode_table(&multi_segment());
        let n = bytes.len();
        // Footer magic flipped.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 1] ^= 0xFF;
        assert!(decode_table(Bytes::from(raw)).is_err());
        // Metadata offset beyond the file.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 12..n - 4].copy_from_slice(&(n as u64).to_le_bytes());
        assert!(decode_table(Bytes::from(raw)).is_err());
        // Metadata offset inside the preamble.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 12..n - 4].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_table(Bytes::from(raw)).is_err());
    }

    /// Decodes `raw`, expecting a [`StorageError::PersistError`] whose
    /// message contains `needle`.
    fn expect_persist_error(raw: Vec<u8>, needle: &str) {
        match decode_table(Bytes::from(raw)) {
            Err(StorageError::PersistError(m)) => {
                assert!(m.contains(needle), "expected {needle:?}, got {m:?}")
            }
            other => panic!("expected PersistError({needle:?}), got {other:?}"),
        }
    }

    #[test]
    fn corrupt_segment_ids_are_rejected_not_panicked() {
        // A segment record whose present id lies beyond the dictionary
        // must fail decode with a PersistError — zone checks index rank
        // tables by id, so this would otherwise be panic territory.
        let t = multi_segment();
        let mut raw = encode_table(&t).as_slice().to_vec();
        // segtag(1) off len rows runs bytes (5 × 8) present(4) → first id.
        let id_off = first_seg_record(&raw, &t) + 1 + 5 * 8 + 4;
        raw[id_off..id_off + 4].copy_from_slice(&9_999u32.to_le_bytes());
        expect_persist_error(raw, "beyond dictionary");
    }

    #[test]
    fn out_of_range_zone_ids_are_rejected() {
        // The metadata region ends with the last column's zones, right
        // before the 12-byte footer.
        let mut raw = encode_table(&mixed_encoding()).as_slice().to_vec();
        let n = raw.len();
        raw[n - 20..n - 12].copy_from_slice(&u32::MAX.to_le_bytes().repeat(2));
        expect_persist_error(raw, "beyond dictionary");
    }

    #[test]
    fn in_range_but_wrong_zone_is_rejected_by_invariants() {
        // Zone ids that are valid dictionary indices but name the wrong
        // extremes must still fail decode: the metadata invariants
        // re-derive every zone from the segment's present ids and compare
        // — without faulting any payload in.
        let t = mixed_encoding();
        let bytes = encode_table(&t);
        let mut raw = bytes.as_slice().to_vec();
        // The metadata region ends with the last column's zones, right
        // before the 12-byte footer; its final segment holds only v = 3,
        // so zone (0, 0) is in-range but wrong.
        let n = raw.len();
        raw[n - 20..n - 12].copy_from_slice(&[0u8; 8]);
        let err = decode_table(Bytes::from(raw));
        assert!(
            matches!(err, Err(StorageError::Corrupt(_))),
            "expected zone mismatch, got {err:?}"
        );
    }

    #[test]
    fn rle_columns_round_trip() {
        let t = mixed_encoding();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column_by_name("v").unwrap();
        assert_eq!(col.uniform_encoding(), Some(Encoding::Rle));
        assert_eq!(
            col.segment_count(),
            t.column_by_name("v").unwrap().segment_count()
        );
        assert_eq!(col.nominal_segment_rows(), 128);
        assert_eq!(
            back.column_by_name("k").unwrap().uniform_encoding(),
            Some(Encoding::Bitmap)
        );
    }

    #[test]
    fn table_file_round_trip_is_lazy() {
        let _g = budget_guard();
        let t = sample();
        let path = temp("file_round_trip");
        save_table(&t, &path).unwrap();
        let back = read_table(&path).unwrap();
        let (resident, on_disk) = residency(&back);
        assert_eq!(resident, 0, "read_table must open metadata-only");
        assert!(on_disk > 0);
        assert_eq!(back.to_rows(), t.to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_save_adopts_slots_into_the_cache() {
        let _g = budget_guard();
        let store = segment_cache();
        let t = multi_segment();
        assert!(t
            .columns()
            .iter()
            .all(|c| c.segments().iter().all(|s| s.disk_loc().is_none())));
        let path = temp("adopt");
        save_table(&t, &path).unwrap();
        // Every slot now knows where it lives on disk...
        assert!(t
            .columns()
            .iter()
            .all(|c| c.segments().iter().all(|s| s.disk_loc().is_some())));
        // ...and is evictable under pressure, reloading from the file.
        store.set_budget(0);
        assert!(
            residency(&t).1 > 0,
            "adopted slots page out under a zero budget"
        );
        store.set_budget(u64::MAX);
        assert_eq!(t.to_rows(), multi_segment().to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resaving_a_lazily_opened_table_appends_only_metadata() {
        let _g = budget_guard();
        let t = multi_segment();
        let path = temp("append_noop");
        save_table(&t, &path).unwrap();
        let meta_off = footer_meta_off(&path);
        let back = read_table(&path).unwrap();
        // Re-saving the unchanged table reuses every payload: the heap
        // does not grow and nothing faults in — O(metadata), not O(data).
        save_table(&back, &path).unwrap();
        assert_eq!(footer_meta_off(&path), meta_off, "heap must not grow");
        assert_eq!(residency(&back).0, 0, "append-save must not fault");
        let again = read_table(&path).unwrap();
        assert_eq!(again.to_rows(), t.to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evolving_then_saving_appends_only_new_segments() {
        let _g = budget_guard();
        let t = multi_segment();
        let path = temp("append_grow");
        save_table(&t, &path).unwrap();
        let meta_off = footer_meta_off(&path);
        let back = read_table(&path).unwrap();
        // Recode two segments: two fresh payloads, the rest reused.
        let evolved = back
            .with_column_segment_range_encoding("k", Encoding::Rle, 0..2)
            .unwrap();
        save_table(&evolved, &path).unwrap();
        let new_meta_off = footer_meta_off(&path);
        assert!(new_meta_off > meta_off, "new payloads are appended");
        let appended = new_meta_off - meta_off;
        let expected: u64 = evolved
            .column_by_name("k")
            .unwrap()
            .segments()
            .iter()
            .take(2)
            .map(|s| payload_encoded_len(&s.enc()) as u64)
            .sum();
        assert_eq!(appended, expected, "only the recoded payloads");
        // The untouched segments were never read during the save.
        let (_, on_disk) = residency(&back);
        assert!(on_disk > 0, "reused segments stay on disk");
        let again = read_table(&path).unwrap();
        assert_eq!(again.to_rows(), evolved.to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_a_lazy_table_elsewhere_raw_copies_without_faulting() {
        let _g = budget_guard();
        let t = mixed_directory();
        let a = temp("copy_a");
        let b = temp("copy_b");
        save_table(&t, &a).unwrap();
        let back = read_table(&a).unwrap();
        save_table(&back, &b).unwrap();
        assert_eq!(
            residency(&back).0,
            0,
            "payloads are raw-copied between files, never decoded"
        );
        let from_b = read_table(&b).unwrap();
        assert_eq!(from_b.to_rows(), t.to_rows());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn catalog_round_trip() {
        let cat = Catalog::new();
        cat.create(sample()).unwrap();
        cat.create(sample().renamed("users2")).unwrap();
        let bytes = encode_catalog(&cat);
        let back = decode_catalog(bytes).unwrap();
        assert_eq!(back.table_names(), vec!["users", "users2"]);
        assert_eq!(
            back.get("users").unwrap().to_rows(),
            cat.get("users").unwrap().to_rows()
        );
    }

    #[test]
    fn shared_columns_are_stored_once_and_reshared_on_decode() {
        let cat = Catalog::new();
        let t = multi_segment();
        cat.create(t.clone()).unwrap();
        cat.create(t.renamed("multi2")).unwrap();
        let bytes = encode_catalog(&cat);
        // Both tables reference the same slots, so the heap stores each
        // payload once: the catalog image is far smaller than two tables.
        let single = encode_table(&cat.get("multi").unwrap()).len();
        assert!(
            bytes.len() < 2 * single,
            "catalog of two shared tables ({}) must dedup against 2 × {single}",
            bytes.len()
        );
        // And the decode re-shares: identical heap locations become one
        // slot, cached once for every snapshot.
        let back = decode_catalog(bytes).unwrap();
        let c1 = back.get("multi").unwrap();
        let c2 = back.get("multi2").unwrap();
        for (a, b) in c1.columns().iter().zip(c2.columns()) {
            for (sa, sb) in a.segments().iter().zip(b.segments()) {
                assert!(sa.ptr_eq(sb), "shared columns must come back shared");
            }
        }
        assert_eq!(c1.to_rows(), c2.to_rows());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u16_le(VERSION);
        assert!(decode_table(buf.freeze()).is_err());
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION + 1);
        assert!(decode_table(buf.freeze()).is_err());
    }

    #[test]
    fn legacy_versions_are_rejected_with_a_typed_error() {
        // Versions 1–5 were the eager layouts of earlier releases; this
        // build names them unsupported, from bytes and from a file alike.
        let image = encode_table(&sample());
        let path = temp("legacy");
        for version in 1..VERSION {
            let mut raw = image.as_slice().to_vec();
            raw[4..6].copy_from_slice(&version.to_le_bytes());
            let needle = format!("unsupported version {version}");
            std::fs::write(&path, &raw).unwrap();
            for err in [
                read_table(&path).map(|_| ()),
                read_catalog(&path).map(|_| ()),
                decode_catalog(Bytes::from(raw.clone())).map(|_| ()),
            ] {
                assert!(
                    matches!(&err, Err(StorageError::PersistError(m)) if *m == needle),
                    "version {version}: {err:?}"
                );
            }
            expect_persist_error(raw, &needle);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_table(&sample());
        for cut in [0, 3, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let sliced = bytes.slice(0..cut);
            assert!(decode_table(sliced).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn empty_table_round_trip() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows("empty", schema, &[]).unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.name(), "empty");
    }
}
