//! The message layer on top of [`crate::frame`]: typed commands and
//! replies with a hand-rolled little-endian codec (the container has no
//! serde). Each message maps to one frame; the frame `kind` byte is the
//! message discriminant, the frame payload is the message body.
//!
//! Command kinds live in `0x01..=0x1F`, reply kinds in `0x81..=0x9F`, so a
//! desynchronized peer is caught by the kind check even when a frame's
//! checksum happens to pass.

use crate::frame::FrameError;
use cods_query::{AggOp, CmpOp, Predicate};
use cods_storage::{CacheStats, OrderedF64, Value, ValueType};

/// Decode failures: the frame was intact but its payload is not a valid
/// message. Always fatal for the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the message did.
    Truncated,
    /// Unknown discriminant byte at the given description.
    BadTag(&'static str, u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// Predicate nesting beyond [`MAX_PRED_DEPTH`].
    TooDeep,
    /// Payload had trailing bytes after the message.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(what, b) => write!(f, "bad {what} tag 0x{b:02x}"),
            WireError::Utf8 => write!(f, "invalid utf-8 in string field"),
            WireError::TooDeep => write!(f, "predicate nested too deeply"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for FrameError {
    fn from(_: WireError) -> Self {
        FrameError::Corrupt
    }
}

/// Maximum predicate nesting the decoder accepts — bounds recursion on
/// hostile input while being far above anything a sane client sends.
pub const MAX_PRED_DEPTH: u32 = 64;

/// `total_rows` sentinel in a [`Reply::RowHeader`] for streams whose size
/// is unknown up front (joins stream matches as they are produced). The
/// closing `Done` frame still carries the exact totals, so integrity
/// checking degrades only from "known in advance" to "known at the end".
pub const TOTAL_UNKNOWN: u64 = u64::MAX;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe. Control plane: never queued or rejected.
    Ping,
    /// Re-pin the session's catalog snapshot to the current version.
    /// Control plane.
    Refresh,
    /// Server-wide counters. Control plane.
    Metrics,
    /// Table statistics at the session's pinned snapshot.
    Stats {
        /// Table name.
        table: String,
    },
    /// Run an SMO script against the live catalog (bounded conflict
    /// retry); on success the session re-pins so it reads its own write.
    Script {
        /// Script text, one operator per line.
        text: String,
    },
    /// Stream selected, projected rows of a table at the pinned snapshot.
    Scan {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
        /// Projected column names in output order; `None` = all columns.
        projection: Option<Vec<String>>,
    },
    /// Count predicate-satisfying rows without streaming them.
    Mask {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
    },
    /// Grouped aggregation over the predicate-selected rows: the columnar
    /// kernel's result groups arrive in bounded `Rows` batches, so large
    /// group counts never need one giant frame.
    GroupBy {
        /// Table name.
        table: String,
        /// Row filter applied before grouping (pushed into the kernel as
        /// a WAH mask, never materialized).
        predicate: Predicate,
        /// Grouping column names.
        group_by: Vec<String>,
        /// Aggregate expressions as `(op, input column)` pairs.
        aggs: Vec<(AggOp, String)>,
    },
    /// Partition-wise hash equi-join of two tables at the pinned
    /// snapshot; output = left columns ++ right non-key columns, streamed
    /// with a [`TOTAL_UNKNOWN`] header.
    Join {
        /// Left table name.
        left: String,
        /// Right table name.
        right: String,
        /// Join key column names on the left, paired positionally with
        /// `right_keys`.
        left_keys: Vec<String>,
        /// Join key column names on the right.
        right_keys: Vec<String>,
    },
}

impl Command {
    /// The frame kind byte of this command.
    pub fn kind(&self) -> u8 {
        match self {
            Command::Ping => 0x01,
            Command::Refresh => 0x02,
            Command::Metrics => 0x03,
            Command::Stats { .. } => 0x04,
            Command::Script { .. } => 0x05,
            Command::Scan { .. } => 0x06,
            Command::Mask { .. } => 0x07,
            Command::GroupBy { .. } => 0x09,
            Command::Join { .. } => 0x0A,
        }
    }

    /// `true` for commands that execute work against table data and must
    /// pass admission; `false` for the control plane, which always
    /// answers so operators can observe an overloaded server.
    pub fn is_data_plane(&self) -> bool {
        !matches!(self, Command::Ping | Command::Refresh | Command::Metrics)
    }
}

/// Server-wide counters returned by [`Command::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Data-plane requests executing right now.
    pub in_flight: u64,
    /// Data-plane requests waiting for an execution slot.
    pub queued: u64,
    /// Data-plane requests admitted since start.
    pub admitted_total: u64,
    /// Data-plane requests rejected with `Overloaded` since start.
    pub rejected_total: u64,
    /// Payload bytes streamed to clients since start.
    pub bytes_streamed: u64,
    /// Result rows streamed to clients since start.
    pub rows_streamed: u64,
    /// Connections evicted for idling past the server's deadline.
    pub idle_evicted: u64,
    /// The segment buffer cache's counters at snapshot time.
    pub cache: CacheStats,
    /// Commit-log durability counters (all zero without a commit log).
    pub durability: DurabilityReply,
}

/// Commit-log counters inside a [`MetricsReply`]. All zero when the
/// server runs memory-only (no `--durable` catalog attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityReply {
    /// 1 when a commit log is attached, else 0.
    pub enabled: u64,
    /// Commits acknowledged durable since start.
    pub commits: u64,
    /// Group fsyncs issued — `commits / fsyncs` is the batching factor.
    pub fsyncs: u64,
    /// Largest number of commits covered by one fsync.
    pub max_batch: u64,
    /// Cumulative wall time inside group fsyncs, microseconds.
    pub fsync_micros: u64,
    /// Commit records awaiting a checkpoint.
    pub log_pending: u64,
    /// Bytes of the commit-log file.
    pub log_bytes: u64,
}

/// Table statistics on the wire (a subset of
/// [`cods_storage::TableStats`] that serializes flat).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Rows in the table.
    pub rows: u64,
    /// Number of columns.
    pub arity: u64,
    /// Total compressed bytes (payloads + dictionaries).
    pub total_bytes: u64,
    /// Segments currently decoded in memory.
    pub resident_segments: u64,
    /// Segments currently paged out.
    pub on_disk_segments: u64,
    /// Catalog version the session read this from.
    pub catalog_version: u64,
}

/// A server response. Streaming commands answer with a `RowHeader`, any
/// number of `Rows` frames, then `Done`; everything else is one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// First frame of every connection: protocol and catalog versions.
    Hello {
        /// Catalog version the session pinned at connect time.
        catalog_version: u64,
    },
    /// Answer to [`Command::Ping`].
    Pong,
    /// Answer to [`Command::Refresh`]: the newly pinned version.
    Refreshed {
        /// Catalog version the session is now pinned at.
        catalog_version: u64,
    },
    /// Generic success with a human-readable summary (scripts).
    Ok {
        /// Summary text.
        message: String,
    },
    /// The request failed; the session survives.
    Error {
        /// Machine-readable class, see [`error_code`] constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Typed admission rejection: the server is at capacity. The client
    /// may retry later; the connection stays open.
    Overloaded {
        /// Data-plane requests executing when the request was rejected.
        in_flight: u64,
        /// Requests already queued when the request was rejected.
        queued: u64,
    },
    /// Stream opener: output schema and the exact total row count.
    RowHeader {
        /// `(name, type)` per output column.
        columns: Vec<(String, ValueType)>,
        /// Total rows the stream will carry.
        total_rows: u64,
    },
    /// One batch of result rows.
    Rows {
        /// The batch's tuples.
        rows: Vec<Vec<Value>>,
    },
    /// Stream closer with totals for integrity checking.
    Done {
        /// Batches sent (``Rows`` frames).
        batches: u64,
        /// Rows sent across all batches.
        rows: u64,
    },
    /// Answer to [`Command::Mask`].
    MaskSummary {
        /// Rows in the table.
        rows: u64,
        /// Rows satisfying the predicate.
        selected: u64,
        /// Snapshot version the mask was computed at.
        catalog_version: u64,
    },
    /// Answer to [`Command::Metrics`].
    Metrics(MetricsReply),
    /// Answer to [`Command::Stats`].
    Stats(StatsReply),
}

/// Machine-readable [`Reply::Error`] classes.
pub mod error_code {
    /// Malformed or unsupported request.
    pub const BAD_REQUEST: u16 = 1;
    /// Unknown table or column at the pinned snapshot.
    pub const NOT_FOUND: u16 = 2;
    /// Optimistic commit lost every retry attempt.
    pub const CONFLICT: u16 = 3;
    /// Script parse/validation/execution error.
    pub const EVOLUTION: u16 = 4;
    /// Anything else.
    pub const INTERNAL: u16 = 5;
    /// The connection idled past the server's deadline and is being
    /// closed.
    pub const TIMEOUT: u16 = 6;
}

impl Reply {
    /// The frame kind byte of this reply.
    pub fn kind(&self) -> u8 {
        match self {
            Reply::Hello { .. } => 0x81,
            Reply::Pong => 0x82,
            Reply::Refreshed { .. } => 0x83,
            Reply::Ok { .. } => 0x84,
            Reply::Error { .. } => 0x85,
            Reply::Overloaded { .. } => 0x86,
            Reply::RowHeader { .. } => 0x87,
            Reply::Rows { .. } => 0x88,
            Reply::Done { .. } => 0x89,
            Reply::MaskSummary { .. } => 0x8A,
            Reply::Metrics(_) => 0x8B,
            Reply::Stats(_) => 0x8C,
        }
    }
}

// ---------------------------------------------------------------- codec --

/// Little-endian byte writer.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            // Bit-exact round-trip, NaN payloads included.
            Value::Float(OrderedF64(f)) => {
                self.u8(3);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }
    fn value_type(&mut self, t: ValueType) {
        self.u8(t.tag());
    }
    fn pred(&mut self, p: &Predicate) {
        match p {
            Predicate::Compare {
                column,
                op,
                literal,
            } => {
                self.u8(0);
                self.str(column);
                self.u8(*op as u8);
                self.value(literal);
            }
            Predicate::And(a, b) => {
                self.u8(1);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Or(a, b) => {
                self.u8(2);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Not(a) => {
                self.u8(3);
                self.pred(a);
            }
            Predicate::True => self.u8(4),
        }
    }
    fn rows(&mut self, rows: &[Vec<Value>]) {
        self.u32(rows.len() as u32);
        for row in rows {
            self.u32(row.len() as u32);
            for v in row {
                self.value(v);
            }
        }
    }
}

/// Little-endian byte reader over a message payload.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> DecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Utf8)
    }
    fn value(&mut self) -> DecResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(OrderedF64(f64::from_bits(self.u64()?))),
            4 => Value::Str(self.str()?.into()),
            b => return Err(WireError::BadTag("value", b)),
        })
    }
    fn value_type(&mut self) -> DecResult<ValueType> {
        let b = self.u8()?;
        ValueType::from_tag(b).ok_or(WireError::BadTag("value type", b))
    }
    fn pred(&mut self, depth: u32) -> DecResult<Predicate> {
        if depth > MAX_PRED_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => Predicate::Compare {
                column: self.str()?,
                op: {
                    let b = self.u8()?;
                    *CmpOp::ALL
                        .get(b as usize)
                        .ok_or(WireError::BadTag("cmp op", b))?
                },
                literal: self.value()?,
            },
            1 => Predicate::And(
                Box::new(self.pred(depth + 1)?),
                Box::new(self.pred(depth + 1)?),
            ),
            2 => Predicate::Or(
                Box::new(self.pred(depth + 1)?),
                Box::new(self.pred(depth + 1)?),
            ),
            3 => Predicate::Not(Box::new(self.pred(depth + 1)?)),
            4 => Predicate::True,
            b => return Err(WireError::BadTag("predicate", b)),
        })
    }
    fn rows(&mut self) -> DecResult<Vec<Vec<Value>>> {
        let n = self.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let arity = self.u32()? as usize;
            let mut row = Vec::with_capacity(arity.min(1 << 12));
            for _ in 0..arity {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
    fn finish(self) -> DecResult<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

/// Encodes a command body (the frame kind comes from [`Command::kind`]).
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut e = Enc::default();
    match cmd {
        Command::Ping | Command::Refresh | Command::Metrics => {}
        Command::Stats { table } => e.str(table),
        Command::Script { text } => e.str(text),
        Command::Scan {
            table,
            predicate,
            projection,
        } => {
            e.str(table);
            e.pred(predicate);
            match projection {
                None => e.u8(0),
                Some(cols) => {
                    e.u8(1);
                    e.u32(cols.len() as u32);
                    for c in cols {
                        e.str(c);
                    }
                }
            }
        }
        Command::Mask { table, predicate } => {
            e.str(table);
            e.pred(predicate);
        }
        Command::GroupBy {
            table,
            predicate,
            group_by,
            aggs,
        } => {
            e.str(table);
            e.pred(predicate);
            e.u32(group_by.len() as u32);
            for g in group_by {
                e.str(g);
            }
            e.u32(aggs.len() as u32);
            for (op, col) in aggs {
                e.u8(*op as u8);
                e.str(col);
            }
        }
        Command::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            e.str(left);
            e.str(right);
            e.u32(left_keys.len() as u32);
            for k in left_keys {
                e.str(k);
            }
            e.u32(right_keys.len() as u32);
            for k in right_keys {
                e.str(k);
            }
        }
    }
    e.buf
}

/// Decodes a command from its frame `(kind, payload)`.
pub fn decode_command(kind: u8, payload: &[u8]) -> DecResult<Command> {
    let mut d = Dec::new(payload);
    let cmd = match kind {
        0x01 => Command::Ping,
        0x02 => Command::Refresh,
        0x03 => Command::Metrics,
        0x04 => Command::Stats { table: d.str()? },
        0x05 => Command::Script { text: d.str()? },
        0x06 => {
            let table = d.str()?;
            let predicate = d.pred(0)?;
            let projection = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.u32()? as usize;
                    let mut cols = Vec::with_capacity(n.min(1 << 12));
                    for _ in 0..n {
                        cols.push(d.str()?);
                    }
                    Some(cols)
                }
                b => return Err(WireError::BadTag("projection", b)),
            };
            Command::Scan {
                table,
                predicate,
                projection,
            }
        }
        0x07 => Command::Mask {
            table: d.str()?,
            predicate: d.pred(0)?,
        },
        0x09 => {
            let table = d.str()?;
            let predicate = d.pred(0)?;
            let n = d.u32()? as usize;
            let mut group_by = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                group_by.push(d.str()?);
            }
            let n = d.u32()? as usize;
            let mut aggs = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let b = d.u8()?;
                let op = *AggOp::ALL
                    .get(b as usize)
                    .ok_or(WireError::BadTag("agg op", b))?;
                aggs.push((op, d.str()?));
            }
            Command::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            }
        }
        0x0A => {
            let left = d.str()?;
            let right = d.str()?;
            let n = d.u32()? as usize;
            let mut left_keys = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                left_keys.push(d.str()?);
            }
            let n = d.u32()? as usize;
            let mut right_keys = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                right_keys.push(d.str()?);
            }
            Command::Join {
                left,
                right,
                left_keys,
                right_keys,
            }
        }
        b => return Err(WireError::BadTag("command kind", b)),
    };
    d.finish()?;
    Ok(cmd)
}

/// Encodes a reply body (the frame kind comes from [`Reply::kind`]).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut e = Enc::default();
    match reply {
        Reply::Pong => {}
        Reply::Hello { catalog_version } | Reply::Refreshed { catalog_version } => {
            e.u64(*catalog_version)
        }
        Reply::Ok { message } => e.str(message),
        Reply::Error { code, message } => {
            e.u16(*code);
            e.str(message);
        }
        Reply::Overloaded { in_flight, queued } => {
            e.u64(*in_flight);
            e.u64(*queued);
        }
        Reply::RowHeader {
            columns,
            total_rows,
        } => {
            e.u32(columns.len() as u32);
            for (name, ty) in columns {
                e.str(name);
                e.value_type(*ty);
            }
            e.u64(*total_rows);
        }
        Reply::Rows { rows } => e.rows(rows),
        Reply::Done { batches, rows } => {
            e.u64(*batches);
            e.u64(*rows);
        }
        Reply::MaskSummary {
            rows,
            selected,
            catalog_version,
        } => {
            e.u64(*rows);
            e.u64(*selected);
            e.u64(*catalog_version);
        }
        Reply::Metrics(m) => {
            e.u64(m.connections_open);
            e.u64(m.connections_total);
            e.u64(m.in_flight);
            e.u64(m.queued);
            e.u64(m.admitted_total);
            e.u64(m.rejected_total);
            e.u64(m.bytes_streamed);
            e.u64(m.rows_streamed);
            e.u64(m.idle_evicted);
            e.u64(m.cache.budget);
            e.u64(m.cache.resident_bytes);
            e.u64(m.cache.hits);
            e.u64(m.cache.misses);
            e.u64(m.cache.evictions);
            e.u64(m.cache.decoded_bytes);
            e.u64(m.durability.enabled);
            e.u64(m.durability.commits);
            e.u64(m.durability.fsyncs);
            e.u64(m.durability.max_batch);
            e.u64(m.durability.fsync_micros);
            e.u64(m.durability.log_pending);
            e.u64(m.durability.log_bytes);
        }
        Reply::Stats(s) => {
            e.u64(s.rows);
            e.u64(s.arity);
            e.u64(s.total_bytes);
            e.u64(s.resident_segments);
            e.u64(s.on_disk_segments);
            e.u64(s.catalog_version);
        }
    }
    e.buf
}

/// Decodes a reply from its frame `(kind, payload)`.
pub fn decode_reply(kind: u8, payload: &[u8]) -> DecResult<Reply> {
    let mut d = Dec::new(payload);
    let reply = match kind {
        0x81 => Reply::Hello {
            catalog_version: d.u64()?,
        },
        0x82 => Reply::Pong,
        0x83 => Reply::Refreshed {
            catalog_version: d.u64()?,
        },
        0x84 => Reply::Ok { message: d.str()? },
        0x85 => Reply::Error {
            code: d.u16()?,
            message: d.str()?,
        },
        0x86 => Reply::Overloaded {
            in_flight: d.u64()?,
            queued: d.u64()?,
        },
        0x87 => {
            let n = d.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let name = d.str()?;
                columns.push((name, d.value_type()?));
            }
            Reply::RowHeader {
                columns,
                total_rows: d.u64()?,
            }
        }
        0x88 => Reply::Rows { rows: d.rows()? },
        0x89 => Reply::Done {
            batches: d.u64()?,
            rows: d.u64()?,
        },
        0x8A => Reply::MaskSummary {
            rows: d.u64()?,
            selected: d.u64()?,
            catalog_version: d.u64()?,
        },
        0x8B => Reply::Metrics(MetricsReply {
            connections_open: d.u64()?,
            connections_total: d.u64()?,
            in_flight: d.u64()?,
            queued: d.u64()?,
            admitted_total: d.u64()?,
            rejected_total: d.u64()?,
            bytes_streamed: d.u64()?,
            rows_streamed: d.u64()?,
            idle_evicted: d.u64()?,
            cache: CacheStats {
                budget: d.u64()?,
                resident_bytes: d.u64()?,
                hits: d.u64()?,
                misses: d.u64()?,
                evictions: d.u64()?,
                decoded_bytes: d.u64()?,
            },
            durability: DurabilityReply {
                enabled: d.u64()?,
                commits: d.u64()?,
                fsyncs: d.u64()?,
                max_batch: d.u64()?,
                fsync_micros: d.u64()?,
                log_pending: d.u64()?,
                log_bytes: d.u64()?,
            },
        }),
        0x8C => Reply::Stats(StatsReply {
            rows: d.u64()?,
            arity: d.u64()?,
            total_bytes: d.u64()?,
            resident_segments: d.u64()?,
            on_disk_segments: d.u64()?,
            catalog_version: d.u64()?,
        }),
        b => return Err(WireError::BadTag("reply kind", b)),
    };
    d.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_cmd(cmd: Command) {
        let bytes = encode_command(&cmd);
        let back = decode_command(cmd.kind(), &bytes).unwrap();
        assert_eq!(back, cmd);
    }

    fn rt_reply(reply: Reply) {
        let bytes = encode_reply(&reply);
        let back = decode_reply(reply.kind(), &bytes).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn operator_wire_tags_are_pinned() {
        use CmpOp::*;
        for (op, tag) in [(Eq, 0u8), (Ne, 1), (Lt, 2), (Le, 3), (Gt, 4), (Ge, 5)] {
            assert_eq!((op as u8, CmpOp::ALL[tag as usize]), (tag, op));
        }
        let aggs = [
            (AggOp::Count, 0u8),
            (AggOp::CountDistinct, 1),
            (AggOp::Sum, 2),
            (AggOp::Min, 3),
            (AggOp::Max, 4),
        ];
        for (op, tag) in aggs {
            assert_eq!((op as u8, AggOp::ALL[tag as usize]), (tag, op));
        }
    }

    #[test]
    fn commands_round_trip() {
        rt_cmd(Command::Ping);
        rt_cmd(Command::Refresh);
        rt_cmd(Command::Metrics);
        rt_cmd(Command::Stats { table: "R".into() });
        rt_cmd(Command::Script {
            text: "DROP TABLE x\nCREATE TABLE y (a INT)".into(),
        });
        rt_cmd(Command::Scan {
            table: "emp".into(),
            predicate: Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0").not()),
            projection: Some(vec!["v".into(), "k".into()]),
        });
        rt_cmd(Command::Scan {
            table: "emp".into(),
            predicate: Predicate::True,
            projection: None,
        });
        rt_cmd(Command::Mask {
            table: "t".into(),
            predicate: Predicate::ge("f", 1.5f64),
        });
        rt_cmd(Command::GroupBy {
            table: "t".into(),
            predicate: Predicate::lt("pay", 100i64),
            group_by: vec!["dept".into(), "site".into()],
            aggs: vec![
                (AggOp::CountDistinct, "emp".into()),
                (AggOp::Max, "pay".into()),
            ],
        });
        rt_cmd(Command::GroupBy {
            table: "t".into(),
            predicate: Predicate::True,
            group_by: vec![],
            aggs: vec![(AggOp::Count, "dept".into())],
        });
        rt_cmd(Command::Join {
            left: "orders".into(),
            right: "people".into(),
            left_keys: vec!["who".into(), "region".into()],
            right_keys: vec!["name".into(), "region".into()],
        });
    }

    #[test]
    fn unknown_total_header_round_trips() {
        rt_reply(Reply::RowHeader {
            columns: vec![("k".into(), ValueType::Int)],
            total_rows: TOTAL_UNKNOWN,
        });
    }

    #[test]
    fn replies_round_trip() {
        rt_reply(Reply::Hello { catalog_version: 9 });
        rt_reply(Reply::Pong);
        rt_reply(Reply::Refreshed {
            catalog_version: 10,
        });
        rt_reply(Reply::Ok {
            message: "2 ops".into(),
        });
        rt_reply(Reply::Error {
            code: error_code::NOT_FOUND,
            message: "unknown table".into(),
        });
        rt_reply(Reply::Overloaded {
            in_flight: 4,
            queued: 2,
        });
        rt_reply(Reply::RowHeader {
            columns: vec![("k".into(), ValueType::Int), ("v".into(), ValueType::Str)],
            total_rows: 1_000_000,
        });
        rt_reply(Reply::Rows {
            rows: vec![
                vec![Value::int(1), Value::str("a")],
                vec![Value::Null, Value::Bool(true)],
                vec![Value::float(f64::NAN), Value::float(-0.0)],
            ],
        });
        rt_reply(Reply::Done {
            batches: 3,
            rows: 12,
        });
        rt_reply(Reply::MaskSummary {
            rows: 100,
            selected: 42,
            catalog_version: 7,
        });
        rt_reply(Reply::Metrics(MetricsReply {
            connections_open: 1,
            connections_total: 2,
            in_flight: 3,
            queued: 4,
            admitted_total: 5,
            rejected_total: 6,
            bytes_streamed: 7,
            rows_streamed: 8,
            idle_evicted: 14,
            cache: CacheStats {
                budget: u64::MAX,
                resident_bytes: 9,
                hits: 10,
                misses: 11,
                evictions: 12,
                decoded_bytes: 13,
            },
            durability: DurabilityReply {
                enabled: 1,
                commits: 15,
                fsyncs: 16,
                max_batch: 17,
                fsync_micros: 18,
                log_pending: 19,
                log_bytes: 20,
            },
        }));
        rt_reply(Reply::Stats(StatsReply {
            rows: 1,
            arity: 2,
            total_bytes: 3,
            resident_segments: 4,
            on_disk_segments: 5,
            catalog_version: 6,
        }));
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = encode_reply(&Reply::Rows {
            rows: vec![vec![Value::Float(OrderedF64(weird))]],
        });
        match decode_reply(0x88, &bytes).unwrap() {
            Reply::Rows { rows } => match rows[0][0] {
                Value::Float(OrderedF64(f)) => assert_eq!(f.to_bits(), weird.to_bits()),
                ref v => panic!("wrong value {v:?}"),
            },
            r => panic!("wrong reply {r:?}"),
        }
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        assert_eq!(
            decode_command(0xFF, &[]),
            Err(WireError::BadTag("command kind", 0xFF))
        );
        // Truncated string length prefix.
        assert_eq!(decode_command(0x04, &[1, 0]), Err(WireError::Truncated));
        // Declared string longer than the payload.
        assert_eq!(
            decode_command(0x04, &[200, 0, 0, 0, b'x']),
            Err(WireError::Truncated)
        );
        // Non-UTF-8 table name.
        assert_eq!(
            decode_command(0x04, &[2, 0, 0, 0, 0xFF, 0xFE]),
            Err(WireError::Utf8)
        );
        // Trailing garbage after a complete message.
        let mut bytes = encode_command(&Command::Ping);
        bytes.push(0);
        assert_eq!(decode_command(0x01, &bytes), Err(WireError::Trailing));
    }

    #[test]
    fn predicate_depth_is_bounded() {
        let mut pred = Predicate::True;
        for _ in 0..=MAX_PRED_DEPTH {
            pred = Predicate::Not(Box::new(pred));
        }
        let cmd = Command::Mask {
            table: "t".into(),
            predicate: pred,
        };
        let bytes = encode_command(&cmd);
        assert_eq!(decode_command(0x07, &bytes), Err(WireError::TooDeep));
    }
}
