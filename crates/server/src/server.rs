//! The server: TCP accept loop, thread-per-connection request dispatch,
//! snapshot sessions, admission control and streaming execution.

use crate::admission::{Gate, Permit, Rejected};
use crate::frame::{read_frame, write_frame, write_preamble, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::metrics::ServerMetrics;
use crate::proto::{
    decode_command, encode_reply, error_code, Command, Reply, StatsReply, TOTAL_UNKNOWN,
};
use crate::session::Session;
use cods::{Cods, EvolutionError};
use cods_query::{
    aggregate_table_masked, join_stream, plan_join, predicate_mask, AggExpr, AggRequest,
    JoinRequest, Predicate, ScanStream,
};
use cods_storage::{
    segment_cache, ColumnDef, CommitLog, RetryPolicy, StorageError, TableStats, Value, ValueType,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-plane requests executing concurrently (execution slots).
    pub max_in_flight: u64,
    /// Data-plane requests allowed to wait for a slot; one more is
    /// rejected with a typed `Overloaded` reply.
    pub max_queued: u64,
    /// Per-frame payload cap enforced on reads.
    pub max_frame_bytes: u32,
    /// Conflict-retry policy for `Script` commands.
    pub retry: RetryPolicy,
    /// Evict a connection whose socket stays silent this long — a hung or
    /// vanished client releases its thread (and the socket-level read
    /// deadline also unwedges reads stuck mid-frame). `None` waits
    /// forever.
    pub idle_timeout: Option<Duration>,
    /// Socket write deadline: a client that stops draining its socket
    /// errors the connection instead of wedging it. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// The catalog's commit log when serving durably: `Script` replies are
    /// then acknowledged only after the group fsync (the commit path waits
    /// on the log), and metrics expose the fsync counters. `None` serves
    /// memory-only.
    pub commit_log: Option<CommitLog>,
    /// Test knob: hold each admitted data-plane request for this long
    /// before executing, making admission states observable
    /// deterministically. `None` in production.
    pub debug_hold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 4,
            max_queued: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            retry: RetryPolicy::default(),
            idle_timeout: None,
            write_timeout: None,
            commit_log: None,
            debug_hold: None,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    cods: Arc<Cods>,
    config: ServerConfig,
    gate: Arc<Gate>,
    metrics: ServerMetrics,
    /// Clones of live connection streams, so shutdown can unblock reads.
    conns: Mutex<Vec<TcpStream>>,
    stopping: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The serving entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `cods`. Returns immediately; the
    /// accept loop and every connection run on their own threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cods: Arc<Cods>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            gate: Gate::new(config.max_in_flight, config.max_queued),
            cods,
            config,
            metrics: ServerMetrics::default(),
            conns: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(shared.config.idle_timeout);
                    let _ = stream.set_write_timeout(shared.config.write_timeout);
                    ServerMetrics::add(&shared.metrics.connections_total, 1);
                    ServerMetrics::add(&shared.metrics.connections_open, 1);
                    if let Ok(clone) = stream.try_clone() {
                        shared.conns.lock().unwrap().push(clone);
                    }
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || {
                        let _ = Connection::run(&shared, stream);
                        ServerMetrics::dec(&shared.metrics.connections_open);
                    });
                    conn_threads.lock().unwrap().push(handle);
                }
            })
        };
        Ok(ServerHandle {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains queued admissions, unblocks every
    /// connection read, and joins all serving threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.gate.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock connection threads parked in read_frame.
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's serving loop.
struct Connection<'a> {
    shared: &'a Shared,
    session: Session,
    writer: BufWriter<TcpStream>,
    /// The execution slot of the data-plane request being served.
    permit: Option<Permit>,
}

impl<'a> Connection<'a> {
    fn run(shared: &'a Shared, stream: TcpStream) -> Result<(), FrameError> {
        let mut reader = BufReader::new(stream.try_clone().map_err(FrameError::Io)?);
        let mut conn = Connection {
            shared,
            session: Session::open(&shared.cods),
            writer: BufWriter::new(stream),
            permit: None,
        };
        write_preamble(&mut conn.writer)?;
        let hello = Reply::Hello {
            catalog_version: conn.session.version(),
        };
        conn.reply(&hello)?;
        loop {
            let (kind, payload) = match read_frame(&mut reader, shared.config.max_frame_bytes) {
                Ok(f) => f,
                // Polite hang-up: the session ends.
                Err(FrameError::Eof) => return Ok(()),
                // Socket deadline fired: the client idled (or hung
                // mid-frame) past the configured timeout. Evict it — tell
                // it why if its socket still listens, then close.
                Err(FrameError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    ServerMetrics::add(&shared.metrics.idle_evicted, 1);
                    let _ = conn.reply(&Reply::Error {
                        code: error_code::TIMEOUT,
                        message: "connection idle past deadline, closing".into(),
                    });
                    return Ok(());
                }
                // A torn or unreadable stream cannot carry an error reply.
                Err(e @ (FrameError::Torn | FrameError::Io(_))) => return Err(e),
                // The stream is alive but desynchronized or hostile: say
                // why, then drop the connection.
                Err(e @ (FrameError::Corrupt | FrameError::TooLarge { .. })) => {
                    let _ = conn.reply(&Reply::Error {
                        code: error_code::BAD_REQUEST,
                        message: e.to_string(),
                    });
                    return Err(e);
                }
            };
            let cmd = match decode_command(kind, &payload) {
                Ok(cmd) => cmd,
                Err(e) => {
                    let _ = conn.reply(&Reply::Error {
                        code: error_code::BAD_REQUEST,
                        message: e.to_string(),
                    });
                    return Err(FrameError::Corrupt);
                }
            };
            conn.dispatch(cmd)?;
        }
    }

    /// Encodes, frames, sends and flushes one reply, counting its bytes.
    fn reply(&mut self, reply: &Reply) -> Result<(), FrameError> {
        // A request's last frame frees its execution slot first: a client
        // that has read its whole answer never sees the request in flight.
        if !matches!(reply, Reply::RowHeader { .. } | Reply::Rows { .. }) {
            self.permit = None;
        }
        let bytes = write_frame(&mut self.writer, reply.kind(), &encode_reply(reply))?;
        // A blocking flush per frame is the backpressure mechanism: a slow
        // client stalls only its own connection thread (and the one
        // admission slot it holds), never the server.
        self.writer.flush()?;
        ServerMetrics::add(&self.shared.metrics.bytes_streamed, bytes);
        Ok(())
    }

    fn dispatch(&mut self, cmd: Command) -> Result<(), FrameError> {
        if !cmd.is_data_plane() {
            let reply = match cmd {
                Command::Ping => Reply::Pong,
                Command::Refresh => Reply::Refreshed {
                    catalog_version: self.session.refresh(&self.shared.cods),
                },
                Command::Metrics => {
                    let (in_flight, queued) = self.shared.gate.occupancy();
                    Reply::Metrics(self.shared.metrics.snapshot(
                        in_flight,
                        queued,
                        self.shared.config.commit_log.as_ref(),
                    ))
                }
                _ => unreachable!("control-plane commands only"),
            };
            return self.reply(&reply);
        }
        self.permit = match self.shared.gate.admit() {
            Ok(p) => Some(p),
            Err(Rejected::Overloaded { in_flight, queued }) => {
                ServerMetrics::add(&self.shared.metrics.rejected_total, 1);
                return self.reply(&Reply::Overloaded { in_flight, queued });
            }
            Err(Rejected::Closed) => {
                return self.reply(&Reply::Error {
                    code: error_code::INTERNAL,
                    message: "server shutting down".into(),
                });
            }
        };
        ServerMetrics::add(&self.shared.metrics.admitted_total, 1);
        if let Some(hold) = self.shared.config.debug_hold {
            std::thread::sleep(hold);
        }
        let result = self.execute(cmd);
        self.permit = None;
        result
    }

    /// Runs one data-plane request. A storage error is answered with an
    /// error reply and keeps the session; a frame error ends it.
    fn execute(&mut self, cmd: Command) -> Result<(), FrameError> {
        match self.serve_request(cmd) {
            Ok(()) => Ok(()),
            Err(Failure::Storage(e)) => self.storage_error(&e),
            Err(Failure::Frame(e)) => Err(e),
        }
    }

    fn serve_request(&mut self, cmd: Command) -> Result<(), Failure> {
        match cmd {
            Command::Stats { table } => {
                let t = self.session.table(&table)?;
                let s = TableStats::of(&t);
                let reply = Reply::Stats(StatsReply {
                    rows: s.rows,
                    arity: s.arity as u64,
                    total_bytes: s.total_bytes as u64,
                    resident_segments: s.resident_segments as u64,
                    on_disk_segments: s.on_disk_segments as u64,
                    catalog_version: self.session.version(),
                });
                Ok(self.reply(&reply)?)
            }
            Command::Script { text } => {
                match self
                    .shared
                    .cods
                    .run_script_with_retry(&text, &self.shared.config.retry)
                {
                    Ok(report) => {
                        // Read-your-writes: the session moves to (at
                        // least) the version its own script produced.
                        // With a commit log attached this reply is the
                        // durability ack: the commit path already waited
                        // for the group fsync covering this script.
                        let version = self.session.refresh(&self.shared.cods);
                        Ok(self.reply(&Reply::Ok {
                            message: format!(
                                "{} operator(s) committed{}; catalog v{version}",
                                report.records.len(),
                                if report.log.durable { " durably" } else { "" }
                            ),
                        })?)
                    }
                    Err(e) => {
                        let code = match &e {
                            EvolutionError::Storage(StorageError::Conflict(_)) => {
                                error_code::CONFLICT
                            }
                            EvolutionError::Storage(StorageError::UnknownTable(_))
                            | EvolutionError::Storage(StorageError::UnknownColumn(_)) => {
                                error_code::NOT_FOUND
                            }
                            // A commit the log could not fsync never
                            // entered the catalog, but the server can no
                            // longer guarantee durability: that is an
                            // operator problem, not a script problem.
                            EvolutionError::Storage(StorageError::Durability(_)) => {
                                error_code::INTERNAL
                            }
                            _ => error_code::EVOLUTION,
                        };
                        Ok(self.reply(&Reply::Error {
                            code,
                            message: e.to_string(),
                        })?)
                    }
                }
            }
            Command::Scan {
                table,
                predicate,
                projection,
            } => {
                let t = self.session.table(&table)?;
                let stream = ScanStream::new(t, &predicate, projection.as_deref())?;
                Ok(self.stream_scan(stream)?)
            }
            Command::Mask { table, predicate } => {
                let t = self.session.table(&table)?;
                let mask = predicate_mask(&t, &predicate)?;
                Ok(self.reply(&Reply::MaskSummary {
                    rows: t.rows(),
                    selected: mask.count_ones(),
                    catalog_version: self.session.version(),
                })?)
            }
            Command::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            } => {
                let t = self.session.table(&table)?;
                let aggs: Vec<AggExpr> = aggs
                    .into_iter()
                    .map(|(op, c)| AggExpr::named(op, c))
                    .collect();
                let req = AggRequest::resolve(t.schema(), &group_by, &aggs)?;
                // Mask pushdown: the predicate becomes a WAH mask and the
                // columnar kernel aggregates under it — the filtered table
                // is never built.
                let mask = match predicate {
                    Predicate::True => None,
                    p => Some(predicate_mask(&t, &p)?),
                };
                let rows = aggregate_table_masked(&t, &req.group_by, &req.aggs, mask.as_ref())?;
                let total = rows.len() as u64;
                Ok(self.stream_rows(req.columns, total, rows.into_iter())?)
            }
            Command::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let (l, r) = (self.session.table(&left)?, self.session.table(&right)?);
                let req = JoinRequest::resolve(l.schema(), r.schema(), &left_keys, &right_keys)?;
                let (lk, rk) = (&req.left_keys, &req.right_keys);
                let plan = plan_join(&l, &r, lk, rk, segment_cache().stats().budget);
                let stream = join_stream(l, r, lk, rk, &plan);
                // The match count is unknown until the probe finishes —
                // stream under the sentinel total; Done carries the truth.
                Ok(self.stream_rows(req.columns, TOTAL_UNKNOWN, stream)?)
            }
            Command::Ping | Command::Refresh | Command::Metrics => {
                unreachable!("data-plane commands only")
            }
        }
    }

    /// Streams a result in `STREAM_BATCH_ROWS`-row frames: header, bounded
    /// `Rows` frames however many rows come back, closer with the totals
    /// actually sent.
    fn stream_rows(
        &mut self,
        columns: Vec<ColumnDef>,
        total_rows: u64,
        mut rows: impl Iterator<Item = Vec<Value>>,
    ) -> Result<(), FrameError> {
        let columns = columns.into_iter().map(|c| (c.name, c.ty)).collect();
        self.reply(&Reply::RowHeader {
            columns,
            total_rows,
        })?;
        let (mut batches, mut sent) = (0u64, 0u64);
        loop {
            let chunk: Vec<_> = rows.by_ref().take(STREAM_BATCH_ROWS).collect();
            if chunk.is_empty() {
                return self.reply(&Reply::Done {
                    batches,
                    rows: sent,
                });
            }
            batches += 1;
            sent += chunk.len() as u64;
            ServerMetrics::add(&self.shared.metrics.rows_streamed, chunk.len() as u64);
            self.reply(&Reply::Rows { rows: chunk })?;
        }
    }

    /// Streams one scan: header, one `Rows` frame per non-empty
    /// segment-aligned batch, closer with totals. Peak memory is one
    /// batch, whatever the result size.
    fn stream_scan(&mut self, stream: ScanStream) -> Result<(), FrameError> {
        let t = stream.table();
        let columns: Vec<(String, ValueType)> = stream
            .projection()
            .iter()
            .map(|&ci| {
                let def = &t.schema().columns()[ci];
                (def.name.clone(), def.ty)
            })
            .collect();
        self.reply(&Reply::RowHeader {
            columns,
            total_rows: stream.total_selected(),
        })?;
        let mut batches = 0u64;
        let mut rows_sent = 0u64;
        for batch in stream {
            batches += 1;
            rows_sent += batch.rows.len() as u64;
            ServerMetrics::add(&self.shared.metrics.rows_streamed, batch.rows.len() as u64);
            self.reply(&Reply::Rows { rows: batch.rows })?;
        }
        self.reply(&Reply::Done {
            batches,
            rows: rows_sent,
        })
    }

    /// Maps a storage error onto an error reply, keeping the session.
    fn storage_error(&mut self, e: &StorageError) -> Result<(), FrameError> {
        let code = match e {
            StorageError::UnknownTable(_) | StorageError::UnknownColumn(_) => error_code::NOT_FOUND,
            // A request that does not fit the schema: ill-typed literals,
            // unequal join key lists.
            StorageError::InvalidSchema(_) | StorageError::RowMismatch(_) => {
                error_code::BAD_REQUEST
            }
            StorageError::Conflict(_) => error_code::CONFLICT,
            _ => error_code::INTERNAL,
        };
        self.reply(&Reply::Error {
            code,
            message: e.to_string(),
        })
    }
}

/// How a data-plane request fails.
enum Failure {
    /// The request does not fit the snapshot: answered, session kept.
    Storage(StorageError),
    /// The connection broke: the session ends.
    Frame(FrameError),
}

impl From<StorageError> for Failure {
    fn from(e: StorageError) -> Self {
        Failure::Storage(e)
    }
}

impl From<FrameError> for Failure {
    fn from(e: FrameError) -> Self {
        Failure::Frame(e)
    }
}

/// Rows per `Rows` frame for chunked result streams (GroupBy, Join).
const STREAM_BATCH_ROWS: usize = 4096;
