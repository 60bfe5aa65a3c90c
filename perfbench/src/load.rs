//! Closed-loop clients: each connection sends its next request only after
//! the previous reply has fully arrived, looping the fixed mix until the
//! deadline. Each request is timed twice: wall time, and the CPU time the
//! client thread and the server thread serving its connection spent on
//! it. The traced variant also replays every request in process and takes
//! cache-counter deltas at the wire request's boundaries.

use crate::mix::{self, Mix, Replay, Shape, ROTATION};
use crate::trace::Tracer;
use crate::util::{own_cpu_ms, speed_probe_ms, thread_ids, Digest, ThreadClock};
use cods::Cods;
use cods_server::{Client, ClientError};
use cods_storage::segment_cache;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// One completed wire request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub shape: Shape,
    /// Literal index of the request.
    pub k: usize,
    /// Send to last frame, milliseconds.
    pub ms: f64,
    /// CPU milliseconds the client thread and the connection's server
    /// thread ran between send and last frame; `None` when the server
    /// thread is unknown (after a reconnect).
    pub cpu_ms: Option<f64>,
    /// On the last request of a cycle: CPU ms of [`speed_probe_ms`], run
    /// after the cycle on the client thread.
    pub probe_ms: Option<f64>,
    pub reply: Result<Digest, String>,
    /// Traced runs only: the in-process replay and the cache deltas
    /// taken around the wire request.
    pub traced: Option<Traced>,
}

#[derive(Clone, Debug)]
pub struct Traced {
    /// Literal index of the replay (half a rotation away from `k`, so a
    /// replay never reads the segments its wire request just faulted in).
    pub replay_k: usize,
    pub replay: Result<Replay, String>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub decoded_bytes: u64,
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// A client connection and the CPU clock of the server thread that
/// serves it.
pub struct Conn {
    client: Client,
    session: Option<ThreadClock>,
}

impl Conn {
    /// Connects and finds the server's thread for the connection: the one
    /// thread of the process that appeared while connecting (the server
    /// spawns one per connection; a ping makes sure it runs). Open
    /// connections one at a time, while nothing else in the process
    /// starts threads.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let conn = Conn::open_any(addr)?;
        if conn.session.is_none() {
            return Err("could not tell which server thread serves the connection".into());
        }
        Ok(conn)
    }

    /// Like [`Conn::open`], but leaves the server thread unknown when more
    /// than one thread appeared.
    fn open_any(addr: SocketAddr) -> Result<Conn, String> {
        let before = thread_ids();
        let mut client = connect(addr)?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        let new: Vec<u32> = thread_ids().difference(&before).copied().collect();
        let session = match new[..] {
            [tid] => Some(ThreadClock::of(tid)),
            _ => None,
        };
        Ok(Conn { client, session })
    }

    /// CPU milliseconds of this thread plus the connection's server thread.
    fn cpu_ms(&self) -> Option<f64> {
        Some(own_cpu_ms() + self.session?.cpu_ms()?)
    }
}

/// A transport failure leaves the connection unusable; anything else (a
/// server error reply, `Overloaded`) keeps it.
fn connection_lost(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Frame(_) | ClientError::TornStream { .. } | ClientError::Protocol(_)
    )
}

/// Loops the mix on connection number `conn` until `deadline`, starting
/// its literal rotation `conn * ROTATION / 2` in. With `refresh`, the session
/// is re-pinned to the newest catalog version before every request
/// (outside the timed interval).
///
/// With a tracer, every other cycle is traced: its four wire requests run
/// back to back with cache-counter deltas taken at their boundaries, and
/// then each is replayed in process. Untraced and traced cycles
/// interleave, so their latency difference is the tracing overhead and
/// not drift.
pub fn client_loop(
    addr: SocketAddr,
    mix: &Mix,
    (conn, mut link): (usize, Conn),
    deadline: Instant,
    refresh: bool,
    mut trace: Option<(&mut Tracer, &Arc<Cods>)>,
) -> Result<Vec<Sample>, String> {
    let mut out: Vec<Sample> = Vec::new();
    let mut cycle = 0usize;
    let mut done = false;
    while !done {
        let traced_cycle = cycle % 2 == 1 && trace.is_some();
        let first = out.len();
        for shape in mix.cycle_order(conn, cycle) {
            if Instant::now() >= deadline {
                done = true;
                break;
            }
            let k = conn * ROTATION / 2 + cycle;
            if refresh {
                if let Err(e) = link.client.refresh() {
                    out.push(failed(shape, k, format!("refresh: {e}")));
                    link = Conn::open_any(addr)?;
                    continue;
                }
            }
            let before = segment_cache().stats();
            let span = trace
                .as_mut()
                .filter(|_| traced_cycle)
                .map(|(tr, _)| tr.open("client.request", out.len() as u64, None));
            let cpu0 = link.cpu_ms();
            let t0 = Instant::now();
            let reply = mix::wire(&mut link.client, mix, shape, k);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let cpu_ms = cpu0.zip(link.cpu_ms()).map(|(a, b)| b - a);
            let mut sample = Sample {
                shape,
                k,
                ms,
                cpu_ms,
                probe_ms: None,
                reply: Ok(Digest::default()),
                traced: None,
            };
            if let (Some((tr, _)), Some(span)) = (trace.as_mut(), span) {
                tr.close(span);
                let after = segment_cache().stats();
                let t = Traced {
                    replay_k: k + ROTATION / 2,
                    replay: Err("not replayed".into()),
                    hits: after.hits.saturating_sub(before.hits),
                    misses: after.misses.saturating_sub(before.misses),
                    evictions: after.evictions.saturating_sub(before.evictions),
                    decoded_bytes: after.decoded_bytes.saturating_sub(before.decoded_bytes),
                };
                for (key, v) in [
                    ("cache_hits", t.hits),
                    ("cache_misses", t.misses),
                    ("cache_evictions", t.evictions),
                    ("decoded_bytes", t.decoded_bytes),
                ] {
                    tr.counter(span, key, v as i64);
                }
                sample.traced = Some(t);
            }
            sample.reply = match reply {
                Ok(d) => Ok(d),
                Err(e) => {
                    // A transport failure leaves the connection unusable.
                    if connection_lost(&e) {
                        link = Conn::open_any(addr)?;
                    }
                    Err(e.to_string())
                }
            };
            out.push(sample);
        }
        if let Some((tr, cods)) = trace.as_mut().filter(|_| traced_cycle) {
            for (req, s) in out.iter_mut().enumerate().skip(first) {
                if let Some(t) = s.traced.as_mut() {
                    let root = tr.open("replay", req as u64, None);
                    t.replay = mix::replay(tr, req as u64, root, cods, mix, s.shape, t.replay_k)
                        .map_err(|e| e.to_string());
                    tr.close(root);
                }
            }
        }
        if out.len() > first {
            if let Some(last) = out.last_mut() {
                last.probe_ms = Some(speed_probe_ms());
            }
        }
        cycle += 1;
    }
    Ok(out)
}

fn failed(shape: Shape, k: usize, why: String) -> Sample {
    Sample {
        shape,
        k,
        ms: 0.0,
        cpu_ms: None,
        probe_ms: None,
        reply: Err(why),
        traced: None,
    }
}

/// Runs `conns` closed-loop connections in parallel until `deadline`.
pub fn run_connections(
    addr: SocketAddr,
    mix: &Mix,
    conns: usize,
    deadline: Instant,
    refresh: bool,
) -> Result<Vec<Sample>, String> {
    let links = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|s| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|c| s.spawn(move || client_loop(addr, mix, c, deadline, refresh, None)))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// Checks every wire reply (and every replay) against the row oracle;
/// returns the number of requests with a wrong or failed reply or replay
/// and prints the first few.
pub fn verify(samples: &[Sample], oracle: &mut mix::Oracle) -> u64 {
    let mut bad = 0u64;
    for s in samples {
        let wire = match &s.reply {
            Ok(d) if *d == oracle.expected(s.shape, s.k) => None,
            Ok(d) => Some(format!("got {d:?}")),
            Err(e) => Some(format!("failed: {e}")),
        };
        let replay = s.traced.as_ref().and_then(|t| match &t.replay {
            Ok(r) if r.digest == oracle.expected(s.shape, t.replay_k) => None,
            Ok(r) => Some(format!("replay k={} got {:?}", t.replay_k, r.digest)),
            Err(e) => Some(format!("replay failed: {e}")),
        });
        if wire.is_some() || replay.is_some() {
            if bad < 5 {
                eprintln!(
                    "perfbench: WRONG {:?} k={} want {:?}: {}",
                    s.shape,
                    s.k,
                    oracle.expected(s.shape, s.k),
                    [wire, replay]
                        .into_iter()
                        .flatten()
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
            bad += 1;
        }
    }
    bad
}
