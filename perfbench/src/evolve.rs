//! The `evolve_durable` workload: schema evolution beside reads on a
//! durable catalog. A writer connection loops DECOMPOSE, MERGE, ADD/DROP
//! COLUMN and PARTITION/UNION scripts on `R(entity, attr, detail)`, each
//! acknowledged only after its group fsync, and checkpoints the commit
//! log once per cycle; a reader connection loops the query mix on static
//! warehouse tables that exist at every committed version.

use crate::layers::Layers;
use crate::load::{self, Sample};
use crate::mix::{self, Mix, Size};
use crate::query::{print_self_times, warm_up};
use crate::report;
use crate::trace::{self, Tracer};
use crate::util::{
    dead_ratio, dir_bytes, file_len, logical_bytes, mean, median_or_zero, peak_rss_mb, percentile,
    sorted, Digest, Metric,
};
use crate::{Opts, Outcome};
use cods::{decompose, merge, Cods, DecomposeSpec, MergeStrategy};
use cods_server::{Client, Server, ServerConfig, ServerHandle};
use cods_storage::commitlog::spill_dir;
use cods_storage::persist::{encode_table, save_catalog};
use cods_storage::{clog_path, open_durable, wait_for_auto_vacuum, Catalog, CommitLog};
use cods_workload::gen::generate_table;
use cods_workload::GenConfig;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of `R`; one entity per ten rows (the high-distinct regime).
pub const R_ROWS: u64 = 65_536;
/// The reader's static warehouse tables.
pub const READER_SIZE: Size = Size {
    sales: 16_384,
    customers: 4_096,
    regions: 16,
};
/// The writer checkpoints after every cycle of this many commits.
const CYCLE: [Smo; 6] = [
    Smo::Decompose,
    Smo::Merge,
    Smo::AddColumn,
    Smo::DropColumn,
    Smo::Partition,
    Smo::Union,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Smo {
    Decompose,
    Merge,
    AddColumn,
    DropColumn,
    Partition,
    Union,
}

impl Smo {
    fn script(self) -> String {
        match self {
            Smo::Decompose => "DECOMPOSE TABLE R INTO S (entity, attr), T (entity, detail)".into(),
            Smo::Merge => "MERGE TABLES S, T INTO R; DROP TABLE S; DROP TABLE T".into(),
            Smo::AddColumn => "ADD COLUMN flag int DEFAULT 0 TO R".into(),
            Smo::DropColumn => "DROP COLUMN flag FROM R".into(),
            Smo::Partition => format!(
                "PARTITION TABLE R WHERE entity < {} INTO RA, RB",
                distinct() / 2
            ),
            Smo::Union => "UNION TABLES RA, RB INTO R; DROP TABLE RA; DROP TABLE RB".into(),
        }
    }

    /// Tables the script leaves behind (the SMO's output tables).
    fn outputs(self) -> &'static [&'static str] {
        match self {
            Smo::Decompose => &["S", "T"],
            Smo::Partition => &["RA", "RB"],
            _ => &["R"],
        }
    }
}

fn distinct() -> u64 {
    R_ROWS / 10
}

fn r_config(seed: u64) -> GenConfig {
    GenConfig {
        seed: seed ^ 0xC0D5,
        ..GenConfig::sweep_point(R_ROWS, distinct())
    }
}

/// A durable catalog served with its commit log.
pub struct Served {
    pub server: ServerHandle,
    pub cods: Arc<Cods>,
    pub log: CommitLog,
    pub mix: Mix,
    pub path: PathBuf,
    pub warm: Vec<Sample>,
    pub setup_s: f64,
    pub save_s: f64,
    pub open_s: f64,
}

pub fn setup(seed: u64, work: &Path, clock: Instant) -> Result<Served, String> {
    let mix = Mix::new(READER_SIZE, seed);
    let (sales, dim) = mix::generate(&mix, seed);
    let cat = Catalog::new();
    for t in [sales, dim, generate_table("R", &r_config(seed))] {
        cat.create(t).map_err(|e| format!("create: {e}"))?;
    }
    let path = work.join("evolve.cods");
    let t = Instant::now();
    save_catalog(&cat, &path).map_err(|e| format!("save_catalog: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    drop(cat);

    let t = Instant::now();
    let (cat, log, _replay) = open_durable(&path).map_err(|e| format!("open_durable: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    for t in cat.snapshot() {
        t.fault_in_all();
    }
    let cods = Arc::new(Cods::with_catalog(cat));
    let config = ServerConfig {
        commit_log: Some(log.clone()),
        ..ServerConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), config).map_err(|e| format!("bind: {e}"))?;
    let warm = warm_up(server.local_addr(), &mix)?;
    Ok(Served {
        server,
        cods,
        log,
        mix,
        path,
        warm,
        setup_s: clock.elapsed().as_secs_f64(),
        save_s,
        open_s,
    })
}

/// One acknowledged (or failed) script.
#[derive(Clone, Debug)]
struct SmoSample {
    kind: Smo,
    ms: f64,
    reply: Result<(), String>,
    /// Bytes the commit log (file + spills) grew by.
    log_bytes: u64,
    /// Sent in a traced cycle.
    traced: bool,
}

/// Everything the writer measured.
#[derive(Default)]
struct Writer {
    samples: Vec<SmoSample>,
    checkpoint_ms: Vec<f64>,
    /// (catalog file + commit log + spill dir) / live logical bytes,
    /// sampled after every acknowledged script.
    disk_ratio: Vec<f64>,
    /// Bytes the commit log (file + spills) grew by, over all scripts.
    log_growth: u64,
    commits: u64,
    fsyncs: u64,
    fsync_us: u64,
    plan_ms: Vec<f64>,
    decompose_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    elapsed_s: f64,
}

struct Files {
    catalog: PathBuf,
    clog: PathBuf,
    spills: PathBuf,
}

impl Files {
    fn new(path: &Path) -> Files {
        Files {
            catalog: path.to_path_buf(),
            clog: clog_path(path),
            spills: spill_dir(path),
        }
    }

    fn log_bytes(&self) -> u64 {
        file_len(&self.clog) + dir_bytes(&self.spills)
    }

    fn total(&self) -> u64 {
        file_len(&self.catalog) + self.log_bytes()
    }
}

/// Loops whole SMO cycles until `deadline` (finishing the cycle it is
/// in, so `R` exists when it returns), checkpointing after each cycle
/// except the last — whose records the reopen check then replays. With a
/// tracer, every other cycle is traced.
fn writer_loop(
    addr: SocketAddr,
    served: &Served,
    deadline: Instant,
    mut tr: Option<&mut Tracer>,
) -> Result<Writer, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let files = Files::new(&served.path);
    let cods = &served.cods;
    let mut w = Writer::default();
    let t_start = Instant::now();
    let mut req = 1u64 << 40;
    let mut cycle = 0usize;
    while Instant::now() < deadline {
        let mut tr = tr.as_deref_mut().filter(|_| cycle % 2 == 1);
        cycle += 1;
        for kind in CYCLE {
            req += 1;
            let text = kind.script();
            if let Some(tr) = tr.as_deref_mut() {
                replay_before(tr, req, cods, kind, &text, &mut w)?;
            }
            let stats0 = served.log.stats();
            let log0 = files.log_bytes();
            let span = tr
                .as_deref_mut()
                .map(|tr| tr.open("client.script", req, None));
            let t0 = Instant::now();
            let reply = client.script(&text).map(|_| ()).map_err(|e| e.to_string());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats1 = served.log.stats();
            let grew = files.log_bytes().saturating_sub(log0);
            let commits = stats1.commits - stats0.commits;
            let fsyncs = stats1.fsyncs - stats0.fsyncs;
            let fsync_us = stats1.fsync_micros - stats0.fsync_micros;
            if let (Some(tr), Some(span)) = (tr.as_deref_mut(), span) {
                tr.close(span);
                tr.counter(span, "commits", commits as i64);
                tr.counter(span, "fsyncs", fsyncs as i64);
                tr.counter(span, "fsync_us", fsync_us as i64);
                tr.counter(span, "log_bytes", grew as i64);
            }
            w.log_growth += grew;
            w.commits += commits;
            w.fsyncs += fsyncs;
            w.fsync_us += fsync_us;
            let failed = reply.is_err();
            w.samples.push(SmoSample {
                kind,
                ms,
                reply,
                log_bytes: grew,
                traced: tr.is_some(),
            });
            if failed {
                // Later scripts of the cycle depend on this one: stop the
                // writer and let the failure count.
                eprintln!("perfbench: script failed: {text}");
                w.elapsed_s = t_start.elapsed().as_secs_f64();
                return Ok(w);
            }
            if let Some(tr) = tr.as_deref_mut() {
                encode_outputs(tr, req, cods, kind, &mut w)?;
            }
            let live: u64 = cods
                .catalog()
                .snapshot()
                .iter()
                .map(|t| logical_bytes(t))
                .sum();
            w.disk_ratio.push(files.total() as f64 / live.max(1) as f64);
        }
        if Instant::now() < deadline {
            let span = tr
                .as_mut()
                .map(|tr| tr.open("commitlog.checkpoint", req, None));
            let t0 = Instant::now();
            served
                .log
                .checkpoint(cods.catalog())
                .map_err(|e| format!("checkpoint: {e}"))?;
            w.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let (Some(tr), Some(span)) = (tr.as_mut(), span) {
                tr.close(span);
            }
        }
    }
    w.elapsed_s = t_start.elapsed().as_secs_f64();
    Ok(w)
}

/// Traced runs: before each script, time its planning alone
/// (`Cods::plan_script`, no execution) and, for DECOMPOSE and MERGE, the
/// core operator in process on the same input tables (not committed).
fn replay_before(
    tr: &mut Tracer,
    req: u64,
    cods: &Cods,
    kind: Smo,
    text: &str,
    w: &mut Writer,
) -> Result<(), String> {
    let (plan, ms) = tr.span("core.plan", req, None, || {
        cods.plan_script(text).map(|_| ())
    });
    plan.map_err(|e| format!("plan_script: {e}"))?;
    w.plan_ms.push(ms);
    let table = |n: &str| cods.table(n).map_err(|e| format!("table {n}: {e}"));
    match kind {
        Smo::Decompose => {
            let r = table("R")?;
            let spec = DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]);
            let (out, ms) = tr.span("core.decompose", req, None, || decompose(&r, &spec));
            out.map_err(|e| format!("decompose: {e}"))?;
            w.decompose_ms.push(ms);
        }
        Smo::Merge => {
            let (s, t) = (table("S")?, table("T")?);
            let (out, ms) = tr.span("core.merge", req, None, || {
                merge(&s, &t, "R", &MergeStrategy::Auto)
            });
            out.map_err(|e| format!("merge: {e}"))?;
            w.merge_ms.push(ms);
        }
        _ => {}
    }
    Ok(())
}

/// Traced runs: after each acknowledged script, time `encode_table` on
/// the tables it produced — the image work every commit record carries.
fn encode_outputs(
    tr: &mut Tracer,
    req: u64,
    cods: &Cods,
    kind: Smo,
    w: &mut Writer,
) -> Result<(), String> {
    let tables = kind
        .outputs()
        .iter()
        .map(|n| cods.table(n).map_err(|e| format!("table {n}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (_, ms) = tr.span("storage.encode", req, None, || {
        tables.iter().map(|t| encode_table(t).len()).sum::<usize>()
    });
    w.encode_ms.push(ms);
    Ok(())
}

/// Runs the writer and the reader side by side until `deadline`.
fn run_phase(
    served: &Served,
    deadline: Instant,
    traced: bool,
    epoch: Instant,
) -> Result<(Writer, Vec<Sample>, Vec<trace::Span>), String> {
    let addr = served.server.local_addr();
    let mut wtr = Tracer::new(epoch);
    let mut rtr = Tracer::new(epoch);
    // Opened before the writer connects, so its server thread is known.
    let link = load::Conn::open(addr)?;
    let (w, r) = std::thread::scope(|s| {
        let wtr = &mut wtr;
        let rtr = &mut rtr;
        let writer = s.spawn(move || writer_loop(addr, served, deadline, traced.then_some(wtr)));
        let reader = s.spawn(move || {
            let trace = traced.then_some((rtr, &served.cods));
            load::client_loop(addr, &served.mix, (0, link), deadline, true, trace)
        });
        (writer.join(), reader.join())
    });
    let w = w.map_err(|_| "writer thread panicked".to_string())??;
    let r = r.map_err(|_| "reader thread panicked".to_string())??;
    let mut spans = wtr.spans;
    trace::merge_into(&mut spans, rtr.spans);
    Ok((w, r, spans))
}

/// Per SMO kind: median acknowledged latency and mean commit-log bytes
/// (printed only; the numbers behind the full-image commit cost).
fn smo_kind_metrics(w: &Writer) -> Vec<Metric> {
    let mut out = Vec::new();
    for kind in CYCLE {
        let ok: Vec<&SmoSample> = w
            .samples
            .iter()
            .filter(|s| s.kind == kind && s.reply.is_ok())
            .collect();
        let ms: Vec<f64> = ok.iter().map(|s| s.ms).collect();
        let bytes: Vec<f64> = ok.iter().map(|s| s.log_bytes as f64).collect();
        let name = format!("{kind:?}").to_lowercase();
        out.push(Metric::new(
            &format!("smo.{name}_p50_ms"),
            median_or_zero(&ms),
            "ms",
            ms.len(),
        ));
        out.push(Metric::new(
            &format!("smo.{name}_log_bytes"),
            mean(&bytes),
            "B",
            bytes.len(),
        ));
    }
    out
}

fn smo_metrics(w: &Writer) -> Vec<Metric> {
    let ok = |k: Option<Smo>| {
        sorted(
            w.samples
                .iter()
                .filter(|s| s.reply.is_ok() && k.is_none_or(|k| s.kind == k))
                .map(|s| s.ms)
                .collect(),
        )
    };
    let (dec, mer, all) = (ok(Some(Smo::Decompose)), ok(Some(Smo::Merge)), ok(None));
    vec![
        Metric::new("decompose_p50_ms", percentile(&dec, 0.5), "ms", dec.len()),
        Metric::new("merge_p50_ms", percentile(&mer, 0.5), "ms", mer.len()),
        Metric::new("smo_commit_p90_ms", percentile(&all, 0.9), "ms", all.len()),
        Metric::new(
            "smo_ops_per_s",
            all.len() as f64 / w.elapsed_s,
            "ops/s",
            all.len(),
        ),
    ]
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let served = setup(opts.seed, &opts.work, opts.clock)?;
    eprintln!(
        "perfbench: writer + reader connections; R {} rows / {} entities, reader tables {} sales rows; flush policy: group commit, one fsync per batch (shipped default), checkpoint every {} commits, auto-vacuum default",
        R_ROWS,
        distinct(),
        READER_SIZE.sales,
        CYCLE.len()
    );
    let mut out = Outcome {
        setup_s: served.setup_s,
        ..Outcome::default()
    };
    let (w, r) = if !opts.trace {
        let t0 = Instant::now();
        let (w, r, _) = run_phase(
            &served,
            t0 + Duration::from_secs_f64(opts.seconds),
            false,
            opts.clock,
        )?;
        let elapsed = t0.elapsed().as_secs_f64();
        out.peak_rss_mb = peak_rss_mb();
        (out.e2e, out.extra) = report::query_metrics(&r, elapsed);
        out.e2e.push(Metric::new(
            "disk_bytes_per_user_byte",
            mean(&w.disk_ratio),
            "ratio",
            w.disk_ratio.len(),
        ));
        out.extra.extend(smo_metrics(&w));
        out.extra.extend(smo_kind_metrics(&w));
        (w, r)
    } else {
        let mut admin =
            Client::connect(served.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let m0 = admin.metrics().map_err(|e| format!("metrics: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let (w, r, spans) = run_phase(&served, deadline, true, opts.clock)?;
        let m1 = admin.metrics().map_err(|e| format!("metrics: {e}"))?;
        let mut l = Layers {
            save_s: served.save_s,
            open_s: served.open_s,
            ..Layers::default()
        };
        l.add_query_samples(&r);
        l.add_server_counters(&m0, &m1);
        l.encode_ms_per_smo = mean(&w.encode_ms);
        l.commits_per_fsync = w.commits as f64 / w.fsyncs.max(1) as f64;
        l.fsync_ms_per_commit = w.fsync_us as f64 / 1e3 / w.commits.max(1) as f64;
        l.bytes_per_commit = w.log_growth as f64 / w.commits.max(1) as f64;
        l.checkpoint_ms = median_or_zero(&w.checkpoint_ms);
        l.decompose_ms = median_or_zero(&w.decompose_ms);
        l.merge_ms = median_or_zero(&w.merge_ms);
        l.plan_ms = median_or_zero(&w.plan_ms);
        // Wire latency of every request, writer and reader, in traced
        // cycles minus untraced ones.
        let wire_mean = |traced: bool| {
            let writes = w
                .samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| (s.ms, s.reply.is_ok()));
            let reads = r
                .iter()
                .filter(|s| s.traced.is_some() == traced)
                .map(|s| (s.ms, s.reply.is_ok()));
            let v: Vec<f64> = writes
                .chain(reads)
                .filter(|(_, ok)| *ok)
                .map(|(ms, _)| ms)
                .collect();
            mean(&v)
        };
        l.overhead_ms = wire_mean(true) - wire_mean(false);
        l.n_traced += w.samples.iter().filter(|s| s.traced).count();
        trace::write_jsonl(&opts.trace_out, &spans).map_err(|e| format!("trace: {e}"))?;
        print_self_times(&spans);
        out.layers = Some(l);
        out.extra = smo_kind_metrics(&w);
        (w, r)
    };
    let smo_failed = w.samples.iter().filter(|s| s.reply.is_err()).count();
    let mut checked: Vec<Sample> = served.warm.clone();
    checked.extend(r);
    out.attempted = (checked.len() + w.samples.len()) as u64;
    let mut oracle = mix::Oracle::new(served.mix, opts.seed);
    out.failed = load::verify(&checked, &mut oracle) + smo_failed as u64;
    out.failed += check_durable_state(served, opts.seed, out.layers.as_mut())?;
    Ok(out)
}

/// After the run: `R` holds its original row multiset, and reopening the
/// files with `open_durable` (replaying the last cycle's records) gives
/// every table an `encode_table` image byte-identical to the live one.
/// Returns the number of violations.
fn check_durable_state(
    served: Served,
    seed: u64,
    layers: Option<&mut Layers>,
) -> Result<u64, String> {
    let mut bad = 0u64;
    let r = served
        .cods
        .table("R")
        .map_err(|e| format!("table R: {e}"))?;
    let want = Digest::of(&generate_table("R", &r_config(seed)).to_rows());
    if Digest::of(&r.to_rows()) != want {
        eprintln!("perfbench: WRONG R lost its row multiset across the SMO cycles");
        bad += 1;
    }
    let images: Vec<(String, Vec<u8>)> = served
        .cods
        .catalog()
        .snapshot()
        .iter()
        .map(|t| (t.name().to_string(), encode_table(t).to_vec()))
        .collect();
    let Served {
        mut server,
        cods,
        log,
        path,
        ..
    } = served;
    server.shutdown();
    drop((server, cods, log, r));
    wait_for_auto_vacuum();
    if let Some(l) = layers {
        l.dead_ratio = dead_ratio(&path)?;
    }
    let t = Instant::now();
    let (cat, _log, replay) = open_durable(&path).map_err(|e| format!("reopen: {e}"))?;
    eprintln!(
        "perfbench: reopen replayed {} record(s) in {:.3} s",
        replay.replayed,
        t.elapsed().as_secs_f64()
    );
    let mut names = cat.table_names();
    names.sort();
    let mut want_names: Vec<String> = images.iter().map(|(n, _)| n.clone()).collect();
    want_names.sort();
    if names != want_names {
        eprintln!("perfbench: WRONG reopened tables {names:?}, live {want_names:?}");
        bad += 1;
    }
    for (name, image) in &images {
        match cat.get(name) {
            Ok(t) if encode_table(&t).as_slice() == image.as_slice() => {}
            _ => {
                eprintln!("perfbench: WRONG table {name} differs after reopen");
                bad += 1;
            }
        }
    }
    Ok(bad)
}
