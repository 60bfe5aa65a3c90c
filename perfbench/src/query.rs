//! The `query_hot` and `query_paged` workloads: the warehouse catalog is
//! saved, reopened lazily, and served over loopback; closed-loop
//! connections loop the four-shape mix. `query_hot` runs with an
//! unlimited segment-cache budget (after warm-up nothing faults);
//! `query_paged` runs with a budget far below the decoded payload, so
//! every request faults and evicts and the join's partition count rises.

use crate::layers::Layers;
use crate::load::{self, Sample};
use crate::mix::{self, Mix, Size, DIM, MIX, SALES};
use crate::report;
use crate::trace::{self, Tracer};
use crate::util::{dead_ratio, file_len, logical_bytes, peak_rss_mb, Metric};
use crate::{Opts, Outcome};
use cods::Cods;
use cods_server::{Client, Server, ServerConfig, ServerHandle};
use cods_storage::persist::{read_catalog, save_catalog};
use cods_storage::{segment_cache, Catalog};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Catalog size of both query workloads.
pub const SIZE: Size = Size {
    sales: 32_768,
    customers: 8_192,
    regions: 16,
};

/// The paged workload's cache holds 1/PAGED_BUDGET_SHARE of the decoded
/// payload (about 15 KB): too little to keep any segment a request reads
/// until its next request, so every payload touch faults and decodes; and
/// less than the join's build estimate (about 20 KB), so the join runs
/// more than one partition pass.
const PAGED_BUDGET_SHARE: u64 = 256;

/// Closed-loop connections: `nproc`, except one on the paged workload,
/// where each request is 10–110 ms of fault + decode and a second
/// connection's requests would evict and fault in its segments.
fn conns(paged: bool, opts: &Opts) -> usize {
    if paged {
        1
    } else {
        opts.conns
    }
}

/// A served catalog, ready for its first timed request.
pub struct Served {
    pub server: ServerHandle,
    pub cods: Arc<Cods>,
    pub mix: Mix,
    pub path: PathBuf,
    /// The untimed warm-up requests (checked like the timed ones).
    pub warm: Vec<Sample>,
    pub setup_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub payload_bytes: u64,
    pub logical_bytes: u64,
}

/// Generates, saves, reopens lazily, warms and serves the catalog.
/// `clock` started when the process did; `setup_s` runs from it to here.
pub fn setup(paged: bool, seed: u64, work: &Path, clock: Instant) -> Result<Served, String> {
    let mix = Mix::new(SIZE, seed);
    let (sales, dim) = mix::generate(&mix, seed);
    let logical = logical_bytes(&sales) + logical_bytes(&dim);
    let cat = Catalog::new();
    cat.create(sales).map_err(|e| format!("create: {e}"))?;
    cat.create(dim).map_err(|e| format!("create: {e}"))?;
    let path = work.join("warehouse.cods");

    let t = Instant::now();
    save_catalog(&cat, &path).map_err(|e| format!("save_catalog: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    drop(cat);

    let t = Instant::now();
    let cat = read_catalog(&path).map_err(|e| format!("read_catalog: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();

    // Fault everything in once: the resident growth is the decoded
    // payload. The paged workload then sweeps down to its budget.
    let before = segment_cache().stats().resident_bytes;
    for name in [SALES, DIM] {
        cat.get(name)
            .map_err(|e| format!("get: {e}"))?
            .fault_in_all();
    }
    let payload_bytes = segment_cache().stats().resident_bytes - before;
    if paged {
        segment_cache().set_budget(payload_bytes / PAGED_BUDGET_SHARE);
    }

    let cods = Arc::new(Cods::with_catalog(cat));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let warm = warm_up(server.local_addr(), &mix)?;
    Ok(Served {
        server,
        cods,
        mix,
        path,
        warm,
        setup_s: clock.elapsed().as_secs_f64(),
        save_s,
        open_s,
        payload_bytes,
        logical_bytes: logical,
    })
}

/// One untimed pass over the mix on one connection.
pub fn warm_up(addr: std::net::SocketAddr, mix: &Mix) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    Ok(MIX
        .iter()
        .map(|&shape| Sample {
            shape,
            k: 0,
            ms: 0.0,
            cpu_ms: None,
            probe_ms: None,
            reply: mix::wire(&mut client, mix, shape, 0).map_err(|e| e.to_string()),
            traced: None,
        })
        .collect())
}

pub fn run(paged: bool, opts: &Opts) -> Result<Outcome, String> {
    let served = setup(paged, opts.seed, &opts.work, opts.clock)?;
    let addr = served.server.local_addr();
    let budget = segment_cache().stats().budget;
    eprintln!(
        "perfbench: {} connection(s); {} sales rows, {} customers; decoded payload {} B, cache budget {}, catalog file {} B",
        if opts.trace { 1 } else { conns(paged, opts) },
        SIZE.sales,
        SIZE.customers,
        served.payload_bytes,
        if budget == u64::MAX {
            "unlimited".to_string()
        } else {
            format!("{budget} B")
        },
        file_len(&served.path)
    );
    let mut out = Outcome {
        setup_s: served.setup_s,
        ..Outcome::default()
    };
    let mut checked: Vec<Sample> = served.warm.clone();
    if !opts.trace {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(opts.seconds);
        let samples =
            load::run_connections(addr, &served.mix, conns(paged, opts), deadline, false)?;
        let elapsed = t0.elapsed().as_secs_f64();
        out.peak_rss_mb = peak_rss_mb();
        (out.e2e, out.extra) = report::query_metrics(&samples, elapsed);
        out.e2e.push(Metric::new(
            "disk_bytes_per_user_byte",
            file_len(&served.path) as f64 / served.logical_bytes as f64,
            "ratio",
            1,
        ));
        checked.extend(samples);
    } else {
        let mut admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let m0 = admin.metrics().map_err(|e| format!("metrics: {e}"))?;
        // One connection, so counter deltas at a request's boundaries are
        // that request's own.
        let mut tr = Tracer::new(opts.clock);
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let samples = load::client_loop(
            addr,
            &served.mix,
            (0, load::Conn::open(addr)?),
            deadline,
            false,
            Some((&mut tr, &served.cods)),
        )?;
        let m1 = admin.metrics().map_err(|e| format!("metrics: {e}"))?;
        let mut layers = Layers {
            save_s: served.save_s,
            open_s: served.open_s,
            ..Layers::default()
        };
        layers.add_query_samples(&samples);
        layers.add_server_counters(&m0, &m1);
        layers.overhead_ms = report::overhead_ms(&samples);
        layers.dead_ratio = dead_ratio(&served.path)?;
        trace::write_jsonl(&opts.trace_out, &tr.spans).map_err(|e| format!("trace: {e}"))?;
        print_self_times(&tr.spans);
        out.layers = Some(layers);
        checked.extend(samples);
    }
    out.attempted = checked.len() as u64;
    let mut oracle = mix::Oracle::new(served.mix, opts.seed);
    out.failed = load::verify(&checked, &mut oracle);
    drop(served);
    Ok(out)
}

/// Prints each span name's median self time (its duration minus the part
/// its children cover).
pub fn print_self_times(spans: &[trace::Span]) {
    println!("== span self times (median ms, spans)");
    for (name, v) in trace::self_times(spans) {
        println!(
            "  {:<34} {:>14.4} n={}",
            name,
            crate::util::median(&v),
            v.len()
        );
    }
}
