//! End-to-end benchmark of the CODS server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query_hot|query_paged|evolve_durable> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against an in-process `cods_server::Server` on
//! loopback, checks every reply against a row oracle, prints every metric
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! cycles and reports the per-layer metrics. Exits non-zero on any wrong
//! answer. See `perfbench/README.md`.

mod evolve;
mod layers;
mod load;
mod mix;
mod query;
mod report;
mod trace;
mod util;

use layers::Layers;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use util::{median, Metric, WorkDir};

/// Setups run in fresh child processes before the measured one; with it
/// they give `setup_s` its median.
const SETUP_PROBES: usize = 2;

const WORKLOADS: [&str; 3] = ["query_hot", "query_paged", "evolve_durable"];

/// Settings of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop client connections: `nproc`, counted before the process
    /// binds itself to one CPU.
    pub conns: usize,
    /// Scratch directory for catalog files, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
    /// Started when the process did: `setup_s` runs from here.
    pub clock: Instant,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    /// Printed only: metrics of one workload's writer.
    pub extra: Vec<Metric>,
    pub layers: Option<Layers>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut probe) =
        (None, 1u64, 10.0, false, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--probe-setup" => probe = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        probe,
    })
}

/// Child mode: set the workload up, report the set-up time, tear down.
fn probe_setup(args: &Args, opts: &Opts) -> Result<(), String> {
    let setup_s = match args.workload.as_str() {
        "evolve_durable" => evolve::setup(args.seed, &opts.work, opts.clock)?.setup_s,
        w => query::setup(w == "query_paged", args.seed, &opts.work, opts.clock)?.setup_s,
    };
    println!("SETUP_S {setup_s:?}");
    Ok(())
}

/// Runs [`SETUP_PROBES`] set-ups, each in a fresh process, one after the
/// other; returns their set-up times.
fn run_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..SETUP_PROBES {
        let child = Command::new(&exe)
            .args(["--probe-setup", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("probe: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let v = text
            .lines()
            .find_map(|l| l.strip_prefix("SETUP_S "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| child.status.success())
            .ok_or_else(|| format!("probe failed ({}): {text}", child.status))?;
        out.push(v);
    }
    Ok(out)
}

fn run(args: &Args, clock: Instant, nproc: usize) -> Result<(Outcome, Vec<f64>), String> {
    let base = PathBuf::from(".perfbench");
    let work = WorkDir::create(base.join(format!("work-{}", std::process::id())))
        .map_err(|e| format!("work dir: {e}"))?;
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        conns: nproc,
        work: work.0.clone(),
        trace_out: base.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)),
        clock,
    };
    if args.probe {
        probe_setup(args, &opts)?;
        return Ok((Outcome::default(), Vec::new()));
    }
    let probes = if args.trace {
        Vec::new()
    } else {
        run_probes(args)?
    };
    // The measured set-up starts after the probes have exited.
    let opts = Opts {
        clock: Instant::now(),
        ..opts
    };
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "evolve_durable" => evolve::run(&opts)?,
        w => query::run(w == "query_paged", &opts)?,
    };
    Ok((outcome, probes))
}

fn main() -> ExitCode {
    let clock = Instant::now();
    util::one_malloc_arena();
    // Read before the process binds itself to one CPU.
    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get());
    if let Err(e) = util::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, probes) = match run(&args, clock, nproc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            return ExitCode::from(1);
        }
    };
    if args.probe {
        return ExitCode::SUCCESS;
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let metrics: Vec<Metric> = match &out.layers {
        Some(l) => {
            let m = l.metrics();
            let mut shown = m.clone();
            shown.push(Metric::new("setup_s (this run)", out.setup_s, "s", 1));
            shown.extend(out.extra.iter().cloned());
            report::print_table(&format!("{} per-layer (traced)", args.workload), &shown);
            m
        }
        None => {
            let mut setups = probes.clone();
            setups.push(out.setup_s);
            let mut m = out.e2e.clone();
            m.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
            m.push(Metric::new("peak_rss_mb", out.peak_rss_mb, "MiB", 1));
            let mut shown = m.clone();
            shown.extend(out.extra.iter().cloned());
            shown.push(Metric::new(
                "failed_frac",
                failed_frac,
                "ratio",
                out.attempted as usize,
            ));
            report::print_table(&format!("{} end-to-end", args.workload), &shown);
            m
        }
    };
    let correct = out.failed == 0;
    println!(
        "{}",
        util::result_json(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong or failed request(s)", out.failed);
        ExitCode::from(1)
    }
}
