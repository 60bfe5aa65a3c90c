//! End-to-end metrics from wire samples, and the printed report.

use crate::load::Sample;
use crate::mix::MIX;
use crate::util::{median, percentile, sorted, Metric};

/// The query metrics over successful requests, split into the end-to-end
/// metrics `BENCHMARK.json` lists and those only printed.
///
/// Listed: `<shape>_cpu_probes`, each shape's median CPU time (client
/// thread plus the connection's server thread) over the median CPU time
/// of the benchmark's fixed speed probe in the same run. The host's speed
/// moved CPU times of the same code by up to 2.2x between runs, and the
/// ratio cancels that. The group-by shapes are reported apart: they cost
/// different amounts, and the median of an even mix of the two would fall
/// in the gap between them.
///
/// Printed: wall-time p50 and p90 per class, raw CPU p50 and p90 per
/// shape, the probe's median, and completed query requests per second.
pub fn query_metrics(samples: &[Sample], elapsed_s: f64) -> (Vec<Metric>, Vec<Metric>) {
    let ok = || samples.iter().filter(|s| s.reply.is_ok());
    let (mut listed, mut printed) = (Vec::new(), Vec::new());
    for class in ["scan", "groupby", "join"] {
        let wall = sorted(
            ok().filter(|s| s.shape.class() == class)
                .map(|s| s.ms)
                .collect(),
        );
        for (q, name) in [(0.5, "p50"), (0.9, "p90")] {
            printed.push(Metric::new(
                &format!("{class}_{name}_ms"),
                percentile(&wall, q),
                "ms",
                wall.len(),
            ));
        }
    }
    let probes: Vec<f64> = samples.iter().filter_map(|s| s.probe_ms).collect();
    let probe_ms = median(&probes);
    printed.push(Metric::new("probe_ms", probe_ms, "ms", probes.len()));
    for shape in MIX {
        let cpu = sorted(
            ok().filter(|s| s.shape == shape)
                .filter_map(|s| s.cpu_ms)
                .collect(),
        );
        let name = shape.name();
        let p50 = percentile(&cpu, 0.5);
        listed.push(Metric::new(
            &format!("{name}_cpu_probes"),
            p50 / probe_ms,
            "probes",
            cpu.len(),
        ));
        printed.push(Metric::new(&format!("{name}_cpu_ms"), p50, "ms", cpu.len()));
        printed.push(Metric::new(
            &format!("{name}_cpu_p90_ms"),
            percentile(&cpu, 0.9),
            "ms",
            cpu.len(),
        ));
    }
    let n = ok().count();
    printed.push(Metric::new(
        "query_ops_per_s",
        n as f64 / elapsed_s,
        "ops/s",
        n,
    ));
    (listed, printed)
}

/// Prints one line per metric: name, value, unit and sample count. A
/// percentile with fewer than ten samples beyond it is flagged.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        let thin = m.name.ends_with("p90_ms") && m.samples < 100
            || (m.name.ends_with("_p50_ms") || m.name.contains("_cpu_")) && m.samples < 20;
        println!(
            "  {:<34} {:>14.4} {:<7} n={}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if thin {
                "  (fewer than 10 samples beyond this percentile)"
            } else {
                ""
            }
        );
    }
}

/// Mean wire latency of successful requests in traced cycles minus that
/// in untraced cycles: the tracing overhead.
pub fn overhead_ms(samples: &[Sample]) -> f64 {
    let mean_of = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.reply.is_ok() && s.traced.is_some() == traced)
            .map(|s| s.ms)
            .collect();
        crate::util::mean(&v)
    };
    mean_of(true) - mean_of(false)
}
