//! In-memory spans for the traced run, recorded around the benchmark's
//! own calls into each layer and written out when the run ends.
//!
//! A span has a name, a start and end (microseconds since the run's
//! epoch), an optional parent span and the id of the request it belongs
//! to. Counter deltas taken at the same boundaries ride on the span. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub counters: Vec<(&'static str, i64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// One thread's span recorder. Recorders share an epoch, so their spans
/// merge onto one timeline.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_us,
            end_us: f64::NAN,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let s = &mut self.spans[id];
        s.end_us = end;
        s.ms()
    }

    /// Times `f` as a closed span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, req, parent);
        let r = f();
        let ms = self.close(id);
        (r, ms)
    }

    pub fn counter(&mut self, id: usize, key: &'static str, value: i64) {
        self.spans[id].counters.push((key, value));
    }
}

/// Self time per span name, in milliseconds per span: each span's
/// duration minus the union of its children's intervals inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut ivs: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(s.start_us),
                    spans[c].end_us.min(s.end_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in ivs {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        out.entry(s.name)
            .or_default()
            .push(((s.end_us - s.start_us) - covered) / 1000.0);
    }
    out
}

/// Writes spans as JSON lines: one object per span, parent as an index
/// into the same file's line order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        writeln!(
            f,
            "{{\"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"counters\": {{{}}}}}",
            s.name,
            s.req,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_us,
            s.end_us,
            counters.join(", ")
        )?;
    }
    f.flush()
}

/// Appends `other`'s spans, re-basing their parent indices.
pub fn merge_into(all: &mut Vec<Span>, other: Vec<Span>) {
    let base = all.len();
    all.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}
