//! The per-layer metrics of the traced run, one field per metric. A
//! layer a workload does not exercise reports 0 (for example the commit
//! log on the read-only query workloads).

use crate::load::Sample;
use crate::mix::Shape;
use crate::util::{median_or_zero as med, Metric};
use cods_server::MetricsReply;

#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub server_self_ms: f64,
    pub server_bytes_per_row: f64,
    pub server_rejected: f64,
    pub query_mask_ms: f64,
    pub query_scan_stream_ms: f64,
    pub query_agg_ms: f64,
    pub query_join_ms: f64,
    pub query_join_passes: f64,
    pub cache_hit_ratio: f64,
    pub faults_per_query: f64,
    pub evictions_per_query: f64,
    pub decoded_mb_per_query: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub encode_ms_per_smo: f64,
    pub commits_per_fsync: f64,
    pub fsync_ms_per_commit: f64,
    pub bytes_per_commit: f64,
    pub checkpoint_ms: f64,
    pub dead_ratio: f64,
    pub decompose_ms: f64,
    pub merge_ms: f64,
    pub plan_ms: f64,
    pub overhead_ms: f64,
    /// Samples behind each timing (for the printed report).
    pub n_traced: usize,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.n_traced;
        let m = |name: &str, v: f64, unit: &'static str| Metric::new(name, v, unit, n);
        vec![
            m("server.self_ms", self.server_self_ms, "ms"),
            m("server.bytes_per_row", self.server_bytes_per_row, "B/row"),
            m("server.rejected", self.server_rejected, "count"),
            m("query.mask_ms", self.query_mask_ms, "ms"),
            m("query.scan_stream_ms", self.query_scan_stream_ms, "ms"),
            m("query.agg_ms", self.query_agg_ms, "ms"),
            m("query.join_ms", self.query_join_ms, "ms"),
            m("query.join_passes", self.query_join_passes, "count"),
            m("storage.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            m("storage.faults_per_query", self.faults_per_query, "count"),
            m(
                "storage.evictions_per_query",
                self.evictions_per_query,
                "count",
            ),
            m(
                "storage.decoded_mb_per_query",
                self.decoded_mb_per_query,
                "MiB",
            ),
            m("storage.save_s", self.save_s, "s"),
            m("storage.open_s", self.open_s, "s"),
            m("storage.encode_ms_per_smo", self.encode_ms_per_smo, "ms"),
            m(
                "commitlog.commits_per_fsync",
                self.commits_per_fsync,
                "ratio",
            ),
            m(
                "commitlog.fsync_ms_per_commit",
                self.fsync_ms_per_commit,
                "ms",
            ),
            m("commitlog.bytes_per_commit", self.bytes_per_commit, "B"),
            m("commitlog.checkpoint_ms", self.checkpoint_ms, "ms"),
            m("vacuum.dead_ratio", self.dead_ratio, "ratio"),
            m("core.decompose_ms", self.decompose_ms, "ms"),
            m("core.merge_ms", self.merge_ms, "ms"),
            m("core.plan_ms", self.plan_ms, "ms"),
            m("trace.overhead_ms", self.overhead_ms, "ms"),
        ]
    }

    /// Fills the server, query and storage-cache layers from the samples
    /// of a traced run: medians of the in-process layer calls, cache
    /// counters summed over the traced wire requests' boundaries, and the
    /// server's own time as the untraced scans' median client time minus
    /// the median in-process time of the same layer calls.
    pub fn add_query_samples(&mut self, samples: &[Sample]) {
        let plain_scans: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced.is_none() && s.shape == Shape::Scan && s.reply.is_ok())
            .map(|s| s.ms)
            .collect();
        let (mut mask, mut stream, mut agg, mut join, mut passes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut hits, mut misses, mut evictions, mut decoded, mut n) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for s in samples {
            let Some(t) = &s.traced else { continue };
            n += 1;
            hits += t.hits;
            misses += t.misses;
            evictions += t.evictions;
            decoded += t.decoded_bytes;
            let Ok(r) = &t.replay else { continue };
            mask.extend(r.mask_ms);
            stream.extend(r.stream_ms);
            agg.extend(r.agg_ms);
            join.extend(r.join_ms);
            passes.extend(r.join_passes.map(f64::from));
        }
        let per_query = |v: u64| if n == 0 { 0.0 } else { v as f64 / n as f64 };
        self.server_self_ms = if stream.is_empty() {
            0.0
        } else {
            med(&plain_scans) - med(&stream)
        };
        self.query_mask_ms = med(&mask);
        self.query_scan_stream_ms = med(&stream);
        self.query_agg_ms = med(&agg);
        self.query_join_ms = med(&join);
        self.query_join_passes = med(&passes);
        self.cache_hit_ratio = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        self.faults_per_query = per_query(misses);
        self.evictions_per_query = per_query(evictions);
        self.decoded_mb_per_query = per_query(decoded) / (1024.0 * 1024.0);
        self.n_traced += n as usize;
    }

    /// Fills the server layer's counters from `Client::metrics` snapshots
    /// taken before and after the run.
    pub fn add_server_counters(&mut self, before: &MetricsReply, after: &MetricsReply) {
        let rows = after.rows_streamed.saturating_sub(before.rows_streamed);
        let bytes = after.bytes_streamed.saturating_sub(before.bytes_streamed);
        self.server_bytes_per_row = if rows == 0 {
            0.0
        } else {
            bytes as f64 / rows as f64
        };
        self.server_rejected = after.rejected_total.saturating_sub(before.rejected_total) as f64;
    }
}
