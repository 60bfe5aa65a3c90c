//! The query mix: a warehouse catalog (a fact table with a clustered
//! `sale_id` and a uniform high-cardinality `cust_id`, plus a dimension of
//! key accounts — the first tenth of the customers), four request shapes
//! whose literals rotate at constant selectivity, their wire calls, their
//! in-process replays, and the row oracles every reply is checked against.
//!
//! The join's output is about a tenth of the fact table, which fits one
//! reply frame, so its latency is not a mix of reply-frame counts.

use crate::trace::Tracer;
use crate::util::{splitmix64, Digest};
use cods::{Cods, EvolutionError};
use cods_query::{
    aggregate, aggregate_table_masked, join_stream, plan_join, predicate_mask, tuple, AggOp,
    Predicate, ScanStream,
};
use cods_server::{Client, ClientError};
use cods_storage::{segment_cache, StorageError, Table, Value, ValueType};
use cods_workload::warehouse::{star_customer_dim, wide_sales, WarehouseConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Fact table name (from `cods_workload::warehouse::wide_sales`).
pub const SALES: &str = "sales_wide";
/// Dimension table name: `star_customer_dim` over the key accounts.
pub const DIM: &str = "key_accounts";
/// One customer in this many is a key account.
const ACCOUNT_SHARE: u64 = 10;
/// Literals per shape; the `k`-th request of a shape uses literal
/// `k % ROTATION`.
pub const ROTATION: usize = 16;

const SCAN_PROJECTION: [&str; 3] = ["sale_id", "cust_id", "amount"];
/// Width of the `amount` range of the low-cardinality group-by (of 999
/// values: ~25% selectivity).
const LOW_WIDTH: i64 = 250;
/// Width of the `amount` range of the high-cardinality group-by (~50%).
const HIGH_WIDTH: i64 = 500;

/// One request shape of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Range scan on clustered `sale_id` (1/16 of the rows), streamed
    /// with a projection.
    Scan,
    /// Group-by on low-cardinality `region_name` under a range predicate
    /// on uniform `amount`.
    GroupLow,
    /// Group-by on uniform high-cardinality `cust_id` under a range
    /// predicate on `amount`.
    GroupHigh,
    /// Fact ⋈ key-account dimension on `cust_id`.
    Join,
}

/// The shapes every cycle of every connection runs, once each.
pub const MIX: [Shape; 4] = [Shape::Scan, Shape::GroupLow, Shape::GroupHigh, Shape::Join];

impl Shape {
    /// The end-to-end metric family the shape reports under.
    pub fn class(self) -> &'static str {
        match self {
            Shape::Scan => "scan",
            Shape::GroupLow | Shape::GroupHigh => "groupby",
            Shape::Join => "join",
        }
    }

    /// The shape's own name, for the metrics reported per shape.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Scan => "scan",
            Shape::GroupLow => "groupby_low",
            Shape::GroupHigh => "groupby_high",
            Shape::Join => "join",
        }
    }
}

/// The catalog's size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub sales: u64,
    pub customers: u64,
    pub regions: u64,
}

/// Literal and order generator: the seed picks the rotation's starting
/// phase and the order of the shapes in each cycle.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub size: Size,
    seed: u64,
    phase: usize,
}

impl Mix {
    pub fn new(size: Size, seed: u64) -> Mix {
        Mix {
            size,
            seed,
            phase: (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize,
        }
    }

    /// The shapes of one cycle of connection `conn`: each shape once, in
    /// a seeded order, so which shapes two connections run at the same
    /// moment varies from cycle to cycle instead of locking in for a run.
    pub fn cycle_order(&self, conn: usize, cycle: usize) -> [Shape; 4] {
        let mut order = MIX;
        let mut h = self.seed ^ ((conn as u64) << 32) ^ cycle as u64;
        for i in (1..order.len()).rev() {
            h = splitmix64(h);
            order.swap(i, (h % (i as u64 + 1)) as usize);
        }
        order
    }

    fn slot(&self, k: usize) -> i64 {
        ((self.phase + k) % ROTATION) as i64
    }

    /// The predicate of the `k`-th request of `shape`.
    pub fn predicate(&self, shape: Shape, k: usize) -> Predicate {
        let s = self.slot(k);
        let range =
            |col: &str, lo: i64, hi: i64| Predicate::ge(col, lo).and(Predicate::lt(col, hi));
        match shape {
            Shape::Scan => {
                let w = (self.size.sales / ROTATION as u64) as i64;
                range("sale_id", s * w, (s + 1) * w)
            }
            Shape::GroupLow => {
                let lo = 1 + s * 47;
                range("amount", lo, lo + LOW_WIDTH)
            }
            Shape::GroupHigh => {
                let lo = 1 + s * 31;
                range("amount", lo, lo + HIGH_WIDTH)
            }
            Shape::Join => Predicate::True,
        }
    }

    pub fn warehouse(&self, seed: u64) -> WarehouseConfig {
        WarehouseConfig {
            sales: self.size.sales,
            customers: self.size.customers,
            regions: self.size.regions,
            seed,
        }
    }
}

/// Generates the fact and dimension tables for `seed`.
pub fn generate(mix: &Mix, seed: u64) -> (Table, Table) {
    let cfg = mix.warehouse(seed);
    let accounts = WarehouseConfig {
        customers: cfg.customers / ACCOUNT_SHARE,
        ..cfg.clone()
    };
    (wide_sales(&cfg), star_customer_dim(&accounts).renamed(DIM))
}

fn group_col(shape: Shape) -> &'static str {
    if shape == Shape::GroupLow {
        "region_name"
    } else {
        "cust_id"
    }
}

fn agg_list() -> Vec<(AggOp, String)> {
    vec![
        (AggOp::Count, "sale_id".to_string()),
        (AggOp::Sum, "amount".to_string()),
    ]
}

/// Sends the `k`-th request of `shape` over the wire and digests the
/// reply rows as they arrive.
pub fn wire(client: &mut Client, mix: &Mix, shape: Shape, k: usize) -> Result<Digest, ClientError> {
    let mut d = Digest::default();
    let pred = mix.predicate(shape, k);
    match shape {
        Shape::Scan => {
            let proj = SCAN_PROJECTION.iter().map(|s| s.to_string()).collect();
            client.scan_with(SALES, pred, Some(proj), |_, rows| d.add_all(&rows))?;
        }
        Shape::GroupLow | Shape::GroupHigh => {
            let (_, rows) =
                client.group_by(SALES, pred, vec![group_col(shape).to_string()], agg_list())?;
            d.add_all(&rows);
        }
        Shape::Join => {
            let key = vec!["cust_id".to_string()];
            client.join_with(SALES, DIM, key.clone(), key, |_, rows| d.add_all(&rows))?;
        }
    }
    Ok(d)
}

/// What an in-process replay of one request measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub digest: Digest,
    pub mask_ms: Option<f64>,
    pub stream_ms: Option<f64>,
    pub agg_ms: Option<f64>,
    pub join_ms: Option<f64>,
    pub join_passes: Option<u32>,
}

/// Replays the `k`-th request of `shape` in process against the served
/// catalog's current tables, one span per layer call, under `parent`.
pub fn replay(
    tr: &mut Tracer,
    req: u64,
    parent: usize,
    cods: &Cods,
    mix: &Mix,
    shape: Shape,
    k: usize,
) -> Result<Replay, EvolutionError> {
    let (sales, dim) = (&cods.table(SALES)?, &cods.table(DIM)?);
    let pred = mix.predicate(shape, k);
    let mut r = Replay::default();
    match shape {
        Shape::Scan => {
            let (mask, ms) = tr.span("query.mask", req, Some(parent), || {
                predicate_mask(sales, &pred)
            });
            mask?;
            r.mask_ms = Some(ms);
            let proj: Vec<String> = SCAN_PROJECTION.iter().map(|s| s.to_string()).collect();
            let mut d = Digest::default();
            let (res, ms) = tr.span("query.scan_stream", req, Some(parent), || {
                let stream = ScanStream::new(Arc::clone(sales), &pred, Some(&proj))?;
                for batch in stream {
                    d.add_all(&batch.rows);
                }
                Ok::<(), StorageError>(())
            });
            res?;
            r.digest = d;
            r.stream_ms = Some(ms);
        }
        Shape::GroupLow | Shape::GroupHigh => {
            let schema = sales.schema();
            let gi = schema.index_of(group_col(shape))?;
            let specs = vec![
                (AggOp::Count, schema.index_of("sale_id")?, ValueType::Int),
                (AggOp::Sum, schema.index_of("amount")?, ValueType::Int),
            ];
            let (mask, mask_ms) = tr.span("query.mask", req, Some(parent), || {
                predicate_mask(sales, &pred)
            });
            let mask = mask?;
            let (rows, agg_ms) = tr.span("query.agg", req, Some(parent), || {
                aggregate_table_masked(sales, &[gi], &specs, Some(&mask))
            });
            r.digest = Digest::of(&rows?);
            r.mask_ms = Some(mask_ms);
            r.agg_ms = Some(agg_ms);
        }
        Shape::Join => {
            let lk = [sales.schema().index_of("cust_id")?];
            let rk = [dim.schema().index_of("cust_id")?];
            let join = tr.open("query.join", req, Some(parent));
            let (plan, _) = tr.span("query.plan_join", req, Some(join), || {
                plan_join(sales, dim, &lk, &rk, segment_cache().stats().budget)
            });
            let mut d = Digest::default();
            tr.span("query.join_stream", req, Some(join), || {
                for row in join_stream(Arc::clone(sales), Arc::clone(dim), &lk, &rk, &plan) {
                    d.add(&row);
                }
            });
            let ms = tr.close(join);
            r.digest = d;
            r.join_ms = Some(ms);
            r.join_passes = Some(plan.partitions);
        }
    }
    Ok(r)
}

/// Row oracles for every shape and literal, computed from freshly
/// generated rows with the row-at-a-time reference operators
/// (`cods_query::aggregate`, `cods_query::tuple::hash_join`).
pub struct Oracle {
    mix: Mix,
    sales: Table,
    rows: Vec<Vec<Value>>,
    dim_rows: Vec<Vec<Value>>,
    memo: HashMap<(Shape, usize), Digest>,
}

impl Oracle {
    pub fn new(mix: Mix, seed: u64) -> Oracle {
        let (sales, dim) = generate(&mix, seed);
        Oracle {
            mix,
            rows: sales.to_rows(),
            dim_rows: dim.to_rows(),
            sales,
            memo: HashMap::new(),
        }
    }

    pub fn expected(&mut self, shape: Shape, k: usize) -> Digest {
        let key = (shape, k % ROTATION);
        if let Some(d) = self.memo.get(&key) {
            return *d;
        }
        let d = self.compute(shape, k);
        self.memo.insert(key, d);
        d
    }

    fn compute(&self, shape: Shape, k: usize) -> Digest {
        let schema = self.sales.schema();
        let idx = |n: &str| schema.index_of(n).expect("warehouse column");
        let pred = self
            .mix
            .predicate(shape, k)
            .compile(schema)
            .expect("mix predicate compiles");
        let selected: Vec<Vec<Value>> =
            self.rows.iter().filter(|r| pred.eval(r)).cloned().collect();
        match shape {
            Shape::Scan => {
                let cols: Vec<usize> = SCAN_PROJECTION.iter().map(|c| idx(c)).collect();
                let mut d = Digest::default();
                for r in &selected {
                    let p: Vec<Value> = cols.iter().map(|&c| r[c].clone()).collect();
                    d.add(&p);
                }
                d
            }
            Shape::GroupLow | Shape::GroupHigh => {
                let specs = [
                    (AggOp::Count, idx("sale_id"), ValueType::Int),
                    (AggOp::Sum, idx("amount"), ValueType::Int),
                ];
                let out = aggregate(&selected, &[idx(group_col(shape))], &specs)
                    .expect("row oracle aggregates");
                Digest::of(&out)
            }
            Shape::Join => Digest::of(&tuple::hash_join(
                &selected,
                &self.dim_rows,
                &[idx("cust_id")],
                &[0],
            )),
        }
    }
}
