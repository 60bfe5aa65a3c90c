//! Thread-count-parameterized smoke for the engine's one fan-out seam
//! (`cods_query::par`), exercised through the vectorized query kernels and
//! the DECOMPOSE/MERGE executors.
//!
//! The seam sizes every fan-out from `CODS_QUERY_THREADS` (read once per
//! process), so CI runs this binary twice — `CODS_QUERY_THREADS=1` for the
//! serial path and `=2` for the fan-out path — and the results must be
//! byte-identical to the row-at-a-time oracles either way, even on a 1-core
//! container where the N>1 tasks just interleave on one worker.

use std::sync::Arc;

use cods::{decompose, merge, DecomposeSpec, MergeStrategy};
use cods_query::{
    aggregate, aggregate_table, aggregate_table_masked, join_collect, predicate_mask, tuple, AggOp,
    Predicate,
};
use cods_storage::{Schema, Table, Value, ValueType};

const ROWS: i64 = 60_000;
const SEG_ROWS: u64 = 2_048;

fn fact() -> Arc<Table> {
    let schema = Schema::build(
        &[
            ("g", ValueType::Int),
            ("k", ValueType::Int),
            ("v", ValueType::Int),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::int(i % 11),
                if i % 97 == 0 {
                    Value::Null
                } else {
                    Value::int(i % 31)
                },
                Value::int(i % 13),
            ]
        })
        .collect();
    Arc::new(Table::from_rows_with_segment_rows("F", schema, &rows, SEG_ROWS).unwrap())
}

fn dim() -> Arc<Table> {
    let schema = Schema::build(&[("k", ValueType::Int), ("label", ValueType::Str)], &[]).unwrap();
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            vec![
                if i == 39 { Value::Null } else { Value::int(i) },
                Value::str(format!("label-{i}")),
            ]
        })
        .collect();
    Arc::new(Table::from_rows_with_segment_rows("D", schema, &rows, 8).unwrap())
}

#[test]
fn kernels_match_oracles_at_the_configured_thread_count() {
    let threads = std::env::var("CODS_QUERY_THREADS").unwrap_or_else(|_| "default".into());
    println!("thread-scaling smoke: CODS_QUERY_THREADS={threads}, rows={ROWS}");

    let fact = fact();
    let dim = dim();
    let rows = fact.to_rows();

    let group_by = [0usize];
    let aggs = [
        (AggOp::Count, 2, ValueType::Int),
        (AggOp::Sum, 2, ValueType::Int),
        (AggOp::Max, 1, ValueType::Int),
    ];
    let want = aggregate(&rows, &group_by, &aggs).unwrap();
    assert_eq!(
        aggregate_table(&fact, &group_by, &aggs).unwrap(),
        want,
        "group-by fan-out diverged from the row oracle"
    );

    let pred = Predicate::lt("v", 7i64);
    let compiled = pred.compile(fact.schema()).unwrap();
    let kept: Vec<Vec<Value>> = rows.iter().filter(|r| compiled.eval(r)).cloned().collect();
    let want_masked = aggregate(&kept, &group_by, &aggs).unwrap();
    let mask = predicate_mask(&fact, &pred).unwrap();
    assert_eq!(
        aggregate_table_masked(&fact, &group_by, &aggs, Some(&mask)).unwrap(),
        want_masked,
        "masked group-by fan-out diverged from the row oracle"
    );

    let mut want_join = tuple::hash_join(&rows, &dim.to_rows(), &[1], &[0]);
    let (plan, got) = join_collect(&fact, &dim, &[1], &[0]);
    let mut got = got;
    got.sort();
    want_join.sort();
    assert_eq!(
        got.len(),
        want_join.len(),
        "join cardinality diverged from the oracle"
    );
    assert_eq!(got, want_join, "join fan-out diverged from the row oracle");
    println!(
        "ok: {} groups, {} join rows, build={:?} partitions={}",
        want.len(),
        want_join.len(),
        plan.build,
        plan.partitions
    );
}

#[test]
fn decompose_merge_round_trip_at_the_configured_thread_count() {
    // `detail` is functionally dependent on `entity`, so the round trip
    // must restore the input's row multiset exactly.
    let schema = Schema::build(
        &[
            ("entity", ValueType::Int),
            ("attr", ValueType::Int),
            ("detail", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            let entity = (i * 7) % 1_009;
            vec![
                Value::int(entity),
                if i % 89 == 0 {
                    Value::Null
                } else {
                    Value::int(i % 17)
                },
                Value::str(format!("d{}", entity % 53)),
            ]
        })
        .collect();
    let input = Table::from_rows_with_segment_rows("R", schema, &rows, SEG_ROWS).unwrap();
    let spec = DecomposeSpec::new("S", &["entity", "attr"], "T", &["entity", "detail"]);
    let parts = decompose(&input, &spec).unwrap();
    assert_eq!(parts.distinct_keys, 1_009);
    parts.changed.check_invariants().unwrap();
    let back = merge(&parts.unchanged, &parts.changed, "R2", &MergeStrategy::Auto).unwrap();
    back.output.check_invariants().unwrap();
    assert_eq!(
        back.output.tuple_multiset(),
        input.tuple_multiset(),
        "DECOMPOSE + MERGE fan-out lost or invented rows"
    );
    println!(
        "ok: decompose {} keys over {} segments, merge via {:?}",
        parts.distinct_keys,
        input.column(0).segment_count(),
        back.strategy
    );
}
