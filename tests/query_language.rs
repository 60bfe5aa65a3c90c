//! The query language end to end: script predicates typed by the column
//! they compare against, quote-aware parsing, PARTITION statements that
//! render and replay with their WHERE clause, and join requests rejected
//! the same way on every execution path.

use cods::{parse_smo, Cods, Smo};
use cods_query::{execute, explain, ExecContext, Plan};
use cods_storage::{Schema, StorageError, Table, Value, ValueType};

/// `t(price float, zip str, name str)` with three rows.
fn platform() -> Cods {
    let cods = Cods::new();
    let schema = Schema::build(
        &[
            ("price", ValueType::Float),
            ("zip", ValueType::Str),
            ("name", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = [
        (1.5, "02139", "salt and pepper"),
        (2.5, "10001", "go into town"),
        (7.0, "02139", "it's"),
    ]
    .iter()
    .map(|&(p, z, n)| vec![Value::float(p), Value::str(z), Value::str(n)])
    .collect();
    cods.catalog()
        .create(Table::from_rows("t", schema, &rows).unwrap())
        .unwrap();
    cods
}

/// Rows of the satisfying side after running `PARTITION … WHERE <pred>`.
fn selected(pred: &str) -> Result<u64, String> {
    let cods = platform();
    let script = format!("PARTITION TABLE t WHERE {pred} INTO sat, rest");
    let plan = cods.plan_script(&script).map_err(|e| e.to_string())?;
    plan.execute().map_err(|e| e.to_string())?;
    Ok(cods.table("sat").unwrap().rows())
}

#[test]
fn int_literal_on_float_column_compares_as_float() {
    assert_eq!(selected("price < 3"), Ok(2));
    assert_eq!(selected("price >= 2.5"), Ok(2));
}

#[test]
fn unquoted_digits_on_str_column_are_a_typed_error_suggesting_quotes() {
    let err = selected("zip = 02139").unwrap_err();
    assert!(err.contains("zip") && err.contains("quote"), "{err}");
    assert_eq!(selected("zip = '02139'"), Ok(2));
}

#[test]
fn quoted_literals_keep_keywords_spaces_and_quotes() {
    assert_eq!(selected("name = 'salt and pepper'"), Ok(1));
    assert_eq!(selected("name = 'go into town' OR name = 'it''s'"), Ok(2));
    assert_eq!(selected("NOT (zip = '02139' AND price > 2)"), Ok(2));
}

#[test]
fn partition_renders_its_where_clause_and_replays() {
    let stmt = "PARTITION TABLE t WHERE price < 3.0 AND name != 'salt and pepper' INTO lo, hi";
    let smo = parse_smo(stmt).unwrap();
    assert_eq!(smo.to_string(), stmt);
    let replayed = parse_smo(&smo.to_string()).unwrap();
    match (&smo, &replayed) {
        (Smo::PartitionTable { predicate: a, .. }, Smo::PartitionTable { predicate: b, .. }) => {
            assert_eq!(a, b)
        }
        other => panic!("{other:?}"),
    }
    // `history` shows the statement that ran, WHERE clause included.
    let cods = platform();
    cods.execute(smo).unwrap();
    assert_eq!(cods.history()[0].operator, stmt);
    assert_eq!(cods.table("lo").unwrap().rows(), 1);
}

#[test]
fn join_key_lists_of_unequal_length_are_rejected_on_every_path() {
    let cods = platform();
    let ctx = ExecContext {
        catalog: Some(cods.catalog()),
        row_db: None,
    };
    let scan = || Plan::ScanColumn { table: "t".into() };
    let values = || {
        let rs = execute(&scan(), ctx).unwrap();
        Plan::Values {
            schema: rs.schema,
            rows: rs.rows,
        }
    };
    let join = |left: Plan, right: Plan| Plan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys: vec!["zip".into(), "name".into()],
        right_keys: vec!["zip".into()],
    };
    // Columnar pushdown and the row path alike.
    for plan in [join(scan(), scan()), join(values(), values())] {
        match execute(&plan, ctx) {
            Err(StorageError::InvalidSchema(m)) => {
                assert!(m.contains("join key lists differ in length"), "{m}")
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    assert!(matches!(
        explain(&join(scan(), scan()), ctx),
        Err(StorageError::InvalidSchema(_))
    ));
}
