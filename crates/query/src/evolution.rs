//! **Query-level data evolution** — the baselines CODS is measured against
//! (the right-hand path of Figure 2 in the paper).
//!
//! Evolving data at query level means executing the evolution as SQL:
//!
//! ```sql
//! INSERT INTO S SELECT employee, skill FROM R;
//! INSERT INTO T SELECT DISTINCT employee, address FROM R;
//! ```
//!
//! On a row store that is a full scan + tuple decode, hash DISTINCT, and
//! row-at-a-time re-insert (plus index maintenance for "C+I", plus rollback
//! journaling for the SQLite-like "S"). On a column store it additionally
//! requires *decompressing* every column into tuples and *re-compressing*
//! the results into fresh bitmaps. Both drivers below pay those costs
//! faithfully; `cods::decompose` / `cods::merge` are the data-level
//! alternative that avoids them.

use crate::request::JoinRequest;
use crate::tuple;
use cods_rowstore::RowDb;
use cods_storage::{Catalog, Schema, StorageError, Table, Value};
use std::time::{Duration, Instant};

/// Work report for one evolution execution: step timings plus tuple counts.
#[derive(Clone, Debug, Default)]
pub struct EvolutionReport {
    /// Tuples read (materialized) from the inputs.
    pub tuples_read: u64,
    /// Tuples written into the outputs.
    pub tuples_written: u64,
    /// Named step timings, in execution order.
    pub steps: Vec<(String, Duration)>,
    /// Total wall time.
    pub elapsed: Duration,
}

impl EvolutionReport {
    fn step(&mut self, name: &str, started: Instant) -> Instant {
        let now = Instant::now();
        self.steps.push((name.to_string(), now - started));
        now
    }

    /// Renders the step log, one line per step (the "Data Evolution Status"
    /// panel of the demo).
    pub fn status_log(&self) -> String {
        let mut out = String::new();
        for (name, d) in &self.steps {
            out.push_str(&format!("{name}: {:.3} ms\n", d.as_secs_f64() * 1e3));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Row-store drivers (baselines C, C+I, S — policy picked by the RowDb)
// ---------------------------------------------------------------------

/// Decomposes `input` into `left` (inserted verbatim) and `right` (inserted
/// with DISTINCT) on a row store, exactly as the two SQL statements of
/// Section 1. When `with_indexes` is set, B-tree indexes on the common
/// (join) columns are declared on both outputs before loading, so every
/// insert pays index maintenance — the "C+I" configuration.
#[allow(clippy::too_many_arguments)]
pub fn decompose_row_level(
    db: &mut RowDb,
    input: &str,
    left_name: &str,
    left_cols: &[&str],
    right_name: &str,
    right_cols: &[&str],
    common_cols: &[&str],
    with_indexes: bool,
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();
    let t0 = Instant::now();
    let mut mark = t0;

    // Full scan, decoding every tuple.
    let input_schema = db.table(input)?.schema().clone();
    let rows: Vec<Vec<Value>> = db.table(input)?.scan().map(|(_, r)| r).collect();
    report.tuples_read = rows.len() as u64;
    mark = report.step("scan input", mark);

    // CREATE TABLE left / right (+ indexes for C+I).
    let left_schema = input_schema.project(left_cols, &[])?;
    let right_schema = input_schema.project(right_cols, common_cols)?;
    db.create_table(left_name, left_schema)?;
    db.create_table(right_name, right_schema)?;
    if with_indexes {
        let li = db.table(left_name)?.schema().indices_of(common_cols)?;
        db.table_mut(left_name)?.create_index(li)?;
        let ri = db.table(right_name)?.schema().indices_of(common_cols)?;
        db.table_mut(right_name)?.create_index(ri)?;
    }
    mark = report.step("create output tables", mark);

    // INSERT INTO left SELECT cols FROM input.
    let lpos = input_schema.indices_of(left_cols)?;
    let left_rows = tuple::project(&rows, &lpos);
    report.tuples_written += left_rows.len() as u64;
    db.insert_many(left_name, left_rows.iter().map(|r| r.as_slice()))?;
    mark = report.step("insert left (verbatim)", mark);

    // INSERT INTO right SELECT DISTINCT cols FROM input.
    let rpos = input_schema.indices_of(right_cols)?;
    let right_rows = tuple::distinct(tuple::project(&rows, &rpos));
    report.tuples_written += right_rows.len() as u64;
    db.insert_many(right_name, right_rows.iter().map(|r| r.as_slice()))?;
    mark = report.step("insert right (distinct)", mark);

    let _ = mark;
    report.elapsed = t0.elapsed();
    Ok(report)
}

/// Merges `left` and `right` into `output` on a row store via hash join +
/// re-insert. Output columns are left's columns followed by right's
/// non-join columns.
pub fn merge_row_level(
    db: &mut RowDb,
    left_name: &str,
    right_name: &str,
    output: &str,
    join_cols: &[&str],
    with_indexes: bool,
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();
    let t0 = Instant::now();
    let mut mark = t0;

    let left_schema = db.table(left_name)?.schema().clone();
    let right_schema = db.table(right_name)?.schema().clone();
    let left_rows: Vec<Vec<Value>> = db.table(left_name)?.scan().map(|(_, r)| r).collect();
    let right_rows: Vec<Vec<Value>> = db.table(right_name)?.scan().map(|(_, r)| r).collect();
    report.tuples_read = (left_rows.len() + right_rows.len()) as u64;
    mark = report.step("scan inputs", mark);

    let req = JoinRequest::resolve(&left_schema, &right_schema, join_cols, join_cols)?;
    let joined = tuple::hash_join(&left_rows, &right_rows, &req.left_keys, &req.right_keys);
    mark = report.step("hash join", mark);

    db.create_table(output, Schema::new(req.columns)?)?;
    if with_indexes {
        let ji = db.table(output)?.schema().indices_of(join_cols)?;
        db.table_mut(output)?.create_index(ji)?;
    }
    mark = report.step("create output table", mark);

    report.tuples_written = joined.len() as u64;
    db.insert_many(output, joined.iter().map(|r| r.as_slice()))?;
    mark = report.step("insert join result", mark);

    let _ = mark;
    report.elapsed = t0.elapsed();
    Ok(report)
}

// ---------------------------------------------------------------------
// Column-store driver (baseline M — query-level evolution on a column store)
// ---------------------------------------------------------------------

/// Decomposes a column-store table at query level: decompress → project /
/// distinct on tuples → rebuild dictionaries and re-compress bitmaps.
/// This is the expensive path of Figure 2 that CODS avoids.
pub fn decompose_column_level(
    catalog: &Catalog,
    input: &str,
    left_name: &str,
    left_cols: &[&str],
    right_name: &str,
    right_cols: &[&str],
    common_cols: &[&str],
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();
    let t0 = Instant::now();
    let mut mark = t0;

    let input_table = catalog.get(input)?;
    // Decompression: every column is decoded and merged into tuples.
    let rows = input_table.to_rows();
    report.tuples_read = rows.len() as u64;
    mark = report.step("decompress input to tuples", mark);

    let left_schema = input_table.schema().project(left_cols, &[])?;
    let lpos = input_table.schema().indices_of(left_cols)?;
    let left_rows = tuple::project(&rows, &lpos);
    mark = report.step("project left", mark);
    // Re-compression: dictionaries and bitmaps rebuilt from scratch.
    let left_table = Table::from_rows(left_name, left_schema, &left_rows)?;
    report.tuples_written += left_rows.len() as u64;
    mark = report.step("re-compress left", mark);

    let right_schema = input_table.schema().project(right_cols, common_cols)?;
    let rpos = input_table.schema().indices_of(right_cols)?;
    let right_rows = tuple::distinct(tuple::project(&rows, &rpos));
    mark = report.step("project + distinct right", mark);
    let right_table = Table::from_rows(right_name, right_schema, &right_rows)?;
    report.tuples_written += right_rows.len() as u64;
    mark = report.step("re-compress right", mark);

    catalog.create(left_table)?;
    catalog.create(right_table)?;
    let _ = mark;
    report.elapsed = t0.elapsed();
    Ok(report)
}

/// Merges two column-store tables at query level: decompress both → hash
/// join on tuples → re-compress the result.
pub fn merge_column_level(
    catalog: &Catalog,
    left_name: &str,
    right_name: &str,
    output: &str,
    join_cols: &[&str],
) -> Result<EvolutionReport, StorageError> {
    let mut report = EvolutionReport::default();
    let t0 = Instant::now();
    let mut mark = t0;

    let left = catalog.get(left_name)?;
    let right = catalog.get(right_name)?;
    let left_rows = left.to_rows();
    let right_rows = right.to_rows();
    report.tuples_read = (left_rows.len() + right_rows.len()) as u64;
    mark = report.step("decompress inputs to tuples", mark);

    let req = JoinRequest::resolve(left.schema(), right.schema(), join_cols, join_cols)?;
    let joined = tuple::hash_join(&left_rows, &right_rows, &req.left_keys, &req.right_keys);
    mark = report.step("hash join", mark);

    let out_table = Table::from_rows(output, Schema::new(req.columns)?, &joined)?;
    report.tuples_written = joined.len() as u64;
    mark = report.step("re-compress result", mark);

    catalog.create(out_table)?;
    let _ = mark;
    report.elapsed = t0.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_rowstore::InsertPolicy;
    use cods_storage::ValueType;

    fn figure1_rows() -> Vec<Vec<Value>> {
        [
            ("Jones", "Typing", "425 Grant Ave"),
            ("Jones", "Shorthand", "425 Grant Ave"),
            ("Roberts", "Light Cleaning", "747 Industrial Way"),
            ("Ellis", "Alchemy", "747 Industrial Way"),
            ("Jones", "Whittling", "425 Grant Ave"),
            ("Ellis", "Juggling", "747 Industrial Way"),
            ("Harrison", "Light Cleaning", "425 Grant Ave"),
        ]
        .iter()
        .map(|&(e, s, a)| vec![Value::str(e), Value::str(s), Value::str(a)])
        .collect()
    }

    fn r_schema() -> Schema {
        Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap()
    }

    fn row_db(policy: InsertPolicy) -> RowDb {
        let mut db = RowDb::new(policy);
        db.create_table("R", r_schema()).unwrap();
        for row in figure1_rows() {
            db.insert("R", &row).unwrap();
        }
        db
    }

    #[test]
    fn row_level_decompose_matches_figure1() {
        let mut db = row_db(InsertPolicy::Batch);
        let report = decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        assert_eq!(report.tuples_read, 7);
        assert_eq!(db.table("S").unwrap().row_count(), 7);
        assert_eq!(db.table("T").unwrap().row_count(), 4); // 4 distinct employees
        assert!(report.status_log().contains("insert right (distinct)"));
    }

    #[test]
    fn row_level_decompose_with_indexes_builds_them() {
        let mut db = row_db(InsertPolicy::Batch);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            true,
        )
        .unwrap();
        assert_eq!(db.table("S").unwrap().indexes().len(), 1);
        assert_eq!(db.table("T").unwrap().indexes()[0].len(), 4);
    }

    #[test]
    fn row_level_merge_round_trips() {
        let mut db = row_db(InsertPolicy::Batch);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        let report = merge_row_level(&mut db, "S", "T", "R2", &["employee"], false).unwrap();
        assert_eq!(report.tuples_written, 7);
        // R2 must equal R as a multiset of tuples.
        let mut orig: Vec<Vec<Value>> = db.table("R").unwrap().scan().map(|(_, r)| r).collect();
        let mut merged: Vec<Vec<Value>> = db.table("R2").unwrap().scan().map(|(_, r)| r).collect();
        orig.sort();
        merged.sort();
        assert_eq!(orig, merged);
    }

    #[test]
    fn journaled_policy_pays_journal_cost() {
        let mut db = row_db(InsertPolicy::JournaledAutocommit);
        decompose_row_level(
            &mut db,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        )
        .unwrap();
        let (pages, commits) = db.journal_stats();
        assert!(commits >= 7 + 4 + 7, "commits {commits}"); // R load + S + T
        assert!(pages > 0);
    }

    #[test]
    fn column_level_decompose_and_merge_round_trip() {
        let catalog = Catalog::new();
        catalog
            .create(Table::from_rows("R", r_schema(), &figure1_rows()).unwrap())
            .unwrap();
        decompose_column_level(
            &catalog,
            "R",
            "S",
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
        )
        .unwrap();
        let s = catalog.get("S").unwrap();
        let t = catalog.get("T").unwrap();
        assert_eq!(s.rows(), 7);
        assert_eq!(t.rows(), 4);
        t.verify_key().unwrap();

        merge_column_level(&catalog, "S", "T", "R2", &["employee"]).unwrap();
        let r2 = catalog.get("R2").unwrap();
        assert_eq!(
            r2.tuple_multiset(),
            catalog.get("R").unwrap().tuple_multiset()
        );
    }

    #[test]
    fn duplicate_output_name_fails() {
        let mut db = row_db(InsertPolicy::Batch);
        let err = decompose_row_level(
            &mut db,
            "R",
            "R", // collides with input
            &["employee", "skill"],
            "T",
            &["employee", "address"],
            &["employee"],
            false,
        );
        assert!(err.is_err());
    }
}
