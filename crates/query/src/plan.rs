//! A small logical-plan layer: scans over either storage engine, projection,
//! selection, DISTINCT, hash join, and union. Query-level evolution is
//! expressed as plans over this layer, exactly like the SQL statements in
//! Section 1 of the paper.

use crate::pred::Predicate;
use crate::request::{AggRequest, JoinRequest};
use crate::tuple;
use cods_rowstore::RowDb;
use cods_storage::{Catalog, Schema, StorageError, Table, Value};
use std::sync::Arc;

/// A logical query plan node.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Scan a table in the column catalog (decompresses it to tuples).
    ScanColumn {
        /// Table name.
        table: String,
    },
    /// Scan a table in the row database (decodes every tuple).
    ScanRow {
        /// Table name.
        table: String,
    },
    /// Literal rows (testing / VALUES clauses).
    Values {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// Keep the named columns, in order.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output column names.
        columns: Vec<String>,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over input columns.
        predicate: Predicate,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Hash equi-join; output = left columns ++ right non-join columns.
    HashJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// Join columns on the left.
        left_keys: Vec<String>,
        /// Join columns on the right.
        right_keys: Vec<String>,
    },
    /// UNION ALL of two inputs with identical schemas.
    UnionAll {
        /// First input.
        left: Box<Plan>,
        /// Second input.
        right: Box<Plan>,
    },
    /// GROUP BY + aggregates; output = group columns ++ aggregate aliases.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns (empty = one global group when rows exist).
        group_by: Vec<String>,
        /// Aggregate expressions.
        aggs: Vec<crate::agg::AggExpr>,
    },
}

impl Plan {
    /// Projection helper.
    pub fn project(self, columns: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Filter helper.
    pub fn filter(self, predicate: Predicate) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Distinct helper.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }
}

/// Sources a plan executes against.
#[derive(Clone, Copy, Default)]
pub struct ExecContext<'a> {
    /// Column-store catalog (for [`Plan::ScanColumn`]).
    pub catalog: Option<&'a Catalog>,
    /// Row-store database (for [`Plan::ScanRow`]).
    pub row_db: Option<&'a RowDb>,
}

/// A fully materialized query result: schema plus rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Result schema (key metadata cleared).
    pub schema: Schema,
    /// Materialized rows.
    pub rows: Vec<Vec<Value>>,
}

/// Executes a plan to a materialized [`ResultSet`].
pub fn execute(plan: &Plan, ctx: ExecContext<'_>) -> Result<ResultSet, StorageError> {
    match plan {
        Plan::ScanColumn { table } => {
            let cat = ctx
                .catalog
                .ok_or_else(|| StorageError::UnknownTable(format!("{table} (no catalog)")))?;
            let t = cat.get(table)?;
            Ok(ResultSet {
                schema: t.schema().clone(),
                rows: t.to_rows(),
            })
        }
        Plan::ScanRow { table } => {
            let db = ctx
                .row_db
                .ok_or_else(|| StorageError::UnknownTable(format!("{table} (no row db)")))?;
            let t = db.table(table)?;
            Ok(ResultSet {
                schema: t.schema().clone(),
                rows: t.scan().map(|(_, r)| r).collect(),
            })
        }
        Plan::Values { schema, rows } => Ok(ResultSet {
            schema: schema.clone(),
            rows: rows.clone(),
        }),
        Plan::Project { input, columns } => {
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            // Projection pushdown: a projection directly over a column-store
            // scan only decompresses the named columns.
            if let Plan::ScanColumn { table } = input.as_ref() {
                if let Some(cat) = ctx.catalog {
                    let t = cat.get(table)?;
                    return Ok(ResultSet {
                        schema: t.schema().project(&names, &[])?,
                        rows: t.to_rows_projected(&names)?,
                    });
                }
            }
            let input = execute(input, ctx)?;
            let positions = input.schema.indices_of(&names)?;
            Ok(ResultSet {
                schema: input.schema.project(&names, &[])?,
                rows: tuple::project(&input.rows, &positions),
            })
        }
        Plan::Filter { input, predicate } => {
            // Data-level pushdown: a filter directly over a column-store
            // scan evaluates the predicate on dictionaries + compressed
            // bitmaps and materializes only the selected rows.
            if let Plan::ScanColumn { table } = input.as_ref() {
                if let Some(cat) = ctx.catalog {
                    let t = cat.get(table)?;
                    let filtered = crate::bitmap_scan::filter_table(&t, predicate)?;
                    return Ok(ResultSet {
                        schema: filtered.schema().clone(),
                        rows: filtered.to_rows(),
                    });
                }
            }
            let input = execute(input, ctx)?;
            let compiled = predicate.compile(&input.schema)?;
            let rows = input
                .rows
                .into_iter()
                .filter(|r| compiled.eval(r))
                .collect();
            Ok(ResultSet {
                schema: input.schema,
                rows,
            })
        }
        Plan::Distinct { input } => {
            let input = execute(input, ctx)?;
            Ok(ResultSet {
                schema: input.schema,
                rows: tuple::distinct(input.rows),
            })
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            // Columnar pushdown: joining two column-store scans runs the
            // partition-wise dictionary join (cost-model build side,
            // buffer-budget-aware multi-pass) instead of materializing
            // both inputs into tuples first.
            if let (Plan::ScanColumn { table: lt }, Plan::ScanColumn { table: rt }) =
                (left.as_ref(), right.as_ref())
            {
                if let Some(cat) = ctx.catalog {
                    let l = cat.get(lt)?;
                    let r = cat.get(rt)?;
                    let req = JoinRequest::resolve(l.schema(), r.schema(), left_keys, right_keys)?;
                    let (_plan, rows) =
                        crate::join::join_collect(&l, &r, &req.left_keys, &req.right_keys);
                    return Ok(ResultSet {
                        schema: Schema::new(req.columns)?,
                        rows,
                    });
                }
            }
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            let req = JoinRequest::resolve(&l.schema, &r.schema, left_keys, right_keys)?;
            Ok(ResultSet {
                rows: tuple::hash_join(&l.rows, &r.rows, &req.left_keys, &req.right_keys),
                schema: Schema::new(req.columns)?,
            })
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Columnar pushdown: an aggregate over a column-store scan runs
            // on dictionary ids (with the per-column validity fast path)
            // instead of materializing every tuple first; over a filtered
            // scan the predicate becomes a WAH mask the kernel aggregates
            // under, so the filtered table is never built either.
            let pushed = match input.as_ref() {
                Plan::ScanColumn { table } => Some((table, None)),
                Plan::Filter { input, predicate } => match input.as_ref() {
                    Plan::ScanColumn { table } => Some((table, Some(predicate))),
                    _ => None,
                },
                _ => None,
            };
            if let (Some((table, predicate)), Some(cat)) = (pushed, ctx.catalog) {
                let t = cat.get(table)?;
                let req = AggRequest::resolve(t.schema(), group_by, aggs)?;
                let mask = predicate
                    .map(|p| crate::bitmap_scan::predicate_mask(&t, p))
                    .transpose()?;
                let rows = crate::agg::aggregate_table_masked(
                    &t,
                    &req.group_by,
                    &req.aggs,
                    mask.as_ref(),
                )?;
                return Ok(ResultSet {
                    schema: Schema::new(req.columns)?,
                    rows,
                });
            }
            let input = execute(input, ctx)?;
            let req = AggRequest::resolve(&input.schema, group_by, aggs)?;
            Ok(ResultSet {
                rows: crate::agg::aggregate(&input.rows, &req.group_by, &req.aggs)?,
                schema: Schema::new(req.columns)?,
            })
        }
        Plan::UnionAll { left, right } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            if !l.schema.union_compatible(&r.schema) {
                return Err(StorageError::InvalidSchema(
                    "UNION ALL inputs have different schemas".into(),
                ));
            }
            Ok(ResultSet {
                schema: l.schema,
                rows: tuple::union_all(l.rows, r.rows),
            })
        }
    }
}

/// Resolves a plan subtree down to a single column-store base table when it
/// is a `ScanColumn` under any stack of `Project`/`Filter` nodes, returning
/// the table and the combined estimated selectivity of the filters on the
/// way down. Non-columnar subtrees return `None`.
fn scan_base(plan: &Plan, ctx: ExecContext<'_>) -> Result<Option<(Arc<Table>, f64)>, StorageError> {
    match plan {
        Plan::ScanColumn { table } => match ctx.catalog {
            Some(cat) => Ok(Some((cat.get(table)?, 1.0))),
            None => Ok(None),
        },
        Plan::Filter { input, predicate } => Ok(match scan_base(input, ctx)? {
            Some((t, s)) => {
                let sel = crate::cost::predicate_selectivity(&t, &predicate.bind(t.schema())?);
                Some((t, s * sel))
            }
            None => None,
        }),
        Plan::Project { input, .. } => scan_base(input, ctx),
        _ => Ok(None),
    }
}

fn explain_node(
    plan: &Plan,
    ctx: ExecContext<'_>,
    depth: usize,
    out: &mut String,
) -> Result<f64, StorageError> {
    use std::fmt::Write as _;
    let pad = "  ".repeat(depth);
    let line = |out: &mut String, s: String, est: f64| {
        let _ = writeln!(out, "{pad}{s}  ~{est:.0} rows");
    };
    let indent_block = |out: &mut String, text: &str| {
        for l in text.lines() {
            let _ = writeln!(out, "{pad}    {l}");
        }
    };
    Ok(match plan {
        Plan::ScanColumn { table } => {
            let est = match ctx.catalog {
                Some(cat) => {
                    let t = cat.get(table)?;
                    t.rows() as f64
                }
                None => 0.0,
            };
            line(out, format!("ScanColumn {table}"), est);
            est
        }
        Plan::ScanRow { table } => {
            let est = match ctx.row_db {
                Some(db) => db.table(table)?.scan().count() as f64,
                None => 0.0,
            };
            line(out, format!("ScanRow {table}"), est);
            est
        }
        Plan::Values { rows, .. } => {
            let est = rows.len() as f64;
            line(out, "Values".to_string(), est);
            est
        }
        Plan::Project { input, columns } => {
            let mut child = String::new();
            let est = explain_node(input, ctx, depth + 1, &mut child)?;
            line(out, format!("Project [{}]", columns.join(", ")), est);
            out.push_str(&child);
            est
        }
        Plan::Filter { input, predicate } => {
            let mut child = String::new();
            let in_est = explain_node(input, ctx, depth + 1, &mut child)?;
            let sel = match scan_base(input, ctx)? {
                Some((t, _)) => {
                    crate::cost::predicate_selectivity(&t, &predicate.bind(t.schema())?)
                }
                None => 1.0,
            };
            let est = in_est * sel;
            line(
                out,
                format!("Filter {predicate} (selectivity {sel:.3})"),
                est,
            );
            out.push_str(&child);
            est
        }
        Plan::Distinct { input } => {
            let mut child = String::new();
            let est = explain_node(input, ctx, depth + 1, &mut child)?;
            line(out, "Distinct".to_string(), est);
            out.push_str(&child);
            est
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let mut children = String::new();
            let le = explain_node(left, ctx, depth + 1, &mut children)?;
            let re = explain_node(right, ctx, depth + 1, &mut children)?;
            let est = le.max(re);
            line(
                out,
                format!(
                    "HashJoin on {} = {}",
                    left_keys.join(","),
                    right_keys.join(",")
                ),
                est,
            );
            if let (Some((lt, _)), Some((rt, _))) = (scan_base(left, ctx)?, scan_base(right, ctx)?)
            {
                let req = JoinRequest::resolve(lt.schema(), rt.schema(), left_keys, right_keys)?;
                let budget = cods_storage::segment_cache().stats().budget;
                let jp = crate::join::plan_join(&lt, &rt, &req.left_keys, &req.right_keys, budget);
                indent_block(out, &jp.ranking.describe());
                indent_block(
                    out,
                    &format!(
                        "partitions={} est_build_bytes={} budget={}",
                        jp.partitions,
                        jp.est_build_bytes,
                        if jp.budget_bytes == u64::MAX {
                            "unlimited".to_string()
                        } else {
                            jp.budget_bytes.to_string()
                        }
                    ),
                );
            }
            out.push_str(&children);
            est
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut child = String::new();
            let in_est = explain_node(input, ctx, depth + 1, &mut child)?;
            let mut est = in_est;
            line(
                out,
                format!(
                    "Aggregate [{}] by [{}]",
                    aggs.iter()
                        .map(|a| a.alias.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    group_by.join(", ")
                ),
                est,
            );
            if let Some((t, sel)) = scan_base(input, ctx)? {
                let req = AggRequest::resolve(t.schema(), group_by, aggs)?;
                let distinct: f64 = req
                    .group_by
                    .iter()
                    .map(|&g| t.column(g).dict().len() as f64)
                    .product();
                est = est.min(distinct.max(1.0));
                indent_block(
                    out,
                    &crate::cost::groupby_ranking(&t, &req.group_by, sel).describe(),
                );
            }
            out.push_str(&child);
            est
        }
        Plan::UnionAll { left, right } => {
            let mut children = String::new();
            let le = explain_node(left, ctx, depth + 1, &mut children)?;
            let re = explain_node(right, ctx, depth + 1, &mut children)?;
            line(out, "UnionAll".to_string(), le + re);
            out.push_str(&children);
            le + re
        }
    })
}

/// Renders a plan tree with per-operator row estimates from resident
/// segment metadata, including — for the columnar pushdown operators — the
/// cost model's ranked strategy alternatives (group-by key representation,
/// join build side and partition passes) with the rejected options listed
/// under the chosen one.
pub fn explain(plan: &Plan, ctx: ExecContext<'_>) -> Result<String, StorageError> {
    let mut out = String::new();
    explain_node(plan, ctx, 0, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Table, ValueType};

    fn setup_catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = Schema::build(
            &[
                ("employee", ValueType::Str),
                ("skill", ValueType::Str),
                ("address", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = [
            ("Jones", "Typing", "425 Grant Ave"),
            ("Jones", "Shorthand", "425 Grant Ave"),
            ("Ellis", "Alchemy", "747 Industrial Way"),
        ]
        .iter()
        .map(|&(e, s, a)| vec![Value::str(e), Value::str(s), Value::str(a)])
        .collect();
        cat.create(Table::from_rows("R", schema, &rows).unwrap())
            .unwrap();
        cat
    }

    #[test]
    fn scan_project_distinct() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let plan = Plan::ScanColumn { table: "R".into() }
            .project(&["employee", "address"])
            .distinct();
        let rs = execute(&plan, ctx).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.schema.names(), vec!["employee", "address"]);
    }

    #[test]
    fn filter_plan() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let plan =
            Plan::ScanColumn { table: "R".into() }.filter(Predicate::eq("employee", "Jones"));
        let rs = execute(&plan, ctx).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn join_plan_reconstructs() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let s = Plan::ScanColumn { table: "R".into() }.project(&["employee", "skill"]);
        let t = Plan::ScanColumn { table: "R".into() }
            .project(&["employee", "address"])
            .distinct();
        let joined = Plan::HashJoin {
            left: Box::new(s),
            right: Box::new(t),
            left_keys: vec!["employee".into()],
            right_keys: vec!["employee".into()],
        };
        let rs = execute(&joined, ctx).unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.schema.names(), vec!["employee", "skill", "address"]);
    }

    #[test]
    fn row_db_scan() {
        let mut db = RowDb::new(cods_rowstore::InsertPolicy::Batch);
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        db.create_table("t", schema).unwrap();
        db.insert("t", &[Value::int(1)]).unwrap();
        let ctx = ExecContext {
            catalog: None,
            row_db: Some(&db),
        };
        let rs = execute(&Plan::ScanRow { table: "t".into() }, ctx).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::int(1)]]);
    }

    #[test]
    fn missing_context_errors() {
        let ctx = ExecContext::default();
        assert!(execute(&Plan::ScanColumn { table: "x".into() }, ctx).is_err());
        assert!(execute(&Plan::ScanRow { table: "x".into() }, ctx).is_err());
    }

    #[test]
    fn aggregate_plan_counts_skills_per_employee() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let plan = Plan::Aggregate {
            input: Box::new(Plan::ScanColumn { table: "R".into() }),
            group_by: vec!["employee".into()],
            aggs: vec![crate::agg::AggExpr::new(
                crate::agg::AggOp::Count,
                "skill",
                "skills",
            )],
        };
        let rs = execute(&plan, ctx).unwrap();
        assert_eq!(rs.schema.names(), vec!["employee", "skills"]);
        let m: std::collections::HashMap<_, _> = rs
            .rows
            .into_iter()
            .map(|r| (r[0].clone(), r[1].clone()))
            .collect();
        assert_eq!(m[&Value::str("Jones")], Value::int(2));
        assert_eq!(m[&Value::str("Ellis")], Value::int(1));
    }

    #[test]
    fn aggregate_over_filter_pushes_mask_into_columnar_kernel() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let filtered_agg = |input: Plan| Plan::Aggregate {
            input: Box::new(input.filter(Predicate::eq("employee", "Jones"))),
            group_by: vec!["employee".into()],
            aggs: vec![crate::agg::AggExpr::new(
                crate::agg::AggOp::Count,
                "skill",
                "skills",
            )],
        };
        let pushed = execute(&filtered_agg(Plan::ScanColumn { table: "R".into() }), ctx).unwrap();
        // Same query through the row path (Values blocks every pushdown).
        let base = execute(&Plan::ScanColumn { table: "R".into() }, ctx).unwrap();
        let row_path = execute(
            &filtered_agg(Plan::Values {
                schema: base.schema,
                rows: base.rows,
            }),
            ctx,
        )
        .unwrap();
        assert_eq!(pushed, row_path);
        assert_eq!(pushed.rows, vec![vec![Value::str("Jones"), Value::int(2)]]);
    }

    #[test]
    fn join_pushdown_matches_row_oracle_multiset() {
        let cat = setup_catalog();
        let teams =
            Schema::build(&[("name", ValueType::Str), ("team", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = [("Jones", "ops"), ("Ellis", "lab"), ("Nobody", "void")]
            .iter()
            .map(|&(n, t)| vec![Value::str(n), Value::str(t)])
            .collect();
        cat.create(Table::from_rows("T", teams, &rows).unwrap())
            .unwrap();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let keyed = |left: Plan, right: Plan| Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec!["employee".into()],
            right_keys: vec!["name".into()],
        };
        let pushed = execute(
            &keyed(
                Plan::ScanColumn { table: "R".into() },
                Plan::ScanColumn { table: "T".into() },
            ),
            ctx,
        )
        .unwrap();
        // Row oracle through Values inputs (blocks the pushdown).
        let as_values = |t: &str| {
            let rs = execute(&Plan::ScanColumn { table: t.into() }, ctx).unwrap();
            Plan::Values {
                schema: rs.schema,
                rows: rs.rows,
            }
        };
        let oracle = execute(&keyed(as_values("R"), as_values("T")), ctx).unwrap();
        assert_eq!(pushed.schema, oracle.schema);
        assert_eq!(
            pushed.schema.names(),
            vec!["employee", "skill", "address", "team"]
        );
        let mut a = pushed.rows;
        let mut b = oracle.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn explain_ranks_kernel_strategies() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let plan = Plan::Aggregate {
            input: Box::new(
                Plan::ScanColumn { table: "R".into() }.filter(Predicate::eq("employee", "Jones")),
            ),
            group_by: vec!["employee".into()],
            aggs: vec![crate::agg::AggExpr::new(
                crate::agg::AggOp::Count,
                "skill",
                "skills",
            )],
        };
        let text = explain(&plan, ctx).unwrap();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("group-by strategy"), "{text}");
        assert!(text.contains("keys=packed-u64"), "{text}");
        assert!(text.contains("x "), "rejected options listed: {text}");
        let join = Plan::HashJoin {
            left: Box::new(Plan::ScanColumn { table: "R".into() }),
            right: Box::new(Plan::ScanColumn { table: "R".into() }),
            left_keys: vec!["employee".into()],
            right_keys: vec!["employee".into()],
        };
        let text = explain(&join, ctx).unwrap();
        assert!(text.contains("join build side"), "{text}");
        assert!(text.contains("partitions="), "{text}");
    }

    #[test]
    fn union_all_requires_compatible_schemas() {
        let cat = setup_catalog();
        let ctx = ExecContext {
            catalog: Some(&cat),
            row_db: None,
        };
        let a = Plan::ScanColumn { table: "R".into() }.project(&["employee"]);
        let b = Plan::ScanColumn { table: "R".into() }.project(&["skill"]);
        let u = Plan::UnionAll {
            left: Box::new(a.clone()),
            right: Box::new(b),
        };
        assert!(execute(&u, ctx).is_err());
        let ok = Plan::UnionAll {
            left: Box::new(a.clone()),
            right: Box::new(a),
        };
        assert_eq!(execute(&ok, ctx).unwrap().rows.len(), 6);
    }
}
