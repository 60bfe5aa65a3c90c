//! Request resolution: the one place where a grouped-aggregation or join
//! request's column names meet a schema. The server's GroupBy and Join
//! handlers, both paths of [`crate::plan::execute`] and
//! [`crate::plan::explain`] resolve through here, so they agree on column
//! positions, output names and rejected requests.

use crate::agg::{AggExpr, AggOp};
use cods_storage::{ColumnDef, Schema, StorageError, ValueType};

/// A grouped aggregation resolved against its input schema.
#[derive(Clone, Debug)]
pub struct AggRequest {
    /// Grouping column positions, in request order.
    pub group_by: Vec<usize>,
    /// `(op, input position, input type)` per aggregate, the kernels' form.
    pub aggs: Vec<(AggOp, usize, ValueType)>,
    /// Output columns: the grouping columns, then each aggregate under its
    /// alias.
    pub columns: Vec<ColumnDef>,
}

impl AggRequest {
    /// Resolves grouping names and aggregate expressions against `schema`.
    pub fn resolve(
        schema: &Schema,
        group_by: &[String],
        aggs: &[AggExpr],
    ) -> Result<AggRequest, StorageError> {
        let group_by = schema.indices_of(group_by)?;
        let mut columns: Vec<ColumnDef> = group_by
            .iter()
            .map(|&g| schema.columns()[g].clone())
            .collect();
        let mut specs = Vec::with_capacity(aggs.len());
        for a in aggs {
            let col = schema.index_of(&a.column)?;
            let ty = schema.columns()[col].ty;
            specs.push((a.op, col, ty));
            columns.push(ColumnDef::new(&a.alias, a.op.output_type(ty)));
        }
        Ok(AggRequest {
            group_by,
            aggs: specs,
            columns,
        })
    }
}

/// An equi-join resolved against its two input schemas.
#[derive(Clone, Debug)]
pub struct JoinRequest {
    /// Left key positions.
    pub left_keys: Vec<usize>,
    /// Right key positions, paired with `left_keys` by index.
    pub right_keys: Vec<usize>,
    /// Output columns: every left column, then the right non-key columns.
    pub columns: Vec<ColumnDef>,
}

impl JoinRequest {
    /// Resolves key names on both sides. Key lists of unequal length are a
    /// [`StorageError::InvalidSchema`].
    pub fn resolve<S: AsRef<str>>(
        left: &Schema,
        right: &Schema,
        left_keys: &[S],
        right_keys: &[S],
    ) -> Result<JoinRequest, StorageError> {
        if left_keys.len() != right_keys.len() {
            let list = |ks: &[S]| ks.iter().map(S::as_ref).collect::<Vec<_>>().join(", ");
            return Err(StorageError::InvalidSchema(format!(
                "join key lists differ in length: [{}] vs [{}]",
                list(left_keys),
                list(right_keys)
            )));
        }
        let left_keys = left.indices_of(left_keys)?;
        let right_keys = right.indices_of(right_keys)?;
        let mut columns = left.columns().to_vec();
        columns.extend(
            right
                .columns()
                .iter()
                .enumerate()
                .filter(|(i, _)| !right_keys.contains(i))
                .map(|(_, c)| c.clone()),
        );
        Ok(JoinRequest {
            left_keys,
            right_keys,
            columns,
        })
    }
}
