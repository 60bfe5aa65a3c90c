//! A textual statement language for SMOs, in the style the demo UI uses to
//! specify operators. The grammar matches what [`Smo`]'s `Display`
//! implementation renders for the data-moving operators, so statements can
//! be logged, stored, and replayed:
//!
//! ```text
//! CREATE TABLE t (id int, name str, KEY id)
//! DROP TABLE t
//! RENAME TABLE old TO new
//! COPY TABLE src TO dst
//! UNION TABLES a, b INTO out
//! PARTITION TABLE t WHERE col < 10 INTO sat, rest
//! DECOMPOSE TABLE r INTO s (a, b), t (a, c)
//! MERGE TABLES s, t INTO r
//! ADD COLUMN c int DEFAULT 0 TO t
//! DROP COLUMN c FROM t
//! RENAME COLUMN a TO b IN t
//! ```
//!
//! Keywords are case-insensitive; identifiers are case-sensitive.

use crate::decompose::DecomposeSpec;
use crate::error::{EvolutionError, Result};
use crate::merge::MergeStrategy;
use crate::simple_ops::ColumnFill;
use crate::smo::Smo;
use cods_query::pred::{parse_literal, CmpOp, Predicate};
use cods_storage::{ColumnDef, Schema, Value, ValueType};

fn err(msg: impl Into<String>) -> EvolutionError {
    EvolutionError::InvalidOperator(msg.into())
}

/// Splits on commas that are not inside parentheses.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(s[start..].trim());
    parts
}

fn parse_type(s: &str) -> Result<ValueType> {
    match s.to_ascii_lowercase().as_str() {
        "int" | "integer" => Ok(ValueType::Int),
        "str" | "string" | "text" | "varchar" => Ok(ValueType::Str),
        "float" | "double" | "real" => Ok(ValueType::Float),
        "bool" | "boolean" => Ok(ValueType::Bool),
        other => Err(err(format!("unknown type {other:?}"))),
    }
}

/// Case-insensitive split on the first occurrence of ` <kw> ` as a word.
fn split_keyword<'a>(s: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_ascii_lowercase();
    let pat = format!(" {} ", kw.to_ascii_lowercase());
    lower
        .find(&pat)
        .map(|i| (s[..i].trim(), s[i + pat.len()..].trim()))
}

fn parse_name_cols(part: &str) -> Result<(String, Vec<String>)> {
    // `name (a, b, c)`
    let open = part
        .find('(')
        .ok_or_else(|| err(format!("expected `name (cols…)`, got {part:?}")))?;
    if !part.trim_end().ends_with(')') {
        return Err(err(format!("missing `)` in {part:?}")));
    }
    let name = part[..open].trim();
    let inner = &part[open + 1..part.trim_end().len() - 1];
    if name.is_empty() {
        return Err(err("empty table name"));
    }
    let cols: Vec<String> = inner
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if cols.is_empty() {
        return Err(err(format!("no columns listed for {name:?}")));
    }
    Ok((name.to_string(), cols))
}

fn parse_predicate(s: &str) -> Result<Predicate> {
    // `col <op> literal`, with AND/OR/NOT combinators, left-associative.
    let lower = s.to_ascii_lowercase();
    if let Some(i) = lower.find(" or ") {
        return Ok(parse_predicate(&s[..i])?.or(parse_predicate(&s[i + 4..])?));
    }
    if let Some(i) = lower.find(" and ") {
        return Ok(parse_predicate(&s[..i])?.and(parse_predicate(&s[i + 5..])?));
    }
    let t = s.trim();
    if let Some(rest) = t.strip_prefix("NOT ").or_else(|| t.strip_prefix("not ")) {
        return Ok(parse_predicate(rest)?.not());
    }
    for (sym, op) in [
        ("!=", CmpOp::Ne),
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("=", CmpOp::Eq),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
    ] {
        if let Some((col, lit)) = t.split_once(sym) {
            let col = col.trim();
            let lit = lit.trim();
            if col.is_empty() || lit.is_empty() {
                return Err(err(format!("malformed comparison {t:?}")));
            }
            return Ok(Predicate::Compare {
                column: col.to_string(),
                op,
                literal: parse_literal(lit),
            });
        }
    }
    Err(err(format!("cannot parse predicate {t:?}")))
}

/// Parses one SMO statement.
pub fn parse_smo(stmt: &str) -> Result<Smo> {
    let s = stmt.trim().trim_end_matches(';').trim();
    let lower = s.to_ascii_lowercase();

    if let Some(rest) = lower.strip_prefix("create table ") {
        let rest_orig = &s[s.len() - rest.len()..];
        let (name, cols) = parse_name_cols(rest_orig)?;
        let mut defs = Vec::new();
        let mut keys: Vec<String> = Vec::new();
        for c in cols {
            if let Some(k) = c.strip_prefix("KEY ").or_else(|| c.strip_prefix("key ")) {
                keys.extend(k.split_whitespace().map(str::to_string));
                continue;
            }
            let (cname, ty) = c
                .split_once(' ')
                .ok_or_else(|| err(format!("column def {c:?} must be `name type`")))?;
            defs.push(ColumnDef::new(cname.trim(), parse_type(ty.trim())?));
        }
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let col_specs: Vec<(&str, ValueType)> =
            defs.iter().map(|d| (d.name.as_str(), d.ty)).collect();
        let schema = Schema::build(&col_specs, &key_refs).map_err(EvolutionError::Storage)?;
        return Ok(Smo::CreateTable { name, schema });
    }
    if let Some(rest) = lower.strip_prefix("drop table ") {
        let name = s[s.len() - rest.len()..].trim();
        return Ok(Smo::DropTable {
            name: name.to_string(),
        });
    }
    if lower.starts_with("rename table ") {
        let rest = s["rename table ".len()..].trim();
        let (from, to) = split_keyword(rest, "to").ok_or_else(|| err("RENAME TABLE needs `TO`"))?;
        return Ok(Smo::RenameTable {
            from: from.to_string(),
            to: to.to_string(),
        });
    }
    if lower.starts_with("copy table ") {
        let rest = s["copy table ".len()..].trim();
        let (from, to) = split_keyword(rest, "to").ok_or_else(|| err("COPY TABLE needs `TO`"))?;
        return Ok(Smo::CopyTable {
            from: from.to_string(),
            to: to.to_string(),
        });
    }
    if lower.starts_with("union tables ") {
        let rest = s["union tables ".len()..].trim();
        let (inputs, output) =
            split_keyword(rest, "into").ok_or_else(|| err("UNION TABLES needs `INTO`"))?;
        let parts = split_top_level_commas(inputs);
        let [left, right] = parts.as_slice() else {
            return Err(err("UNION TABLES needs exactly two inputs"));
        };
        return Ok(Smo::UnionTables {
            left: left.to_string(),
            right: right.to_string(),
            output: output.to_string(),
            drop_inputs: false,
        });
    }
    if lower.starts_with("partition table ") {
        let rest = s["partition table ".len()..].trim();
        let (input, where_into) =
            split_keyword(rest, "where").ok_or_else(|| err("PARTITION TABLE needs `WHERE`"))?;
        let (pred_text, outputs) =
            split_keyword(where_into, "into").ok_or_else(|| err("PARTITION TABLE needs `INTO`"))?;
        let parts = split_top_level_commas(outputs);
        let [sat, rest_name] = parts.as_slice() else {
            return Err(err("PARTITION TABLE needs two outputs"));
        };
        return Ok(Smo::PartitionTable {
            input: input.to_string(),
            predicate: parse_predicate(pred_text)?,
            satisfying: sat.to_string(),
            rest: rest_name.to_string(),
        });
    }
    if lower.starts_with("decompose table ") {
        let rest = s["decompose table ".len()..].trim();
        let (input, outputs) =
            split_keyword(rest, "into").ok_or_else(|| err("DECOMPOSE TABLE needs `INTO`"))?;
        let parts = split_top_level_commas(outputs);
        let [first, second] = parts.as_slice() else {
            return Err(err("DECOMPOSE TABLE needs exactly two outputs"));
        };
        let (un_name, un_cols) = parse_name_cols(first)?;
        let (ch_name, ch_cols) = parse_name_cols(second)?;
        return Ok(Smo::DecomposeTable {
            input: input.to_string(),
            spec: DecomposeSpec {
                unchanged_name: un_name,
                unchanged_cols: un_cols,
                changed_name: ch_name,
                changed_cols: ch_cols,
                verify_fd: true,
            },
        });
    }
    if lower.starts_with("merge tables ") {
        let rest = s["merge tables ".len()..].trim();
        let (inputs, output) =
            split_keyword(rest, "into").ok_or_else(|| err("MERGE TABLES needs `INTO`"))?;
        let parts = split_top_level_commas(inputs);
        let [left, right] = parts.as_slice() else {
            return Err(err("MERGE TABLES needs exactly two inputs"));
        };
        return Ok(Smo::MergeTables {
            left: left.to_string(),
            right: right.to_string(),
            output: output.to_string(),
            strategy: MergeStrategy::Auto,
        });
    }
    if lower.starts_with("add column ") {
        let rest = s["add column ".len()..].trim();
        let (def_part, table) =
            split_keyword(rest, "to").ok_or_else(|| err("ADD COLUMN needs `TO`"))?;
        let (col_part, default) = match split_keyword(def_part, "default") {
            Some((c, d)) => (c, Some(d)),
            None => (def_part, None),
        };
        let (cname, ty) = col_part
            .split_once(' ')
            .ok_or_else(|| err("ADD COLUMN needs `name type`"))?;
        let ty = parse_type(ty.trim())?;
        let fill = match default {
            Some(d) => ColumnFill::Default(Value::parse(d.trim_matches('\''), ty).map_err(err)?),
            None => ColumnFill::Default(Value::Null),
        };
        return Ok(Smo::AddColumn {
            table: table.to_string(),
            column: ColumnDef::new(cname.trim(), ty),
            fill,
        });
    }
    if lower.starts_with("drop column ") {
        let rest = s["drop column ".len()..].trim();
        let (column, table) =
            split_keyword(rest, "from").ok_or_else(|| err("DROP COLUMN needs `FROM`"))?;
        return Ok(Smo::DropColumn {
            table: table.to_string(),
            column: column.to_string(),
        });
    }
    if lower.starts_with("rename column ") {
        let rest = s["rename column ".len()..].trim();
        let (from, to_in) =
            split_keyword(rest, "to").ok_or_else(|| err("RENAME COLUMN needs `TO`"))?;
        let (to, table) =
            split_keyword(to_in, "in").ok_or_else(|| err("RENAME COLUMN needs `IN`"))?;
        return Ok(Smo::RenameColumn {
            table: table.to_string(),
            from: from.to_string(),
            to: to.to_string(),
        });
    }
    Err(err(format!("unrecognized statement {s:?}")))
}

/// Parses a script: one statement per line (or `;`-separated); `#` and `--`
/// start comments. Errors carry the 1-based source line, so a planner
/// rejecting statement 40 of a script points at the offending line.
pub fn parse_script(text: &str) -> Result<Vec<Smo>> {
    let mut smos = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("");
        let line = line.split("--").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            if !stmt.trim().is_empty() {
                smos.push(parse_smo(stmt).map_err(|e| match e {
                    EvolutionError::InvalidOperator(m) => err(format!("line {}: {m}", lineno + 1)),
                    other => other,
                })?);
            }
        }
    }
    Ok(smos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_with_key() {
        let smo = parse_smo("CREATE TABLE emp (id int, name str, KEY id)").unwrap();
        match smo {
            Smo::CreateTable { name, schema } => {
                assert_eq!(name, "emp");
                assert_eq!(schema.arity(), 2);
                assert_eq!(schema.key_names(), vec!["id"]);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_decompose_display_round_trip() {
        let smo =
            parse_smo("DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)").unwrap();
        // The Display form of the parsed SMO re-parses to the same operator.
        let rendered = smo.to_string();
        let reparsed = parse_smo(&rendered).unwrap();
        assert_eq!(reparsed.to_string(), rendered);
        match smo {
            Smo::DecomposeTable { input, spec } => {
                assert_eq!(input, "R");
                assert_eq!(spec.unchanged_cols, vec!["employee", "skill"]);
                assert_eq!(spec.changed_name, "T");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_merge_union_partition() {
        assert!(matches!(
            parse_smo("MERGE TABLES s, t INTO r").unwrap(),
            Smo::MergeTables { .. }
        ));
        assert!(matches!(
            parse_smo("UNION TABLES a, b INTO ab").unwrap(),
            Smo::UnionTables { .. }
        ));
        let smo = parse_smo("PARTITION TABLE t WHERE k < 10 AND v = 'x' INTO lo, hi").unwrap();
        match smo {
            Smo::PartitionTable { predicate, .. } => {
                assert!(matches!(predicate, Predicate::And(_, _)));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parses_column_smos() {
        let smo = parse_smo("ADD COLUMN dept str DEFAULT eng TO emp").unwrap();
        match smo {
            Smo::AddColumn {
                table,
                column,
                fill,
            } => {
                assert_eq!(table, "emp");
                assert_eq!(column.name, "dept");
                assert!(matches!(fill, ColumnFill::Default(Value::Str(_))));
            }
            other => panic!("{other}"),
        }
        assert!(matches!(
            parse_smo("DROP COLUMN dept FROM emp").unwrap(),
            Smo::DropColumn { .. }
        ));
        assert!(matches!(
            parse_smo("RENAME COLUMN a TO b IN emp").unwrap(),
            Smo::RenameColumn { .. }
        ));
    }

    #[test]
    fn parses_table_plumbing() {
        assert!(matches!(
            parse_smo("DROP TABLE t").unwrap(),
            Smo::DropTable { .. }
        ));
        assert!(matches!(
            parse_smo("rename table a to b").unwrap(),
            Smo::RenameTable { .. }
        ));
        assert!(matches!(
            parse_smo("COPY TABLE a TO b").unwrap(),
            Smo::CopyTable { .. }
        ));
    }

    #[test]
    fn predicate_literal_inference() {
        let p = parse_predicate("k = 5").unwrap();
        assert!(matches!(
            p,
            Predicate::Compare {
                literal: Value::Int(5),
                ..
            }
        ));
        let p = parse_predicate("k = 2.5").unwrap();
        assert!(matches!(
            p,
            Predicate::Compare {
                literal: Value::Float(_),
                ..
            }
        ));
        let p = parse_predicate("k = 'hello'").unwrap();
        assert!(matches!(
            p,
            Predicate::Compare {
                literal: Value::Str(_),
                ..
            }
        ));
        let p = parse_predicate("NOT k = true").unwrap();
        assert!(matches!(p, Predicate::Not(_)));
    }

    #[test]
    fn null_literal_is_null_and_quotes_force_strings() {
        let literal = |s: &str| match parse_predicate(s).unwrap() {
            Predicate::Compare { literal, .. } => literal,
            p => panic!("not a comparison: {p:?}"),
        };
        assert_eq!(literal("k = null"), Value::Null);
        assert_eq!(literal("k != NULL"), Value::Null);
        assert_eq!(literal("k = 'null'"), Value::str("null"));
        assert_eq!(literal("k = '5'"), Value::str("5"));
        assert_eq!(literal("k = TRUE"), Value::Bool(true));
    }

    #[test]
    fn script_with_comments_executes() {
        use crate::platform::Cods;
        let script = "\
# build and evolve the Figure 1 schema
CREATE TABLE r (employee str, skill str, address str)
-- nothing to load here; structure only
COPY TABLE r TO r2;
DROP TABLE r2
";
        let smos = parse_script(script).unwrap();
        assert_eq!(smos.len(), 3);
        let cods = Cods::new();
        cods.execute_all(smos).unwrap();
        assert_eq!(cods.catalog().table_names(), vec!["r"]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_smo("FROBNICATE TABLE x").is_err());
        assert!(parse_smo("DECOMPOSE TABLE R INTO S").is_err());
        assert!(parse_smo("CREATE TABLE t (id banana)").is_err());
        assert!(parse_smo("PARTITION TABLE t WHERE INTO a, b").is_err());
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        let err = parse_script("DROP TABLE a\n# comment\n\nFROBNICATE x").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
