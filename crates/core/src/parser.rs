//! A textual statement language for SMOs, in the style the demo UI uses to
//! specify operators. The grammar matches what [`Smo`]'s `Display`
//! implementation renders for the data-moving operators, so statements can
//! be logged, stored, and replayed. PARTITION's condition is the predicate
//! grammar of [`cods_query::pred`], quote-aware with AND/OR/NOT and
//! parentheses:
//!
//! ```text
//! CREATE TABLE t (id int, name str, KEY id)
//! DROP TABLE t
//! RENAME TABLE old TO new
//! COPY TABLE src TO dst
//! UNION TABLES a, b INTO out
//! PARTITION TABLE t WHERE col < 10 AND (name = 'salt and pepper' OR NOT ok = true) INTO sat, rest
//! DECOMPOSE TABLE r INTO s (a, b), t (a, c)
//! MERGE TABLES s, t INTO r
//! ADD COLUMN c int DEFAULT 0 TO t
//! DROP COLUMN c FROM t
//! RENAME COLUMN a TO b IN t
//! ```
//!
//! Keywords are case-insensitive; identifiers are case-sensitive. Type
//! names are [`ValueType`]'s `FromStr` names; a DEFAULT is a literal typed
//! by the predicate language's rule ([`cods_query::pred::bind_literal`]).

use crate::decompose::DecomposeSpec;
use crate::error::{EvolutionError, Result};
use crate::merge::MergeStrategy;
use crate::simple_ops::ColumnFill;
use crate::smo::Smo;
use cods_query::pred::{bind_literal, parse_literal, Predicate};
use cods_storage::{ColumnDef, Schema};

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

/// Byte offsets of `s` that lie outside single-quoted literals.
fn unquoted(s: &str) -> impl Iterator<Item = usize> + '_ {
    let mut quoted = false;
    s.char_indices().filter_map(move |(i, c)| {
        quoted ^= c == '\'';
        (!quoted && c != '\'').then_some(i)
    })
}

/// Case-insensitive split on the first unquoted ` <kw> ` as a word.
fn split_keyword<'a>(s: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let pat = format!(" {kw} ");
    unquoted(s)
        .find(|&i| {
            s.get(i..i + pat.len())
                .is_some_and(|w| w.eq_ignore_ascii_case(&pat))
        })
        .map(|i| (s[..i].trim(), s[i + pat.len()..].trim()))
}

/// `s` split at its first unquoted keyword `kw`, which `stmt` requires.
fn expect<'a>(s: &'a str, kw: &str, stmt: &str) -> Result<(&'a str, &'a str)> {
    split_keyword(s, kw).ok_or_else(|| err(format!("{stmt} needs `{}`", kw.to_uppercase())))
}

/// Exactly two comma-separated parts, the `what` of statement `stmt`.
fn two<'a>(s: &'a str, stmt: &str, what: &str) -> Result<(&'a str, &'a str)> {
    match split_top_level_commas(s).as_slice() {
        [a, b] => Ok((a, b)),
        _ => Err(err(format!("{stmt} needs exactly two {what}"))),
    }
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

/// Parses one SMO statement.
pub fn parse_smo(stmt: &str) -> Result<Smo> {
    let s = stmt.trim().trim_end_matches(';').trim();
    // The statement is named by its first two words.
    let mut words = s.splitn(3, char::is_whitespace);
    let head = format!(
        "{} {}",
        words.next().unwrap_or(""),
        words.next().unwrap_or("")
    );
    let head = head.to_ascii_uppercase();
    let rest = words.next().unwrap_or("").trim();
    let owned = |(a, b): (&str, &str)| (a.to_string(), b.to_string());
    Ok(match head.as_str() {
        "CREATE TABLE" => {
            let (name, cols) = parse_name_cols(rest)?;
            let mut defs = Vec::new();
            let mut keys: Vec<&str> = Vec::new();
            for c in &cols {
                if let Some(k) = c.strip_prefix("KEY ").or_else(|| c.strip_prefix("key ")) {
                    keys.extend(k.split_whitespace());
                    continue;
                }
                let (cname, ty) = c
                    .split_once(' ')
                    .ok_or_else(|| err(format!("column def {c:?} must be `name type`")))?;
                defs.push((cname.trim(), ty.trim().parse().map_err(err)?));
            }
            let schema = Schema::build(&defs, &keys).map_err(EvolutionError::Storage)?;
            Smo::CreateTable { name, schema }
        }
        "DROP TABLE" if !rest.is_empty() => Smo::DropTable {
            name: rest.to_string(),
        },
        "RENAME TABLE" => {
            let (from, to) = owned(expect(rest, "to", &head)?);
            Smo::RenameTable { from, to }
        }
        "COPY TABLE" => {
            let (from, to) = owned(expect(rest, "to", &head)?);
            Smo::CopyTable { from, to }
        }
        "UNION TABLES" => {
            let (inputs, output) = expect(rest, "into", &head)?;
            let (left, right) = owned(two(inputs, &head, "inputs")?);
            let output = output.to_string();
            Smo::UnionTables {
                left,
                right,
                output,
                drop_inputs: false,
            }
        }
        "PARTITION TABLE" => {
            let (input, where_into) = expect(rest, "where", &head)?;
            let (predicate, outputs) = expect(where_into, "into", &head)?;
            let (satisfying, rest) = owned(two(outputs, &head, "outputs")?);
            Smo::PartitionTable {
                input: input.to_string(),
                predicate: predicate.parse::<Predicate>().map_err(err)?,
                satisfying,
                rest,
            }
        }
        "DECOMPOSE TABLE" => {
            let (input, outputs) = expect(rest, "into", &head)?;
            let (first, second) = two(outputs, &head, "outputs")?;
            let (unchanged_name, unchanged_cols) = parse_name_cols(first)?;
            let (changed_name, changed_cols) = parse_name_cols(second)?;
            Smo::DecomposeTable {
                input: input.to_string(),
                spec: DecomposeSpec {
                    unchanged_name,
                    unchanged_cols,
                    changed_name,
                    changed_cols,
                    verify_fd: true,
                },
            }
        }
        "MERGE TABLES" => {
            let (inputs, output) = expect(rest, "into", &head)?;
            let (left, right) = owned(two(inputs, &head, "inputs")?);
            let output = output.to_string();
            let strategy = MergeStrategy::Auto;
            Smo::MergeTables {
                left,
                right,
                output,
                strategy,
            }
        }
        "ADD COLUMN" => {
            let (def, table) = expect(rest, "to", &head)?;
            let (def, default) = split_keyword(def, "default").unwrap_or((def, "null"));
            let (name, ty) = def
                .split_once(' ')
                .ok_or_else(|| err("ADD COLUMN needs `name type`"))?;
            let (name, ty) = (name.trim(), ty.trim().parse().map_err(err)?);
            let default = bind_literal(name, ty, &parse_literal(default));
            Smo::AddColumn {
                table: table.to_string(),
                column: ColumnDef::new(name, ty),
                fill: ColumnFill::Default(default.map_err(|e| err(e.to_string()))?),
            }
        }
        "DROP COLUMN" => {
            let (column, table) = owned(expect(rest, "from", &head)?);
            Smo::DropColumn { table, column }
        }
        "RENAME COLUMN" => {
            let (from, to_in) = expect(rest, "to", &head)?;
            let (to, table) = owned(expect(to_in, "in", &head)?);
            let from = from.to_string();
            Smo::RenameColumn { table, from, to }
        }
        _ => return Err(err(format!("unrecognized statement {s:?}"))),
    })
}

/// Parses a script: one statement per line (or `;`-separated); `#` and `--`
/// start comments. Errors carry the 1-based source line, so a planner
/// rejecting statement 40 of a script points at the offending line.
pub fn parse_script(text: &str) -> Result<Vec<Smo>> {
    let mut smos = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        // Comments and `;` count only outside quoted literals.
        let end = unquoted(line)
            .find(|&i| line[i..].starts_with('#') || line[i..].starts_with("--"))
            .unwrap_or(line.len());
        let line = &line[..end];
        let cuts: Vec<usize> = unquoted(line)
            .filter(|&i| line[i..].starts_with(';'))
            .collect();
        let mut start = 0;
        for cut in cuts.into_iter().chain([line.len()]) {
            let stmt = &line[start..cut];
            start = cut + 1;
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
    use cods_storage::Value;

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
        assert!(parse_smo("DROP TABLE").is_err());
        assert!(parse_smo("ADD COLUMN c int DEFAULT 'x' TO t").is_err());
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        let err = parse_script("DROP TABLE a\n# comment\n\nFROBNICATE x").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
