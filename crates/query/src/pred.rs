//! Row predicates — the condition language of PARTITION TABLE, the filter
//! operator and every REPL `where` clause — with its one text form.
//!
//! ```text
//! pred    := and { OR and }          -- AND binds tighter; both left-assoc
//! and     := unary { AND unary }
//! unary   := NOT unary | ( pred ) | TRUE | column op literal
//! op      := = | == | != | <> | < | <= | > | >=
//! literal := 'text' | word           -- see parse_literal; '' escapes a quote
//! ```
//!
//! Keywords are case-insensitive and spaces around operators are optional.
//! [`Predicate`]'s `Display` renders this grammar, so
//! `p.to_string().parse() == Ok(p)`. Text is untyped; [`Predicate::bind`]
//! types the literals against a schema.

use cods_storage::{Dictionary, Schema, StorageError, Value, ValueType};
use std::fmt;

/// Reads an untyped literal — the one rule shared by the SMO script
/// language and both REPLs. `null`, `true` and `false` (any case) are
/// NULL and booleans; bare numbers become `Int`, else `Float`; anything
/// else is a string. Single quotes force a string and are stripped (`''`
/// inside them is one quote), so `'42'` and `'null'` are strings.
pub fn parse_literal(s: &str) -> Value {
    if let Some(inner) = s.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        return Value::str(inner.replace("''", "'"));
    }
    for (word, v) in [
        ("null", Value::Null),
        ("true", Value::Bool(true)),
        ("false", Value::Bool(false)),
    ] {
        if s.eq_ignore_ascii_case(word) {
            return v;
        }
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::float(f);
    }
    Value::str(s)
}

/// Types `literal` for a column of type `ty` — the one literal-typing
/// rule. NULL and literals of the column's own type are kept; an `Int`
/// literal on a `Float` column becomes a `Float`; anything else is a
/// [`StorageError::RowMismatch`] naming the column.
pub fn bind_literal(column: &str, ty: ValueType, literal: &Value) -> Result<Value, StorageError> {
    match (literal, literal.value_type()) {
        (Value::Int(i), _) if ty == ValueType::Float => Ok(Value::float(*i as f64)),
        (_, None) => Ok(Value::Null),
        (v, Some(t)) if t == ty => Ok(v.clone()),
        (v, Some(t)) => Err(StorageError::RowMismatch(format!(
            "column {column:?} is {ty} but literal {v} is {t}{}",
            if ty == ValueType::Str {
                "; quote it ('...') to make it text"
            } else {
                ""
            }
        ))),
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Every operator in declaration order, which is also its wire tag
    /// order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Expresses the satisfying value set of `column <op> literal` as a
    /// contiguous **rank interval** `[lo, hi)` in the dictionary's value
    /// order, or `None` when the set is not an interval (only `Ne` against
    /// a non-NULL literal). This is what makes zone maps decisive for range
    /// scans: finding the satisfying set costs two binary searches over the
    /// ordered view instead of one predicate evaluation per distinct value,
    /// and a segment is prunable iff its zone's rank span misses the
    /// interval.
    ///
    /// The interval matches [`CompiledPredicate::eval`]'s collapsed
    /// three-valued logic exactly: NULL rows satisfy nothing except
    /// `Eq/Le/Ge NULL` (which compare `Equal`) and `Ne <non-null>`.
    pub fn sat_rank_interval(self, dict: &Dictionary, literal: &Value) -> Option<(u32, u32)> {
        let order = dict.value_order();
        let ordered = order.ordered();
        let d = ordered.len() as u32;
        // NULL sorts first; its rank span is [0, nulls).
        let nulls = u32::from(d > 0 && dict.value(ordered[0]) == &Value::Null);
        if literal == &Value::Null {
            return Some(match self {
                // NULL op NULL compares Equal.
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => (0, nulls),
                CmpOp::Lt | CmpOp::Gt => (0, 0),
                // value != NULL is true for every non-null value.
                CmpOp::Ne => (nulls, d),
            });
        }
        let lt = ordered.partition_point(|&id| dict.value(id) < literal) as u32;
        let le = ordered.partition_point(|&id| dict.value(id) <= literal) as u32;
        Some(match self {
            CmpOp::Eq => (lt, le),
            // NULL < literal in the total order but never satisfies a
            // range comparison: clamp the interval past the NULL rank.
            CmpOp::Lt => (nulls, lt),
            CmpOp::Le => (nulls, le),
            CmpOp::Gt => (le, d),
            CmpOp::Ge => (lt, d),
            CmpOp::Ne => return None,
        })
    }
}

/// A boolean predicate over a row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// `column <op> literal`. NULL compares false against everything except
    /// `Eq NULL` / `Ne NULL`, matching three-valued logic collapsed to bool.
    Compare {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true.
    True,
}

impl Predicate {
    /// Convenience constructor for `column = literal`.
    pub fn eq(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Eq,
            literal: literal.into(),
        }
    }

    /// Convenience constructor for `column < literal`.
    pub fn lt(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Lt,
            literal: literal.into(),
        }
    }

    /// Convenience constructor for `column >= literal`.
    pub fn ge(column: impl Into<String>, literal: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Ge,
            literal: literal.into(),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Checks every column against `schema` and types every literal by
    /// [`bind_literal`]. Mask building binds first and [`compile`] applies
    /// the same rule, so a literal never compares across types.
    ///
    /// [`compile`]: Predicate::compile
    pub fn bind(&self, schema: &Schema) -> Result<Predicate, StorageError> {
        Ok(match self {
            Predicate::Compare {
                column,
                op,
                literal,
            } => Predicate::Compare {
                column: column.clone(),
                op: *op,
                literal: bind_literal(column, schema.column(column)?.ty, literal)?,
            },
            Predicate::And(a, b) => a.bind(schema)?.and(b.bind(schema)?),
            Predicate::Or(a, b) => a.bind(schema)?.or(b.bind(schema)?),
            Predicate::Not(p) => p.bind(schema)?.not(),
            Predicate::True => Predicate::True,
        })
    }

    /// Compiles the predicate against a schema, resolving column names to
    /// positions and typing literals by [`bind_literal`].
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate, StorageError> {
        Ok(match self {
            Predicate::Compare {
                column,
                op,
                literal,
            } => {
                let idx = schema.index_of(column)?;
                CompiledPredicate::Compare {
                    column: idx,
                    op: *op,
                    literal: bind_literal(column, schema.columns()[idx].ty, literal)?,
                }
            }
            Predicate::And(a, b) => {
                CompiledPredicate::And(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Or(a, b) => {
                CompiledPredicate::Or(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
            Predicate::Not(p) => CompiledPredicate::Not(Box::new(p.compile(schema)?)),
            Predicate::True => CompiledPredicate::True,
        })
    }
}

/// Operator spellings; the first spelling of each operator is the one
/// `Display` writes.
const OPS: [(&str, CmpOp); 8] = [
    ("=", CmpOp::Eq),
    ("!=", CmpOp::Ne),
    ("<", CmpOp::Lt),
    ("<=", CmpOp::Le),
    (">", CmpOp::Gt),
    (">=", CmpOp::Ge),
    ("==", CmpOp::Eq),
    ("<>", CmpOp::Ne),
];

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (text, _) = OPS.iter().find(|(_, op)| op == self).expect("every op");
        f.write_str(text)
    }
}

impl fmt::Display for Predicate {
    /// Renders the grammar the module docs give, parenthesizing only where
    /// the tree differs from the left-associative parse.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Binding strength: OR < AND < everything else.
        let child = |f: &mut fmt::Formatter<'_>, p: &Predicate, min: u8| {
            let prec = match p {
                Predicate::Or(..) => 1,
                Predicate::And(..) => 2,
                _ => 3,
            };
            if prec < min {
                write!(f, "({p})")
            } else {
                write!(f, "{p}")
            }
        };
        let (a, b, word, prec) = match self {
            Predicate::Compare {
                column,
                op,
                literal,
            } => {
                return match literal {
                    Value::Str(s) => write!(f, "{column} {op} '{}'", s.replace('\'', "''")),
                    // Debug keeps the point, so `4.0` reads back as a Float.
                    Value::Float(x) => write!(f, "{column} {op} {:?}", x.0),
                    v => write!(f, "{column} {op} {v}"),
                };
            }
            Predicate::Not(p) => {
                f.write_str("NOT ")?;
                return child(f, p, 3);
            }
            Predicate::True => return f.write_str("TRUE"),
            Predicate::And(a, b) => (a, b, "AND", 2),
            Predicate::Or(a, b) => (a, b, "OR", 1),
        };
        child(f, a, prec)?;
        write!(f, " {word} ")?;
        child(f, b, prec + 1)
    }
}

impl std::str::FromStr for Predicate {
    type Err = String;

    /// Parses the grammar the module docs give.
    fn from_str(text: &str) -> Result<Predicate, String> {
        let toks = lex(text)?;
        let mut rest = toks.as_slice();
        let pred = parse(&mut rest, 1)?;
        match rest.first() {
            None => Ok(pred),
            Some(t) => Err(format!("unexpected `{t}` in predicate {text:?}")),
        }
    }
}

/// Characters that end a word: parentheses, quotes, operator characters.
const SPECIAL: [char; 7] = ['(', ')', '\'', '=', '!', '<', '>'];

/// Splits predicate text into tokens: parentheses, operators, quoted
/// literals (quotes kept) and words.
fn lex(text: &str) -> Result<Vec<&str>, String> {
    let mut toks = Vec::new();
    let mut rest = text.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = match c {
            '(' | ')' => 1,
            '\'' => {
                // Up to the first quote that is not doubled.
                let mut end = 1;
                loop {
                    match rest[end..].find('\'') {
                        None => return Err(format!("unterminated quote in {text:?}")),
                        Some(i) if rest[end + i + 1..].starts_with('\'') => end += i + 2,
                        Some(i) => break end + i + 1,
                    }
                }
            }
            '=' | '!' | '<' | '>' => {
                let two = OPS
                    .iter()
                    .any(|(op, _)| op.len() == 2 && rest.starts_with(op));
                1 + usize::from(two)
            }
            _ => rest
                .find(|ch: char| ch.is_whitespace() || SPECIAL.contains(&ch))
                .unwrap_or(rest.len()),
        };
        toks.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    Ok(toks)
}

/// Consumes the next token if it is keyword `kw`.
fn eat(toks: &mut &[&str], kw: &str) -> bool {
    let hit = toks.first().is_some_and(|t| t.eq_ignore_ascii_case(kw));
    if hit {
        *toks = &toks[1..];
    }
    hit
}

/// Recursive descent: an OR chain at `level` 1, an AND chain at 2, a
/// unary term at 3.
fn parse(toks: &mut &[&str], level: u8) -> Result<Predicate, String> {
    if level < 3 {
        let mut p = parse(toks, level + 1)?;
        while eat(toks, if level == 1 { "or" } else { "and" }) {
            let rhs = parse(toks, level + 1)?;
            p = if level == 1 { p.or(rhs) } else { p.and(rhs) };
        }
        return Ok(p);
    }
    if eat(toks, "not") {
        return Ok(parse(toks, 3)?.not());
    }
    if eat(toks, "(") {
        let p = parse(toks, 1)?;
        return match eat(toks, ")") {
            true => Ok(p),
            false => Err("missing `)` in predicate".into()),
        };
    }
    let op = toks.get(1).and_then(|o| OPS.iter().find(|(s, _)| s == o));
    let (pred, used) = match (*toks, op) {
        ([column, _, lit, ..], Some(&(_, op)))
            if !column.starts_with(SPECIAL)
                && (lit.starts_with('\'') || !lit.starts_with(SPECIAL)) =>
        {
            let literal = parse_literal(lit);
            let column = column.to_string();
            (
                Predicate::Compare {
                    column,
                    op,
                    literal,
                },
                3,
            )
        }
        ([t, ..], _) if t.eq_ignore_ascii_case("true") => (Predicate::True, 1),
        ([t, ..], _) => return Err(format!("expected `<column> <op> <literal>` at `{t}`")),
        ([], _) => return Err("predicate ends early".into()),
    };
    *toks = &toks[used..];
    Ok(pred)
}

/// A predicate with column names resolved to row positions.
#[derive(Clone, Debug)]
pub enum CompiledPredicate {
    /// `row[column] <op> literal`.
    Compare {
        /// Resolved column position.
        column: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// Conjunction.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Disjunction.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Negation.
    Not(Box<CompiledPredicate>),
    /// Always true.
    True,
}

impl CompiledPredicate {
    /// Evaluates against a row.
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            CompiledPredicate::Compare {
                column,
                op,
                literal,
            } => {
                let v = &row[*column];
                match (v, literal) {
                    // NULL only matches equality against NULL.
                    (Value::Null, Value::Null) => op.eval(std::cmp::Ordering::Equal),
                    (Value::Null, _) | (_, Value::Null) => matches!(op, CmpOp::Ne),
                    _ => op.eval(v.cmp(literal)),
                }
            }
            CompiledPredicate::And(a, b) => a.eval(row) && b.eval(row),
            CompiledPredicate::Or(a, b) => a.eval(row) || b.eval(row),
            CompiledPredicate::Not(p) => !p.eval(row),
            CompiledPredicate::True => true,
        }
    }

    /// Evaluates against a single value, as if the row were `[value]`.
    /// Mask building evaluates a `Ne` comparison this way once per
    /// *distinct dictionary value* rather than per row.
    pub fn eval_value(&self, value: &Value) -> bool {
        self.eval(std::slice::from_ref(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::ValueType;

    #[test]
    fn literal_parsing_is_untyped_but_sensible() {
        assert_eq!(parse_literal("null"), Value::Null);
        assert_eq!(parse_literal("NULL"), Value::Null);
        assert_eq!(parse_literal("'null'"), Value::str("null"));
        assert_eq!(parse_literal("true"), Value::Bool(true));
        assert_eq!(parse_literal("FALSE"), Value::Bool(false));
        assert_eq!(parse_literal("42"), Value::int(42));
        assert_eq!(parse_literal("'42'"), Value::str("42"));
        assert_eq!(parse_literal("4.5"), Value::float(4.5));
        assert_eq!(parse_literal("'Jones'"), Value::str("Jones"));
        assert_eq!(parse_literal("Jones"), Value::str("Jones"));
        assert_eq!(parse_literal("'it''s'"), Value::str("it's"));
    }

    fn parse(text: &str) -> Predicate {
        text.parse()
            .unwrap_or_else(|e| panic!("{text:?} failed: {e}"))
    }

    #[test]
    fn grammar_spacing_aliases_and_precedence() {
        let k3 = |op| Predicate::Compare {
            column: "k".into(),
            op,
            literal: Value::int(3),
        };
        for (text, op) in [
            ("k=3", CmpOp::Eq),
            ("k == 3", CmpOp::Eq),
            ("k!=3", CmpOp::Ne),
            ("k <> 3", CmpOp::Ne),
            ("k<3", CmpOp::Lt),
            ("k <=3", CmpOp::Le),
            ("k> 3", CmpOp::Gt),
            ("k >= 3", CmpOp::Ge),
        ] {
            assert_eq!(parse(text), k3(op), "{text}");
        }
        let (a, b, c) = (parse("a=1"), parse("b=2"), parse("c=3"));
        assert_eq!(
            parse("a=1 and b=2 OR c=3"),
            a.clone().and(b.clone()).or(c.clone())
        );
        assert_eq!(
            parse("a=1 AND (b=2 or c=3)"),
            a.clone().and(b.clone().or(c.clone()))
        );
        assert_eq!(parse("NOT a=1 AND b=2"), a.clone().not().and(b.clone()));
        assert_eq!(parse("not (a=1 or b=2)"), a.or(b).not());
        assert_eq!(parse("TRUE"), Predicate::True);
        assert_eq!(parse("k<-3"), Predicate::lt("k", -3i64));
    }

    #[test]
    fn quoted_literals_hide_keywords_and_operators() {
        assert_eq!(
            parse("name = 'salt and pepper' OR name='a<=b (c)'"),
            Predicate::eq("name", "salt and pepper").or(Predicate::eq("name", "a<=b (c)"))
        );
        assert_eq!(parse("n = 'it''s'"), Predicate::eq("n", "it's"));
        for bad in [
            "",
            "k",
            "k =",
            "k = 'open",
            "(k = 1",
            "k = 1 k = 2",
            "k ! 1",
            "= 1",
        ] {
            assert!(bad.parse::<Predicate>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn bind_types_literals_by_column() {
        let s = Schema::build(
            &[
                ("i", ValueType::Int),
                ("f", ValueType::Float),
                ("s", ValueType::Str),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(
            parse("f < 3").bind(&s).unwrap(),
            Predicate::lt("f", Value::float(3.0))
        );
        assert_eq!(parse("s = null").bind(&s).unwrap(), parse("s = null"));
        assert_eq!(parse("s = '02139'").bind(&s).unwrap(), parse("s = '02139'"));
        let err = parse("s = 02139").bind(&s).unwrap_err();
        assert!(
            matches!(&err, StorageError::RowMismatch(m) if m.contains("\"s\"") && m.contains("quote")),
            "{err}"
        );
        assert!(parse("i = 2.5").bind(&s).is_err());
        assert!(parse("i = true").bind(&s).is_err());
        assert!(matches!(
            parse("zz = 1").bind(&s),
            Err(StorageError::UnknownColumn(_))
        ));
        // compile applies the same rule.
        let c = parse("f < 3").compile(&s).unwrap();
        assert!(c.eval(&[Value::Null, Value::float(2.5), Value::Null]));
        assert!(parse("s = 1").compile(&s).is_err());
    }

    fn schema() -> Schema {
        Schema::build(&[("a", ValueType::Int), ("b", ValueType::Str)], &[]).unwrap()
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let row = vec![Value::int(5), Value::str("x")];
        assert!(Predicate::eq("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::lt("a", 6i64).compile(&s).unwrap().eval(&row));
        assert!(!Predicate::lt("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::ge("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(Predicate::eq("b", "x").compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let row = vec![Value::int(5), Value::str("x")];
        let p = Predicate::eq("a", 5i64).and(Predicate::eq("b", "x"));
        assert!(p.compile(&s).unwrap().eval(&row));
        let p = Predicate::eq("a", 9i64).or(Predicate::eq("b", "x"));
        assert!(p.compile(&s).unwrap().eval(&row));
        let p = Predicate::eq("a", 5i64).not();
        assert!(!p.compile(&s).unwrap().eval(&row));
        assert!(Predicate::True.compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let row = vec![Value::Null, Value::str("x")];
        assert!(!Predicate::eq("a", 5i64).compile(&s).unwrap().eval(&row));
        assert!(!Predicate::lt("a", 5i64).compile(&s).unwrap().eval(&row));
        // NULL = NULL treated as true (collapsed 3VL, documented).
        let p = Predicate::Compare {
            column: "a".into(),
            op: CmpOp::Eq,
            literal: Value::Null,
        };
        assert!(p.compile(&s).unwrap().eval(&row));
    }

    #[test]
    fn unknown_column_fails_compile() {
        assert!(Predicate::eq("zzz", 1i64).compile(&schema()).is_err());
    }

    #[test]
    fn sat_rank_interval_matches_eval_value() {
        // Dictionary in first-appearance order: 7, NULL, 3, 9.
        let dict = cods_storage::Dictionary::from_values(vec![
            Value::int(7),
            Value::Null,
            Value::int(3),
            Value::int(9),
        ])
        .unwrap();
        let ranks = dict.value_order().ranks().to_vec();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in [
                Value::Null,
                Value::int(2),
                Value::int(3),
                Value::int(8),
                Value::int(9),
                Value::int(10),
            ] {
                let probe = CompiledPredicate::Compare {
                    column: 0,
                    op,
                    literal: lit.clone(),
                };
                let interval = op.sat_rank_interval(&dict, &lit);
                match interval {
                    Some((lo, hi)) => {
                        for (id, v) in dict.iter() {
                            let r = ranks[id as usize];
                            assert_eq!(
                                lo <= r && r < hi,
                                probe.eval_value(v),
                                "{op:?} {lit} id {id} ({v})"
                            );
                        }
                    }
                    None => assert_eq!(op, CmpOp::Ne, "only Ne falls back"),
                }
            }
        }
        // Empty dictionary: every interval is empty.
        let empty = cods_storage::Dictionary::new();
        assert_eq!(
            CmpOp::Lt.sat_rank_interval(&empty, &Value::int(1)),
            Some((0, 0))
        );
    }

    #[test]
    fn eval_value_single_column() {
        let p = Predicate::Compare {
            column: "v".into(),
            op: CmpOp::Ge,
            literal: Value::int(10),
        };
        let s = Schema::build(&[("v", ValueType::Int)], &[]).unwrap();
        let c = p.compile(&s).unwrap();
        assert!(c.eval_value(&Value::int(10)));
        assert!(!c.eval_value(&Value::int(9)));
    }
}
