//! The one query-tail grammar, shared by the local shell's `explain` and
//! the `connect` REPL:
//!
//! ```text
//! count <table> [where <pred>]
//! scan <table> [select <c1,c2,…>] [where <pred>]
//! agg <table> by <c1,c2,…|-> <op:col,…> [where <pred>]
//! join <left> <right> on <lcol=rcol,…>
//! ```
//!
//! `<pred>` is the predicate grammar of [`cods_query::pred`]: quote-aware,
//! AND/OR/NOT with parentheses, spaces around operators optional. `op` is
//! an [`AggOp`] name; each aggregate's output column is named `op(col)`.
//! A parsed tail is the wire [`Command`] the `connect` REPL sends.

use cods_query::{AggOp, Predicate};
use cods_server::Command;

/// The raw text after the first `n` whitespace-separated words of `line`,
/// so quoted literals keep their inner spacing.
pub(crate) fn tail_after(line: &str, n: usize) -> &str {
    let mut rest = line.trim();
    for _ in 0..n {
        rest = rest
            .find(char::is_whitespace)
            .map_or("", |i| rest[i..].trim_start());
    }
    rest
}

/// The usage line of query command `cmd`.
fn usage(cmd: &str) -> String {
    let tail = match cmd {
        "count" => "<table> [where <pred>]",
        "scan" => "<table> [select <c1,c2,…>] [where <pred>]",
        "agg" => "<table> by <c1,c2,…|-> <op:col,…> [where <pred>]",
        "join" => "<left> <right> on <lcol=rcol,…>",
        _ => return "query commands: count, scan, agg, join".into(),
    };
    format!("usage: {cmd} {tail}")
}

/// Parses the tail of query command `cmd` (`count`, `scan`, `agg` or
/// `join`) into its `Mask`, `Scan`, `GroupBy` or `Join` request.
pub fn parse_query(cmd: &str, tail: &str) -> Result<Command, String> {
    // Words up to `where`; the predicate is the raw text after it.
    let mut words = Vec::new();
    let mut rest = tail.trim();
    let mut predicate = Predicate::True;
    while let Some(word) = rest.split_whitespace().next() {
        rest = tail_after(rest, 1);
        if word == "where" && cmd != "join" {
            predicate = rest.parse()?;
            break;
        }
        words.push(word);
    }
    let list = |s: &str| s.split(',').map(|c| c.trim().to_string()).collect();
    Ok(match (cmd, words.as_slice()) {
        ("count", [table]) => Command::Mask {
            table: table.to_string(),
            predicate,
        },
        ("scan", [table] | [table, "select", _]) => Command::Scan {
            table: table.to_string(),
            projection: words.get(2).map(|cols| list(cols)),
            predicate,
        },
        ("agg", [table, "by", groups, specs]) => Command::GroupBy {
            table: table.to_string(),
            group_by: if *groups == "-" {
                Vec::new()
            } else {
                list(groups)
            },
            aggs: specs
                .split(',')
                .map(|spec| {
                    let (op, col) = spec
                        .split_once(':')
                        .ok_or_else(|| format!("bad aggregate {spec:?}, want op:col"))?;
                    Ok((op.parse::<AggOp>()?, col.to_string()))
                })
                .collect::<Result<_, String>>()?,
            predicate,
        },
        ("join", [left, right, "on", pairs]) => {
            let (left_keys, right_keys) = pairs
                .split(',')
                .map(|pair| match pair.split_once('=') {
                    Some((l, r)) => Ok((l.trim().to_string(), r.trim().to_string())),
                    None => Err(format!("bad key pair {pair:?}, want lcol=rcol")),
                })
                .collect::<Result<Vec<_>, String>>()?
                .into_iter()
                .unzip();
            Command::Join {
                left: left.to_string(),
                right: right.to_string(),
                left_keys,
                right_keys,
            }
        }
        _ => return Err(usage(cmd)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_keep_quoted_spacing_and_split_at_where() {
        assert_eq!(tail_after("  run  COPY TABLE  a", 1), "COPY TABLE  a");
        assert_eq!(tail_after("count", 1), "");
        match parse_query("count", "R where name = 'a  and  b' or k<3").unwrap() {
            Command::Mask { table, predicate } => {
                assert_eq!(table, "R");
                assert_eq!(predicate.to_string(), "name = 'a  and  b' OR k < 3");
            }
            q => panic!("{q:?}"),
        }
    }

    #[test]
    fn every_shape_parses_and_bad_tails_give_usage() {
        let q = parse_query("scan", "R select a,b where a >= 2").unwrap();
        assert!(matches!(q, Command::Scan { projection: Some(p), .. } if p == ["a", "b"]));
        match parse_query("agg", "R by - count:skill,distinct:address").unwrap() {
            Command::GroupBy { group_by, aggs, .. } => {
                assert!(group_by.is_empty());
                assert_eq!(
                    aggs,
                    [
                        (AggOp::Count, "skill".to_string()),
                        (AggOp::CountDistinct, "address".to_string())
                    ]
                );
            }
            q => panic!("{q:?}"),
        }
        let e = parse_query("join", "R S on a=b, c = d").unwrap_err();
        assert!(e.starts_with("usage: join"), "{e}");
        match parse_query("join", "R S on a=b,c=d").unwrap() {
            Command::Join {
                left_keys,
                right_keys,
                ..
            } => {
                assert_eq!(left_keys, ["a", "c"]);
                assert_eq!(right_keys, ["b", "d"]);
            }
            q => panic!("{q:?}"),
        }
        for (cmd, tail) in [
            ("count", ""),
            ("count", "R where"),
            ("agg", "R employee count:skill"),
            ("agg", "R by employee bogus:skill"),
            ("join", "R R2 on employee"),
            ("join", "R R2 on"),
        ] {
            assert!(parse_query(cmd, tail).is_err(), "{cmd} {tail}");
        }
    }
}
