//! Round trip of the one predicate grammar: random predicate trees render
//! to text that parses back to the same tree, alone and inside a
//! PARTITION TABLE statement. Literal types survive the trip: a Float
//! `4.0` must not come back as the Int `4`, nor a string `'42'` as a
//! number.

use cods::{parse_smo, Smo};
use cods_query::{CmpOp, Predicate};
use cods_storage::Value;
use proptest::prelude::*;
use proptest::TestRng;

/// Words string literals are built from: keywords of both grammars,
/// digits, quotes, operators and parentheses.
const WORDS: &[&str] = &[
    "and", "OR", "Not", "into", "WHERE", "true", "null", "42", "4.0", "-7", "02139", "salt",
    "pepper", "it's", "''", "(a)", "<=", "=", "x,y", "",
];

const COLUMNS: &[&str] = &["a", "price", "zip", "name_2", "Col"];

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn pick<T: Copy>(items: &[T], rng: &mut TestRng) -> T {
    items[(0..items.len()).generate(rng)]
}

fn literal(rng: &mut TestRng) -> Value {
    match (0u8..5).generate(rng) {
        0 => Value::int((i64::MIN..i64::MAX).generate(rng)),
        1 => {
            let mantissa = (-100_000i64..100_000).generate(rng) as f64;
            Value::float(mantissa * 10f64.powi((-12i32..24).generate(rng)))
        }
        2 => Value::Bool(any::<bool>().generate(rng)),
        3 => Value::Null,
        _ => {
            let n = (1usize..5).generate(rng);
            let words: Vec<&str> = (0..n).map(|_| pick(WORDS, rng)).collect();
            Value::str(words.join(pick(&[" ", "  "], rng)))
        }
    }
}

/// Random predicate trees of at most `depth` levels of combinators.
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = Predicate;

    fn generate(&self, rng: &mut TestRng) -> Predicate {
        let sub = |rng: &mut TestRng| {
            Trees {
                depth: self.depth - 1,
            }
            .generate(rng)
        };
        let kind = if self.depth == 0 {
            0
        } else {
            (0u8..5).generate(rng)
        };
        match kind {
            0 if (0u8..12).generate(rng) == 0 => Predicate::True,
            0 | 1 => Predicate::Compare {
                column: pick(COLUMNS, rng).to_string(),
                op: pick(&OPS, rng),
                literal: literal(rng),
            },
            2 => sub(rng).and(sub(rng)),
            3 => sub(rng).or(sub(rng)),
            _ => sub(rng).not(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predicates_round_trip_through_text(p in Trees { depth: 4 }) {
        let text = p.to_string();
        prop_assert_eq!(text.parse::<Predicate>(), Ok(p.clone()), "text: {}", text);
    }

    #[test]
    fn partition_statements_round_trip_through_text(p in Trees { depth: 4 }) {
        let smo = Smo::PartitionTable {
            input: "t".into(),
            predicate: p,
            satisfying: "lo".into(),
            rest: "hi".into(),
        };
        let text = smo.to_string();
        match (smo, parse_smo(&text)) {
            (
                Smo::PartitionTable { predicate, .. },
                Ok(Smo::PartitionTable { input, predicate: back, satisfying, rest }),
            ) => {
                prop_assert_eq!(back, predicate, "text: {}", text);
                prop_assert_eq!((input.as_str(), satisfying.as_str(), rest.as_str()), ("t", "lo", "hi"));
            }
            (_, other) => panic!("{text} parsed to {other:?}"),
        }
    }
}

#[test]
fn literal_types_survive_rendering() {
    for (p, text) in [
        (Predicate::eq("a", 4.0), "a = 4.0"),
        (Predicate::eq("a", 4i64), "a = 4"),
        (Predicate::eq("a", "42"), "a = '42'"),
        (Predicate::eq("a", "it's"), "a = 'it''s'"),
        (Predicate::eq("a", Value::Null), "a = NULL"),
        (Predicate::eq("a", true), "a = true"),
    ] {
        assert_eq!(p.to_string(), text);
        assert_eq!(text.parse::<Predicate>(), Ok(p));
    }
}
