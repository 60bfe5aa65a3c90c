//! Typed values stored in CODS tables.

use std::fmt;
use std::sync::Arc;

/// A totally ordered, hashable wrapper around `f64` (orders via
/// `f64::total_cmp`, hashes via the bit pattern), so floats can live in
/// dictionaries and B-tree indexes.
#[derive(Clone, Copy, Debug)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (total order).
    Float,
    /// UTF-8 string.
    Str,
}

impl ValueType {
    /// Short tag used by the binary persistence format.
    pub fn tag(self) -> u8 {
        match self {
            ValueType::Bool => 0,
            ValueType::Int => 1,
            ValueType::Float => 2,
            ValueType::Str => 3,
        }
    }

    /// Inverse of [`ValueType::tag`].
    pub fn from_tag(tag: u8) -> Option<ValueType> {
        Some(match tag {
            0 => ValueType::Bool,
            1 => ValueType::Int,
            2 => ValueType::Float,
            3 => ValueType::Str,
            _ => return None,
        })
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
        };
        write!(f, "{name}")
    }
}

impl std::str::FromStr for ValueType {
    type Err = String;

    /// Parses a type name, case-insensitively: `int`/`integer`,
    /// `str`/`string`/`text`/`varchar`, `float`/`double`/`real` or
    /// `bool`/`boolean`.
    fn from_str(name: &str) -> Result<ValueType, String> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" => Ok(ValueType::Int),
            "str" | "string" | "text" | "varchar" => Ok(ValueType::Str),
            "float" | "double" | "real" => Ok(ValueType::Float),
            "bool" | "boolean" => Ok(ValueType::Bool),
            _ => Err(format!(
                "unknown type {name:?} (use int, str, float or bool)"
            )),
        }
    }
}

/// A single cell value.
///
/// Strings are reference-counted so that dictionary entries, query results
/// and row materializations share one allocation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(OrderedF64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for integers.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Convenience constructor for floats.
    pub fn float(f: f64) -> Value {
        Value::Float(OrderedF64(f))
    }

    /// The value's type, or `None` for NULL.
    pub fn value_type(&self) -> Option<ValueType> {
        Some(match self {
            Value::Null => return None,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
        })
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` if the value is NULL or matches `ty`.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        self.value_type().is_none_or(|t| t == ty)
    }

    /// Parses a textual field into a value of type `ty`. Empty strings and
    /// the literal `NULL` parse as [`Value::Null`].
    pub fn parse(text: &str, ty: ValueType) -> Result<Value, String> {
        let t = text.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("null") {
            return Ok(Value::Null);
        }
        Ok(match ty {
            ValueType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Bool(true),
                "false" | "f" | "0" => Value::Bool(false),
                _ => return Err(format!("cannot parse {t:?} as bool")),
            },
            ValueType::Int => Value::Int(
                t.parse::<i64>()
                    .map_err(|e| format!("cannot parse {t:?} as int: {e}"))?,
            ),
            ValueType::Float => Value::float(
                t.parse::<f64>()
                    .map_err(|e| format!("cannot parse {t:?} as float: {e}"))?,
            ),
            ValueType::Str => Value::str(t),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ordering_is_total() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::int(-5),
            Value::int(7),
            Value::float(1.5),
            Value::float(f64::NAN),
            Value::str("abc"),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(sorted[0], Value::Null);
        // Sorting must be deterministic even with NaN present.
        let mut again = vals;
        again.sort();
        assert_eq!(sorted, again);
    }

    #[test]
    fn nan_is_hashable_and_equal_to_itself() {
        let mut set = HashSet::new();
        set.insert(Value::float(f64::NAN));
        assert!(set.contains(&Value::float(f64::NAN)));
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(Value::parse("42", ValueType::Int).unwrap(), Value::int(42));
        assert_eq!(
            Value::parse("hello", ValueType::Str).unwrap(),
            Value::str("hello")
        );
        assert_eq!(
            Value::parse("true", ValueType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::parse("2.5", ValueType::Float).unwrap(),
            Value::float(2.5)
        );
        assert_eq!(Value::parse("", ValueType::Int).unwrap(), Value::Null);
        assert_eq!(Value::parse("NULL", ValueType::Str).unwrap(), Value::Null);
        assert!(Value::parse("abc", ValueType::Int).is_err());
    }

    #[test]
    fn conformance() {
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::int(1).conforms_to(ValueType::Int));
        assert!(!Value::int(1).conforms_to(ValueType::Str));
    }

    #[test]
    fn type_tags_round_trip() {
        for ty in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
        ] {
            assert_eq!(ValueType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(ValueType::from_tag(99), None);
    }

    #[test]
    fn type_names_parse_and_round_trip_display() {
        for (name, ty) in [
            ("INTEGER", ValueType::Int),
            ("varchar", ValueType::Str),
            ("Double", ValueType::Float),
            ("boolean", ValueType::Bool),
        ] {
            assert_eq!(name.parse::<ValueType>(), Ok(ty));
            assert_eq!(ty.to_string().parse::<ValueType>(), Ok(ty));
        }
        assert!("banana".parse::<ValueType>().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::int(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(ValueType::Int.to_string(), "int");
    }
}
