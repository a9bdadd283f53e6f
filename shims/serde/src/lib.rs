//! Offline shim for the `serde` subset used by this workspace.
//!
//! Instead of serde's visitor-based data model, this shim serialises through
//! a JSON-like [`Value`] tree: `Serialize` renders a value into a tree and
//! `Deserialize` reads one back. `serde_json` (also shimmed) converts the
//! tree to and from text. The derive macros are re-exported from the local
//! `serde_derive` proc-macro crate.
//!
//! The derives support structs with named fields and, with
//! `#[serde(tag = "...", rename_all = "snake_case")]`, enums of newtype
//! variants (internal tagging).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree — the shim's serialisation data model.
///
/// Maps preserve insertion order so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Num(Number),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object (ordered key/value pairs).
    Map(Vec<(String, Value)>),
}

/// A JSON number, kept in its widest exact representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point (always finite; non-finite floats serialise as null).
    F(f64),
}

impl Number {
    /// The value as an `f64` (lossy above 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// The value as a `u64` if exactly representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(u) => Some(u),
            Number::I(i) => u64::try_from(i).ok(),
            Number::F(_) => None,
        }
    }

    /// The value as an `i64` if exactly representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(_) => None,
        }
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The map entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name of the value's JSON type, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Looks up `key` in an ordered map, yielding `Null` for missing keys (which
/// lets `Option` fields default to `None` exactly like serde).
pub fn map_get<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map_or(&NULL, |(_, v)| v)
}

/// Serialisation/deserialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// "invalid type" error: expected kind, got value.
    pub fn expected(what: &str, context: &str) -> Self {
        Self::msg(format!("expected {what} while deserialising {context}"))
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, field: &str) -> Self {
        Self::msg(format!("{}: {}", field, self.msg))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Renders a value into the shim's [`Value`] tree.
pub trait Serialize {
    /// Serialises `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Reconstructs a value from the shim's [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialises from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on a type or structure mismatch.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other.kind_name())),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other.kind_name())),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        // serde_json semantics: non-finite floats have no JSON form and
        // serialise as null. Deserialising null back into f64 fails, which
        // is why NaN-carrying containers must model missing points
        // explicitly (see ftcam-core::report).
        if self.is_finite() {
            Value::Num(Number::F(*self))
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Num(n) => Ok(n.as_f64()),
            other => Err(Error::expected("number", other.kind_name())),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        f64::from(*self).to_value()
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Num(n) => n.as_u64(),
                    _ => None,
                };
                n.and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| Error::expected(stringify!($t), v.kind_name()))
            }
        }
    )*};
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 {
                    Value::Num(Number::U(i as u64))
                } else {
                    Value::Num(Number::I(i))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Num(n) => n.as_i64(),
                    _ => None,
                };
                n.and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| Error::expected(stringify!($t), v.kind_name()))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);
impl_serde_int!(i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other.kind_name())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_seq() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(Error::expected("2-element array", v.kind_name())),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_seq() {
            Some([a, b, c]) => Ok((A::from_value(a)?, B::from_value(b)?, C::from_value(c)?)),
            _ => Err(Error::expected("3-element array", v.kind_name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_defaults_to_none_for_missing_keys() {
        let m = vec![("a".to_string(), Value::Num(Number::U(1)))];
        let missing = map_get(&m, "b");
        assert_eq!(Option::<f64>::from_value(missing).unwrap(), None);
        assert!(f64::from_value(missing).is_err());
    }

    #[test]
    fn nan_serialises_to_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(1.5f64.to_value(), Value::Num(Number::F(1.5)));
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big: u64 = u64::MAX - 3;
        let v = big.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), big);
        let neg: i64 = -42;
        assert_eq!(i64::from_value(&neg.to_value()).unwrap(), neg);
        assert!(u32::from_value(&(-1i64).to_value()).is_err());
    }
}
