//! Offline shim for the `serde_json` subset used by this workspace:
//! [`Value`], [`to_value`], [`to_string`], [`to_string_pretty`], and
//! [`from_str`].
//!
//! Serialisation renders the serde shim's `Value` tree; parsing is a plain
//! recursive-descent JSON reader. Matching upstream semantics, non-finite
//! floats serialise as `null`, and `null` does not deserialise into `f64`.

#![forbid(unsafe_code)]

use serde::{Deserialize, Number, Serialize};

pub use serde::{Error, Value};

/// A JSON result.
pub type Result<T> = std::result::Result<T, Error>;

/// Renders a value into a [`Value`] tree.
///
/// # Errors
///
/// Infallible for tree-backed values; kept fallible for API parity.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Serialises a value to compact JSON.
///
/// # Errors
///
/// Infallible for tree-backed values; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises a value to human-readable JSON (two-space indent).
///
/// # Errors
///
/// Infallible for tree-backed values; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    T::from_value(&v)
}

// ---------------------------------------------------------------- writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            write_compound(out, indent, depth, '[', ']', items.len(), |o, i, d| {
                write_value(o, &items[i], indent, d);
            })
        }
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |o, i, d| {
                write_string(o, &entries[i].0);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, &entries[i].1, indent, d);
            });
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U(u) => out.push_str(&u.to_string()),
        Number::I(i) => out.push_str(&i.to_string()),
        Number::F(f) => {
            // Rust's float Display is the shortest representation that
            // round-trips, so values survive to_string/from_str exactly.
            if f == f.trunc() && f.abs() < 1e15 {
                // Keep integral floats distinguishable as floats.
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {} of JSON input",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid UTF-8 in JSON string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                _ => return Err(Error::msg("unterminated JSON string")),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char> {
        let b = self
            .peek()
            .ok_or_else(|| Error::msg("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.parse_hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.parse_hex4()?;
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| Error::msg("invalid \\u escape"))?
            }
            other => {
                return Err(Error::msg(format!(
                    "invalid escape `\\{}` in JSON string",
                    other as char
                )))
            }
        })
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::msg("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::msg("invalid \\u escape"))?;
        self.pos = end;
        u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<f64>("1e-15").unwrap(), 1e-15);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for &v in &[1.5e-15, 0.1 + 0.2, f64::MAX, 1.0 / 3.0, -2.5e-9] {
            let s = to_string(&v).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), v, "via {s}");
        }
    }

    #[test]
    fn nan_becomes_null_and_null_rejects_f64() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert!(from_str::<f64>("null").is_err());
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a\"b\\c\nd\tе".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
    }

    #[test]
    fn vectors_and_tuples() {
        let v: Vec<(usize, f64)> = vec![(0, 1.0), (2, 3.5)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[0,1.0],[2,3.5]]");
        assert_eq!(from_str::<Vec<(usize, f64)>>(&json).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }
}
