//! The workspace's one JSON module: a [`Value`] tree with its parser, and
//! a push-style writer for every record the workspace emits.
//!
//! The offline build has no serde. Reading is a small recursive-descent
//! parser into [`Value`] plus typed accessors that turn shape errors into
//! readable messages. Writing is [`ToJson`]: a record renders itself into
//! a caller's `String` through [`object`] and [`Object::field`], which emit
//! keys in call order and own escaping, `null` for `None`, number
//! formatting and the fixed-precision floats ([`Object::fixed`]) the
//! artifacts use.
//! There are no options and no pretty-printing, so a record's bytes are
//! exactly the order of its `field` calls.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number with a sign, a fraction or an exponent.
    Num(f64),
    /// A plain digit string that fits a `u64`, kept exact: a plan's seed
    /// uses all 64 bits, and an `f64` would round anything past 2^53.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Ordered map so error messages are deterministic.
    Obj(BTreeMap<String, Value>),
}

/// A parse or shape error, with enough context to fix the document.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting is a stack overflow a
/// plan file could trigger; plans nest only a handful of levels.
const MAX_DEPTH: usize = 64;

/// Every integer below this is exact in an `f64`, and none at or above it
/// is known to be: 2^53 + 1 reads as 2^53.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The text of `bytes[start..self.pos]`.
    fn text(&self, start: usize) -> Result<&str, JsonError> {
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError(format!("invalid utf-8 at byte {start}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // The run up to the next quote or backslash, copied at once.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            s.push_str(self.text(start)?);
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError("dangling escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        other => return err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = self.text(start)?;
        if let Ok(n) = text.parse() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| JsonError(format!("bad number '{text}' at byte {start}")))
    }

    /// Parse one value sitting `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.value(depth + 1)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }
}

impl Value {
    /// Parse a complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// This value as an object map.
    pub fn as_obj(&self) -> Result<&BTreeMap<String, Value>, JsonError> {
        match self {
            Value::Obj(m) => Ok(m),
            other => err(format!("expected object, found {other:?}")),
        }
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(v) => Ok(v),
            other => err(format!("expected array, found {other:?}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => err(format!("expected boolean, found {other:?}")),
        }
    }

    /// This value as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(n) => Ok(*n),
            Value::Int(n) => Ok(*n as f64),
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// This value as a non-negative integer. Rejects fractions, and
    /// whatever an `f64` may have rounded on the way in (`1e300`, a digit
    /// string past `u64::MAX`) instead of passing the rounded value on.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match *self {
            Value::Int(n) => Ok(n),
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT => Ok(n as u64),
            _ => err(format!("expected unsigned integer, found {self:?}")),
        }
    }

    /// This value as a non-negative integer that fits `T` — a `u32`
    /// parameter, a `usize` pid or count — never a truncated one.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, JsonError> {
        let n = self.as_u64()?;
        T::try_from(n).or_else(|_| err(format!("{n} is out of range")))
    }

    /// Fetch a required field of an object.
    pub fn field(&self, name: &str) -> Result<&Value, JsonError> {
        self.as_obj()?
            .get(name)
            .ok_or_else(|| JsonError(format!("missing field \"{name}\"")))
    }

    /// Fetch an optional field (absent or `null` → `None`).
    pub fn opt_field(&self, name: &str) -> Result<Option<&Value>, JsonError> {
        Ok(self
            .as_obj()?
            .get(name)
            .filter(|v| !matches!(v, Value::Null)))
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out` with `"`, `\`, newline, tab and carriage return
/// escaped — the escapes [`Value::parse`] reads back.
fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(esc);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// A value the writer can emit: a number, a boolean, a string, `None` as
/// `null`, a slice or pair as an array, or a record as an object.
pub trait ToJson {
    /// Append this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// Render one value as a fresh JSON string.
pub fn render(v: &impl ToJson) -> String {
    let mut out = String::with_capacity(128);
    v.write_json(&mut out);
    out
}

/// Write one object into `out`: `{`, the fields `fields` adds in call
/// order, `}`.
pub fn object(out: &mut String, fields: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fields(&mut Object { out, first: true });
    out.push('}');
}

/// The fields of one object being written (see [`object`]).
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
    }

    /// Append `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Append `"key":value` with `digits` decimals: `2.000` for `(2.0, 3)`.
    pub fn fixed(&mut self, key: &str, value: f64, digits: usize) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value:.digits$}");
        self
    }

    /// Append `"key":{...}`, a nested object whose fields `fields` adds.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        object(self.out, fields);
        self
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

// Numbers and booleans as `Display` prints them: integers exactly, an
// `f64` in its shortest round-trip form (`0.05`, `2`).
display_json!(u8, u32, u64, u128, usize, f64, bool);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"x\ny"}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("a").unwrap().as_arr().unwrap()[0].as_u64(), Ok(1));
        assert_eq!(v.field("a").unwrap().as_arr().unwrap()[1].as_f64(), Ok(2.5));
        assert_eq!(v.field("b").unwrap().opt_field("c"), Ok(None));
        assert_eq!(
            v.field("b").unwrap().field("d").unwrap(),
            &Value::Bool(true)
        );
        assert_eq!(v.field("e").unwrap().as_str(), Ok("x\ny"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":1}x",
            "nan",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must fail");
        }
        // Nesting is bounded: a typed error, not a stack overflow.
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        for deep in [
            nest(MAX_DEPTH + 1),
            "[".repeat(20_000),
            "{\"a\":".repeat(20_000),
        ] {
            let e = Value::parse(&deep).expect_err("too deep");
            assert!(e.0.starts_with("nesting deeper than 64"), "{e}");
        }
    }

    #[test]
    fn shape_errors_are_typed() {
        let v = Value::parse(r#"{"n":1.5,"s":"x"}"#).unwrap();
        assert!(v.field("n").unwrap().as_u64().is_err(), "fraction");
        assert!(v.field("s").unwrap().as_f64().is_err());
        assert!(v.field("missing").is_err());
        assert!(v.as_arr().is_err());
    }

    #[test]
    fn integers_arrive_exact_or_not_at_all() {
        let v = Value::parse("[4294967296,18446744073709551615,18446744073709551616,1e300,3.0]")
            .unwrap();
        let [wide, max, over, exp, whole] = v.as_arr().unwrap() else {
            panic!("five items");
        };
        assert_eq!(wide.as_u64(), Ok(1 << 32));
        assert!(wide.as_uint::<u32>().is_err(), "not truncated to 0");
        assert_eq!(max.as_u64(), Ok(u64::MAX), "not rounded to 2^64");
        assert!(over.as_u64().is_err() && exp.as_u64().is_err());
        assert_eq!(whole.as_uint::<u32>(), Ok(3));
        assert_eq!(max.as_f64(), Ok(u64::MAX as f64));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let long = "plain run ".repeat(2_000);
        for s in [
            "a\"b\\c\nd",
            "tab\there\rand / slash",
            "π ≈ 3.14159, naïve café — ✓ 🦀",
            "\"ünïcode\\\"",
            long.as_str(),
        ] {
            let doc = format!("{{\"k\":\"{}\"}}", escape(s));
            assert_eq!(
                Value::parse(&doc).unwrap().field("k").unwrap().as_str(),
                Ok(s)
            );
            let mut obj = String::new();
            object(&mut obj, |o| {
                o.field("k", s);
            });
            assert_eq!(obj, doc);
        }
    }

    #[test]
    fn the_writer_emits_fields_in_call_order() {
        let mut out = String::from("prefix ");
        object(&mut out, |o| {
            o.field("z", 1u32)
                .field("a", "s")
                .field("none", None::<u64>)
                .field("some", Some(7usize))
                .field("f", 0.05)
                .field("whole", 2.0)
                .fixed("fixed", 2.0 / 3.0, 3)
                .field("pairs", vec![(1usize, 40u64), (3, 900)])
                .field("empty", Vec::<u8>::new())
                .object("nested", |o| {
                    o.field("b", true);
                })
                .object("bare", |_| {});
        });
        assert_eq!(
            out,
            "prefix {\"z\":1,\"a\":\"s\",\"none\":null,\"some\":7,\"f\":0.05,\"whole\":2,\
             \"fixed\":0.667,\"pairs\":[[1,40],[3,900]],\"empty\":[],\
             \"nested\":{\"b\":true},\"bare\":{}}"
        );
    }
}
