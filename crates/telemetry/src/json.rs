//! The workspace's one JSON codec: a writer and a parser. The workspace
//! has no serialisation library, so JSON is hand-rolled here, once, and
//! every crate writes and reads through it.
//!
//! * [`Value`] is a small JSON tree. Every `--json` document (`lint`,
//!   `bounds`, `profile`, `report`, `replay`, `diff`), the tuner
//!   checkpoint and the `racesim diff --save` CPI baseline are built as a
//!   `Value` and rendered with its `Display`; [`parse`] reads any JSON
//!   document back into one.
//! * Journal lines and wire frames stay flat: [`Obj`] builds one flat
//!   object, and [`parse_object`] — [`parse`] plus a check that rejects
//!   nested values, `null` included — reads it back as `(key, Scalar)`
//!   pairs for [`Fields`] to read typed values from.
//!
//! Floats render as Rust's shortest round-trip decimal. JSON has no
//! NaN or infinity, so those become the strings `"NaN"`, `"inf"` and
//! `"-inf"` everywhere.

use std::fmt;

/// Appends `s` to `out` with JSON string escaping.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
fn string_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Formats an `f64` as a JSON value: the rendering of [`Value::from`].
pub fn f64_value(v: f64) -> String {
    Value::from(v).to_string()
}

/// An incremental writer for one flat JSON object: a journal line or a
/// wire frame.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn field(&mut self, k: &str, v: Value) -> &mut Obj {
        self.0.push((k.to_string(), v));
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.field(k, v.into())
    }

    /// Appends an unsigned-integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Obj {
        self.field(k, v.into())
    }

    /// Appends a float field (non-finite values as marker strings).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Obj {
        self.field(k, v.into())
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Obj {
        self.field(k, v.into())
    }

    /// Closes the object and returns the rendered line.
    pub fn finish(self) -> String {
        Value::Obj(self.0).to_string()
    }
}

/// One value of a flat object, as [`parse_object`] returns it. Numbers
/// keep their raw token so integer fields can be parsed exactly (no
/// round-trip through `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string value.
    Str(String),
    /// A numeric value, as its raw token.
    Num(String),
    /// A boolean value.
    Bool(bool),
}

/// A JSON document tree. Objects keep their fields in insertion order,
/// and numbers keep their token, so a parsed document re-renders to the
/// same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its token.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` fields, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The field `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number, or a non-finite marker string, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            Value::Str(s) => non_finite(s),
            _ => None,
        }
    }

    /// The field `key` of this object, read with `read` (such as
    /// [`Value::as_u64`]).
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or `read` rejects it.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("field {key:?} is missing or mistyped"))
    }

    /// An unsigned-integer number, parsed exactly from its token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(token) => out.push_str(token),
            Value::Str(s) => string_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact rendering: no whitespace between tokens.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n.to_string())
    }
}

/// The float a non-finite marker string stands for.
fn non_finite(marker: &str) -> Option<f64> {
    match marker {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

/// Finite floats render as Rust's shortest round-trip decimal; NaN and
/// the infinities (not JSON numbers) as the strings `"NaN"`, `"inf"`
/// and `"-inf"`.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v}"))
        } else {
            Value::Str(v.to_string())
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Deepest nesting [`parse`] accepts, so hostile input cannot overflow
/// the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (RFC 8259, surrounding whitespace allowed).
///
/// # Errors
///
/// Reports the first malformed construct with its byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    match p.peek() {
        Some(_) => p.fail("trailing content"),
        None => Ok(v),
    }
}

/// Parses one flat JSON object (`{"k": v, ...}` where every `v` is a
/// string, number or boolean) into key/value pairs: a journal line or a
/// wire frame.
///
/// # Errors
///
/// Reports the first malformed construct with its byte offset, or the
/// first field whose value is not a scalar.
pub fn parse_object(s: &str) -> Result<Vec<(String, Scalar)>, String> {
    let Value::Obj(fields) = parse(s)? else {
        return Err("expected an object".to_string());
    };
    fields
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Ok((k, Scalar::Str(s))),
            Value::Num(n) => Ok((k, Scalar::Num(n))),
            Value::Bool(b) => Ok((k, Scalar::Bool(b))),
            _ => Err(format!("field {k:?} is not a string, number or boolean")),
        })
        .collect()
}

/// A missing or mistyped field of a flat object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

/// Typed reads over one parsed flat object: a journal line or a wire
/// frame. Unknown keys are ignored.
#[derive(Debug)]
pub struct Fields(pub Vec<(String, Scalar)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&Scalar, FieldError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| FieldError(format!("missing field {key:?}")))
    }

    fn mistyped<T>(key: &str, want: &str, got: &Scalar) -> Result<T, FieldError> {
        Err(FieldError(format!(
            "field {key:?}: expected {want}, got {got:?}"
        )))
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<String, FieldError> {
        match self.get(key)? {
            Scalar::Str(s) => Ok(s.clone()),
            other => Fields::mistyped(key, "string", other),
        }
    }

    /// An unsigned-integer field, parsed exactly from its token.
    pub fn u64(&self, key: &str) -> Result<u64, FieldError> {
        match self.get(key)? {
            Scalar::Num(raw) => raw
                .parse()
                .map_err(|_| FieldError(format!("field {key:?}: bad integer {raw:?}"))),
            other => Fields::mistyped(key, "integer", other),
        }
    }

    /// An unsigned-integer field as `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, FieldError> {
        self.u64(key).map(|v| v as usize)
    }

    /// A float field: a number, or a non-finite marker string.
    pub fn f64(&self, key: &str) -> Result<f64, FieldError> {
        let v = self.get(key)?;
        let parsed = match v {
            Scalar::Num(raw) => raw.parse().ok(),
            Scalar::Str(s) => non_finite(s),
            Scalar::Bool(_) => return Fields::mistyped(key, "float", v),
        };
        parsed.ok_or_else(|| FieldError(format!("field {key:?}: bad float {v:?}")))
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, FieldError> {
        match self.get(key)? {
            Scalar::Bool(b) => Ok(*b),
            other => Fields::mistyped(key, "bool", other),
        }
    }

    /// Reads `key` with `read`, or yields `default` when the key is
    /// absent — for fields newer than the data (a present key of the
    /// wrong type is still an error).
    pub fn or<T>(
        &self,
        key: &str,
        default: T,
        read: fn(&Fields, &str) -> Result<T, FieldError>,
    ) -> Result<T, FieldError> {
        if self.0.iter().any(|(k, _)| k == key) {
            read(self, key)
        } else {
            Ok(default)
        }
    }
}

/// A cursor over the document. Every byte it stops at is ASCII, so
/// slicing `s` between two stops always lands on char boundaries.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    /// Skips whitespace and returns the next byte.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        self.b.get(self.i).copied()
    }

    /// Consumes `c` if it is the next non-whitespace byte.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        let (word, v) = match self.peek() {
            Some(b'[') => return self.items(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'{') => {
                let field = |p: &mut Self| {
                    if p.peek() != Some(b'"') {
                        return p.fail("expected key string");
                    }
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return p.fail("expected ':'");
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                return self.items(b'}', field).map(Value::Obj);
            }
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            _ => ("null", Value::Null),
        };
        if !self.b[self.i..].starts_with(word.as_bytes()) {
            return self.fail("expected a value");
        }
        self.i += word.len();
        Ok(v)
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or a closing bracket");
            }
        }
    }

    /// A number token, checked by Rust's float grammar and kept raw.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let token = &self.s[start..self.i];
        if token.parse::<f64>().is_err() {
            self.i = start;
            return self.fail("malformed number");
        }
        Ok(Value::Num(token.to_string()))
    }

    /// A string literal, from its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.i += 1;
            }
            out.push_str(&self.s[start..self.i]);
            let unescaped = match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => match self.b.get(self.i + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = self.s.get(self.i + 2..self.i + 6).unwrap_or("");
                        let c = (hex.len() == 4 && hex.bytes().all(|h| h.is_ascii_hexdigit()))
                            .then(|| u32::from_str_radix(hex, 16).ok().and_then(char::from_u32))
                            .flatten();
                        match c {
                            Some(c) => {
                                self.i += 4;
                                c
                            }
                            None => return self.fail("bad \\u escape"),
                        }
                    }
                    _ => return self.fail("unknown escape"),
                },
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            };
            out.push(unescaped);
            self.i += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parser_recovers() {
        let mut o = Obj::new();
        o.str("name", "quote \" slash \\ nl \n tab \t bell \u{7}");
        o.u64("n", u64::MAX);
        o.f64("x", 0.1);
        o.bool("ok", true);
        let line = o.finish();
        let kv = parse_object(&line).expect("parses");
        assert_eq!(kv.len(), 4);
        assert_eq!(
            kv[0].1,
            Scalar::Str("quote \" slash \\ nl \n tab \t bell \u{7}".to_string())
        );
        assert_eq!(kv[1].1, Scalar::Num(u64::MAX.to_string()));
        assert_eq!(kv[2].1, Scalar::Num("0.1".to_string()));
        assert_eq!(kv[3].1, Scalar::Bool(true));
    }

    #[test]
    fn non_finite_floats_become_marker_strings() {
        assert_eq!(f64_value(f64::NAN), "\"NaN\"");
        assert_eq!(f64_value(f64::INFINITY), "\"inf\"");
        assert_eq!(f64_value(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(f64_value(-0.0), "-0");
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1]}",
            "{\"a\":1} trailing",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_object("{}").unwrap(), Vec::new());
        assert_eq!(parse_object("  { }  ").unwrap(), Vec::new());
    }

    #[test]
    fn nested_documents_parse_and_rerender() {
        let text = "{\"a\":[1,-2.5e3,true,null,\"q\\\"\\\\\"],\"b\":{}}\n";
        let doc = parse(text).expect("parses");
        assert_eq!(
            doc.get("a"),
            Some(&Value::arr([
                Value::Num("1".to_string()),
                Value::Num("-2.5e3".to_string()),
                Value::Bool(true),
                Value::Null,
                Value::from("q\"\\"),
            ]))
        );
        assert_eq!(doc.get("b"), Some(&Value::Obj(Vec::new())));
        assert_eq!(doc.to_string(), text.trim_end());
        assert!(parse_object(text).is_err(), "nested values are not flat");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{\"a\":\"x\"y\"}",
            "{\"a\":\"\\q\"}",
            "{\"a\":1,}",
            "[1] 2",
            "{\"a\" 1}",
            "[1,]",
            "[",
            "{\"a\":-}",
            "\"raw \u{1} control\"",
            "\"\\u12\"",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err(), "unbounded nesting must be refused");
    }

    #[test]
    fn writer_renders_nested_values_and_float_markers() {
        let doc = Value::obj([
            ("n", Value::from(7u64)),
            ("x", Value::from(f64::NAN)),
            ("none", Value::from(None::<u64>)),
            ("list", Value::arr(["a", "b"])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\"n\":7,\"x\":\"NaN\",\"none\":null,\"list\":[\"a\",\"b\"]}"
        );
        assert_eq!(
            doc.get("x").and_then(Value::as_f64).map(f64::is_nan),
            Some(true)
        );
        assert_eq!(parse(&doc.to_string()), Ok(doc));
    }
}
