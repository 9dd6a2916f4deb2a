//! Minimal hand-rolled JSON: a writer for the journal's flat objects and
//! a parser for the same shape. The workspace's vendored `serde` is a
//! no-op shim, so — like the checkpoint format — serialization is
//! hand-rolled against exactly the subset the journal emits: one object
//! per line whose values are strings, numbers or booleans.
//!
//! The module is public so sibling crates with the same flat-object needs
//! (the distributed wire protocol, the CLI's JSON output) share one codec
//! instead of each hand-rolling a divergent one.

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

/// `s` as a quoted JSON string literal.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats an `f64` as a JSON value. Finite values use Rust's shortest
/// round-trip decimal rendering; non-finite values (invalid JSON numbers)
/// are encoded as the strings `"NaN"`, `"inf"` and `"-inf"`.
pub fn f64_value(v: f64) -> String {
    if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v == f64::INFINITY {
        "\"inf\"".to_string()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        format!("{v}")
    }
}

/// An incremental writer for one flat JSON object.
#[derive(Debug)]
pub struct Obj {
    buf: String,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a float field (non-finite values as marker strings).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Obj {
        self.key(k);
        self.buf.push_str(&f64_value(v));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the rendered line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// One parsed JSON scalar. Numbers keep their raw token so integer fields
/// can be parsed exactly (no round-trip through `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string value.
    Str(String),
    /// A numeric value, as its raw token.
    Num(String),
    /// A boolean value.
    Bool(bool),
}

/// Parses one flat JSON object (`{"k": v, ...}` where every `v` is a
/// string, number or boolean) into key/value pairs.
///
/// # Errors
///
/// Reports the first malformed construct with its byte offset.
pub fn parse_object(s: &str) -> Result<Vec<(String, Scalar)>, String> {
    let b = s.trim().as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let fail = |what: &str, at: usize| format!("{what} at byte {at}");

    let skip_ws = |b: &[u8], mut i: usize| {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    };

    fn parse_string(b: &[u8], mut i: usize) -> Result<(String, usize), String> {
        debug_assert_eq!(b[i], b'"');
        i += 1;
        let mut out = String::new();
        while i < b.len() {
            match b[i] {
                b'"' => return Ok((out, i + 1)),
                b'\\' => {
                    i += 1;
                    if i >= b.len() {
                        return Err("dangling escape".to_string());
                    }
                    match b[i] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if i + 4 >= b.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&b[i + 1..i + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                            i += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                    i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = i;
                    while i < b.len() && b[i] != b'"' && b[i] != b'\\' {
                        i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..i])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                }
            }
        }
        Err("unterminated string".to_string())
    }

    i = skip_ws(b, i);
    if i >= b.len() || b[i] != b'{' {
        return Err(fail("expected '{'", i));
    }
    i = skip_ws(b, i + 1);
    if i < b.len() && b[i] == b'}' {
        return Ok(out);
    }
    loop {
        i = skip_ws(b, i);
        if i >= b.len() || b[i] != b'"' {
            return Err(fail("expected key string", i));
        }
        let (key, next) = parse_string(b, i)?;
        i = skip_ws(b, next);
        if i >= b.len() || b[i] != b':' {
            return Err(fail("expected ':'", i));
        }
        i = skip_ws(b, i + 1);
        if i >= b.len() {
            return Err(fail("expected value", i));
        }
        let value = match b[i] {
            b'"' => {
                let (v, next) = parse_string(b, i)?;
                i = next;
                Scalar::Str(v)
            }
            b't' if b[i..].starts_with(b"true") => {
                i += 4;
                Scalar::Bool(true)
            }
            b'f' if b[i..].starts_with(b"false") => {
                i += 5;
                Scalar::Bool(false)
            }
            b'-' | b'+' | b'0'..=b'9' => {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                Scalar::Num(
                    std::str::from_utf8(&b[start..i])
                        .expect("ASCII number token")
                        .to_string(),
                )
            }
            _ => return Err(fail("unsupported value", i)),
        };
        out.push((key, value));
        i = skip_ws(b, i);
        if i >= b.len() {
            return Err(fail("unterminated object", i));
        }
        match b[i] {
            b',' => i += 1,
            b'}' => {
                let rest = skip_ws(b, i + 1);
                if rest != b.len() {
                    return Err(fail("trailing content", rest));
                }
                return Ok(out);
            }
            _ => return Err(fail("expected ',' or '}'", i)),
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
}
