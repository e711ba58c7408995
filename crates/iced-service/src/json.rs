//! A minimal, defensive JSON reader/writer for the wire protocol.
//!
//! The workspace is std-only, so this module hand-rolls the subset of JSON
//! the service needs. The parser is written for hostile input: it never
//! panics, bounds its recursion depth, and rejects trailing garbage. The
//! writer always emits object fields in the order they were inserted,
//! which is what lets the cache store *serialized response bytes* and
//! replay them verbatim (warm responses must be byte-identical to cold
//! ones).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

/// Maximum nesting depth accepted by [`parse`] and [`layout`]. Requests
/// are flat objects; anything deeper is an attack or a bug, not a workload.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; the protocol's integers fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` for deterministic iteration; field order in
    /// *emitted* JSON is controlled by [`Obj`], not by this map.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// A parse failure: position plus a short message. Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser had reached.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(input);
    let v = p.value(0)?;
    p.end()?;
    Ok(v)
}

/// The top level of one JSON value as byte ranges into its text: where
/// each field of an object, or each element of an array, starts and ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// An object: each distinct (decoded) key with its value's range. A
    /// repeated key keeps its *last* value, the rule [`parse`] applies.
    Obj(BTreeMap<String, Range<usize>>),
    /// An array: each element's range, in order.
    Arr(Vec<Range<usize>>),
    /// A string, number, bool or null.
    Scalar,
}

/// Reads the top-level [`Layout`] of one complete JSON value. The same
/// parser as [`parse`] reads it — same grammar, same depth bound, same
/// duplicate-key rule — so a text has a layout exactly when it parses,
/// and every range re-parses to the value [`parse`] puts there.
///
/// # Errors
///
/// The [`ParseError`] that [`parse`] reports for the same text.
pub fn layout(input: &str) -> Result<Layout, ParseError> {
    let mut p = Parser::new(input);
    let layout = match p.peek() {
        Some(b'{') => {
            let mut fields = BTreeMap::new();
            p.members(0, |key, _, span| {
                fields.insert(key, span);
            })?;
            Layout::Obj(fields)
        }
        Some(b'[') => {
            let mut elems = Vec::new();
            p.elements(0, |_, span| elems.push(span))?;
            Layout::Arr(elems)
        }
        _ => {
            p.value(0)?;
            Layout::Scalar
        }
    };
    p.end()?;
    Ok(layout)
}

/// An object's top-level fields as raw text, read by [`layout`]: how the
/// router and client read envelopes without re-serializing the bytes
/// they forward.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    text: &'a str,
    spans: BTreeMap<String, Range<usize>>,
}

impl<'a> Fields<'a> {
    /// Reads `text`; `None` unless it is exactly one JSON object.
    pub fn read(text: &'a str) -> Option<Fields<'a>> {
        match layout(text).ok()? {
            Layout::Obj(spans) => Some(Fields { text, spans }),
            _ => None,
        }
    }

    /// The byte range of field `key`'s value.
    pub fn span(&self, key: &str) -> Option<Range<usize>> {
        self.spans.get(key).cloned()
    }

    /// The raw text of field `key`'s value.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.span(key).map(|r| &self.text[r])
    }

    /// Is field `key` the literal `true`?
    pub fn is_true(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// Field `key` parsed as a value.
    pub fn value(&self, key: &str) -> Option<Value> {
        parse(self.get(key)?).ok()
    }
}

/// The raw text of each element of `text`; `None` unless it is exactly
/// one JSON array.
pub fn elements(text: &str) -> Option<Vec<&str>> {
    match layout(text).ok()? {
        Layout::Arr(spans) => Some(spans.into_iter().map(|r| &text[r]).collect()),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the first non-whitespace byte of `input`.
    fn new(input: &'a str) -> Parser<'a> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    /// Accepts only trailing whitespace after the value.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.elements(depth, |v, _| items.push(v))?;
        Ok(Value::Arr(items))
    }

    /// Reads an array, handing each element and its byte range to `each`.
    fn elements(
        &mut self,
        depth: usize,
        mut each: impl FnMut(Value, Range<usize>),
    ) -> Result<(), ParseError> {
        self.pos += 1; // consume '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let v = self.value(depth + 1)?;
            each(v, start..self.pos);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut map = BTreeMap::new();
        self.members(depth, |key, val, _| {
            map.insert(key, val);
        })?;
        Ok(Value::Obj(map))
    }

    /// Reads an object, handing each key, value and value byte range to
    /// `each` in text order.
    fn members(
        &mut self,
        depth: usize,
        mut each: impl FnMut(String, Value, Range<usize>),
    ) -> Result<(), ParseError> {
        self.pos += 1; // consume '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let start = self.pos;
            let val = self.value(depth + 1)?;
            each(key, val, start..self.pos);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept well-formed pairs,
                            // reject lone surrogates rather than panicking.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                self.eat("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            // hex4 leaves pos on the digit after the
                            // escape; compensate for the += 1 below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid — copy it through.
                    let s = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(s).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = text.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("unrepresentable number"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }
}

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// An insertion-ordered JSON object writer. The service's byte-identical
/// warm/cold guarantee rests on this: every response is rendered through
/// `Obj`, so equal logical content always serializes to equal bytes.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field, rendered with enough digits to round-trip.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.6}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a bool field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Finishes the object and returns its JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let v = parse(r#"{"verb":"compile","id":7,"kernel":"fir","warm":true}"#).unwrap();
        assert_eq!(v.get("verb").and_then(Value::as_str), Some("compile"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("warm"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"",
            "{\"a\":}",
            "[1,2",
            "tru",
            "\"unterminated",
            "{\"a\":1}x",
            "nul",
            "{\"a\":+1}",
            "\u{7}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + "1" + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut esc = String::new();
        escape_into(&mut esc, "a\"b\\c\nd\te\u{1}f µ");
        let back = parse(&format!("\"{esc}\"")).unwrap();
        assert_eq!(back, Value::Str("a\"b\\c\nd\te\u{1}f µ".into()));
        // Surrogate-pair escape decodes to the astral character.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1f600}".into())
        );
    }

    #[test]
    fn obj_writer_preserves_insertion_order() {
        let s = Obj::new()
            .u64("id", 1)
            .bool("ok", true)
            .str("verb", "healthz")
            .raw("result", "{}")
            .finish();
        assert_eq!(s, r#"{"id":1,"ok":true,"verb":"healthz","result":{}}"#);
    }

    #[test]
    fn numbers_parse_with_exponents_and_fractions() {
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-2").unwrap().as_f64(), Some(-2.0));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
