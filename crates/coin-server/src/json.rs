//! A minimal JSON implementation for the wire protocol.
//!
//! The prototype tunnels its ODBC-family protocol through HTTP (paper §2).
//! Requests and responses are JSON documents; this module provides the
//! value type, a recursive-descent parser and a serializer — self-contained
//! so the repository carries no serialization dependencies. Arrays and
//! objects nest at most [`MAX_NESTING`] levels deep, so a request body
//! cannot drive the parser into a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order via `Vec` to make output
/// deterministic and testable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest before parsing fails.
pub const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> JsonError {
        JsonError {
            message: m.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!(
                        "arrays and objects nested deeper than {MAX_NESTING} levels"
                    )));
                }
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(_) => self.parse_number(),
        }
    }

    /// The rest of an array, after its `[`.
    fn parse_array(&mut self) -> Result<Json, JsonError> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    /// The rest of an object, after its `{`.
    fn parse_object(&mut self) -> Result<Json, JsonError> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad unicode scalar"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(self.err(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a value"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.err(format!("bad number {text}: {e}")))
    }
}

/// Parse a JSON document.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

/// Append `s` as a quoted, escaped JSON string.
///
/// Fast path: scan the raw bytes for the first one needing an escape
/// (`"`, `\`, or a control byte — all ASCII, so the byte scan is UTF-8
/// safe) and copy clean spans wholesale. The common case — no byte needs
/// escaping — is a single `push_str` of the entire string.
pub fn escape_into(s: &str, out: &mut String) {
    #[inline]
    fn needs_escape(b: u8) -> bool {
        b == b'"' || b == b'\\' || b < 0x20
    }
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if needs_escape(b) {
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\t' => out.push_str("\\t"),
                b'\r' => out.push_str("\\r"),
                c => write!(out, "\\u{:04x}", c as u32).unwrap(),
            }
            i += 1;
            start = i;
        } else {
            i += 1;
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append a JSON number: integral doubles print without a fraction, and
/// infinities and NaN, which JSON has no number for, print `null`. The
/// single formatting rule for every serialization path ([`Json::Num`]'s
/// tree serializer delegates here, so [`JsonBuf`] output can never
/// diverge from it). A float *value* keeps its non-finite cases through
/// the wire's tagged encoding instead (see [`crate::protocol`]).
pub fn number_into(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{n:.0}").unwrap();
    } else if n.is_finite() {
        write!(out, "{n}").unwrap();
    } else {
        out.push_str("null");
    }
}

/// An incremental JSON serializer over a reusable `String` buffer.
///
/// The `/query` hot path serializes result sets **directly** into one
/// output buffer with this writer — column headers, then every row and
/// cell — instead of first assembling a [`Json`] tree (one heap node per
/// cell) and then walking it. Commas are managed per open container, so
/// callers just emit containers, keys and values in order. `clear()`
/// retains the allocation for reuse across serializations.
///
/// The writer does not validate shape (an object value without a
/// preceding [`JsonBuf::key`] is the caller's bug); it is a serialization
/// buffer, not a document model. Output produced by the high-level
/// methods is always valid JSON given well-formed call order.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// One flag per open container: has an element been written?
    comma: Vec<bool>,
}

impl JsonBuf {
    pub fn new() -> JsonBuf {
        JsonBuf::default()
    }

    /// A writer whose buffer pre-reserves `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> JsonBuf {
        JsonBuf {
            out: String::with_capacity(capacity),
            comma: Vec::new(),
        }
    }

    /// Comma bookkeeping before any element in the current container.
    #[inline]
    fn pre(&mut self) {
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.out.push(',');
            } else {
                *c = true;
            }
        }
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.pre();
        self.out.push('{');
        self.comma.push(false);
        self
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push('}');
        self
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.pre();
        self.out.push('[');
        self.comma.push(false);
        self
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push(']');
        self
    }

    /// Object key; the next emitted element is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre();
        escape_into(k, &mut self.out);
        self.out.push(':');
        // The value that follows must not get its own comma.
        if let Some(c) = self.comma.last_mut() {
            *c = false;
        }
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.pre();
        self.out.push_str("null");
        self
    }

    pub fn bool_val(&mut self, b: bool) -> &mut Self {
        self.pre();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.pre();
        escape_into(s, &mut self.out);
        self
    }

    pub fn num(&mut self, n: f64) -> &mut Self {
        self.pre();
        number_into(n, &mut self.out);
        self
    }

    /// A 64-bit integer as a quoted decimal string (the wire protocol's
    /// lossless integer encoding), formatted straight into the buffer.
    pub fn int_str(&mut self, i: i64) -> &mut Self {
        self.pre();
        self.out.push('"');
        write!(self.out, "{i}").unwrap();
        self.out.push('"');
        self
    }

    /// An already-serialized JSON fragment.
    pub fn fragment(&mut self, j: &Json) -> &mut Self {
        self.pre();
        write_into(j, &mut self.out);
        self
    }

    /// The serialized document so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Reset for reuse, keeping the buffer's allocation.
    pub fn clear(&mut self) {
        self.out.clear();
        self.comma.clear();
    }

    /// Take the serialized document, consuming the writer.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Drain the bytes written so far, keeping container/comma state so
    /// writing can continue — the chunked-response path emits the buffer
    /// mid-document after every row batch.
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        write_into(self, &mut s);
        f.write_str(&s)
    }
}

fn write_into(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => number_into(*n, out),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Parse a `application/x-www-form-urlencoded` body.
pub fn parse_form(body: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in body.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => {
                out.insert(
                    coin_wrapper::web::url_decode(k),
                    coin_wrapper::web::url_decode(v),
                );
            }
            None => {
                out.insert(coin_wrapper::web::url_decode(pair), String::new());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj([
            ("sql", Json::str("SELECT * FROM r1")),
            ("limit", Json::Num(5.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::str("v"))])),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , -3e2 ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)]
        );
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\ndé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndé");
        let out = Json::str("x\"y\\z\n").to_string();
        assert_eq!(out, r#""x\"y\\z\n""#);
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"通貨\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "通貨");
    }

    #[test]
    fn errors() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("01x").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&arrays(MAX_NESTING)).is_ok());
        let e = parse(&arrays(MAX_NESTING + 1)).unwrap_err();
        assert!(e.message.contains("deeper than 64"), "{e}");
        assert!(parse(&arrays(20_000)).is_err());
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&objects(MAX_NESTING)).is_ok());
        assert!(parse(&objects(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert!(Json::Num(1.0).get("x").is_none());
    }

    #[test]
    fn escape_fast_path_matches_slow_path() {
        // Mixed clean spans and escapes, multi-byte UTF-8 adjacent to
        // escaped bytes, and strings needing no escapes at all.
        for s in [
            "",
            "plain ascii",
            "通貨 and €",
            "a\"b\\c\nd\te\rf\u{1}g",
            "\"",
            "\u{0}\u{1f}",
            "ends with escape\n",
            "\nstarts with escape",
            "日本\"語",
        ] {
            let mut direct = String::new();
            escape_into(s, &mut direct);
            assert_eq!(direct, Json::str(s).to_string(), "{s:?}");
            // And it parses back to the original.
            assert_eq!(parse(&direct).unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn jsonbuf_builds_equivalent_documents() {
        let mut b = JsonBuf::new();
        b.begin_obj();
        b.key("columns").begin_arr();
        b.begin_obj().key("name").str_val("a").end_obj();
        b.end_arr();
        b.key("rows").begin_arr();
        b.begin_arr()
            .null()
            .bool_val(true)
            .int_str(1 << 60)
            .end_arr();
        b.begin_arr().num(2.5).str_val("x\"y").end_arr();
        b.end_arr();
        b.key("n").num(3.0);
        b.end_obj();
        let doc = parse(b.as_str()).unwrap();
        let want = Json::obj([
            (
                "columns",
                Json::Arr(vec![Json::obj([("name", Json::str("a"))])]),
            ),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![
                        Json::Null,
                        Json::Bool(true),
                        Json::Str((1i64 << 60).to_string()),
                    ]),
                    Json::Arr(vec![Json::Num(2.5), Json::str("x\"y")]),
                ]),
            ),
            ("n", Json::Num(3.0)),
        ]);
        assert_eq!(doc, want);
    }

    #[test]
    fn jsonbuf_clear_reuses_buffer() {
        let mut b = JsonBuf::with_capacity(256);
        b.begin_arr().num(1.0).end_arr();
        assert_eq!(b.as_str(), "[1]");
        b.clear();
        assert!(b.as_str().is_empty());
        b.begin_obj().key("k").fragment(&Json::str("v")).end_obj();
        assert_eq!(b.as_str(), "{\"k\":\"v\"}");
    }

    #[test]
    fn form_parsing() {
        let m = parse_form("table=r1&cond_cname=%3DIBM&x=a+b&flag");
        assert_eq!(m["table"], "r1");
        assert_eq!(m["cond_cname"], "=IBM");
        assert_eq!(m["x"], "a b");
        assert_eq!(m["flag"], "");
    }
}
