//! One-pass reader of a `/query` reply body.
//!
//! The benchmark checks every answer, including 2–3 MB streamed ones, while
//! it shares two cores with the server. Building a document tree per reply
//! would make the client the bottleneck, so this reader walks the bytes once
//! and keeps only what the oracle compares: the row count, one sum per
//! numeric column, an order-insensitive hash of the string cells, and the
//! tail fields (`cache`, `remote_queries`, `error`). It is written against
//! the JSON grammar, not against the server's serializer, and shares no code
//! with it.

/// Most result columns any workload's queries have.
pub const MAX_COLS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cache {
    Hit,
    Miss,
    #[default]
    Unreported,
}

/// What a reply body said.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    pub rows: u64,
    /// Sum of the numeric cells of each column (0 for string columns).
    pub col_sums: [f64; MAX_COLS],
    /// Wrapping sum of a hash of every string cell: equal for equal
    /// multisets of strings whatever the row order.
    pub str_hash: u64,
    pub cache: Cache,
    pub remote_queries: u64,
    /// The body carried an `"error"` field — the protocol's failure shape,
    /// sent with status 200.
    pub error: bool,
}

#[derive(Debug, PartialEq, Eq)]
pub struct Malformed(pub &'static str, pub usize);

/// FNV-1a, the hash behind [`Answer::str_hash`] (the oracle uses it too).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

type Res<T> = Result<T, Malformed>;

impl<'a> Reader<'a> {
    fn err<T>(&self, what: &'static str) -> Res<T> {
        Err(Malformed(what, self.i))
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, byte: u8) -> Res<()> {
        if self.peek() == Some(byte) {
            self.i += 1;
            Ok(())
        } else {
            self.err("unexpected byte")
        }
    }

    /// After an element of a container closed by `close`: `true` when a
    /// comma says another element follows.
    fn more(&mut self, close: u8) -> Res<bool> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.i += 1;
                Ok(false)
            }
            _ => self.err("expected ',' or a closing bracket"),
        }
    }

    /// A string literal, returned as the raw bytes between the quotes
    /// (escape sequences are validated as far as their length, not decoded:
    /// every string the oracle compares is escape-free).
    fn string(&mut self) -> Res<&'a [u8]> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(&self.b[start..self.i - 1]);
                }
                Some(b'\\') => self.i += 2,
                Some(0..=0x1f) => return self.err("control byte in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Res<f64> {
        self.ws();
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map_or_else(|| self.err("bad number"), Ok)
    }

    fn literal(&mut self, word: &'static [u8]) -> Res<()> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(())
        } else {
            self.err("bad literal")
        }
    }

    fn skip_value(&mut self) -> Res<()> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => {
                self.i += 1;
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.string()?;
                    self.eat(b':')?;
                    self.skip_value()?;
                    if !self.more(b'}')? {
                        return Ok(());
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    if !self.more(b']')? {
                        return Ok(());
                    }
                }
            }
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.err("expected a value"),
        }
    }

    /// One wire value: `null`, `["s",text]`, `["i","digits"]`, `["f",num]`,
    /// `["b",bool]`. Numeric values go to `sum`, strings to `hash`.
    fn cell(&mut self, sum: &mut f64, hash: &mut u64) -> Res<()> {
        if self.peek() == Some(b'n') {
            return self.literal(b"null");
        }
        self.eat(b'[')?;
        let tag = self.string()?;
        self.eat(b',')?;
        match tag {
            b"s" => *hash = hash.wrapping_add(fnv1a(self.string()?)),
            b"i" => {
                let digits = self.string()?;
                let v: i64 = std::str::from_utf8(digits)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map_or_else(|| self.err("bad integer cell"), Ok)?;
                *sum += v as f64;
            }
            b"f" => *sum += self.number()?,
            b"b" => self.skip_value()?,
            _ => return self.err("unknown value tag"),
        }
        self.eat(b']')
    }

    fn rows(&mut self, out: &mut Answer) -> Res<()> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.eat(b'[')?;
            let mut col = 0;
            if self.peek() == Some(b']') {
                self.i += 1;
            } else {
                loop {
                    if col == MAX_COLS {
                        return self.err("more columns than any workload has");
                    }
                    self.cell(&mut out.col_sums[col], &mut out.str_hash)?;
                    col += 1;
                    if !self.more(b']')? {
                        break;
                    }
                }
            }
            out.rows += 1;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }
}

/// Read a whole reply body. Anything that is not one well-formed JSON
/// object in the protocol's shape is `Malformed`.
pub fn read_answer(body: &[u8]) -> Result<Answer, Malformed> {
    let mut r = Reader { b: body, i: 0 };
    let mut out = Answer::default();
    r.eat(b'{')?;
    if r.peek() != Some(b'}') {
        loop {
            let key = r.string()?;
            r.eat(b':')?;
            match key {
                b"rows" => r.rows(&mut out)?,
                b"error" => {
                    out.error = true;
                    r.skip_value()?;
                }
                b"cache" => {
                    out.cache = match r.string()? {
                        b"hit" => Cache::Hit,
                        b"miss" => Cache::Miss,
                        _ => Cache::Unreported,
                    }
                }
                b"remote_queries" => out.remote_queries = r.number()? as u64,
                _ => r.skip_value()?,
            }
            if !r.more(b'}')? {
                break;
            }
        }
    } else {
        r.i += 1;
    }
    if r.peek().is_some() {
        return r.err("bytes after the document");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_mediated_reply() {
        let body = br#"{"columns":[{"name":"cname","type":"str"},{"name":"revenue","type":"any"}],
            "rows":[[["s","IBM"],["f",100000000]],[["s","NTT"],["f",9600000]],[null,["i","-5"]]],
            "mediated_sql":"SELECT \"x\" [ { ","explanation":"a\\b","remote_queries":7,
            "cache":"miss","epoch":9,"cache_hits":0,"cache_misses":1}"#;
        let a = read_answer(body).unwrap();
        assert_eq!(a.rows, 3);
        assert_eq!(a.col_sums, [0.0, 109_599_995.0, 0.0, 0.0]);
        assert_eq!(a.str_hash, fnv1a(b"IBM").wrapping_add(fnv1a(b"NTT")));
        assert_eq!(a.cache, Cache::Miss);
        assert_eq!(a.remote_queries, 7);
        assert!(!a.error);
    }

    #[test]
    fn row_order_does_not_change_the_digest() {
        let a = read_answer(br#"{"rows":[[["s","a"],["i","1"]],[["s","b"],["i","2"]]]}"#).unwrap();
        let b = read_answer(br#"{"rows":[[["s","b"],["i","2"]],[["s","a"],["i","1"]]]}"#).unwrap();
        assert_eq!(a, b);
        let c = read_answer(br#"{"rows":[[["s","b"],["i","2"]],[["s","c"],["i","1"]]]}"#).unwrap();
        assert_ne!(a.str_hash, c.str_hash);
    }

    #[test]
    fn error_shape_and_empty_results() {
        let a = read_answer(br#"{"error":"no such table"}"#).unwrap();
        assert!(a.error);
        assert_eq!(a.rows, 0);
        let a = read_answer(br#"{"columns":[],"rows":[],"cache":"hit"}"#).unwrap();
        assert_eq!((a.rows, a.cache, a.error), (0, Cache::Hit, false));
        assert_eq!(read_answer(b"{}").unwrap(), Answer::default());
    }

    #[test]
    fn truncated_or_trailing_bytes_are_malformed() {
        let whole = br#"{"rows":[[["s","a"],["f",1.5e3]]],"cache":"hit"}"#;
        assert!(read_answer(whole).is_ok());
        for cut in 0..whole.len() {
            assert!(read_answer(&whole[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = whole.to_vec();
        extra.extend_from_slice(b" x");
        assert!(read_answer(&extra).is_err());
        assert!(read_answer(br#"{"rows":[[["q",1]]]}"#).is_err());
        assert!(read_answer(br#"{"rows":[[["i","x"]]]}"#).is_err());
    }
}
