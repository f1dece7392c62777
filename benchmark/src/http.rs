//! Benchmark-local keep-alive HTTP/1.1 client.
//!
//! `coin_server::HttpClient` reassembles the body before it returns, which
//! hides when the first body byte arrived. This client stamps the send, the
//! first body byte and the last body byte itself, decodes chunked bodies
//! incrementally into a reused buffer, and tells a complete chunked body
//! (terminal chunk seen) from a truncated one.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Incremental decoder for a `Transfer-Encoding: chunked` body.
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    state: ChunkState,
    /// Bytes of the current chunk still to come (or the size being read).
    remaining: usize,
    /// Hex digits read of the current size line.
    digits: usize,
    /// Payload sizes of the chunks seen, in order (without the terminal one).
    pub chunk_sizes: Vec<usize>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Reading the hexadecimal size line (extensions after `;` ignored).
    #[default]
    Size,
    SizeExt,
    SizeLf,
    Data,
    DataCr,
    DataLf,
    /// After the zero-size chunk: skipping trailer lines up to the blank one.
    TrailerStart,
    Trailer,
    TrailerLf,
    FinalLf,
    Done,
}

/// The chunk framing was not valid.
#[derive(Debug, PartialEq, Eq)]
pub struct BadChunk(pub &'static str);

/// Largest chunk the client accepts: the server sends row batches far below
/// this, and a hostile size line must not drive an allocation.
const MAX_CHUNK: usize = 64 << 20;

impl ChunkedDecoder {
    fn reset(&mut self) {
        self.state = ChunkState::Size;
        self.remaining = 0;
        self.digits = 0;
        self.chunk_sizes.clear();
    }

    /// Consume `input`, appending payload bytes to `body`. Returns how many
    /// input bytes were used; anything after the terminal chunk is left.
    pub fn feed(&mut self, input: &[u8], body: &mut Vec<u8>) -> Result<usize, BadChunk> {
        let mut i = 0;
        while i < input.len() && self.state != ChunkState::Done {
            let b = input[i];
            match self.state {
                ChunkState::Size => match b {
                    b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' => {
                        let digit = (b as char).to_digit(16).expect("hex digit") as usize;
                        self.remaining = self
                            .remaining
                            .checked_mul(16)
                            .and_then(|r| r.checked_add(digit))
                            .filter(|r| *r <= MAX_CHUNK)
                            .ok_or(BadChunk("chunk size too large"))?;
                        self.digits += 1;
                        i += 1;
                    }
                    b';' | b'\r' if self.digits == 0 => return Err(BadChunk("empty chunk size")),
                    b';' => {
                        self.state = ChunkState::SizeExt;
                        i += 1;
                    }
                    b'\r' => {
                        self.state = ChunkState::SizeLf;
                        i += 1;
                    }
                    _ => return Err(BadChunk("bad byte in chunk size")),
                },
                ChunkState::SizeExt => {
                    if b == b'\r' {
                        self.state = ChunkState::SizeLf;
                    }
                    i += 1;
                }
                ChunkState::SizeLf => {
                    if b != b'\n' {
                        return Err(BadChunk("size line not ended by CRLF"));
                    }
                    i += 1;
                    self.digits = 0;
                    if self.remaining == 0 {
                        self.state = ChunkState::TrailerStart;
                    } else {
                        self.chunk_sizes.push(self.remaining);
                        self.state = ChunkState::Data;
                    }
                }
                ChunkState::Data => {
                    let take = self.remaining.min(input.len() - i);
                    body.extend_from_slice(&input[i..i + take]);
                    self.remaining -= take;
                    i += take;
                    if self.remaining == 0 {
                        self.state = ChunkState::DataCr;
                    }
                }
                ChunkState::DataCr => {
                    if b != b'\r' {
                        return Err(BadChunk("chunk data not followed by CRLF"));
                    }
                    self.state = ChunkState::DataLf;
                    i += 1;
                }
                ChunkState::DataLf => {
                    if b != b'\n' {
                        return Err(BadChunk("chunk data not followed by CRLF"));
                    }
                    self.state = ChunkState::Size;
                    i += 1;
                }
                ChunkState::TrailerStart => {
                    self.state = if b == b'\r' {
                        ChunkState::FinalLf
                    } else {
                        ChunkState::Trailer
                    };
                    i += 1;
                }
                ChunkState::Trailer => {
                    if b == b'\r' {
                        self.state = ChunkState::TrailerLf;
                    }
                    i += 1;
                }
                ChunkState::TrailerLf => {
                    if b != b'\n' {
                        return Err(BadChunk("trailer line not ended by CRLF"));
                    }
                    self.state = ChunkState::TrailerStart;
                    i += 1;
                }
                ChunkState::FinalLf => {
                    if b != b'\n' {
                        return Err(BadChunk("body not ended by CRLF"));
                    }
                    self.state = ChunkState::Done;
                    i += 1;
                }
                ChunkState::Done => unreachable!("loop guard"),
            }
        }
        Ok(i)
    }

    /// Has the terminal chunk (and its closing blank line) been seen?
    pub fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }
}

/// What came back for one request, with the three client-side timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    /// Just before the request bytes were written.
    pub sent: Instant,
    /// Just after the `read` that delivered the first body byte.
    pub first_byte: Instant,
    /// Just after the `read` that delivered the last body byte (for a
    /// chunked body: the terminal chunk).
    pub last_byte: Instant,
    /// The body arrived whole: all `Content-Length` bytes, or every chunk
    /// up to and including the terminal one.
    pub complete: bool,
}

/// One persistent connection; reconnects when the server closed it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Socket reads land here first (fixed size, allocated once).
    rbuf: Vec<u8>,
    head: Vec<u8>,
    /// The decoded body of the last reply (capacity is kept across replies).
    pub body: Vec<u8>,
    decoder: ChunkedDecoder,
}

const READ_BUF: usize = 64 * 1024;
const MAX_HEAD: usize = 16 * 1024;
/// A reply that takes longer than this is a failed request, not a hang of
/// the whole benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            rbuf: vec![0; READ_BUF],
            head: Vec::with_capacity(512),
            body: Vec::new(),
            decoder: ChunkedDecoder::default(),
        }
    }

    /// Chunk payload sizes of the last chunked reply, as framed on the wire.
    pub fn chunk_sizes(&self) -> &[usize] {
        &self.decoder.chunk_sizes
    }

    fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(s);
        }
        Ok(())
    }

    /// Send pre-built request bytes and read the reply into `self.body`.
    /// Any I/O or framing error drops the connection and is returned; the
    /// caller counts it as a failed request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.connect()?;
        let result = self.exchange(request);
        if !matches!(&result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// Returns the reply and whether the connection may be reused.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(Reply, bool)> {
        let stream = self.stream.as_mut().expect("connected");
        self.head.clear();
        self.body.clear();
        self.decoder.reset();

        let sent = Instant::now();
        stream.write_all(request)?;

        // Head: read until the blank line; bytes after it are body.
        let mut spill_from;
        let mut got;
        let head_end = loop {
            got = stream.read(&mut self.rbuf)?;
            if got == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let scan_from = self.head.len().saturating_sub(3);
            self.head.extend_from_slice(&self.rbuf[..got]);
            if let Some(p) = find(&self.head[scan_from..], b"\r\n\r\n") {
                let end = scan_from + p + 4;
                spill_from = got - (self.head.len() - end);
                break end;
            }
            if self.head.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
        };
        let head =
            std::str::from_utf8(&self.head[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut chunked, mut keep) = (None::<usize>, false, true);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.eq_ignore_ascii_case("close");
            }
        }

        // Body: first the bytes that came with the head, then more reads.
        let mut first_byte = None;
        loop {
            let input = &self.rbuf[spill_from..got];
            let stamp = Instant::now();
            let complete;
            if chunked {
                let before = self.body.len();
                self.decoder
                    .feed(input, &mut self.body)
                    .map_err(|e| bad(e.0))?;
                if first_byte.is_none() && self.body.len() > before {
                    first_byte = Some(stamp);
                }
                complete = self.decoder.is_done();
            } else {
                let want = length.unwrap_or(0);
                let take = input.len().min(want - self.body.len());
                self.body.extend_from_slice(&input[..take]);
                if first_byte.is_none() && take > 0 {
                    first_byte = Some(stamp);
                }
                complete = self.body.len() == want;
            }
            if complete {
                let reply = Reply {
                    status,
                    sent,
                    first_byte: first_byte.unwrap_or(stamp),
                    last_byte: stamp,
                    complete,
                };
                return Ok((reply, keep));
            }
            got = stream.read(&mut self.rbuf)?;
            spill_from = 0;
            if got == 0 {
                // Closed before the body ended: a truncated reply.
                let stamp = Instant::now();
                let reply = Reply {
                    status,
                    sent,
                    first_byte: first_byte.unwrap_or(stamp),
                    last_byte: stamp,
                    complete: false,
                };
                return Ok((reply, false));
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Append `s` as a JSON string literal.
pub fn json_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// The bytes of a mediated `POST /query` for `sql` posed in `context`,
/// written into `out` (cleared first, so a client can reuse one buffer).
pub fn query_request(sql: &str, context: &str, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(sql.len() + 64);
    body.extend_from_slice(b"{\"sql\":");
    json_string(sql, &mut body);
    body.extend_from_slice(b",\"context\":");
    json_string(context, &mut body);
    body.extend_from_slice(b",\"mode\":\"mediated\"}");
    out.clear();
    out.extend_from_slice(
        b"POST /query HTTP/1.1\r\nHost: coin\r\nContent-Type: application/json\r\nContent-Length: ",
    );
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(&body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_in_pieces(wire: &[u8], piece: usize) -> (Vec<u8>, ChunkedDecoder, usize) {
        let mut d = ChunkedDecoder::default();
        let mut body = Vec::new();
        let mut used = 0;
        for part in wire.chunks(piece) {
            used += d.feed(part, &mut body).unwrap();
            if d.is_done() {
                break;
            }
        }
        (body, d, used)
    }

    #[test]
    fn chunked_body_decodes_at_every_split() {
        let wire = b"5\r\nhello\r\n1;ext=1\r\n,\r\nB\r\n world 7890\r\n0\r\n\r\nNEXT";
        for piece in 1..=wire.len() {
            let (body, d, used) = decode_in_pieces(wire, piece);
            assert_eq!(body, b"hello, world 7890", "piece {piece}");
            assert!(d.is_done());
            assert_eq!(d.chunk_sizes, vec![5, 1, 11]);
            // Bytes of the next response are not consumed.
            assert_eq!(used, wire.len() - 4, "piece {piece}");
        }
        let mut d = ChunkedDecoder::default();
        let mut body = Vec::new();
        assert_eq!(d.feed(wire, &mut body), Ok(wire.len() - 4));
    }

    #[test]
    fn missing_terminal_chunk_is_not_done() {
        let (body, d, _) = decode_in_pieces(b"3\r\nabc\r\n", 2);
        assert_eq!(body, b"abc");
        assert!(!d.is_done());
    }

    #[test]
    fn trailers_are_skipped() {
        let (body, d, _) = decode_in_pieces(b"1\r\nx\r\n0\r\nX-Sum: 1\r\n\r\n", 3);
        assert_eq!(body, b"x");
        assert!(d.is_done());
    }

    #[test]
    fn bad_framing_is_an_error() {
        let mut body = Vec::new();
        for wire in [
            &b"zz\r\n"[..],
            b"\r\n",
            b"3\r\nabcXX",
            b"3\rX",
            b"fffffffffffffffff\r\n",
        ] {
            assert!(ChunkedDecoder::default().feed(wire, &mut body).is_err());
        }
    }

    #[test]
    fn request_bytes_are_framed_and_escaped() {
        let mut out = Vec::new();
        query_request("SELECT 'a\"b' FROM t", "c_recv", &mut out);
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(
            body,
            r#"{"sql":"SELECT 'a\"b' FROM t","context":"c_recv","mode":"mediated"}"#
        );
    }
}
