//! SQL lexer.
//!
//! Tokenizes the COIN SQL dialect. Keywords are case-insensitive;
//! identifiers preserve case. `--` starts a line comment.

/// A lexical token with its 1-based line/column position.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub tok: Tok,
    pub line: u32,
    pub col: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword (uppercased).
    Kw(String),
    /// Identifier (original case preserved).
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Concat,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Semi,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "UNION",
    "ALL", "AND", "OR", "NOT", "AS", "IN", "BETWEEN", "LIKE", "IS", "NULL", "TRUE", "FALSE",
    "JOIN", "INNER", "ON", "CASE", "WHEN", "THEN", "ELSE", "END", "ASC", "DESC", "CROSS",
];

/// Lexing error with position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SQL lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src` into a token stream.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                bump!();
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'(' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::LParen,
                    line: tline,
                    col: tcol,
                });
            }
            b')' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::RParen,
                    line: tline,
                    col: tcol,
                });
            }
            b',' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Comma,
                    line: tline,
                    col: tcol,
                });
            }
            b'.' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Dot,
                    line: tline,
                    col: tcol,
                });
            }
            b'*' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Star,
                    line: tline,
                    col: tcol,
                });
            }
            b'+' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Plus,
                    line: tline,
                    col: tcol,
                });
            }
            b'-' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Minus,
                    line: tline,
                    col: tcol,
                });
            }
            b'/' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Slash,
                    line: tline,
                    col: tcol,
                });
            }
            b';' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Semi,
                    line: tline,
                    col: tcol,
                });
            }
            b'|' if bytes.get(i + 1) == Some(&b'|') => {
                bump!();
                bump!();
                out.push(Spanned {
                    tok: Tok::Concat,
                    line: tline,
                    col: tcol,
                });
            }
            b'=' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Eq,
                    line: tline,
                    col: tcol,
                });
            }
            b'<' => {
                bump!();
                let tok = match bytes.get(i) {
                    Some(b'>') => {
                        bump!();
                        Tok::Neq
                    }
                    Some(b'=') => {
                        bump!();
                        Tok::Le
                    }
                    _ => Tok::Lt,
                };
                out.push(Spanned {
                    tok,
                    line: tline,
                    col: tcol,
                });
            }
            b'>' => {
                bump!();
                let tok = if bytes.get(i) == Some(&b'=') {
                    bump!();
                    Tok::Ge
                } else {
                    Tok::Gt
                };
                out.push(Spanned {
                    tok,
                    line: tline,
                    col: tcol,
                });
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                bump!();
                bump!();
                out.push(Spanned {
                    tok: Tok::Neq,
                    line: tline,
                    col: tcol,
                });
            }
            b'\'' => {
                bump!();
                let mut s = Vec::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            line: tline,
                            col: tcol,
                        });
                    }
                    if bytes[i] == b'\'' {
                        // '' is an escaped quote.
                        if bytes.get(i + 1) == Some(&b'\'') {
                            s.push(b'\'');
                            bump!();
                            bump!();
                            continue;
                        }
                        bump!();
                        break;
                    }
                    s.push(bytes[i]);
                    bump!();
                }
                // The source is UTF-8 and the quotes are ASCII, so the
                // bytes between them are UTF-8 too.
                let s = String::from_utf8(s).expect("a quoted literal of UTF-8 source is UTF-8");
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line: tline,
                    col: tcol,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        while i < j {
                            bump!();
                        }
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            bump!();
                        }
                    }
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|e| LexError {
                        message: format!("bad float {text}: {e}"),
                        line: tline,
                        col: tcol,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|e| LexError {
                        message: format!("bad integer {text}: {e}"),
                        line: tline,
                        col: tcol,
                    })?)
                };
                out.push(Spanned {
                    tok,
                    line: tline,
                    col: tcol,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    bump!();
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                let upper = text.to_ascii_uppercase();
                let tok = if KEYWORDS.contains(&upper.as_str()) {
                    Tok::Kw(upper)
                } else {
                    Tok::Ident(text.to_owned())
                };
                out.push(Spanned {
                    tok,
                    line: tline,
                    col: tcol,
                });
            }
            _ => {
                // Every token ends on an ASCII byte, so `i` starts a char.
                let other = src[i..].chars().next().expect("i < src.len()");
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    line: tline,
                    col: tcol,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("select SELECT SeLeCt"),
            vec![
                Tok::Kw("SELECT".into()),
                Tok::Kw("SELECT".into()),
                Tok::Kw("SELECT".into())
            ]
        );
    }

    #[test]
    fn identifiers_preserve_case() {
        assert_eq!(
            toks("cname Revenue"),
            vec![Tok::Ident("cname".into()), Tok::Ident("Revenue".into())]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("= <> != < <= > >= ||"),
            vec![
                Tok::Eq,
                Tok::Neq,
                Tok::Neq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Concat
            ]
        );
    }

    #[test]
    fn string_with_escaped_quote() {
        assert_eq!(toks("'O''Hare'"), vec![Tok::Str("O'Hare".into())]);
    }

    #[test]
    fn string_keeps_non_ascii() {
        assert_eq!(
            toks("'Zürich' '日本''s'"),
            vec![Tok::Str("Zürich".into()), Tok::Str("日本's".into())]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.75 1e3 2.5e-2"),
            vec![
                Tok::Int(42),
                Tok::Float(3.75),
                Tok::Float(1000.0),
                Tok::Float(0.025)
            ]
        );
    }

    #[test]
    fn qualified_column_tokens() {
        assert_eq!(
            toks("r1.cname"),
            vec![
                Tok::Ident("r1".into()),
                Tok::Dot,
                Tok::Ident("cname".into())
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("1 -- comment\n2"), vec![Tok::Int(1), Tok::Int(2)]);
    }

    #[test]
    fn unterminated_string_errors() {
        let e = lex("'oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn position_tracking() {
        let spanned = lex("SELECT\n  x").unwrap();
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("SELECT #").is_err());
        let e = lex("SELECT t.ä").unwrap_err();
        assert_eq!(e.message, "unexpected character 'ä'");
    }
}
