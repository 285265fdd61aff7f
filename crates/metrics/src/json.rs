//! The repository's one JSON layer: value, parser, and the two renderings
//! every emitted document goes through.
//!
//! The build environment has no registry access, so serde is unavailable;
//! this module is the slice of it the repository needs, and the only place
//! that escapes strings, formats numbers, or lays out JSON text.
//!
//! - **Exact numbers.** A number keeps its token text ([`Json::Num`]), so
//!   parse → render reproduces the input token for token: `0.500000`
//!   stays `0.500000`, and [`Json::as_u64`] is exact over the whole `u64`
//!   range. Numbers are made by `From` for integers, by `From<f64>` for
//!   floats (the shortest round-trip form, always with a `.` or exponent so
//!   readers see a float; non-finite values become `null`), and by
//!   [`Json::fixed`] for fixed-decimal fields.
//! - **Member order.** Objects keep insertion order on parse and render;
//!   key order is part of every schema, which is what makes payloads and
//!   reports byte-diffable against golden files.
//! - **Two renderings.** `Display` is compact (no whitespace) for wire
//!   lines and JSONL; [`Json::pretty`] is the one layout for files (see its
//!   docs). Re-rendering parsed canonical text reproduces it byte for byte.
//! - **Depth limit.** The parser rejects nesting deeper than [`MAX_DEPTH`],
//!   so a hostile line cannot overflow the stack of the thread parsing it.

use std::fmt;

/// Deepest container nesting [`Json::parse`] accepts. Every document the
/// repository writes nests at most four levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its JSON token text (made by `From`, [`Json::fixed`],
    /// or the parser — never free-form).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}

from_integer!(u8, u16, u32, u64, u128, usize, i32, i64);

impl From<f64> for Json {
    /// The float rule: the shortest decimal that round-trips, with `.0`
    /// appended to integral values so readers see a float; non-finite
    /// values have no JSON form and become `null`.
    fn from(v: f64) -> Json {
        if !v.is_finite() {
            return Json::Null;
        }
        let mut token = v.to_string();
        if !token.contains(['.', 'e', 'E']) {
            token.push_str(".0");
        }
        Json::Num(token)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`, in order.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `v` with exactly `decimals` digits after the point (`null` when
    /// not finite).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Member lookup on an object; `None` for other variants or missing
    /// keys. First match wins (duplicate keys are not rejected).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number's value as the nearest `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if its token is a non-negative
    /// integer literal that fits in `u64` (exact over the whole range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Parse one JSON document from `text` (must consume the whole input
    /// apart from surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a byte offset plus message on malformed input, including
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// The file layout, with no options. A container whose children are
    /// all scalars (or that is empty) stays on one line, separated by
    /// `", "` and `": "`. Otherwise an array puts each element on its own
    /// line, rendered on that one line, and an object puts each member on
    /// its own line and lays its value out by the same rule; both indent
    /// two spaces per level. No trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Pretty(0))
            .expect("writing to a String cannot fail");
        out
    }

    fn write<W: fmt::Write>(&self, out: &mut W, layout: Layout) -> fmt::Result {
        let (open, close, len) = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Num(token) => return out.write_str(token),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => ('[', ']', items.len()),
            Json::Obj(members) => ('{', '}', members.len()),
        };
        let child = |i: usize| match self {
            Json::Arr(items) => (None, &items[i]),
            Json::Obj(members) => (Some(&members[i].0), &members[i].1),
            _ => unreachable!("scalars returned above"),
        };
        let multi_line = match layout {
            Layout::Pretty(level) if (0..len).any(|i| child(i).1.is_container()) => Some(level),
            _ => None,
        };
        let (comma, colon) = match layout {
            Layout::Compact => (",", ":"),
            _ => (", ", ": "),
        };
        out.write_char(open)?;
        for i in 0..len {
            let (key, value) = child(i);
            match multi_line {
                Some(level) => write!(
                    out,
                    "{}\n{:pad$}",
                    if i > 0 { "," } else { "" },
                    "",
                    pad = 2 * level + 2
                )?,
                None if i > 0 => out.write_str(comma)?,
                None => {}
            }
            if let Some(key) = key {
                write_escaped(out, key)?;
                out.write_str(colon)?;
            }
            // Members of a multi-line object follow the rule again; the
            // elements of a multi-line array each take one line.
            let inner = match (multi_line, key) {
                (Some(level), Some(_)) => Layout::Pretty(level + 1),
                (Some(_), None) => Layout::Inline,
                (None, _) => layout,
            };
            value.write(out, inner)?;
        }
        if let Some(level) = multi_line {
            write!(out, "\n{:pad$}", "", pad = 2 * level)?;
        }
        out.write_char(close)
    }
}

/// How [`Json::write`] lays a value out.
#[derive(Clone, Copy)]
enum Layout {
    /// One line, no whitespace (`Display`).
    Compact,
    /// One line, `", "` and `": "` separators.
    Inline,
    /// The [`Json::pretty`] rule, at this nesting level.
    Pretty(usize),
}

impl fmt::Display for Json {
    /// Compact single-line rendering, members in stored order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, Layout::Compact)
    }
}

/// Write `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Malformed-input error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.container(true),
            Some(b'[') => self.container(false),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An object (`keyed`) or an array, starting at its opening bracket.
    fn container(&mut self, keyed: bool) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        let close = if keyed { b'}' } else { b']' };
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let mut key = String::new();
                if keyed {
                    key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                }
                members.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(if keyed {
            Json::Obj(members)
        } else {
            Json::Arr(members.into_iter().map(|(_, v)| v).collect())
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed (every string
                            // the repository writes escapes only control
                            // characters); lone surrogates become U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let scalar = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(scalar.expect("a whole scalar of a &str"));
                }
            }
        }
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number token per the JSON grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.err("bad number"));
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        Ok(Json::Num(token.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(token: &str) -> Json {
        Json::Num(token.to_string())
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5").unwrap(), num("-12.5"));
        assert_eq!(Json::parse("1e-3").unwrap().as_f64(), Some(0.001));
        assert_eq!(
            Json::parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse("{\"a\":[1,2,{\"b\":false}],\"c\":\"x\"}").unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "{\"a\"}", "[1,]", "tru", "\"open", "1 2", "{]", "01", "1.", ".5", "-", "1e",
            "1e+", "--1", "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_limit).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Far deeper than any thread stack could recurse through.
        assert!(Json::parse(&"{\"a\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn number_tokens_survive_parse_and_render() {
        for token in [
            "0.500000",
            "1.0",
            "7",
            "-0",
            "1e-3",
            "2.5E+10",
            "18446744073709551615",
        ] {
            assert_eq!(Json::parse(token).unwrap().to_string(), token);
        }
    }

    #[test]
    fn u64_accessor_is_exact_over_the_whole_range() {
        for n in [0, 42, (1 << 53) + 1, u64::MAX] {
            assert_eq!(Json::parse(&n.to_string()).unwrap().as_u64(), Some(n));
            assert_eq!(Json::from(n).as_u64(), Some(n));
        }
        for not_u64 in ["-1", "1.5", "1.0", "1e3", "18446744073709551616", "\"42\""] {
            assert_eq!(Json::parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
    }

    #[test]
    fn floats_follow_the_one_float_rule() {
        assert_eq!(Json::from(1.0).to_string(), "1.0");
        assert_eq!(Json::from(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::from(-2.5).to_string(), "-2.5");
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f64::INFINITY), Json::Null);
        assert_eq!(Json::fixed(1.5, 6).to_string(), "1.500000");
        assert_eq!(Json::fixed(0.12345, 2).to_string(), "0.12");
        assert_eq!(Json::fixed(f64::NAN, 6), Json::Null);
    }

    #[test]
    fn display_is_compact_and_preserves_member_order() {
        let text = "{\"z\":1,\"a\":[true,null,\"x\"],\"m\":{\"k\":2.5}}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text, "member order is preserved");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn pretty_layout() {
        let v = Json::obj([
            ("id", Json::from("f")),
            ("columns", Json::arr(["a", "b"])),
            ("empty", Json::arr(Vec::<Json>::new())),
            (
                "rows",
                Json::arr([Json::arr([Json::from("k"), Json::arr([1.0, 2.5])])]),
            ),
            (
                "nested",
                Json::obj([("inner", Json::obj([("x", Json::from(1u64))]))]),
            ),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"id\": \"f\",\n  \"columns\": [\"a\", \"b\"],\n  \"empty\": [],\n  \
             \"rows\": [\n    [\"k\", [1.0, 2.5]]\n  ],\n  \"nested\": {\n    \
             \"inner\": {\"x\": 1}\n  }\n}"
        );
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(Json::obj([("k", Json::Null)]).pretty(), "{\"k\": null}");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::from("a\"b\\c\n\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ☂\"").unwrap();
        assert_eq!(v, Json::Str("héllo ☂".into()));
        assert_eq!(v.to_string(), "\"héllo ☂\"");
    }
}
