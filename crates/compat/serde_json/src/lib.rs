//! Vendored stand-in for `serde_json`: JSON rendering through the
//! [`serde::JsonWriter`] of the sibling vendored serde crate, and parsing
//! into its [`serde::Value`] tree for [`Deserialize`].
//!
//! Supports exactly the entry points this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`to_writer`] and [`from_str`].

#![forbid(unsafe_code)]

use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::cell::RefCell;
use std::fmt;
use std::io;
use std::rc::Rc;

/// Error produced by JSON parsing.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = JsonWriter::append_to(String::new(), pretty);
    value.serialize(&mut w);
    w.finish()
}

/// Serializes `value` as a compact JSON string.
///
/// # Errors
///
/// Never fails: the `Result` mirrors the real serde_json signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, false))
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Never fails: the `Result` mirrors the real serde_json signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, true))
}

/// Streams `value` as compact JSON into `writer` through a spilling
/// [`JsonWriter`], so the output is never held whole, and hands the
/// writer back. The bytes are exactly [`to_string`]'s.
///
/// # Errors
///
/// The first error `writer` returns; no byte is written after it.
pub fn to_writer<W, T>(writer: W, value: &T) -> io::Result<W>
where
    W: io::Write + 'static,
    T: Serialize + ?Sized,
{
    // The writer's sink must own what it writes to, so the sink and
    // this function share the writer and its first error.
    let shared = Rc::new(RefCell::new((writer, Ok(()))));
    let sink = Rc::clone(&shared);
    let mut w = JsonWriter::spilling(
        false,
        Box::new(move |chunk: &str| {
            let (writer, status) = &mut *sink.borrow_mut();
            if status.is_ok() {
                *status = writer.write_all(chunk.as_bytes());
            }
        }),
    );
    value.serialize(&mut w);
    // Finishing drops the sink, so `shared` is the last handle.
    w.finish();
    let (writer, status) = Rc::into_inner(shared)
        .expect("the finished writer dropped its sink")
        .into_inner();
    status.map(|()| writer)
}

/// The deepest nesting of arrays and objects [`from_str`] accepts. The
/// parser recurses once per level, so an unbounded input could overflow
/// the stack; this workspace's own files nest far less deeply.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON, nesting deeper than
/// [`MAX_DEPTH`], or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value(&parse(s)?)?)
}

/// Parses one JSON document into a [`Value`] tree.
fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Runs `parse` one nesting level down, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(fields));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // workspace's writer; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole unescaped run up to the next quote
                    // or backslash in one UTF-8 validation. Validating (or
                    // decoding) per character would re-scan the tail of the
                    // input for every byte, turning map-heavy documents —
                    // one key string per field — quadratic in input size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&12345.0f64).unwrap(), "12345.0");
        assert_eq!(from_str::<f64>("12345.0").unwrap(), 12345.0);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn roundtrip_nested() {
        let v = vec![vec![1u64, 2], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
        let back: Vec<Vec<u64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_runs_mix_escapes_and_multibyte() {
        // The unescaped-run fast path must compose with escapes and
        // multi-byte UTF-8 on either side of them.
        let original = "pré\"fix\\λ\nrest—tail";
        let json = to_string(&original).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
        // A string-key-heavy document stays cheap to parse: this is the
        // shape that regressed to quadratic when each key character
        // re-validated the remaining input.
        let doc: Vec<std::collections::BTreeMap<String, u64>> = (0..512)
            .map(|i| [("alpha".to_string(), i), ("beta".to_string(), i * 2)].into())
            .collect();
        let json = to_string(&doc).unwrap();
        assert_eq!(
            from_str::<Vec<std::collections::BTreeMap<String, u64>>>(&json).unwrap(),
            doc
        );
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let nest = |depth: usize, open: &str, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, inner, close) in [("[", "", "]"), ("{\"k\":", "0", "}")] {
            let deepest = nest(MAX_DEPTH, open, inner, close);
            assert!(parse(&deepest).is_ok(), "{open}");
            let err = parse(&nest(MAX_DEPTH + 1, open, inner, close))
                .expect_err("one level past the bound");
            let at = MAX_DEPTH * open.len();
            assert_eq!(
                err.to_string(),
                format!("nesting deeper than {MAX_DEPTH} levels at byte {at}")
            );
        }
        // Far past the bound, as in a hostile file: an error, not a
        // stack overflow.
        let hostile = "[".repeat(400_000);
        assert!(parse(&hostile).is_err());
    }

    #[test]
    fn pretty_output_is_parseable() {
        let v = vec![1.25f64, 2.5];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integer_edges_print_exactly() {
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&0u8).unwrap(), "0");
        assert_eq!(to_string(&-1i32).unwrap(), "-1");
        // Beyond 64 bits an integer is written as a decimal string.
        let big = u128::from(u64::MAX) + 1;
        assert_eq!(to_string(&big).unwrap(), "\"18446744073709551616\"");
        assert_eq!(from_str::<u128>("\"18446744073709551616\"").unwrap(), big);
        assert_eq!(
            to_string(&u128::from(u64::MAX)).unwrap(),
            "18446744073709551615"
        );
        assert_eq!(
            to_string(&i128::MIN).unwrap(),
            "\"-170141183460469231731687303715884105728\""
        );
    }

    #[test]
    fn float_edges_print_exactly() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY).unwrap(), "null");
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
        assert_eq!(to_string(&5e-324f64).unwrap(), "5e-324");
        assert_eq!(to_string(&[1.0f64, -2.5]).unwrap(), "[1.0,-2.5]");
    }

    #[test]
    fn string_escapes_print_exactly() {
        let s = "q\"b\\n\nr\rt\tc\u{1}λ—😀";
        let json = to_string(&s).unwrap();
        assert_eq!(json, r#""q\"b\\n\nr\rt\tc\u0001λ—😀""#);
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Empty {}

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Shapes {
        items: Vec<u64>,
        empty: Empty,
        some: Option<u32>,
        none: Option<u32>,
        nested: Vec<Nested>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Nested {
        Unit,
        New(u8),
        Pair(u8, i8),
        Rec { x: u8, inner: Box<Nested> },
    }

    fn shapes() -> Shapes {
        Shapes {
            items: Vec::new(),
            empty: Empty {},
            some: Some(7),
            none: None,
            nested: vec![
                Nested::Unit,
                Nested::New(4),
                Nested::Pair(5, -6),
                Nested::Rec {
                    x: 1,
                    inner: Box::new(Nested::Rec {
                        x: 2,
                        inner: Box::new(Nested::Pair(3, -3)),
                    }),
                },
            ],
        }
    }

    #[test]
    fn container_shapes_print_exactly() {
        let v = shapes();
        let compact = to_string(&v).unwrap();
        assert_eq!(
            compact,
            r#"{"items":[],"empty":{},"some":7,"none":null,"nested":["Unit",{"New":4},{"Pair":[5,-6]},{"Rec":{"x":1,"inner":{"Rec":{"x":2,"inner":{"Pair":[3,-3]}}}}}]}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"items\": [],\n  \"empty\": {},\n  \"some\": 7,\n  \"none\": null,\n  \
             \"nested\": [\n    \"Unit\",\n    {\n      \"New\": 4\n    },\n    {\n      \
             \"Pair\": [\n        5,\n        -6\n      ]\n    },\n    {\n      \"Rec\": {\n        \
             \"x\": 1,\n        \"inner\": {\n          \"Rec\": {\n            \"x\": 2,\n            \
             \"inner\": {\n              \"Pair\": [\n                3,\n                -3\n              \
             ]\n            }\n          }\n        }\n      }\n    }\n  ]\n}"
        );
        assert_eq!(from_str::<Shapes>(&compact).unwrap(), v);
        assert_eq!(from_str::<Shapes>(&pretty).unwrap(), v);
        assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Empty {}).unwrap(), "{}");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct WithScratch {
        kept: u64,
        #[serde(skip)]
        scratch: Vec<u64>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum VariantWithScratch {
        Run {
            kept: u64,
            #[serde(skip)]
            scratch: Vec<u64>,
        },
    }

    #[test]
    fn skipped_fields_are_not_written_and_read_back_as_default() {
        let v = WithScratch {
            kept: 7,
            scratch: vec![1, 2],
        };
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"{"kept":7}"#);
        let back: WithScratch = from_str(&json).unwrap();
        assert_eq!(
            back,
            WithScratch {
                kept: 7,
                scratch: Vec::new()
            }
        );
        // A stray key for the skipped field is ignored, not read.
        let back: WithScratch = from_str(r#"{"kept":7,"scratch":[9]}"#).unwrap();
        assert!(back.scratch.is_empty());

        let e = VariantWithScratch::Run {
            kept: 3,
            scratch: vec![4],
        };
        let json = to_string(&e).unwrap();
        assert_eq!(json, r#"{"Run":{"kept":3}}"#);
        assert_eq!(
            from_str::<VariantWithScratch>(&json).unwrap(),
            VariantWithScratch::Run {
                kept: 3,
                scratch: Vec::new()
            }
        );
    }
}
