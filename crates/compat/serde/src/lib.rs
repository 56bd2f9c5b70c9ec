//! Vendored stand-in for the `serde` crate.
//!
//! The build environment is fully offline, so this workspace vendors the
//! tiny subset of the serde API it actually uses: the [`Serialize`] and
//! [`Deserialize`] traits plus their derive macros (re-exported from the
//! sibling `serde_derive` proc-macro crate). Instead of serde's visitor
//! architecture, [`Serialize`] appends JSON straight into a
//! [`JsonWriter`] (no intermediate tree), and [`Deserialize`] reads a
//! self-describing [`Value`] tree parsed by `serde_json::from_str`. A
//! spilling writer hands its buffer to a sink every [`SPILL_CHUNK`]
//! bytes, so a multi-megabyte checkpoint streams through a fixed
//! buffer instead of growing one `String`.
//!
//! Only plain `#[derive(Serialize, Deserialize)]` plus two named-field
//! attributes are supported: `#[serde(default)]`, which schema evolution
//! needs (absent fields fall back to `Default::default()`), and
//! `#[serde(skip)]`, which keeps scratch state out of checkpoints (never
//! written, `Default::default()` on read). Everything else matches what
//! this workspace uses and any other `#[serde(...)]` attribute is a
//! compile error.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing parsed value (the JSON data model), the input of
/// [`Deserialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map with string keys (field order is preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `name` in a [`Value::Map`].
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a map or lacks the field.
    pub fn get_field(&self, name: &str) -> Result<&Value, Error> {
        self.opt_field(name)?
            .ok_or_else(|| Error::new(format!("missing field `{name}`")))
    }

    /// Looks up `name` in a [`Value::Map`], tolerating its absence.
    ///
    /// The `#[serde(default)]` deserialization path: an absent field is
    /// `Ok(None)` (the caller substitutes `Default::default()`), but a
    /// non-map value is still a shape error.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a map.
    pub fn opt_field(&self, name: &str) -> Result<Option<&Value>, Error> {
        match self {
            Value::Map(fields) => Ok(fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)),
            other => Err(Error::new(format!(
                "expected map with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Looks up element `idx` in a [`Value::Array`].
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not an array or is too short.
    pub fn get_index(&self, idx: usize) -> Result<&Value, Error> {
        match self {
            Value::Array(items) => items
                .get(idx)
                .ok_or_else(|| Error::new(format!("missing tuple element {idx}"))),
            other => Err(Error::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name for the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
        }
    }
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization as JSON text.
pub trait Serialize {
    /// Appends `self` to `w` as one JSON value.
    fn serialize(&self, w: &mut JsonWriter);
}

/// Where a spilling [`JsonWriter`] hands each full chunk of output.
pub type Spill = Box<dyn FnMut(&str)>;

/// The buffer size past which a spilling [`JsonWriter`] hands its output
/// to the sink, at the next element boundary.
pub const SPILL_CHUNK: usize = 64 * 1024;

/// An append-only JSON emitter over a `String`, compact or pretty
/// (two-space indent, `": "` after keys, empty containers as `[]`/`{}`).
/// A container is bracketed by [`JsonWriter::open`] and
/// [`JsonWriter::close`]; [`JsonWriter::item`], [`JsonWriter::key`] and
/// [`JsonWriter::field`] place the separators. Nothing but the output
/// buffer is ever allocated.
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// No element written yet in the innermost open container.
    first: bool,
    /// The buffer length that triggers a spill (`usize::MAX` when
    /// appending).
    spill_at: usize,
    sink: Option<Spill>,
}

impl JsonWriter {
    /// A writer appending to `out`, so a caller can frame the JSON
    /// without copying it.
    pub fn append_to(out: String, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            first: true,
            spill_at: usize::MAX,
            sink: None,
        }
    }

    /// A writer that hands its output to `sink` in chunks: once the
    /// buffer passes [`SPILL_CHUNK`] bytes, the next element boundary
    /// spills it, and [`JsonWriter::finish`] spills the rest. The
    /// concatenated chunks are exactly the bytes an appending writer
    /// would build.
    pub fn spilling(pretty: bool, sink: Spill) -> Self {
        JsonWriter {
            // Room for one element past the threshold, so the buffer
            // never regrows.
            out: String::with_capacity(SPILL_CHUNK + SPILL_CHUNK / 8),
            spill_at: SPILL_CHUNK,
            sink: Some(sink),
            ..JsonWriter::append_to(String::new(), pretty)
        }
    }

    /// The output buffer; a spilling writer first hands what is left of
    /// it to its sink, and returns it empty.
    pub fn finish(mut self) -> String {
        self.spill();
        self.out
    }

    fn spill(&mut self) {
        if let Some(sink) = &mut self.sink {
            if !self.out.is_empty() {
                sink(&self.out);
                self.out.clear();
            }
        }
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        if b {
            self.out.push_str("true");
        } else {
            self.out.push_str("false");
        }
    }

    /// An unsigned integer, formatted from a stack digit buffer.
    pub fn u64(&mut self, mut n: u64) {
        if n < 10 {
            self.out.push(char::from(b'0' + n as u8));
            return;
        }
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while n > 0 {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        buf[i..].iter().for_each(|&d| self.out.push(char::from(d)));
    }

    /// A signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// A float: the shortest representation that parses back to the
    /// same `f64`, always with a decimal point or exponent; non-finite
    /// values, which JSON cannot hold, are `null`.
    pub fn f64(&mut self, f: f64) {
        if f.is_finite() {
            let _ = write!(self.out, "{f:?}");
        } else {
            self.null();
        }
    }

    /// A string, with quotes, backslashes and control characters
    /// escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escapes are ASCII, so `run..i` splits on char boundaries.
            self.out.push_str(&s[run..i]);
            run = i + 1;
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(esc);
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Opens a container: `[` or `{`.
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// Closes the innermost container: `]` or `}`.
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        // The enclosing container, if any, now holds this one.
        self.first = false;
        self.out.push(bracket);
    }

    /// Writes one array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.next();
        v.serialize(self);
    }

    /// Writes a whole array.
    pub fn seq<I: IntoIterator<Item: Serialize>>(&mut self, items: I) {
        self.open('[');
        items.into_iter().for_each(|t| self.item(&t));
        self.close(']');
    }

    /// Writes one map key (escaped); its value follows.
    pub fn key(&mut self, k: &str) {
        self.next();
        self.str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Writes one map entry whose key is a plain identifier (a field or
    /// variant name), which needs no escaping.
    pub fn field<T: Serialize + ?Sized>(&mut self, k: &str, v: &T) {
        self.next();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        v.serialize(self);
    }

    fn next(&mut self) {
        if self.out.len() >= self.spill_at {
            self.spill();
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            (0..self.depth).for_each(|_| self.out.push_str("  "));
        }
    }
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if `v` does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_uint {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::F64(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    ref other => {
                        return Err(Error::new(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

macro_rules! impl_int {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error::new(format!("integer {n} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 => f as i64,
                    ref other => {
                        return Err(Error::new(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::U64(n) => Ok(u128::from(*n)),
            Value::I64(n) if *n >= 0 => Ok(*n as u128),
            Value::Str(s) => s
                .parse::<u128>()
                .map_err(|_| Error::new(format!("invalid u128 string `{s}`"))),
            other => Err(Error::new(format!(
                "expected unsigned integer, found {}",
                other.kind()
            ))),
        }
    }
}

impl Deserialize for i128 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::I64(n) => Ok(i128::from(*n)),
            Value::U64(n) => Ok(i128::from(*n)),
            Value::Str(s) => s
                .parse::<i128>()
                .map_err(|_| Error::new(format!("invalid i128 string `{s}`"))),
            other => Err(Error::new(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::F64(f) => Ok(f),
            Value::I64(n) => Ok(n as f64),
            Value::U64(n) => Ok(n as f64),
            Value::Null => Ok(f64::NAN),
            ref other => Err(Error::new(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error::new(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

/// Serialize impls whose body is one expression over `self` (bound to
/// the first closure name) and the writer (the second).
macro_rules! ser_with {
    ($([$($gen:tt)*] $t:ty => |$s:ident, $w:ident| $body:expr;)+) => {$(
        impl<$($gen)*> Serialize for $t {
            fn serialize(&self, $w: &mut JsonWriter) {
                let $s = self;
                $body
            }
        }
    )+};
}

ser_with! {
    [] bool => |b, w| w.bool(*b);
    [] f64 => |f, w| w.f64(*f);
    [] str => |s, w| w.str(s);
    [] String => |s, w| w.str(s);
    [] std::sync::Arc<str> => |s, w| w.str(s);
    [T: Serialize + ?Sized] &T => |t, w| (**t).serialize(w);
    [T: Serialize] Box<T> => |t, w| (**t).serialize(w);
    [T: Serialize] Option<T> => |o, w| match o {
        Some(t) => t.serialize(w),
        None => w.null(),
    };
    // Beyond 64 bits an integer falls back to a decimal string, so
    // nothing is silently truncated; `Deserialize` accepts both forms.
    [] u128 => |n, w| match u64::try_from(*n) {
        Ok(n) => w.u64(n),
        Err(_) => w.str(&n.to_string()),
    };
    [] i128 => |n, w| match i64::try_from(*n) {
        Ok(n) => w.i64(n),
        Err(_) => w.str(&n.to_string()),
    };
    [V: Serialize] BTreeMap<String, V> => |m, w| {
        w.open('{');
        m.iter().for_each(|(k, v)| {
            w.key(k);
            v.serialize(w);
        });
        w.close('}');
    };
    [T: Serialize] Vec<T> => |v, w| w.seq(v);
    [T: Serialize] VecDeque<T> => |v, w| w.seq(v);
    [T: Serialize, const N: usize] [T; N] => |v, w| w.seq(v);
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(VecDeque::from)
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::new(format!("expected array of length {N}, found {len}")))
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        String::from_value(v).map(std::sync::Arc::from)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::new(format!("expected map, found {}", other.kind()))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut JsonWriter) {
                w.open('[');
                $(w.item(&self.$idx);)+
                w.close(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(($($t::from_value(v.get_index($idx)?)?,)+))
            }
        }
    )+};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_deque_round_trips_as_an_array_in_queue_order() {
        let mut q: VecDeque<u32> = VecDeque::with_capacity(4);
        q.extend([1, 2, 3, 4]);
        q.pop_front();
        q.push_back(5); // wrapped storage: serialization follows queue order
        let mut w = JsonWriter::append_to(String::new(), false);
        q.serialize(&mut w);
        assert_eq!(w.finish(), "[2,3,4,5]");
        let v = Value::Array((2..=5).map(Value::U64).collect());
        assert_eq!(VecDeque::<u32>::from_value(&v).unwrap(), q);
        assert!(VecDeque::<u32>::from_value(&Value::U64(1)).is_err());
    }
}
