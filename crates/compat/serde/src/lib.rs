//! Vendored stand-in for the `serde` crate.
//!
//! The build environment is fully offline, so this workspace vendors the
//! tiny subset of the serde API it actually uses: the [`Serialize`] and
//! [`Deserialize`] traits plus their derive macros (re-exported from the
//! sibling `serde_derive` proc-macro crate). Instead of serde's visitor
//! architecture, both traits go through a self-describing [`Value`] tree,
//! which is all `serde_json`'s `to_string`/`from_str` need.
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
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the JSON data model).
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
        match self {
            Value::Map(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected map with field `{name}`, found {}",
                other.kind()
            ))),
        }
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

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;
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
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
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
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
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

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        // Values beyond u64 fall back to a decimal string so nothing is
        // silently truncated; `Deserialize` below accepts both forms.
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::Str(self.to_string()),
        }
    }
}

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

impl Serialize for i128 {
    fn to_value(&self) -> Value {
        match i64::try_from(*self) {
            Ok(n) => Value::I64(n),
            Err(_) => Value::Str(self.to_string()),
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

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
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

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
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

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
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

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(VecDeque::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl Serialize for std::sync::Arc<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.as_ref().to_owned())
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(std::sync::Arc::from(s.as_str())),
            other => Err(Error::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
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
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
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
        let v = q.to_value();
        assert_eq!(
            v,
            Value::Array(vec![
                Value::U64(2),
                Value::U64(3),
                Value::U64(4),
                Value::U64(5)
            ])
        );
        assert_eq!(VecDeque::<u32>::from_value(&v).unwrap(), q);
        assert!(VecDeque::<u32>::from_value(&Value::U64(1)).is_err());
    }
}
