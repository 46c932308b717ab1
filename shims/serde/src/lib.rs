//! Offline shim for the `serde` subset this workspace uses.
//!
//! Instead of serde's visitor architecture, this models serialization as
//! conversion through a self-describing [`Value`] tree — `serde_json`
//! (the shim) renders and parses that tree as JSON text. The derive
//! macros come from the sibling `serde_derive` shim and support what
//! the workspace derives on: non-generic structs with named fields, and
//! non-generic internally tagged enums of unit and named-field variants
//! under exactly `#[serde(tag = "...", rename_all = "snake_case")]` —
//! the one attribute the shim accepts.
//!
//! Deserialization consumes its [`Value`], so strings and byte strings
//! move into the decoded type instead of being copied out of the tree.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// Self-describing data tree (the shim's entire data model).
#[derive(Clone, PartialEq)]
pub enum Value {
    /// JSON null / a missing field.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed (negative) integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
    /// Raw bytes. JSON text has no form for them (`serde_json` refuses
    /// to render one); a codec that frames JSON beside raw bytes
    /// decides how they travel.
    Bytes(Vec<u8>),
}

impl std::fmt::Debug for Value {
    /// As derived, except that byte strings show only their length: an
    /// error message naming a value must not grow with an inline image.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::Bool(b) => f.debug_tuple("Bool").field(b).finish(),
            Value::U64(n) => f.debug_tuple("U64").field(n).finish(),
            Value::I64(n) => f.debug_tuple("I64").field(n).finish(),
            Value::F64(x) => f.debug_tuple("F64").field(x).finish(),
            Value::Str(s) => f.debug_tuple("Str").field(s).finish(),
            Value::Array(items) => f.debug_tuple("Array").field(items).finish(),
            Value::Object(fields) => f.debug_tuple("Object").field(fields).finish(),
            Value::Bytes(b) => write!(f, "Bytes(<{} bytes>)", b.len()),
        }
    }
}

/// Serialization error (shared with the `serde_json` shim).
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convert a value into the [`Value`] data model.
pub trait Serialize {
    /// Build the data-model tree for `self`.
    fn to_value(&self) -> Value;
}

/// Rebuild a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parse `value` into `Self`, moving its strings and byte strings.
    fn from_value(value: Value) -> Result<Self, Error>;
}

/// Take a struct field or enum tag out of an object by name (used by
/// derived `Deserialize` impls); the first key of that name wins, and
/// its slot is left [`Value::Null`]. Missing keys deserialize as
/// [`Value::Null`], so `Option` fields may be omitted.
pub fn __field<T: Deserialize>(value: &mut Value, name: &str) -> Result<T, Error> {
    let Value::Object(fields) = value else {
        return Err(Error(format!("expected object looking up `{name}`")));
    };
    match fields.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(std::mem::replace(v, Value::Null)),
        None => T::from_value(Value::Null).map_err(|_| Error(format!("missing field `{name}`"))),
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(value: Value) -> Result<Self, Error> {
                match value {
                    Value::U64(n) => <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range"))),
                    Value::I64(n) => <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range"))),
                    other => Err(Error(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self < 0 { Value::I64(*self as i64) } else { Value::U64(*self as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: Value) -> Result<Self, Error> {
                match value {
                    Value::U64(n) => <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range"))),
                    Value::I64(n) => <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range"))),
                    other => Err(Error(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: Value) -> Result<Self, Error> {
        match value {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(b),
            other => Err(Error(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s),
            other => Err(Error(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.into_iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn from_value(value: Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(value)?;
        if items.len() != N {
            return Err(Error(format!("expected array of {N}, got {}", items.len())));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: Value) -> Result<Self, Error> {
                match value {
                    Value::Array(items) => {
                        let expected = [$($idx),+].len();
                        if items.len() != expected {
                            return Err(Error(format!("expected {expected}-tuple")));
                        }
                        let mut items = items.into_iter();
                        Ok(($($name::from_value(items.next().expect("length checked"))?,)+))
                    }
                    other => Err(Error(format!("expected array, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<K: ToString, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Sort for stable output: hash order would make serialized text
        // nondeterministic.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}
