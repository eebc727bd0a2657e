//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this crate provides the
//! subset of serde's API the workspace uses, built on an explicit
//! [`Value`] data model instead of serde's visitor machinery:
//!
//! * [`Serialize`] / [`Serializer`] with `collect_seq` and
//!   [`Serializer::serialize_value`] (what the derive macro targets);
//! * [`Deserialize`] / [`Deserializer`] with [`Deserializer::take_value`];
//! * `de::Error::custom`, mirroring serde's error-construction idiom;
//! * derive macros re-exported from the sibling `serde_derive` shim.
//!
//! Hand-written impls in the workspace (e.g. `AttrSet`'s sequence encoding)
//! compile unchanged against this surface, and would compile unchanged
//! against real serde if the dependency is ever swapped back.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// The self-describing data model everything serializes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with string keys, preserving insertion order.
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error: a message.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Receives a [`Value`]; the only sink the shim's data model needs.
pub trait Serializer: Sized {
    /// Success type.
    type Ok;
    /// Error type; must absorb shim-internal errors.
    type Error: From<Error>;

    /// Consume a fully-built [`Value`].
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    /// Serialize an iterator as a sequence (serde's `collect_seq`).
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let mut items = Vec::new();
        for item in iter {
            items.push(to_value(&item).map_err(Self::Error::from)?);
        }
        self.serialize_value(Value::Seq(items))
    }
}

/// A type that can serialize itself into any [`Serializer`].
pub trait Serialize {
    /// Serialize `self`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// The identity serializer: produces the [`Value`] itself.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    fn serialize_value(self, value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

/// Serialize anything into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Deserialization traits and helpers (mirrors `serde::de`).
pub mod de {
    /// Error-construction trait, mirroring `serde::de::Error`.
    pub trait Error: Sized {
        /// Build an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for super::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            super::Error(msg.to_string())
        }
    }
}

/// Produces a [`Value`] for [`Deserialize`] impls to destructure.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;

    /// Yield the underlying [`Value`].
    fn take_value(self) -> Result<Value, Self::Error>;
}

/// A type constructible from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserialize an instance.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// The identity deserializer around an owned [`Value`].
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = Error;
    fn take_value(self) -> Result<Value, Error> {
        Ok(self.0)
    }
}

/// Deserialize anything from a [`Value`].
pub fn from_value<T>(value: Value) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    T::deserialize(ValueDeserializer(value))
}

// ---------------------------------------------------------------------
// Serialize impls for primitives and std containers.
// ---------------------------------------------------------------------

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::I64(*self as i64))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl Serialize for u64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        if *self <= i64::MAX as u64 {
            s.serialize_value(Value::I64(*self as i64))
        } else {
            s.serialize_value(Value::U64(*self))
        }
    }
}

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (*self as u64).serialize(s)
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::F64(*self as f64))
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::F64(*self))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Bool(*self))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Str(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Str(self.clone()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.serialize_value(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------
// Deserialize impls for primitives and std containers.
// ---------------------------------------------------------------------

fn num_as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::I64(x) => Some(*x),
        Value::U64(x) => i64::try_from(*x).ok(),
        Value::F64(x) if x.fract() == 0.0 && x.abs() < 9e18 => Some(*x as i64),
        _ => None,
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.take_value()?;
                num_as_i64(&v)
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| {
                        de::Error::custom(format!(
                            "expected {}, got {v:?}", stringify!($t)
                        ))
                    })
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl<'de> Deserialize<'de> for u64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.take_value()?;
        match v {
            Value::U64(x) => Ok(x),
            ref other => num_as_i64(other)
                .and_then(|x| u64::try_from(x).ok())
                .ok_or_else(|| de::Error::custom(format!("expected u64, got {v:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.take_value()?;
        match v {
            Value::F64(x) => Ok(x),
            Value::I64(x) => Ok(x as f64),
            Value::U64(x) => Ok(x as f64),
            other => Err(de::Error::custom(format!("expected f64, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        f64::deserialize(d).map(|x| x as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(de::Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Str(s) => Ok(s),
            other => Err(de::Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl<'de, T> Deserialize<'de> for Vec<T>
where
    T: for<'x> Deserialize<'x>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Seq(items) => items
                .into_iter()
                .map(|v| from_value(v).map_err(de::Error::custom))
                .collect(),
            other => Err(de::Error::custom(format!(
                "expected sequence, got {other:?}"
            ))),
        }
    }
}

impl<'de, T> Deserialize<'de> for Option<T>
where
    T: for<'x> Deserialize<'x>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(None),
            other => from_value(other).map(Some).map_err(de::Error::custom),
        }
    }
}
