//! Offline stand-in for `serde` 1: `Serialize` and `Deserialize` over one
//! data model, the JSON [`value::Value`] tree, which is the only format
//! this repository serialises to. `serde_json` re-exports the tree types
//! and adds the parser, the printers and `json!`.
//!
//! Differences from the real crate that a caller can observe: there is no
//! `Serializer`/`Deserializer` pair (so no hand-written impls against
//! them), no `#[serde(...)]` attributes, and the derives cover named-field
//! structs and unit-variant enums only. Derived output matches the real
//! crate's JSON for those shapes.
#![forbid(unsafe_code)]

pub mod value;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::time::Duration;
use value::{Map, Number, Value};

/// A type that can be turned into a [`Value`] tree.
pub trait Serialize {
    /// The value as a JSON tree.
    fn to_value(&self) -> Value;
}

/// A type that can be rebuilt from a [`Value`] tree. The lifetime mirrors
/// the real trait's signature; nothing borrows from the input here.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds the value, or says which part of the tree did not fit.
    fn from_value(value: &Value) -> Result<Self, de::Error>;
}

/// Deserialisation support.
pub mod de {
    use super::value::Value;

    /// A `Deserialize` that borrows nothing from its input.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T: for<'de> super::Deserialize<'de>> DeserializeOwned for T {}

    /// Why a parse or a conversion failed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl Error {
        /// An error with the given message.
        pub fn custom(msg: impl std::fmt::Display) -> Error {
            Error(msg.to_string())
        }

        pub(crate) fn expected(what: &str, got: &Value) -> Error {
            Error(format!(
                "invalid type: expected {what}, found {}",
                got.kind()
            ))
        }
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    /// Field `name` of the object `value`; an absent field reads as
    /// `null`, so `Option` fields may be left out. Called by the derive.
    pub fn field<'de, T: super::Deserialize<'de>>(value: &Value, name: &str) -> Result<T, Error> {
        let Value::Object(map) = value else {
            return Err(Error::expected("an object", value));
        };
        match map.get(name) {
            Some(v) => T::from_value(v).map_err(|e| Error(format!("field `{name}`: {e}"))),
            None => {
                T::from_value(&Value::Null).map_err(|_| Error(format!("missing field `{name}`")))
            }
        }
    }

    /// The variant name a unit-variant enum was written as. Called by the
    /// derive.
    pub fn variant(value: &Value) -> Result<&str, Error> {
        value
            .as_str()
            .ok_or_else(|| Error::expected("a variant name", value))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Value, de::Error> {
        Ok(value.clone())
    }
}

impl Serialize for Map<String, Value> {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<bool, de::Error> {
        value
            .as_bool()
            .ok_or_else(|| de::Error::expected("a boolean", value))
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<$t, de::Error> {
                let wide: Option<i128> = match value {
                    Value::Number(n) => n.as_u64().map(i128::from).or(n.as_i64().map(i128::from)),
                    _ => None,
                };
                wide.and_then(|w| <$t>::try_from(w).ok())
                    .ok_or_else(|| de::Error::expected(concat!("a ", stringify!($t)), value))
            }
        }
    )*};
}

integers!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<$t, de::Error> {
                value
                    .as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| de::Error::expected("a number", value))
            }
        }
    )*};
}

floats!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<String, de::Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| de::Error::expected("a string", value))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Option<T>, de::Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

fn elements(value: &Value) -> Result<&Vec<Value>, de::Error> {
    value
        .as_array()
        .ok_or_else(|| de::Error::expected("an array", value))
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Vec<T>, de::Error> {
        elements(value)?.iter().map(T::from_value).collect()
    }
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("secs".to_string(), self.as_secs().to_value());
        map.insert("nanos".to_string(), self.subsec_nanos().to_value());
        Value::Object(map)
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn from_value(value: &Value) -> Result<Duration, de::Error> {
        Ok(Duration::new(
            de::field(value, "secs")?,
            de::field(value, "nanos")?,
        ))
    }
}
