//! Offline stand-in for `serde_json` 1: the tree types (re-exported from
//! the `serde` stand-in, where they are the data model), a strict
//! parser, the compact and pretty printers, and `json!`.
//!
//! Output matches the real crate byte for byte except for floats with an
//! exponent (`1e21` here, `1e+21` there) — both are JSON and read back to
//! the same bits. Object keys are sorted, as in the real crate's default
//! build.
#![forbid(unsafe_code)]

mod parse;

pub use serde::de::Error;
pub use serde::value::{Map, Number, Value};
use serde::{Deserialize, Serialize};

/// This crate's result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Any serialisable value as a tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// One-line JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().write_json(&mut out, None);
    Ok(out)
}

/// JSON text indented by two spaces per level.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().write_json(&mut out, Some(0));
    Ok(out)
}

/// Parses JSON text into any deserialisable type.
pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T> {
    T::from_value(&parse::parse(text)?)
}

/// Builds a [`Value`] from JSON-like syntax. Values may be `null`, nested
/// `[...]` and `{...}`, or any serialisable expression; object keys are a
/// single token (a string literal, a variable, or a parenthesised
/// expression).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => {{
        // `json!([])` pushes nothing.
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items $($items)*);
        $crate::Value::Array(items)
    }};
    ({ $($members:tt)* }) => {{
        // `json!({})` inserts nothing.
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_members!(map $($members)*);
        $crate::Value::Object(map)
    }};
    ($value:expr) => { $crate::to_value(&$value).expect("serialisable") };
}

// The literal forms come first: a macro may back out of matching a token
// but not out of parsing an `expr`, so `expr` is tried last.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($v:ident) => {};
    ($v:ident null $(, $($rest:tt)*)?) => {
        $v.push($crate::Value::Null); $crate::json_items!($v $($($rest)*)?);
    };
    ($v:ident [ $($a:tt)* ] $(, $($rest:tt)*)?) => {
        $v.push($crate::json!([ $($a)* ])); $crate::json_items!($v $($($rest)*)?);
    };
    ($v:ident { $($o:tt)* } $(, $($rest:tt)*)?) => {
        $v.push($crate::json!({ $($o)* })); $crate::json_items!($v $($($rest)*)?);
    };
    ($v:ident $e:expr $(, $($rest:tt)*)?) => {
        $v.push($crate::json!($e)); $crate::json_items!($v $($($rest)*)?);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ($m:ident) => {};
    ($m:ident $k:tt : null $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::Value::Null); $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : [ $($a:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::json!([ $($a)* ])); $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : { $($o:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::json!({ $($o)* })); $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : $e:expr $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::json!($e)); $crate::json_members!($m $($($rest)*)?);
    };
}
