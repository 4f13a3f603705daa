//! The JSON tree: [`Value`], [`Number`] and [`Map`], with the accessors,
//! conversions and comparisons of `serde_json`'s types of the same names.

use std::collections::{btree_map, BTreeMap};
use std::fmt;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted.
    Object(Map<String, Value>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

/// A JSON number: a `u64`, a negative `i64`, or a finite `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

impl Number {
    /// A float as a number; `None` for NaN and the infinities, which JSON
    /// cannot write.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    /// The number, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            _ => None,
        }
    }

    /// The number, if it is an integer that fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// The number as a float; integers convert.
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        })
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            // `{:?}` keeps the ".0" of whole floats and switches to an
            // exponent for very large and very small ones; both forms
            // are JSON and read back to the same bits.
            N::Float(x) => write!(f, "{x:?}"),
        }
    }
}

macro_rules! number_from {
    (unsigned: $($u:ty),*; signed: $($i:ty),*) => {
        $(impl From<$u> for Number {
            fn from(u: $u) -> Number {
                Number(N::PosInt(u as u64))
            }
        })*
        $(impl From<$i> for Number {
            fn from(i: $i) -> Number {
                if i < 0 {
                    Number(N::NegInt(i as i64))
                } else {
                    Number(N::PosInt(i as u64))
                }
            }
        })*
        $(impl From<$u> for Value {
            fn from(u: $u) -> Value {
                Value::Number(u.into())
            }
        })*
        $(impl From<$i> for Value {
            fn from(i: $i) -> Value {
                Value::Number(i.into())
            }
        })*
    };
}

number_from!(unsigned: u8, u16, u32, u64, usize; signed: i8, i16, i32, i64, isize);

impl From<f64> for Value {
    /// Non-finite floats become `null`, as `serde_json` writes them.
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Value {
        Value::from(f64::from(f))
    }
}

/// What [`Value::get`] and indexing accept: a key or a position.
pub trait Index {
    #[doc(hidden)]
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    #[doc(hidden)]
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut()?.get_mut(self)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array()?.get(*self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut()?.get_mut(*self)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
}

static NULL: Value = Value::Null;

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    /// The member or element, or `null` when there is none.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: Index> std::ops::IndexMut<I> for Value {
    /// The member or element, for assignment. Unlike the real crate this
    /// does not insert a missing key; it panics, as on a missing element.
    fn index_mut(&mut self, index: I) -> &mut Value {
        index
            .index_into_mut(self)
            .expect("no such member or element")
    }
}

impl Value {
    /// The member `index` of an object or element `index` of an array.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Mutable [`Value::get`].
    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number()?.as_u64()
    }

    /// The number as an `i64`, if this is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_number()?.as_i64()
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number()?.as_f64()
    }

    /// The number, if this is one.
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The elements, mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The members, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! eq_number {
    ($($t:ty => $as:ident as $wide:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$as() == Some(*other as $wide)
            }
        }
    )*};
}

eq_number!(u8 => as_u64 as u64, u16 => as_u64 as u64, u32 => as_u64 as u64, u64 => as_u64 as u64,
    usize => as_u64 as u64, i8 => as_i64 as i64, i16 => as_i64 as i64, i32 => as_i64 as i64,
    i64 => as_i64 as i64, isize => as_i64 as i64, f32 => as_f64 as f64, f64 => as_f64 as f64);

/// A JSON object: string keys in sorted order, like `serde_json::Map`
/// without its `preserve_order` feature.
#[derive(Debug, Clone, PartialEq)]
pub struct Map<K, V>(BTreeMap<K, V>);

impl Default for Map<String, Value> {
    fn default() -> Self {
        Map(BTreeMap::new())
    }
}

impl Map<String, Value> {
    /// An empty object.
    pub fn new() -> Self {
        Map::default()
    }

    /// Sets `key`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.get_mut(key)
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Members in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map(iter.into_iter().collect())
    }
}

impl Extend<(String, Value)> for Map<String, Value> {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = btree_map::IntoIter<String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = btree_map::Iter<'a, String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Value {
    /// Appends the value as JSON text: on one line when `depth` is `None`,
    /// else indented by two spaces per level starting at `depth`. The
    /// printers of `serde_json` and `Display` call this.
    #[doc(hidden)]
    pub fn write_json(&self, out: &mut String, depth: Option<usize>) {
        let newline = |out: &mut String, depth: Option<usize>| {
            if let Some(d) = depth {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", d));
            }
        };
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_string(s, out),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write_json(out, inner);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Object(map) if map.is_empty() => out.push_str("{}"),
            Value::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_string(key, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    value.write_json(out, inner);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact JSON; `{:#}` pretty-prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}
