//! The data model: a JSON value tree.

use std::collections::BTreeMap;
use std::fmt;

/// Object representation: sorted keys, as serde_json's default `Map`.
pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) => u64::try_from(i).ok(),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        })
    }

    pub fn is_f64(&self) -> bool {
        matches!(self, Number::F(_))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(u) => write!(f, "{u}"),
            Number::I(i) => write!(f, "{i}"),
            // `{:?}` is the shortest form that parses back to the same
            // bits and always carries a `.0` or an exponent.
            Number::F(x) => write!(f, "{x:?}"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(Number::F(_)) => "a floating point number",
            Value::Number(_) => "an integer",
            Value::String(_) => "a string",
            Value::Array(_) => "a sequence",
            Value::Object(_) => "a map",
        }
    }

    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Replace with `null` and return the old value.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// Types usable in `value[index]` and `value.get(index)`.
pub trait Index {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        match value {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        match value {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    /// Missing keys and wrong types index to `null`, as in serde_json.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        if f.alternate() {
            crate::json::write_pretty(self, &mut out);
        } else {
            crate::json::write_compact(self, &mut out);
        }
        f.write_str(&out)
    }
}

macro_rules! value_from_int {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::$variant(v as $wide))
            }
        }
    )*};
}
value_from_int!(U as u64: u8, u16, u32, u64, usize);

macro_rules! value_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                // Non-negative integers are stored unsigned so that equal
                // numbers compare equal however they were produced.
                match u64::try_from(v) {
                    Ok(u) => Value::Number(Number::U(u)),
                    Err(_) => Value::Number(Number::I(v as i64)),
                }
            }
        }
    )*};
}
value_from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    /// Non-finite floats have no JSON form; serde_json writes `null`.
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(Number::F(v))
        } else {
            Value::Null
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! value_eq_number {
    ($as:ident as $wide:ty: $($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$as() == Some(*other as $wide)
            }
        }
    )*};
}
value_eq_number!(as_u64 as u64: u8, u16, u32, u64, usize);
value_eq_number!(as_i64 as i64: i8, i16, i32, i64, isize);
value_eq_number!(as_f64 as f64: f32, f64);

/// The one error type: a message, for both directions and for JSON syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// Prefix the message with the struct field it arose in.
    pub fn in_field(self, name: &str) -> Self {
        Error(format!("{name}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl crate::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl crate::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}
