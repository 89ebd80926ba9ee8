//! Offline stand-in for the subset of `serde_json` that the repository
//! uses. The value tree, the JSON reader and the JSON writer live in the
//! `serde` stand-in; this crate gives them serde_json's names.

pub use serde::__private::{Error, Map, Number, Value};

use serde::de::DeserializeOwned;
use serde::Serialize;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    serde::__private::to_value(&value)
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::__private::from_value(value)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::__private::write_compact(&serde::__private::to_value(value)?, &mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::__private::write_pretty(&serde::__private::to_value(value)?, &mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_value(serde::__private::parse(text)?)
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(text)
}

/// Build a [`Value`] from JSON-like syntax. Object keys are string
/// literals; any other value position takes `null`, a nested `[...]` or
/// `{...}`, or an expression implementing `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::<::std::string::String, $crate::Value>::new();
        $crate::__json_object!(object () $($body)*);
        $crate::Value::Object(object)
    }};
    ($value:expr) => {
        // A value that cannot be represented becomes `null`, which is
        // what the published macro's callers see for non-finite floats.
        $crate::to_value(&$value).unwrap_or($crate::Value::Null)
    };
}

/// Token muncher behind `json!({...})`: collects each value's tokens up
/// to the next top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($object:ident ()) => {};
    ($object:ident () $key:literal : $($rest:tt)*) => {
        $crate::__json_object!($object ($key) () $($rest)*)
    };
    ($object:ident ($key:literal) ($($value:tt)+) , $($rest:tt)*) => {
        $object.insert(($key).to_string(), $crate::json!($($value)+));
        $crate::__json_object!($object () $($rest)*)
    };
    ($object:ident ($key:literal) ($($value:tt)+)) => {
        $object.insert(($key).to_string(), $crate::json!($($value)+));
    };
    ($object:ident ($key:literal) ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_object!($object ($key) ($($value)* $next) $($rest)*)
    };
}
