//! Offline stand-in for the subset of `serde` that the repository uses.
//!
//! The published crate streams values through a visitor protocol. This
//! stand-in goes through one concrete data model instead: `Serialize`
//! builds a [`__private::Value`] tree and `Deserialize` consumes one.
//! The JSON reader and writer for that tree live here too, so
//! `serde_json` is a thin re-export. The JSON produced follows
//! serde_json's conventions (externally tagged enums, `null` for `None`
//! and non-finite floats, integer map keys as strings, sorted object
//! keys), and floats round-trip bit-exactly.

mod impls;
mod json;
mod value;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

pub mod ser {
    use crate::value::Value;

    /// Error raised while serializing.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// A sink for one value.
    pub trait Serializer: Sized {
        type Ok;
        type Error: Error;

        /// The one required method: accept a finished value tree.
        fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

        fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::Bool(v))
        }

        fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::from(v))
        }

        fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::from(v))
        }

        fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::from(v))
        }

        fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::from(v))
        }

        fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::String(v.to_string()))
        }

        fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::Null)
        }

        fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::Null)
        }
    }

    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }
}

pub mod de {
    use crate::value::Value;

    /// Error raised while deserializing.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// A source of one value.
    pub trait Deserializer<'de>: Sized {
        type Error: Error;

        /// The one required method: hand over the value tree.
        fn take_value(self) -> Result<Value, Self::Error>;
    }

    pub trait Deserialize<'de>: Sized {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

/// Support code for `serde_derive` and `serde_json`. Not a stable API.
#[doc(hidden)]
pub mod __private {
    pub use crate::json::{parse, write_compact, write_pretty};
    pub use crate::value::{Error, Map, Number, Value};

    use crate::{de, ser, Deserialize, Deserializer, Serialize, Serializer};

    /// Serializer whose output is the value tree itself.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Error;

        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
        }
    }

    /// Deserializer reading from an owned value tree.
    pub struct ValueDeserializer(pub Value);

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = Error;

        fn take_value(self) -> Result<Value, Error> {
            Ok(self.0)
        }
    }

    pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }

    pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer(value))
    }

    pub fn ser_err<S: Serializer>(e: Error) -> S::Error {
        <S::Error as ser::Error>::custom(e)
    }

    pub fn de_err<'de, D: Deserializer<'de>>(e: Error) -> D::Error {
        <D::Error as de::Error>::custom(e)
    }

    pub fn expect_object(value: Value, what: &str) -> Result<Map<String, Value>, Error> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(Error::new(format!(
                "invalid type: {}, expected {what}",
                other.kind()
            ))),
        }
    }

    pub fn expect_array(value: Value, len: usize, what: &str) -> Result<Vec<Value>, Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::new(format!(
                "invalid length {}, expected {what} with {len} elements",
                items.len()
            ))),
            other => Err(Error::new(format!(
                "invalid type: {}, expected {what}",
                other.kind()
            ))),
        }
    }

    /// A struct field: absent means `null`, so `Option` fields may be
    /// left out and everything else reports the field as missing.
    pub fn take_field<T: for<'de> Deserialize<'de>>(
        map: &mut Map<String, Value>,
        name: &str,
    ) -> Result<T, Error> {
        match map.remove(name) {
            Some(value) => from_value(value).map_err(|e| e.in_field(name)),
            None => {
                from_value(Value::Null).map_err(|_| Error::new(format!("missing field `{name}`")))
            }
        }
    }

    /// A `#[serde(default)]` field.
    pub fn take_field_or<T: for<'de> Deserialize<'de>>(
        map: &mut Map<String, Value>,
        name: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match map.remove(name) {
            Some(value) => from_value(value).map_err(|e| e.in_field(name)),
            None => Ok(default()),
        }
    }

    /// A `#[serde(with = "...")]` field: the raw value, `null` if absent.
    pub fn take_raw(map: &mut Map<String, Value>, name: &str) -> ValueDeserializer {
        ValueDeserializer(map.remove(name).unwrap_or(Value::Null))
    }

    /// Split an externally tagged enum value into variant name and payload.
    pub fn enum_parts(value: Value, what: &str) -> Result<(String, Value), Error> {
        match value {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(map) if map.len() == 1 => match map.into_iter().next() {
                Some(entry) => Ok(entry),
                None => Err(Error::new(format!("expected {what}"))),
            },
            other => Err(Error::new(format!(
                "invalid type: {}, expected {what} as a string or single-key map",
                other.kind()
            ))),
        }
    }

    pub fn unknown_variant(name: &str, what: &str) -> Error {
        Error::new(format!("unknown variant `{name}` of {what}"))
    }
}
