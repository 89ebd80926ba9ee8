//! `Serialize` / `Deserialize` for the standard types the repository
//! stores in its serde structs.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

use crate::__private::{de_err, from_value, ser_err, to_value};
use crate::value::{Error, Map, Number, Value};
use crate::{Deserialize, Deserializer, Serialize, Serializer};

fn unexpected(value: &Value, expected: &str) -> Error {
    Error::new(format!(
        "invalid type: {}, expected {expected}",
        value.kind()
    ))
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::from(*self))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let value = d.take_value()?;
                let converted = match &value {
                    Value::Number(Number::U(u)) => <$t>::try_from(*u).ok(),
                    Value::Number(Number::I(i)) => <$t>::try_from(*i).ok(),
                    _ => None,
                };
                converted.ok_or_else(|| de_err::<D>(unexpected(&value, stringify!($t))))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::from(*self))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let value = d.take_value()?;
                match value.as_f64() {
                    // f32 went out widened to f64, so narrowing is exact.
                    Some(f) => Ok(f as $t),
                    None => Err(de_err::<D>(unexpected(&value, stringify!($t)))),
                }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let value = d.take_value()?;
        value
            .as_bool()
            .ok_or_else(|| de_err::<D>(unexpected(&value, "a boolean")))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::String(s) => Ok(s),
            other => Err(de_err::<D>(unexpected(&other, "a string"))),
        }
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.encode_utf8(&mut [0; 4]))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let value = d.take_value()?;
        let mut chars = value.as_str().unwrap_or("").chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(de_err::<D>(unexpected(&value, "a character"))),
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(()),
            other => Err(de_err::<D>(unexpected(&other, "unit"))),
        }
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.serialize_none(),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(None),
            value => from_value(value).map(Some).map_err(de_err::<D>),
        }
    }
}

fn seq_to_value<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>) -> Result<Value, Error> {
    items
        .map(to_value)
        .collect::<Result<_, _>>()
        .map(Value::Array)
}

fn value_to_seq<T: for<'a> Deserialize<'a>>(value: Value) -> Result<Vec<T>, Error> {
    match value {
        Value::Array(items) => items.into_iter().map(from_value).collect(),
        other => Err(unexpected(&other, "a sequence")),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(seq_to_value(self.iter()).map_err(ser_err::<S>)?)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        value_to_seq(d.take_value()?).map_err(de_err::<D>)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: for<'a> Deserialize<'a>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let items: Vec<T> = value_to_seq(d.take_value()?).map_err(de_err::<D>)?;
        let len = items.len();
        items.try_into().map_err(|_| {
            de_err::<D>(Error::new(format!(
                "invalid length {len}, expected an array of length {N}"
            )))
        })
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let items = vec![$(to_value(&self.$idx).map_err(ser_err::<S>)?),+];
                s.serialize_value(Value::Array(items))
            }
        }

        impl<'de, $($name: for<'a> Deserialize<'a>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let len = [$($idx),+].len();
                let items = crate::__private::expect_array(d.take_value()?, len, "a tuple")
                    .map_err(de_err::<D>)?;
                let mut items = items.into_iter();
                Ok(($(
                    match items.next() {
                        Some(item) => from_value::<$name>(item).map_err(de_err::<D>)?,
                        None => return Err(de_err::<D>(Error::new("tuple too short"))),
                    },
                )+))
            }
        }
    )*};
}
tuple_impls! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, E 3)
    (A 0, B 1, C 2, E 3, F 4)
    (A 0, B 1, C 2, E 3, F 4, G 5)
}

/// Map keys: JSON object keys are strings, so integer keys are written
/// in decimal, as serde_json does.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Option<Self>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(key: &str) -> Option<Self> {
        Some(key.to_string())
    }
}

macro_rules! int_keys {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }

            fn from_key(key: &str) -> Option<Self> {
                key.parse().ok()
            }
        }
    )*};
}
int_keys!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn map_to_value<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Result<Value, Error> {
    let mut map = Map::new();
    for (k, v) in entries {
        map.insert(k.to_key(), to_value(v)?);
    }
    Ok(Value::Object(map))
}

fn value_to_entries<K: MapKey, V: for<'a> Deserialize<'a>>(
    value: Value,
) -> Result<impl Iterator<Item = Result<(K, V), Error>>, Error> {
    match value {
        Value::Object(map) => Ok(map.into_iter().map(|(k, v)| {
            let key =
                K::from_key(&k).ok_or_else(|| Error::new(format!("invalid map key `{k}`")))?;
            Ok((key, from_value(v)?))
        })),
        other => Err(unexpected(&other, "a map")),
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(map_to_value(self.iter()).map_err(ser_err::<S>)?)
    }
}

impl<'de, K: MapKey + Ord, V: for<'a> Deserialize<'a>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        value_to_entries(d.take_value()?)
            .and_then(Iterator::collect)
            .map_err(de_err::<D>)
    }
}

impl<K: MapKey, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(map_to_value(self.iter()).map_err(ser_err::<S>)?)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: MapKey + Eq + Hash,
    V: for<'a> Deserialize<'a>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        value_to_entries(d.take_value()?)
            .and_then(Iterator::collect)
            .map_err(de_err::<D>)
    }
}

impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut map = Map::new();
        map.insert("secs".to_string(), Value::from(self.as_secs()));
        map.insert("nanos".to_string(), Value::from(self.subsec_nanos()));
        s.serialize_value(Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let value = d.take_value()?;
        match (value["secs"].as_u64(), value["nanos"].as_u64()) {
            (Some(secs), Some(nanos)) if nanos < 1_000_000_000 => {
                Ok(Duration::new(secs, nanos as u32))
            }
            _ => Err(de_err::<D>(unexpected(&value, "a {secs, nanos} duration"))),
        }
    }
}
