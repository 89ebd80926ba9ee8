//! The derive stand-in and the JSON reader/writer, checked together
//! against the shapes and conventions the repository relies on.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

mod seconds {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(d)?;
        if secs < 0.0 {
            return Err(serde::de::Error::custom("negative duration"));
        }
        Ok(Duration::from_secs_f64(secs))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
struct Id(pub u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(Vec<usize>),
    Pair(u8, String),
    Named { width: usize, label: Option<String> },
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", content = "message", rename_all = "snake_case")]
enum Status {
    Ok,
    TimedOut(String),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    /// Doc comments are attributes too.
    id: Id,
    weights: Vec<f64>,
    narrow: f32,
    shape: Shape,
    status: Vec<Status>,
    counts: [u64; 3],
    by_name: HashMap<String, u64>,
    by_index: BTreeMap<usize, (String, f64)>,
    #[serde(with = "seconds")]
    busy: Duration,
    plain: Duration,
    maybe: Option<Box<Shape>>,
    #[serde(default)]
    added_later: u64,
    pub(crate) nested: Vec<(String, String)>,
}

fn record() -> Record {
    Record {
        id: Id(u64::MAX),
        weights: vec![0.1, -0.0, 1e300, 5e-324, std::f64::consts::PI, 1.0],
        narrow: 0.1,
        shape: Shape::Named {
            width: 7,
            label: None,
        },
        status: vec![
            Status::Ok,
            Status::TimedOut("a \"quoted\"\n\tline \u{1} é".to_string()),
        ],
        counts: [1, 2, 3],
        by_name: HashMap::from([("a".to_string(), 1), ("b".to_string(), 2)]),
        by_index: BTreeMap::from([(10, ("x".to_string(), 0.5)), (2, ("y".to_string(), -1.5))]),
        busy: Duration::from_millis(1500),
        plain: Duration::new(3, 9),
        maybe: Some(Box::new(Shape::Pair(9, "nine".to_string()))),
        added_later: 4,
        nested: vec![("k".to_string(), "v".to_string())],
    }
}

#[test]
fn every_shape_round_trips_bit_exactly() {
    let original = record();
    for text in [
        serde_json::to_string(&original).unwrap(),
        serde_json::to_string_pretty(&original).unwrap(),
    ] {
        let back: Record = serde_json::from_str(&text).unwrap();
        assert_eq!(back, original);
        for (a, b) in back.weights.iter().zip(&original.weights) {
            assert_eq!(a.to_bits(), b.to_bits(), "float must restore bit-exactly");
        }
    }
    for shape in [
        Shape::Unit,
        Shape::Newtype(vec![1, 2]),
        Shape::Pair(1, "p".into()),
    ] {
        let text = serde_json::to_string(&shape).unwrap();
        assert_eq!(serde_json::from_str::<Shape>(&text).unwrap(), shape);
    }
}

#[test]
fn the_json_follows_serde_jsons_conventions() {
    let v = serde_json::to_value(record()).unwrap();
    assert_eq!(
        v["id"],
        json!(u64::MAX),
        "transparent newtype is its inner value"
    );
    assert_eq!(
        v["shape"],
        json!({ "Named": { "width": 7, "label": null } })
    );
    assert_eq!(serde_json::to_value(Shape::Unit).unwrap(), json!("Unit"));
    assert_eq!(
        serde_json::to_value(Shape::Pair(1, "p".into())).unwrap(),
        json!({ "Pair": [1, "p"] })
    );
    assert_eq!(v["status"][0], json!({ "kind": "ok" }));
    assert_eq!(v["status"][1]["kind"], json!("timed_out"));
    assert_eq!(v["busy"], json!(1.5), "`with` module decides the form");
    assert_eq!(v["plain"], json!({ "secs": 3, "nanos": 9 }));
    assert_eq!(
        v["by_index"]["10"],
        json!(["x", 0.5]),
        "integer keys become strings"
    );
    assert_eq!(v["missing"]["deeper"], Value::Null, "indexing never panics");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(serde_json::to_string(&vec![1u8, 2]).unwrap(), "[1,2]");
    let object =
        json!({ "b": 1, "a": [true, null], "c": { "d": "e" }, "n": Some(2), "m": None::<u8>, });
    assert_eq!(
        object.to_string(),
        r#"{"a":[true,null],"b":1,"c":{"d":"e"},"m":null,"n":2}"#
    );
}

#[test]
fn defaults_options_and_errors() {
    // A field added later may be absent; an `Option` may be absent; any
    // other field may not.
    let mut v = serde_json::to_value(record()).unwrap();
    let map = v.as_object_mut().unwrap();
    map.remove("added_later");
    map.remove("maybe");
    let back: Record = serde_json::from_value(v.clone()).unwrap();
    assert_eq!(back.added_later, 0);
    assert_eq!(back.maybe, None);
    v.as_object_mut().unwrap().remove("weights");
    let err = serde_json::from_value::<Record>(v).unwrap_err().to_string();
    assert!(err.contains("missing field `weights`"), "{err}");

    let err = serde_json::from_str::<Shape>("\"Circle\"")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown variant `Circle`"), "{err}");
    let err = serde_json::from_str::<Record>("{\"id\": -1}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("id"), "{err}");
    assert!(serde_json::from_str::<Duration>("{\"secs\":1,\"nanos\":1000000000}").is_err());
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "01x",
        "\"\\q\"",
        "nul",
        "1 2",
        "\"\u{1}\"",
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "{bad:?} must not parse"
        );
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(
        serde_json::from_str::<Value>(&deep).is_err(),
        "nesting is bounded"
    );
}

#[test]
fn numbers_keep_their_kind() {
    let v: Value = serde_json::from_str(
        "[0, -3, 18446744073709551615, 2.5, 1e2, 1E-2, \"\\u00e9\\ud83d\\ude00\"]",
    )
    .unwrap();
    assert_eq!(v[0].as_u64(), Some(0));
    assert_eq!(v[1].as_i64(), Some(-3));
    assert_eq!(v[2].as_u64(), Some(u64::MAX));
    assert_eq!(v[3].as_f64(), Some(2.5));
    assert_eq!(v[4].as_f64(), Some(100.0));
    assert_eq!(v[5].as_f64(), Some(0.01));
    assert_eq!(v[6].as_str(), Some("é😀"));
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u64>("-1").is_err());
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
}
