//! Pins the payload representation against a `BTreeMap<String, Value>`
//! model: whatever the order and repetition of keys, and whether keys
//! are literals or owned strings, a payload reads, iterates, compares
//! and decodes as the map would.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use strata::codec::{decode, encode, ConnectorMessage};
use strata::{AmTuple, Metadata, Payload, Value};
use strata_spe::Timestamp;

/// Literal keys, some of which the owned-key strategy also produces.
const KEYS: [&str; 8] = ["", "a", "ab", "b", "cell_mm", "frac_cold", "mean", "x_mm"];

#[derive(Debug, Clone)]
enum Key {
    Static(&'static str),
    Owned(String),
}

impl Key {
    fn as_str(&self) -> &str {
        match self {
            Key::Static(k) => k,
            Key::Owned(k) => k,
        }
    }

    fn set(&self, payload: &mut Payload, value: Value) {
        match self {
            Key::Static(k) => payload.set(*k, value),
            Key::Owned(k) => payload.set(k.clone(), value),
        };
    }
}

#[derive(Debug, Clone)]
enum Op {
    Set(Key, Value),
    Merge(Vec<(Key, Value)>),
}

fn key_strategy() -> impl Strategy<Value = Key> {
    prop_oneof![
        (0usize..KEYS.len()).prop_map(|i| Key::Static(KEYS[i])),
        "[a-d]{0,2}".prop_map(Key::Owned),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[ -~]{0,6}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Set(k, v)),
        1 => proptest::collection::vec((key_strategy(), value_strategy()), 0..6)
            .prop_map(Op::Merge),
    ]
}

fn apply(payload: &mut Payload, model: &mut BTreeMap<String, Value>, op: &Op) {
    match op {
        Op::Set(k, v) => {
            k.set(payload, v.clone());
            model.insert(k.as_str().to_string(), v.clone());
        }
        Op::Merge(entries) => {
            let mut other = Payload::new();
            for (k, v) in entries {
                k.set(&mut other, v.clone());
                model.insert(k.as_str().to_string(), v.clone());
            }
            payload.merge(&other);
        }
    }
}

fn tuple_of(payload: Payload) -> AmTuple {
    AmTuple::from_parts(
        Metadata {
            timestamp: Timestamp::from_millis(1234),
            job: 7,
            layer: 42,
            specimen: Some(3),
            portion: None,
            ingest_ns: 99,
        },
        payload,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn payload_matches_a_btreemap_model(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let mut payload = Payload::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut payload, &mut model, op);
            prop_assert_eq!(payload.len(), model.len());
            prop_assert_eq!(payload.is_empty(), model.is_empty());
            let got: Vec<(&str, &Value)> = payload.iter().collect();
            let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            prop_assert_eq!(got, want);
            for key in KEYS.iter().copied().chain(["c", "ba", "zz"]) {
                prop_assert_eq!(payload.get(key), model.get(key));
            }
        }
        // Equality is by content: the same entries set in reverse key
        // order, all under owned keys, compare equal.
        let mut rebuilt = Payload::new();
        for (k, v) in model.iter().rev() {
            rebuilt.set(k.clone(), v.clone());
        }
        prop_assert_eq!(&rebuilt, &payload);
        let collected: Payload = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&collected, &payload);
        if let Some((k, _)) = model.iter().next() {
            rebuilt.set(k.clone(), Value::Str(Arc::from("changed")));
            prop_assert!(rebuilt != payload);
        }
    }

    #[test]
    fn collecting_matches_setting_in_order(
        entries in proptest::collection::vec((key_strategy(), value_strategy()), 0..48),
    ) {
        let mut set = Payload::new();
        for (k, v) in &entries {
            k.set(&mut set, v.clone());
        }
        let collected: Payload = entries
            .iter()
            .map(|(k, v)| (k.as_str().to_string(), v.clone()))
            .collect();
        prop_assert_eq!(collected, set);
    }
}

/// The connector bytes of a fixed multi-key tuple, recorded from the
/// `BTreeMap`-backed payload: keys go out in byte order whatever order
/// they were set in.
#[test]
fn encoding_matches_the_golden_bytes() {
    let mut payload = Payload::new();
    payload
        .set_str("class", "very_warm")
        .set_float("y_mm", -2.5)
        .set_int("count", -5)
        .set_bool("hot", true)
        .set(String::from("b"), Value::Bytes(Arc::from(&b"\x00\x01"[..])))
        .set_float("x_mm", 12.125)
        .set_int("count", 6);
    let golden: &[u8] = &[
        0x00, // tuple
        0xd2, 0x04, 0, 0, 0, 0, 0, 0, // timestamp 1234
        0x07, 0, 0, 0, // job
        0x2a, 0, 0, 0, // layer
        0x03, 0, 0, 0, // specimen
        0xff, 0xff, 0xff, 0xff, // no portion
        0x63, 0, 0, 0, 0, 0, 0, 0, // ingest_ns 99
        0x06, 0x00, // six entries
        0x01, 0x00, b'b', 0x04, 0x02, 0, 0, 0, 0x00, 0x01, // bytes
        0x05, 0x00, b'c', b'l', b'a', b's', b's', 0x03, 0x09, 0, 0, 0, // str
        b'v', b'e', b'r', b'y', b'_', b'w', b'a', b'r', b'm', //
        0x05, 0x00, b'c', b'o', b'u', b'n', b't', 0x00, // int
        0x06, 0, 0, 0, 0, 0, 0, 0, //
        0x03, 0x00, b'h', b'o', b't', 0x02, 0x01, // bool
        0x04, 0x00, b'x', b'_', b'm', b'm', 0x01, // float 12.125
        0, 0, 0, 0, 0, 0x40, 0x28, 0x40, //
        0x04, 0x00, b'y', b'_', b'm', b'm', 0x01, // float -2.5
        0, 0, 0, 0, 0, 0, 0x04, 0xc0, //
    ];
    let message = ConnectorMessage::Tuple(tuple_of(payload));
    assert_eq!(encode(&message), golden);
    assert_eq!(decode(golden).unwrap(), message);
}

/// A record whose keys arrive reversed and repeated decodes to the
/// payload that `set` builds in wire order: sorted, last repeat wins.
#[test]
fn decode_sorts_reversed_and_repeated_keys() {
    let wire: [(&str, i64); 6] = [("z", 1), ("m", 2), ("z", 3), ("b", 4), ("a", 5), ("m", 6)];
    let mut record = vec![0u8];
    record.extend_from_slice(&1234u64.to_le_bytes());
    record.extend_from_slice(&7u32.to_le_bytes());
    record.extend_from_slice(&42u32.to_le_bytes());
    record.extend_from_slice(&3u32.to_le_bytes());
    record.extend_from_slice(&u32::MAX.to_le_bytes());
    record.extend_from_slice(&99u64.to_le_bytes());
    record.extend_from_slice(&(wire.len() as u16).to_le_bytes());
    let mut expected = Payload::new();
    for (key, value) in wire {
        record.extend_from_slice(&(key.len() as u16).to_le_bytes());
        record.extend_from_slice(key.as_bytes());
        record.push(0);
        record.extend_from_slice(&value.to_le_bytes());
        expected.set_int(key, value);
    }
    let ConnectorMessage::Tuple(tuple) = decode(&record).unwrap() else {
        panic!("expected a tuple");
    };
    assert_eq!(tuple, tuple_of(expected));
    let keys: Vec<(&str, i64)> = tuple
        .payload()
        .iter()
        .map(|(k, v)| (k, if let Value::Int(i) = v { *i } else { 0 }))
        .collect();
    assert_eq!(keys, [("a", 5), ("b", 4), ("m", 6), ("z", 3)]);
}

/// The most entries a record can carry, in reverse key order: decoding
/// sorts them once instead of inserting each at the front.
#[test]
fn decode_takes_the_largest_record_in_reverse_order() {
    let payload: Payload = (0..u16::MAX)
        .map(|i| (format!("k{i:05}"), Value::Bool(true)))
        .collect();
    let message = ConnectorMessage::Tuple(tuple_of(payload));
    let encoded = encode(&message);
    // A 35-byte header, then 10-byte entries in ascending key order.
    let (header, entries) = encoded.split_at(35);
    let mut record = header.to_vec();
    for entry in entries.chunks(10).rev() {
        record.extend_from_slice(entry);
    }
    assert_ne!(record, encoded);
    assert_eq!(decode(&record).unwrap(), message);
}
