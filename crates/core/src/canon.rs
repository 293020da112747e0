//! Canonical content hashing of JSON-shaped values.
//!
//! Cluster fingerprints and workload-trace hashes share one construction:
//! the value's *canonical* compact JSON — map keys sorted recursively, so
//! field order never matters — hashed by two FNV-1a lanes with different
//! offset bases, printed as 32 hex digits. The canonical text is never
//! materialised: the walk sorts each map's entries by reference and feeds
//! the bytes to both lanes as it goes.

use std::fmt::{self, Write};

use serde::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Two FNV-1a lanes fed in one pass; the sink the canonical text goes to.
struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// The stable 128-bit hash of `value`'s canonical JSON, hex-encoded.
///
/// Invariant under reordering of map entries at any depth; sensitive to
/// everything else, sequence order included. Total: a non-finite float,
/// which JSON text cannot carry, hashes by its `{:?}` form.
pub fn canonical_hash(value: &Value) -> String {
    let mut lanes = Fnv128 {
        lo: FNV_OFFSET,
        hi: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
    };
    feed(&mut lanes, value).expect("the hash sink accepts every byte");
    format!("{:016x}{:016x}", lanes.hi, lanes.lo)
}

fn feed(lanes: &mut Fnv128, value: &Value) -> fmt::Result {
    match value {
        Value::Map(entries) => {
            // A stable sort by reference: duplicate keys keep their order.
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            lanes.write_char('{')?;
            for (i, (key, item)) in sorted.into_iter().enumerate() {
                if i > 0 {
                    lanes.write_char(',')?;
                }
                serde::json::write_str(lanes, key)?;
                lanes.write_char(':')?;
                feed(lanes, item)?;
            }
            lanes.write_char('}')
        }
        Value::Seq(items) => {
            lanes.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    lanes.write_char(',')?;
                }
                feed(lanes, item)?;
            }
            lanes.write_char(']')
        }
        Value::F64(x) if !x.is_finite() => write!(lanes, "{x:?}"),
        scalar => serde::json::write_value(lanes, scalar).map_err(|_| fmt::Error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The construction the two former copies implemented: canonical text
    /// first, then one FNV-1a pass per lane.
    fn reference(value: &Value) -> String {
        fn canonicalize(v: &Value) -> Value {
            match v {
                Value::Map(entries) => {
                    let mut entries: Vec<(String, Value)> = entries
                        .iter()
                        .map(|(k, v)| (k.clone(), canonicalize(v)))
                        .collect();
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    Value::Map(entries)
                }
                Value::Seq(items) => Value::Seq(items.iter().map(canonicalize).collect()),
                other => other.clone(),
            }
        }
        fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            hash
        }
        let mut text = String::new();
        serde::json::write_value(&mut text, &canonicalize(value)).unwrap();
        let lo = fnv1a(text.as_bytes(), FNV_OFFSET);
        let hi = fnv1a(text.as_bytes(), FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        format!("{hi:016x}{lo:016x}")
    }

    fn sample() -> Value {
        map(vec![
            ("zeta", Value::F64(1.5e-9)),
            ("alpha", Value::Str("q\"uote\n\u{1}é".into())),
            (
                "mid",
                Value::Seq(vec![
                    Value::U64(7),
                    Value::I64(-3),
                    Value::Null,
                    Value::Bool(true),
                    map(vec![("b", Value::F64(2.0)), ("a", Value::Seq(vec![]))]),
                ]),
            ),
            ("empty", map(vec![])),
        ])
    }

    #[test]
    fn matches_the_text_then_hash_construction() {
        let v = sample();
        assert_eq!(canonical_hash(&v), reference(&v));
        assert_eq!(canonical_hash(&Value::Null), reference(&Value::Null));
        // The bytes hashed are those of `{"a":0.5,"b":1}`, whatever the order.
        assert_eq!(
            canonical_hash(&map(vec![("b", Value::U64(1)), ("a", Value::F64(0.5))])),
            "061f39cb5cb09f75b8393a252317c886"
        );
    }

    #[test]
    fn ignores_map_order_at_every_depth_but_not_sequence_order() {
        let v = sample();
        let Value::Map(mut entries) = v.clone() else {
            unreachable!()
        };
        entries.reverse();
        if let Value::Seq(items) = &mut entries[1].1 {
            if let Some(Value::Map(inner)) = items.last_mut() {
                inner.reverse();
            }
        }
        assert_eq!(
            canonical_hash(&Value::Map(entries.clone())),
            canonical_hash(&v)
        );
        if let Value::Seq(items) = &mut entries[1].1 {
            items.swap(0, 1);
        }
        assert_ne!(canonical_hash(&Value::Map(entries)), canonical_hash(&v));
    }

    #[test]
    fn non_finite_floats_hash_instead_of_failing() {
        let inf = canonical_hash(&Value::Seq(vec![Value::F64(f64::INFINITY)]));
        let nan = canonical_hash(&Value::Seq(vec![Value::F64(f64::NAN)]));
        assert_ne!(inf, nan);
    }
}
