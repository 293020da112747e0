//! Canonical content hashing of JSON-shaped values.
//!
//! Cluster fingerprints and workload-trace hashes share one construction:
//! the value's *canonical* compact JSON — map keys sorted recursively, so
//! field order never matters — hashed by two FNV-1a lanes with different
//! offset bases, printed as 32 hex digits. The canonical text is never
//! materialised: [`canonical_hash`] walks a [`Value`], sorting each map's
//! entries by reference, and a typed producer that already knows its keys
//! in sorted order streams the same bytes through [`CanonHasher`] without
//! building a tree at all.

use std::fmt::{self, Write};

use serde::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The sink the canonical text goes to: two FNV-1a lanes fed in one pass.
///
/// A typed producer writes its canonical JSON straight in — objects
/// through [`CanonHasher::object`], with keys in byte order — and gets
/// exactly the hash [`canonical_hash`] gives the equivalent [`Value`].
pub struct CanonHasher {
    lo: u64,
    hi: u64,
}

impl Default for CanonHasher {
    fn default() -> Self {
        CanonHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Write for CanonHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

impl CanonHasher {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Self::default()
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &b in bytes {
            lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        (self.lo, self.hi) = (lo, hi);
    }

    /// An unsigned integer, as JSON writes it.
    pub fn u64(&mut self, x: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = x;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.bytes(&digits[at..]);
    }

    /// A float in its shortest round-trip form (`{:?}`), the form JSON
    /// values are written in; a non-finite one, which JSON cannot carry,
    /// hashes by the same form.
    pub fn f64(&mut self, x: f64) {
        write!(self, "{x:?}").expect("the hash sink accepts every byte");
    }

    /// A JSON string literal.
    pub fn str(&mut self, s: &str) {
        serde::json::write_str(self, s).expect("the hash sink accepts every byte");
    }

    /// A JSON array: `each` writes one item per element.
    pub fn seq<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item)) {
        self.bytes(b"[");
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.bytes(b",");
            }
            each(self, item);
        }
        self.bytes(b"]");
    }

    /// A JSON object: `fields` writes its entries, keys in byte order —
    /// the order [`canonical_hash`] sorts them into.
    pub fn object(&mut self, fields: impl FnOnce(&mut Fields<'_>)) {
        self.bytes(b"{");
        let mut f = Fields {
            h: self,
            last: None,
        };
        fields(&mut f);
        self.bytes(b"}");
    }

    /// The 32 hex digits of the two lanes.
    pub fn finish(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The entries of one object being hashed ([`CanonHasher::object`]).
pub struct Fields<'h> {
    h: &'h mut CanonHasher,
    /// The previous key: keys must come in strictly increasing byte order.
    last: Option<&'static str>,
}

impl Fields<'_> {
    /// Starts the entry `key` and hands back the hasher for its value.
    ///
    /// # Panics
    /// Panics (in debug builds) when `key` does not sort after the
    /// previous key — the text would not be canonical.
    pub fn key(&mut self, key: &'static str) -> &mut CanonHasher {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "canonical keys must be sorted: {key:?} after {:?}",
            self.last
        );
        if self.last.is_some() {
            self.h.bytes(b",");
        }
        self.last = Some(key);
        self.h.str(key);
        self.h.bytes(b":");
        self.h
    }

    /// An unsigned-integer entry.
    pub fn u64(&mut self, key: &'static str, x: u64) {
        self.key(key).u64(x);
    }

    /// A float entry.
    pub fn f64(&mut self, key: &'static str, x: f64) {
        self.key(key).f64(x);
    }

    /// A string entry.
    pub fn str(&mut self, key: &'static str, s: &str) {
        self.key(key).str(s);
    }
}

/// The stable 128-bit hash of `value`'s canonical JSON, hex-encoded.
///
/// Invariant under reordering of map entries at any depth; sensitive to
/// everything else, sequence order included. Total: a non-finite float,
/// which JSON text cannot carry, hashes by its `{:?}` form.
pub fn canonical_hash(value: &Value) -> String {
    let mut lanes = CanonHasher::new();
    feed(&mut lanes, value);
    lanes.finish()
}

fn feed(lanes: &mut CanonHasher, value: &Value) {
    match value {
        Value::Map(entries) => {
            // A stable sort by reference: duplicate keys keep their order.
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            lanes.bytes(b"{");
            for (i, (key, item)) in sorted.into_iter().enumerate() {
                if i > 0 {
                    lanes.bytes(b",");
                }
                lanes.str(key);
                lanes.bytes(b":");
                feed(lanes, item);
            }
            lanes.bytes(b"}");
        }
        Value::Seq(items) => lanes.seq(items, feed),
        Value::F64(x) => lanes.f64(*x),
        Value::U64(x) => lanes.u64(*x),
        Value::Str(s) => lanes.str(s),
        scalar => serde::json::write_value(lanes, scalar).expect("a scalar writes"),
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

    /// A typed producer writing its keys in byte order hashes what the
    /// tree walk hashes — integers, floats of every class, escapes and
    /// nesting included.
    #[test]
    fn streamed_objects_hash_as_their_value_trees() {
        let floats = [1.5e-9, 0.0, -0.0, 5e-324, 1e300, f64::INFINITY, f64::NAN];
        for (i, &x) in floats.iter().enumerate() {
            let text = "q\"uo\\te\n\u{1}é";
            let ids = [0, 7, u64::MAX];
            let tree = map(vec![
                ("zeta", Value::F64(x)),
                ("alpha", Value::Str(text.into())),
                ("n", Value::U64(ids[i % 3])),
                (
                    "list",
                    Value::Seq(ids.iter().map(|&u| Value::U64(u)).collect()),
                ),
                (
                    "inner",
                    map(vec![("b", Value::F64(2.0)), ("a", Value::Seq(vec![]))]),
                ),
            ]);
            let mut h = CanonHasher::new();
            h.object(|o| {
                o.str("alpha", text);
                o.key("inner").object(|o| {
                    o.key("a").seq(std::iter::empty::<u64>(), |h, u| h.u64(u));
                    o.f64("b", 2.0);
                });
                o.key("list").seq(ids, |h, u| h.u64(u));
                o.u64("n", ids[i % 3]);
                o.f64("zeta", x);
            });
            assert_eq!(h.finish(), canonical_hash(&tree), "{x:?}");
            if x.is_finite() {
                assert_eq!(h.finish(), reference(&tree));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "canonical keys must be sorted")]
    fn unsorted_keys_are_refused() {
        CanonHasher::new().object(|o| {
            o.u64("b", 1);
            o.u64("a", 2);
        });
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
