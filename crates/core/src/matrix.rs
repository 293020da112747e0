//! Symmetric per-link parameter storage.
//!
//! On a cluster with a single switch the paper assumes `β_ij = β_ji`, so link
//! parameters live in a [`SymMatrix`] which stores only the strict upper
//! triangle. The diagonal (a link from a node to itself) does not exist and
//! access to it panics.
//!
//! The links are shared copy-on-write: cloning a matrix is O(1), and a
//! clone is copied only when one side writes. A simulated cluster built
//! from a model's parameters therefore holds the model's own `L` and `β`,
//! however many ranks there are.

use std::sync::Arc;

use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

use crate::rank::Rank;

/// A symmetric `n × n` matrix without a diagonal, for per-link parameters
/// (`L_ij`, `β_ij`).
///
/// ```
/// use cpm_core::{matrix::SymMatrix, Rank};
/// let mut beta = SymMatrix::filled(4, 11.7e6);
/// beta.set(Rank(0), Rank(3), 5.0e6);
/// assert_eq!(*beta.get(Rank(3), Rank(0)), 5.0e6); // order-insensitive
/// assert_eq!(beta.len(), 6);                      // C(4,2) links
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix<T> {
    n: usize,
    /// Strict upper triangle in row-major order:
    /// `(0,1), (0,2), …, (0,n-1), (1,2), …`
    data: Arc<[T]>,
}

impl<T: Clone> SymMatrix<T> {
    /// A matrix for `n` nodes with every link set to `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        SymMatrix {
            n,
            data: std::iter::repeat_n(fill, n * n.saturating_sub(1) / 2).collect(),
        }
    }

    /// Mutable access to link `(i, j)` (copies the links first if a clone
    /// still shares them).
    pub fn get_mut(&mut self, i: Rank, j: Rank) -> &mut T {
        let k = self.index(i, j);
        &mut Arc::make_mut(&mut self.data)[k]
    }

    /// Sets the value for link `(i, j)`.
    pub fn set(&mut self, i: Rank, j: Rank, v: T) {
        *self.get_mut(i, j) = v;
    }
}

impl<T> SymMatrix<T> {
    /// Builds a matrix by calling `f(i, j)` for every link `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(Rank, Rank) -> T) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(f(Rank::from(i), Rank::from(j)));
            }
        }
        SymMatrix {
            n,
            data: data.into(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored links, `C(n,2)`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if there are no links (n < 2).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn index(&self, i: Rank, j: Rank) -> usize {
        let (i, j) = (i.idx(), j.idx());
        assert!(i != j, "no self-link ({i},{i}) in a SymMatrix");
        assert!(
            i < self.n && j < self.n,
            "link ({i},{j}) out of range for n={}",
            self.n
        );
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        // Row `lo` starts after sum_{r<lo} (n-1-r) entries.
        lo * (2 * self.n - lo - 1) / 2 + (hi - lo - 1)
    }

    /// The value for link `(i, j)`; order of arguments does not matter.
    pub fn get(&self, i: Rank, j: Rank) -> &T {
        &self.data[self.index(i, j)]
    }

    /// Iterates over `((i, j), &value)` for every link `i < j`.
    pub fn iter(&self) -> impl Iterator<Item = ((Rank, Rank), &T)> {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (Rank::from(i), Rank::from(j))))
            .zip(self.data.iter())
    }

    /// Maps every link value to a new matrix.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> SymMatrix<U> {
        SymMatrix {
            n: self.n,
            data: self.data.iter().map(f).collect(),
        }
    }
}

/// The serialized form: `{"n": …, "data": [upper triangle]}`.
impl<T: Serialize> Serialize for SymMatrix<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let field = |v: Result<Value, serde::ValueError>| v.map_err(serde::ser::Error::custom);
        s.serialize_value(Value::Map(vec![
            ("n".to_string(), field(serde::to_value(&self.n))?),
            ("data".to_string(), field(serde::to_value(&self.data[..]))?),
        ]))
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for SymMatrix<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Stored<T> {
            n: usize,
            data: Vec<T>,
        }
        let Stored { n, data } = Stored::deserialize(d)?;
        Ok(SymMatrix {
            n,
            data: data.into(),
        })
    }
}

impl SymMatrix<f64> {
    /// Mean over all links. Returns `None` when there are no links.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }

    /// Largest absolute relative deviation from `other`, used by estimator
    /// round-trip tests.
    pub fn max_rel_error(&self, other: &SymMatrix<f64>) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| ((a - b) / b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_symmetric() {
        let mut m = SymMatrix::filled(4, 0.0);
        m.set(Rank(1), Rank(3), 7.0);
        assert_eq!(*m.get(Rank(3), Rank(1)), 7.0);
        assert_eq!(*m.get(Rank(1), Rank(3)), 7.0);
        assert_eq!(*m.get(Rank(0), Rank(1)), 0.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = SymMatrix::from_fn(4, |i, j| (i.0 * 10 + j.0) as f64);
        assert_eq!(*m.get(Rank(0), Rank(1)), 1.0);
        assert_eq!(*m.get(Rank(0), Rank(3)), 3.0);
        assert_eq!(*m.get(Rank(2), Rank(3)), 23.0);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn every_slot_distinct() {
        // Write a unique value through every (i, j) and read it back —
        // catches any index aliasing.
        let n = 9;
        let mut m = SymMatrix::filled(n, 0usize);
        let mut c = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(Rank::from(i), Rank::from(j), c);
                c += 1;
            }
        }
        let mut c = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(*m.get(Rank::from(j), Rank::from(i)), c);
                c += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn diagonal_rejected() {
        let m = SymMatrix::filled(4, 0.0);
        let _ = m.get(Rank(2), Rank(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let m = SymMatrix::filled(4, 0.0);
        let _ = m.get(Rank(0), Rank(4));
    }

    #[test]
    fn iter_visits_all_links_in_order() {
        let m = SymMatrix::from_fn(4, |i, j| i.0 + j.0);
        let visited: Vec<_> = m.iter().map(|((i, j), v)| (i.0, j.0, *v)).collect();
        assert_eq!(
            visited,
            vec![
                (0, 1, 1),
                (0, 2, 2),
                (0, 3, 3),
                (1, 2, 3),
                (1, 3, 4),
                (2, 3, 5)
            ]
        );
    }

    #[test]
    fn mean_and_rel_error() {
        let a = SymMatrix::from_fn(3, |_, _| 2.0);
        let b = SymMatrix::from_fn(3, |_, _| 2.2);
        assert_eq!(a.mean(), Some(2.0));
        assert!((a.max_rel_error(&b) - 0.2 / 2.2).abs() < 1e-12);
        let empty = SymMatrix::<f64>::filled(1, 0.0);
        assert_eq!(empty.mean(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn clones_share_links_until_one_side_writes() {
        let a = SymMatrix::from_fn(4, |i, j| (i.0 * 10 + j.0) as f64);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        b.set(Rank(0), Rank(1), -1.0);
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(*a.get(Rank(0), Rank(1)), 1.0);
        assert_eq!(*b.get(Rank(0), Rank(1)), -1.0);
        assert_eq!(*b.get(Rank(2), Rank(3)), 23.0);
    }

    #[test]
    fn serializes_as_size_and_upper_triangle() {
        let a = SymMatrix::from_fn(3, |i, j| (i.0 + j.0) as f64);
        let v = serde::to_value(&a).unwrap();
        let mut text = String::new();
        serde::json::write_value(&mut text, &v).unwrap();
        assert_eq!(text, r#"{"n":3,"data":[1.0,2.0,3.0]}"#);
        let back: SymMatrix<f64> = serde::from_value(v).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn map_preserves_structure() {
        let a = SymMatrix::from_fn(5, |i, j| (i.0 + j.0) as f64);
        let b = a.map(|v| v * 2.0);
        assert_eq!(*b.get(Rank(1), Rank(4)), 10.0);
        assert_eq!(b.n(), 5);
    }
}
