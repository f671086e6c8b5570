//! Key types for the B+tree.
//!
//! §5.3 commits to "a generic hardware tree probe engine that can handle
//! both integer and variable-length string keys" — so the tree is generic
//! over [`TreeKey`], with [`i64`] and [`StrKey`] as the two paper-mandated
//! instances.

/// A type usable as a B+tree key.
///
/// Beyond ordering, keys report their encoded size (for node-space and
/// transfer-byte accounting) and a comparison *cost* in machine-word
/// operations, which feeds the "load-compare-branch triplet" instruction
/// model of §5.3: integer compares are one operation, string compares cost
/// one per 8-byte chunk.
pub trait TreeKey: Ord + Clone {
    /// `Some(n)` when every key of this type encodes to exactly `n` bytes.
    /// Lets byte accounting (`BTree::approx_bytes`) run per-node instead of
    /// per-key; the value must agree with [`TreeKey::encoded_len`].
    const FIXED_ENCODED_LEN: Option<usize> = None;

    /// Encoded size in bytes when stored in a node.
    fn encoded_len(&self) -> usize;

    /// Cost of one comparison against another key, in word operations.
    fn compare_cost(&self) -> u32;

    /// Where `k` would sit among `n ≥ 1` strictly increasing keys running
    /// from `first` to `last`, read off a straight line between the two:
    /// an index below `n` that the node search starts from. `None` means
    /// the type has no such line and the search bisects.
    ///
    /// Only a hint: any index below `n` gives the same search result, a
    /// good one just gets there in fewer comparisons.
    #[inline]
    fn guess(_first: &Self, _last: &Self, _k: &Self, _n: usize) -> Option<usize> {
        None
    }
}

/// The interpolated slot of `off` on a line of `n` slots spanning `span`
/// (`0 < off < span` as unsigned distances): `f64`, because a 128-bit
/// division compiles to a library call that costs more than the search
/// it saves.
#[inline]
fn interpolate(off: u64, span: u64, n: usize) -> usize {
    ((off as f64 / span as f64 * (n - 1) as f64) as usize).min(n - 1)
}

impl TreeKey for i64 {
    const FIXED_ENCODED_LEN: Option<usize> = Some(8);

    fn encoded_len(&self) -> usize {
        8
    }

    fn compare_cost(&self) -> u32 {
        1
    }

    #[inline]
    fn guess(first: &i64, last: &i64, k: &i64, n: usize) -> Option<usize> {
        Some(if k <= first {
            0
        } else if k >= last {
            n - 1
        } else {
            // Distances as `u64` cannot overflow, even from `i64::MIN` to
            // `i64::MAX`.
            let off = (*k as u64).wrapping_sub(*first as u64);
            let span = (*last as u64).wrapping_sub(*first as u64);
            interpolate(off, span, n)
        })
    }
}

impl TreeKey for u64 {
    const FIXED_ENCODED_LEN: Option<usize> = Some(8);

    fn encoded_len(&self) -> usize {
        8
    }

    fn compare_cost(&self) -> u32 {
        1
    }

    #[inline]
    fn guess(first: &u64, last: &u64, k: &u64, n: usize) -> Option<usize> {
        Some(if k <= first {
            0
        } else if k >= last {
            n - 1
        } else {
            interpolate(k - first, last - first, n)
        })
    }
}

/// A variable-length byte-string key with lexicographic order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StrKey(pub Vec<u8>);

impl StrKey {
    /// Construct from anything byte-like.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        StrKey(bytes.into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for StrKey {
    fn from(s: &str) -> Self {
        StrKey(s.as_bytes().to_vec())
    }
}

impl From<&[u8]> for StrKey {
    fn from(b: &[u8]) -> Self {
        StrKey(b.to_vec())
    }
}

/// No [`TreeKey::guess`]: byte strings have no cheap straight line, so
/// string nodes keep the plain binary search.
impl TreeKey for StrKey {
    fn encoded_len(&self) -> usize {
        // 2-byte length prefix plus payload.
        2 + self.0.len()
    }

    fn compare_cost(&self) -> u32 {
        // One word op per 8-byte chunk, at least one.
        (self.0.len() as u32).div_ceil(8).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_keys_are_cheap() {
        assert_eq!(5i64.encoded_len(), 8);
        assert_eq!(5i64.compare_cost(), 1);
    }

    #[test]
    fn str_keys_order_lexicographically() {
        let a = StrKey::from("apple");
        let b = StrKey::from("banana");
        let ab = StrKey::from("apple!");
        assert!(a < b);
        assert!(a < ab);
        assert_eq!(a, StrKey::new(b"apple".to_vec()));
    }

    #[test]
    fn str_key_costs_scale_with_length() {
        assert_eq!(StrKey::from("x").compare_cost(), 1);
        assert_eq!(StrKey::from("12345678").compare_cost(), 1);
        assert_eq!(StrKey::from("123456789").compare_cost(), 2);
        assert_eq!(StrKey::new(vec![0u8; 64]).compare_cost(), 8);
        assert_eq!(StrKey::from("abc").encoded_len(), 5);
        assert_eq!(StrKey::default().compare_cost(), 1);
    }
}
