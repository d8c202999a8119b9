//! A plain fixed-capacity bitset.
//!
//! Used by [`crate::reach`] to propagate reachable-sets through the
//! condensation DAG in words rather than node-at-a-time, and by the game
//! layer to fingerprint strategy sets.

use serde::{Deserialize, Serialize};

/// Fixed-capacity set of `usize` values below a bound given at construction.
///
/// # Examples
///
/// ```
/// use bbc_graph::BitSet;
///
/// let mut s = BitSet::new(70);
/// s.insert(3);
/// s.insert(69);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 69]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set that can hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Builds a set of fixed capacity `n` from an index iterator — the
    /// membership-snapshot hook: a service restoring a game of `n` slots
    /// from a persisted live-id list needs the capacity pinned to the game
    /// size, not to the maximum surviving id (which
    /// [`BitSet::from_iter`] would use).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, indices: I) -> Self {
        let mut s = Self::new(n);
        for v in indices {
            s.insert(v);
        }
        s
    }

    /// Upper bound (exclusive) on storable values.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the capacity to at least `new_capacity`, preserving every
    /// element (a no-op when the set is already that large). This is the
    /// node-lifecycle hook: scratch pools sized for `n` nodes widen in place
    /// when a graph gains nodes instead of being rebuilt.
    pub fn grow(&mut self, new_capacity: usize) {
        if new_capacity > self.capacity {
            self.capacity = new_capacity;
            self.words.resize(new_capacity.div_ceil(64), 0);
        }
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    #[inline]
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(
            v < self.capacity,
            "value {v} exceeds bitset capacity {}",
            self.capacity
        );
        let (w, b) = (v / 64, v % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: usize) -> bool {
        if v >= self.capacity {
            return false;
        }
        let (w, b) = (v / 64, v % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// `true` if `v` is in the set.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        v < self.capacity && self.words[v / 64] & (1 << (v % 64)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites `self` with `other`'s contents without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// In-place union; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// Inserts every value below the capacity that is absent and satisfies
    /// `pred`, calling `pred` only on the absent values, in increasing
    /// order.
    ///
    /// ```
    /// use bbc_graph::BitSet;
    ///
    /// let mut s = BitSet::from_indices(6, [0, 2]);
    /// let mut asked = Vec::new();
    /// s.insert_absent_where(|v| {
    ///     asked.push(v);
    ///     v % 2 == 1
    /// });
    /// assert_eq!(asked, vec![1, 3, 4, 5]);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 5]);
    /// ```
    pub fn insert_absent_where(&mut self, mut pred: impl FnMut(usize) -> bool) {
        let capacity = self.capacity;
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut absent = !*word;
            while absent != 0 {
                let b = absent.trailing_zeros() as usize;
                absent &= absent - 1;
                let v = wi * 64 + b;
                if v >= capacity {
                    return;
                }
                if pred(v) {
                    *word |= 1 << b;
                }
            }
        }
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| BitIter { word: w }.map(move |b| wi * 64 + b))
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to the maximum value seen.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(63), "double insert reports false");
        assert_eq!(s.len(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_yields_sorted_elements() {
        let mut s = BitSet::new(200);
        for v in [150, 3, 64, 127, 128] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 127, 128, 150]);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(70);
        a.insert(1);
        let mut b = BitSet::new(70);
        b.insert(1);
        assert!(!a.union_with(&b), "union with subset is a no-op");
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(a.contains(69));
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.len(), 3);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn from_indices_pins_capacity_to_the_bound() {
        let s = BitSet::from_indices(16, [0usize, 3, 7]);
        assert_eq!(s.capacity(), 16, "capacity is the bound, not max+1");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 7]);
        let empty = BitSet::from_indices(8, std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds bitset capacity")]
    fn from_indices_rejects_out_of_bound() {
        BitSet::from_indices(4, [4usize]);
    }

    #[test]
    fn clear_empties_the_set() {
        let mut s = BitSet::new(10);
        s.extend([1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds bitset capacity")]
    fn insert_beyond_capacity_panics() {
        BitSet::new(4).insert(4);
    }
}
