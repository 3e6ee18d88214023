//! A two-level bitset over dense indices, shared by the scheduler's
//! incremental indices (free machines, replica-count buckets).

/// Two-level bitset over dense indices: O(1) insert/remove/contains and
/// first-set lookup that touches one summary word per 4096 keys.
///
/// `remove` clears a summary bit as soon as its leaf word empties, so a
/// set whose bits have all been removed is all-zero in both levels, equal
/// to a fresh one of the same capacity. The replica-count buckets rely on
/// this to hand an emptied set to another count without clearing it.
#[derive(Debug, Default, Clone)]
pub(crate) struct BitSet {
    leaf: Vec<u64>,
    summary: Vec<u64>,
}

impl BitSet {
    /// Creates a set able to hold indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitSet {
            leaf: vec![0; words],
            summary: vec![0; words.div_ceil(64).max(1)],
        }
    }

    /// Sets bit `i`; returns `false` when it was already set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let was = self.leaf[w] & (1 << b) != 0;
        self.leaf[w] |= 1 << b;
        self.summary[w / 64] |= 1 << (w % 64);
        !was
    }

    /// Clears bit `i`; returns `false` when it was already clear.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let was = self.leaf[w] & (1 << b) != 0;
        self.leaf[w] &= !(1 << b);
        if self.leaf[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        was
    }

    /// True when bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.leaf[i / 64] & (1 << (i % 64)) != 0
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// Lowest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        for (sw, &s) in self.summary.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let w = sw * 64 + s.trailing_zeros() as usize;
            let l = self.leaf[w];
            debug_assert_ne!(l, 0, "summary bit set over an empty leaf word");
            return Some(w * 64 + l.trailing_zeros() as usize);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_spans_words() {
        let mut b = BitSet::with_capacity(200);
        assert_eq!(b.first(), None);
        assert!(b.is_empty());
        b.insert(130);
        b.insert(67);
        assert!(!b.is_empty());
        assert_eq!(b.first(), Some(67));
        b.remove(67);
        assert_eq!(b.first(), Some(130));
        b.remove(130);
        assert_eq!(b.first(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn emptied_set_is_all_zero() {
        let mut b = BitSet::with_capacity(5_000);
        for i in [0, 63, 64, 4_095, 4_096, 4_999] {
            b.insert(i);
        }
        for i in [4_096, 0, 4_999, 64, 63, 4_095] {
            b.remove(i);
        }
        let fresh = BitSet::with_capacity(5_000);
        assert_eq!((b.leaf, b.summary), (fresh.leaf, fresh.summary));
    }

    #[test]
    fn insert_remove_report_prior_state() {
        let mut b = BitSet::with_capacity(64);
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.contains(5));
        assert!(b.remove(5));
        assert!(!b.remove(5));
        assert!(!b.contains(5));
    }
}
