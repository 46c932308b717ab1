//! Dense block indexing: the address → dense-id map the analysis graphs
//! share.
//!
//! A finalized CFG names blocks by start address, but every dense
//! representation the analyses build over it (the dataflow flow graph's
//! fact vectors and adjacency lists, RPO ranks, dominator arrays, loop
//! bodies) wants a compact `0..n` id per block. The [`Cfg`](crate::Cfg)
//! itself needs none: its edge arrays are sorted by address and searched
//! directly. [`BlockIndex`] is that
//! mapping, stored as a sorted `(addr, id)` array and queried by binary
//! search — half the footprint of a hash map of the same size, no
//! per-entry heap boxes, cache-friendly, and cheaply shareable behind an
//! `Arc`. The id is the block's *position in the original list* (which
//! need not be address-sorted), so `index.get(b)` indexes directly into
//! any vector laid out in that list's order.
//!
//! [`Csr`] is the adjacency those dense ids index: every row's items in
//! one array, found through one offset array, with no per-row `Vec`.

/// Sorted-array map from block start address to dense index.
///
/// Built once per graph from the block list; ids are positions in that
/// list, so dense vectors indexed by the result line up with it even
/// when the list itself is not address-ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockIndex {
    /// `(addr, position-in-original-list)`, sorted by address.
    sorted: Vec<(u64, u32)>,
}

impl BlockIndex {
    /// Build the index over `blocks` (ids are positions in `blocks`).
    pub fn new(blocks: &[u64]) -> BlockIndex {
        let mut sorted: Vec<(u64, u32)> =
            blocks.iter().enumerate().map(|(i, &b)| (b, i as u32)).collect();
        sorted.sort_unstable();
        BlockIndex { sorted }
    }

    /// Dense id of `addr`, if present.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<usize> {
        self.sorted.binary_search_by_key(&addr, |&(a, _)| a).ok().map(|i| self.sorted[i].1 as usize)
    }

    /// Is `addr` a known block start?
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.sorted.binary_search_by_key(&addr, |&(a, _)| a).is_ok()
    }

    /// Number of blocks indexed.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `(addr, dense id)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.sorted.iter().map(|&(a, i)| (a, i as usize))
    }

    /// Bytes of heap owned by the index (the resident-size estimate the
    /// session sums).
    pub fn heap_bytes(&self) -> usize {
        self.sorted.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

/// Compressed sparse rows: row `i` is `items[offsets[i]..offsets[i + 1]]`,
/// so `n` rows cost `n + 1` offsets and one item array.
#[derive(Debug)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Group `(row, item)` pairs into `rows` rows by a stable counting
    /// pass: each row keeps its items in the order `pairs` yields them.
    pub fn group<I>(rows: usize, pairs: I) -> Csr<T>
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
        T: Copy,
    {
        let pairs = pairs.into_iter();
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        // Placeholder values, each overwritten below.
        let mut items: Vec<T> = pairs.clone().map(|(_, item)| item).collect();
        for (r, item) in pairs {
            items[next[r] as usize] = item;
            next[r] += 1;
        }
        Csr { offsets, items }
    }

    /// The same rows, each item mapped through `f`.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Csr<U> {
        Csr { offsets: self.offsets.clone(), items: self.items.iter().map(f).collect() }
    }

    /// The items of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Bytes of heap owned by the offsets and the items.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_to_original_positions() {
        // Deliberately unsorted input: ids follow list positions.
        let ix = BlockIndex::new(&[30, 10, 20]);
        assert_eq!(ix.get(30), Some(0));
        assert_eq!(ix.get(10), Some(1));
        assert_eq!(ix.get(20), Some(2));
        assert_eq!(ix.get(40), None);
        assert!(ix.contains(10));
        assert!(!ix.contains(11));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn empty_index() {
        let ix = BlockIndex::new(&[]);
        assert!(ix.is_empty());
        assert_eq!(ix.get(0), None);
    }

    #[test]
    fn iter_is_address_sorted() {
        let ix = BlockIndex::new(&[5, 1, 9]);
        let pairs: Vec<(u64, usize)> = ix.iter().collect();
        assert_eq!(pairs, vec![(1, 1), (5, 0), (9, 2)]);
    }
}
