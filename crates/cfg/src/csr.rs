//! Compressed sparse rows: the adjacency the analysis graphs build over
//! a function's dense block ids.
//!
//! A finalized CFG names blocks by start address, but every dense
//! representation the analyses build over it (the dataflow flow graph's
//! fact vectors and adjacency lists, RPO ranks, dominator arrays, loop
//! bodies) numbers a function's blocks `0..n` by their position in its
//! ascending block list, found by binary search in that list. The
//! [`Cfg`](crate::Cfg) itself needs none: its edge arrays are sorted by
//! address and searched directly. [`Csr`] holds every row's items in one
//! array, found through one offset array, with no per-row `Vec`.

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
