//! Paged sparse flat memory for the functional state.
//!
//! The core's data and checkpoint memories used to be `BTreeMap<u64, i64>`;
//! every load and store walked the tree, which `BENCH_reproduce.json`
//! showed dominating simulation time. [`PagedMem`] replaces the tree with
//! fixed-size flat pages indexed by `addr >> PAGE_SHIFT`:
//!
//! * **O(1) word access** within a page (one shift, one mask, one array
//!   index) plus a short binary search over the sorted page directory —
//!   kernels touch a handful of pages (the data segment near its base and
//!   one page of checkpoint slots at `CKPT_BASE`), so the directory stays
//!   tiny;
//! * **word-dense pages**: a page spans 512 byte addresses but every
//!   access the programs make is 8-byte aligned, so it stores only its 64
//!   aligned words inline — a `u64` presence mask and `[i64; 64]`, about
//!   520 bytes, instead of a slot per byte address. Unaligned addresses
//!   (reachable only when a strike flips low address bits) live in an exact
//!   per-memory overflow map, so every address still keeps its own value;
//! * the **presence mask** preserves the map's untouched-word semantics
//!   exactly: a load of a never-written address still reads 0 via
//!   `get(..) == None`, and [`PagedMem::to_btree`] reconstructs the
//!   `BTreeMap` view byte-identically (only addresses ever inserted, pages
//!   and overflow alike, appear, in sorted order);
//! * pages live behind [`Arc`], so cloning a `PagedMem` is O(pages) pointer
//!   copies — the copy-on-write substrate of the core's snapshot/fork API
//!   ([`Core::run_collecting_snapshots`](crate::Core::run_collecting_snapshots)).
//!   Writes after a clone go through [`Arc::make_mut`], copying only the
//!   written page. A finished run hands its memories to
//!   [`SimOutcome`](crate::SimOutcome) as they are, so comparing a strike
//!   run's final memory with the golden run's ([`PagedMem::content_eq`])
//!   skips every page the two still share.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// log2 of the byte-address span of one page: 512 addresses, 64 aligned
/// words.
const PAGE_SHIFT: u32 = 9;
/// Aligned words per page.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 3);

/// One fixed-size page of aligned words and the presence mask telling
/// written words apart from the implicit-zero background. A word whose bit
/// is clear is always 0 (nothing removes a word), so derived equality is
/// content equality.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    /// Bit `w` is set once word `w` has been inserted.
    present: u64,
    /// Word storage, indexed by `(addr >> 3) % PAGE_WORDS`.
    words: [i64; PAGE_WORDS],
}

/// The `(page index, word)` an aligned address lives at, or `None` for an
/// unaligned one (kept in the overflow map).
#[inline(always)]
fn locate(addr: u64) -> Option<(u64, usize)> {
    (addr & 7 == 0).then_some((addr >> PAGE_SHIFT, (addr >> 3) as usize % PAGE_WORDS))
}

/// Sparse flat memory: a sorted directory of copy-on-write pages plus an
/// exact map for unaligned addresses.
///
/// Drop-in replacement for the simulator's former `BTreeMap<u64, i64>`
/// functional memories with identical observable semantics (see the module
/// docs) and O(1) in-page access. Equality is [`PagedMem::content_eq`], and
/// `Debug` prints the [`PagedMem::to_btree`] view.
#[derive(Default)]
pub struct PagedMem {
    /// `(page_index, page)` sorted by page index. Only `insert` creates a
    /// page, so every page holds at least one word.
    pages: Vec<(u64, Arc<Page>)>,
    /// Values at unaligned addresses.
    overflow: BTreeMap<u64, i64>,
    /// Directory position of the most recently accessed page — a one-entry
    /// TLB for the accessor fast paths. Relaxed atomic (not `Cell`) purely
    /// so shared snapshots stay `Sync`; it is a performance hint with no
    /// observable effect.
    hot: AtomicUsize,
}

impl Clone for PagedMem {
    fn clone(&self) -> Self {
        PagedMem {
            pages: self.pages.clone(),
            overflow: self.overflow.clone(),
            hot: AtomicUsize::new(self.hot.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for PagedMem {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}

impl Eq for PagedMem {}

impl std::fmt::Debug for PagedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.to_btree()).finish()
    }
}

impl PagedMem {
    /// An empty memory (every address reads as untouched).
    pub fn new() -> Self {
        PagedMem::default()
    }

    #[inline]
    fn find(&self, page_idx: u64) -> Result<usize, usize> {
        let hot = self.hot.load(Ordering::Relaxed);
        if let Some(&(i, _)) = self.pages.get(hot) {
            if i == page_idx {
                return Ok(hot);
            }
        }
        let found = self.pages.binary_search_by_key(&page_idx, |&(i, _)| i);
        if let Ok(i) = found {
            self.hot.store(i, Ordering::Relaxed);
        }
        found
    }

    /// The value at `addr`, or `None` if the address was never inserted.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<i64> {
        let Some((idx, w)) = locate(addr) else {
            return self.overflow.get(&addr).copied();
        };
        let page = &self.pages[self.find(idx).ok()?].1;
        (page.present & (1 << w) != 0).then(|| page.words[w])
    }

    /// Insert (or overwrite) the word at `addr`. Copies the page first if
    /// it is shared with a snapshot (copy-on-write).
    #[inline]
    pub fn insert(&mut self, addr: u64, value: i64) {
        let Some((idx, w)) = locate(addr) else {
            self.overflow.insert(addr, value);
            return;
        };
        let page = match self.find(idx) {
            Ok(i) => Arc::make_mut(&mut self.pages[i].1),
            Err(i) => {
                let blank = Page {
                    present: 0,
                    words: [0; PAGE_WORDS],
                };
                self.pages.insert(i, (idx, Arc::new(blank)));
                Arc::get_mut(&mut self.pages[i].1).expect("a fresh page is unshared")
            }
        };
        page.present |= 1 << w;
        page.words[w] = value;
    }

    /// Number of inserted addresses.
    pub fn len(&self) -> usize {
        let words: u32 = self.pages.iter().map(|(_, p)| p.present.count_ones()).sum();
        words as usize + self.overflow.len()
    }

    /// Whether no address was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `self` and `other` hold identical content: the same set of
    /// inserted addresses, each with an equal value. Pages shared through
    /// the copy-on-write ancestry compare by pointer.
    pub fn content_eq(&self, other: &PagedMem) -> bool {
        self.overflow == other.overflow
            && self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|((ia, pa), (ib, pb))| ia == ib && (Arc::ptr_eq(pa, pb) || pa == pb))
    }

    /// The `BTreeMap` view: every inserted `(addr, value)` pair in address
    /// order — byte-identical to what the former map-backed memory held.
    pub fn to_btree(&self) -> BTreeMap<u64, i64> {
        let mut out = self.overflow.clone();
        for (idx, page) in &self.pages {
            let base = idx << PAGE_SHIFT;
            let mut present = page.present;
            while present != 0 {
                let w = present.trailing_zeros() as usize;
                out.insert(base + 8 * w as u64, page.words[w]);
                present &= present - 1;
            }
        }
        out
    }
}

impl FromIterator<(u64, i64)> for PagedMem {
    fn from_iter<T: IntoIterator<Item = (u64, i64)>>(iter: T) -> Self {
        let mut m = PagedMem::new();
        for (a, v) in iter {
            m.insert(a, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_addresses_read_none() {
        let m = PagedMem::new();
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(0x1000), None);
        assert!(m.is_empty());
    }

    #[test]
    fn insert_get_roundtrip_across_page_boundaries() {
        let mut m = PagedMem::new();
        // Straddle a page boundary: 0x1ff and 0x200 land on different pages.
        for a in [0u64, 0x1ff, 0x200, 0x1000, 0x8000_0000, u64::MAX] {
            m.insert(a, a as i64 ^ 0x5a);
        }
        for a in [0u64, 0x1ff, 0x200, 0x1000, 0x8000_0000, u64::MAX] {
            assert_eq!(m.get(a), Some(a as i64 ^ 0x5a), "addr {a:#x}");
        }
        // Neighbors of written slots stay untouched.
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(0x201), None);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn overwrite_keeps_one_entry() {
        let mut m = PagedMem::new();
        m.insert(0x40, 1);
        m.insert(0x40, 2);
        assert_eq!(m.get(0x40), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_value_is_distinct_from_untouched() {
        let mut m = PagedMem::new();
        m.insert(0x10, 0);
        assert_eq!(m.get(0x10), Some(0));
        assert_eq!(m.get(0x18), None);
        assert_eq!(m.to_btree(), BTreeMap::from([(0x10, 0)]));
    }

    #[test]
    fn to_btree_matches_reference_map() {
        let pairs: Vec<(u64, i64)> = (0..2000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) % 0x10_0000, i as i64 - 7))
            .collect();
        let m: PagedMem = pairs.iter().copied().collect();
        let reference: BTreeMap<u64, i64> = pairs.iter().copied().collect();
        assert_eq!(m.to_btree(), reference);
    }

    #[test]
    fn content_eq_is_structural() {
        let pairs: Vec<(u64, i64)> = vec![(0x10, 1), (0x1ff, 2), (0x200, 3), (0x9000, 4)];
        let a: PagedMem = pairs.iter().copied().collect();
        let mut b: PagedMem = pairs.iter().rev().copied().collect();
        assert!(a.content_eq(&b));
        assert!(b.content_eq(&a));
        // A COW clone shares pages: pointer fast path.
        let c = a.clone();
        assert!(a.content_eq(&c));
        // Divergent value.
        b.insert(0x1ff, 7);
        assert!(!a.content_eq(&b));
        // Divergent presence (extra address on an existing page).
        let mut d = a.clone();
        d.insert(0x11, 0);
        assert!(!a.content_eq(&d));
        // Extra page on one side.
        let mut e = a.clone();
        e.insert(0xdead_0000, 0);
        assert!(!a.content_eq(&e));
        assert!(!e.content_eq(&a));
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = PagedMem::new();
        a.insert(0x100, 7);
        let b = a.clone();
        a.insert(0x100, 8); // must not write through to the clone
        a.insert(0x108, 9);
        assert_eq!(b.get(0x100), Some(7));
        assert_eq!(b.get(0x108), None);
        assert_eq!(a.get(0x100), Some(8));
    }
}
