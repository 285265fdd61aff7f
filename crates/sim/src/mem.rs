//! Paged sparse flat memory for the functional state.
//!
//! The core's data and checkpoint memories used to be `BTreeMap<u64, i64>`;
//! every load and store walked the tree, which `BENCH_reproduce.json`
//! showed dominating simulation time. [`PagedMem`] replaces the tree with
//! fixed-size flat pages indexed by `addr >> PAGE_SHIFT`:
//!
//! * **O(1) word access**: one shift, one mask and one array index within
//!   a page, after a direct page table finds the page. The table spans the
//!   densest run of the page directory (the data segment near its base);
//!   pages outside it (spill slots, checkpoint slots at `CKPT_BASE`, or an
//!   address a strike flipped far away) fall back to a binary search of the
//!   sorted directory, which stays tiny;
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
//! * pages live in owned-or-shared slots, the copy-on-write substrate of
//!   the core's snapshot/fork API
//!   ([`Core::run_collecting_snapshots`](crate::Core::run_collecting_snapshots)).
//!   A running core writes its owned pages in place; a capture takes its
//!   copy through [`PagedMem::share`], which turns every page into a shared
//!   one, and the first write to a shared page copies only that page. A
//!   finished run hands its memories to [`SimOutcome`](crate::SimOutcome)
//!   as they are, so comparing a strike run's final memory with the golden
//!   run's ([`PagedMem::content_eq`]) skips every page the two still share.

use crate::slot::Slot;
use std::collections::BTreeMap;

/// log2 of the byte-address span of one page: 512 addresses, 64 aligned
/// words.
const PAGE_SHIFT: u32 = 9;
/// Aligned words per page.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 3);
/// Most pages the direct page table spans (512 KiB of addresses).
const TABLE_SPAN: u64 = 1024;

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

const BLANK: Page = Page {
    present: 0,
    words: [0; PAGE_WORDS],
};

/// The `(page index, word)` an aligned address lives at, or `None` for an
/// unaligned one (kept in the overflow map).
#[inline(always)]
fn locate(addr: u64) -> Option<(u64, usize)> {
    (addr & 7 == 0).then_some((addr >> PAGE_SHIFT, (addr >> 3) as usize % PAGE_WORDS))
}

/// Sparse flat memory: a sorted directory of copy-on-write pages, a direct
/// page table over its densest span, and an exact map for unaligned
/// addresses.
///
/// Drop-in replacement for the simulator's former `BTreeMap<u64, i64>`
/// functional memories with identical observable semantics (see the module
/// docs) and O(1) in-page access. Equality is [`PagedMem::content_eq`], and
/// `Debug` prints the [`PagedMem::to_btree`] view. `Clone` deep-copies the
/// pages this memory owns and shares the shared ones.
#[derive(Default, Clone)]
pub struct PagedMem {
    /// `(page_index, page)` sorted by page index. Only `insert` and
    /// [`PagedMem::from_words`] create a page, so every page holds at least
    /// one word.
    pages: Vec<(u64, Slot<Page>)>,
    /// Direct page table: `table[idx - table_base]` is 1 + the directory
    /// position of page `idx`, or 0 when that page does not exist. Derived
    /// from `pages` by [`PagedMem::reindex`] whenever a page is added.
    table: Box<[u32]>,
    table_base: u64,
    /// Values at unaligned addresses.
    overflow: BTreeMap<u64, i64>,
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

    /// A memory holding `words` at consecutive addresses from `base` on —
    /// a program's data segment — built a page at a time. Equal to
    /// inserting each word in turn.
    pub fn from_words(base: u64, words: &[i64]) -> Self {
        let end = base.checked_add(8 * words.len() as u64);
        if base & 7 != 0 || end.is_none() {
            // Unaligned (every word goes to the overflow map) or wrapping.
            return (0..)
                .map(|i: u64| base.wrapping_add(8 * i))
                .zip(words.iter().copied())
                .collect();
        }
        let mut m = PagedMem::new();
        let mut addr = base;
        let mut rest = words;
        while !rest.is_empty() {
            let w0 = (addr >> 3) as usize % PAGE_WORDS;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_WORDS - w0));
            let mut page = BLANK;
            page.words[w0..w0 + chunk.len()].copy_from_slice(chunk);
            page.present = (u64::MAX >> (64 - chunk.len())) << w0;
            m.pages.push((addr >> PAGE_SHIFT, Slot::new(page)));
            addr += 8 * chunk.len() as u64;
            rest = tail;
        }
        m.reindex();
        m
    }

    /// Rebuild the direct page table over the window of at most
    /// [`TABLE_SPAN`] pages that holds the most directory pages (the first
    /// such window on a tie).
    fn reindex(&mut self) {
        let (mut best, mut lo) = ((0, 0), 0);
        for hi in 0..self.pages.len() {
            while self.pages[hi].0 - self.pages[lo].0 >= TABLE_SPAN {
                lo += 1;
            }
            if hi + 1 - lo > best.1 - best.0 {
                best = (lo, hi + 1);
            }
        }
        let dir = &self.pages[best.0..best.1];
        let Some((first, last)) = dir.first().zip(dir.last()) else {
            return;
        };
        self.table_base = first.0;
        let mut table = vec![0; (last.0 - first.0 + 1) as usize];
        for (pos, (idx, _)) in dir.iter().enumerate() {
            table[(idx - first.0) as usize] = (best.0 + pos + 1) as u32;
        }
        self.table = table.into();
    }

    /// The directory position of page `idx`, or where it would be inserted.
    #[inline(always)]
    fn find(&self, idx: u64) -> Result<usize, usize> {
        match self.table.get(idx.wrapping_sub(self.table_base) as usize) {
            Some(&pos) if pos != 0 => Ok(pos as usize - 1),
            _ => self.pages.binary_search_by_key(&idx, |&(i, _)| i),
        }
    }

    /// The value at `addr`, or `None` if the address was never inserted.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<i64> {
        let Some((idx, w)) = locate(addr) else {
            return self.overflow.get(&addr).copied();
        };
        let page = self.pages[self.find(idx).ok()?].1.get();
        (page.present & (1 << w) != 0).then(|| page.words[w])
    }

    /// Insert (or overwrite) the word at `addr`. Copies the page first if
    /// it is shared with a snapshot (copy-on-write).
    #[inline(always)]
    pub fn insert(&mut self, addr: u64, value: i64) {
        match locate(addr).map(|(idx, w)| (self.find(idx), w)) {
            Some((Ok(i), w)) => {
                let page = self.pages[i].1.make_mut();
                page.present |= 1 << w;
                page.words[w] = value;
            }
            _ => self.insert_slow(addr, value),
        }
    }

    /// [`PagedMem::insert`] at an unaligned address or into a new page.
    #[cold]
    #[inline(never)]
    fn insert_slow(&mut self, addr: u64, value: i64) {
        let Some((idx, w)) = locate(addr) else {
            self.overflow.insert(addr, value);
            return;
        };
        if let Err(i) = self.find(idx) {
            self.pages.insert(i, (idx, Slot::new(BLANK)));
            self.reindex();
        }
        let i = self.find(idx).expect("the page exists");
        let page = self.pages[i].1.make_mut();
        page.present |= 1 << w;
        page.words[w] = value;
    }

    /// A copy that shares every page with this memory, turning the pages
    /// this memory owns into shared ones: how a snapshot capture takes its
    /// copy. The next write to a shared page copies it.
    pub fn share(&mut self) -> PagedMem {
        PagedMem {
            pages: self
                .pages
                .iter_mut()
                .map(|(i, p)| (*i, p.share()))
                .collect(),
            table: self.table.clone(),
            table_base: self.table_base,
            overflow: self.overflow.clone(),
        }
    }

    /// Number of inserted addresses.
    pub fn len(&self) -> usize {
        let words: u32 = self
            .pages
            .iter()
            .map(|(_, p)| p.get().present.count_ones())
            .sum();
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
                .all(|((ia, pa), (ib, pb))| ia == ib && (pa.ptr_eq(pb) || pa.get() == pb.get()))
    }

    /// The `BTreeMap` view: every inserted `(addr, value)` pair in address
    /// order — byte-identical to what the former map-backed memory held.
    pub fn to_btree(&self) -> BTreeMap<u64, i64> {
        let mut out = self.overflow.clone();
        for (idx, page) in &self.pages {
            let (base, page) = (idx << PAGE_SHIFT, page.get());
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
    fn writes_after_a_share_leave_the_shared_copy_untouched() {
        let mut a: PagedMem = [(0x100, 1), (0x400, 2), (0x8000_0000, 3)]
            .into_iter()
            .collect();
        let snap = a.share();
        // Every page is shared now: the pointer skip covers all of them.
        assert!(a
            .pages
            .iter()
            .zip(&snap.pages)
            .all(|((_, p), (_, q))| p.ptr_eq(q)));
        a.insert(0x100, 9);
        a.insert(0x108, 10);
        assert_eq!(snap.get(0x100), Some(1));
        assert_eq!(snap.get(0x108), None);
        assert_eq!(a.get(0x100), Some(9));
        // Only the written page left the sharing; the others still skip.
        let shared: Vec<bool> = a
            .pages
            .iter()
            .zip(&snap.pages)
            .map(|((_, p), (_, q))| p.ptr_eq(q))
            .collect();
        assert_eq!(shared, [false, true, true]);
        assert!(!a.content_eq(&snap));
        // A second share hands out the written page's new copy.
        let again = a.share();
        assert!(again.content_eq(&a) && again.pages[0].1.ptr_eq(&a.pages[0].1));
        assert_eq!(
            snap.to_btree(),
            BTreeMap::from([(0x100, 1), (0x400, 2), (0x8000_0000, 3)])
        );
    }

    #[test]
    fn from_words_equals_one_insert_per_word() {
        for base in [
            0u64,
            8,
            0x1f8,
            0x200,
            0x1_0000,
            0x1_0004,
            0x7000_0000,
            u64::MAX - 7,
        ] {
            for len in [0usize, 1, 2, 63, 64, 65, 130, 1500] {
                let words: Vec<i64> = (0..len as i64).map(|i| i * 3 - 5).collect();
                let slow: PagedMem = (0..len as u64)
                    .map(|i| (base.wrapping_add(8 * i), words[i as usize]))
                    .collect();
                let fast = PagedMem::from_words(base, &words);
                assert_eq!(fast.to_btree(), slow.to_btree(), "base {base:#x} len {len}");
                assert!(fast.content_eq(&slow) && fast.len() == len);
                for i in 0..=len as u64 {
                    let a = base.wrapping_add(8 * i);
                    assert_eq!(fast.get(a), slow.get(a), "base {base:#x} addr {a:#x}");
                }
            }
        }
    }

    #[test]
    fn pages_outside_the_table_span_fall_back_to_the_directory() {
        let mut reference = BTreeMap::new();
        let mut m = PagedMem::new();
        // A dense data run, a spill page, checkpoint slots, and addresses a
        // bit flip moved far away, inserted in scrambled order.
        let mut addrs: Vec<u64> = (0..40u64).map(|i| 0x1_0000 + 0x200 * i).collect();
        addrs.extend([
            0x7000_0000,
            0x8000_0020,
            0x1_0000 ^ (1 << 40),
            0x8,
            0x1_0000 + (TABLE_SPAN << PAGE_SHIFT),
        ]);
        addrs.sort_by_key(|a| a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (k, &a) in addrs.iter().enumerate() {
            m.insert(a, k as i64);
            reference.insert(a, k as i64);
            for &b in &addrs {
                assert_eq!(m.get(b), reference.get(&b).copied(), "addr {b:#x}");
            }
        }
        // The table spans page 0 and the data run; the rest are outliers.
        assert_eq!(
            (m.table_base, m.table.iter().filter(|&&p| p != 0).count()),
            (0, 41)
        );
        assert_eq!(m.to_btree(), reference);
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
