//! The paged word image every model's data memory lives in.
//!
//! The simulated address space is large (64 Ki words by default), but a
//! run touches a few pages of it. [`PagedWords`] gives a page its own
//! buffer only once something writes it; every other page reads from
//! one shared static zero page. Resetting, snapshotting and comparing
//! an image therefore cost time in proportion to the pages written, not
//! to the address space, and a warm image recycles its buffers through
//! a free list instead of the allocator.

use std::fmt;
use std::ops::Index;

/// Words per page (a power of two).
pub const PAGE_WORDS: usize = 1 << 10;

type Page = Box<[u32; PAGE_WORDS]>;

/// What every clean page reads as.
static ZERO_PAGE: [u32; PAGE_WORDS] = [0; PAGE_WORDS];

/// A word-addressed memory of fixed length, stored as
/// [`PAGE_WORDS`]-word pages.
///
/// A page holds a buffer iff it was written since the last
/// [`PagedWords::clear`]; loading an image counts as a write. That
/// buffer is the page's dirty bit. Addresses wrap modulo
/// [`PagedWords::len`] (which need not be a multiple of the page size),
/// and equality is by contents: a page written back to all zeros equals
/// a clean one.
#[derive(Default)]
pub struct PagedWords {
    len: usize,
    pages: Vec<Option<Page>>,
    /// Zeroed buffers released by `clear`, reused before allocating.
    free: Vec<Page>,
}

impl PagedWords {
    /// `len` words, all zero; allocates no page buffer.
    pub fn new(len: usize) -> Self {
        let mut m = PagedWords::default();
        m.clear(len);
        m
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the image has no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `len` words and zero them all. Only dirty pages are
    /// touched: each is zeroed and its buffer kept on the free list.
    pub fn clear(&mut self, len: usize) {
        for page in self.pages.iter_mut().filter_map(Option::take) {
            release(&mut self.free, page);
        }
        self.pages.resize_with(len.div_ceil(PAGE_WORDS), || None);
        // An image never owns more buffers than the most pages it has
        // had, so with this much room the free list never grows once
        // warm.
        self.free
            .reserve(self.pages.len().saturating_sub(self.free.len()));
        self.len = len;
    }

    /// Write `image` at word 0 onwards.
    ///
    /// # Panics
    /// Panics if the image is longer than the memory.
    pub fn load_image(&mut self, image: &[u32]) {
        assert!(image.len() <= self.len, "image larger than memory");
        for (i, chunk) in image.chunks(PAGE_WORDS).enumerate() {
            self.page_mut(i)[..chunk.len()].copy_from_slice(chunk);
        }
    }

    /// Write the word at `addr` modulo the length. Writing zero to a
    /// clean page leaves it clean.
    ///
    /// # Panics
    /// Panics if the image is empty.
    #[inline]
    pub fn set(&mut self, addr: usize, v: u32) {
        let a = self.wrap(addr);
        let i = a / PAGE_WORDS;
        if v != 0 || self.pages[i].is_some() {
            self.page_mut(i)[a % PAGE_WORDS] = v;
        }
    }

    /// Every word, in address order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self,
            next_page: 0,
            cur: [].iter(),
            left: self.len,
        }
    }

    /// Every word, in address order, as a dense vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().copied().collect()
    }

    /// Pages currently holding a buffer (the dirty ones).
    pub fn dirty_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// The lowest address at which `self` and `other` differ, or `None`
    /// if they are equal. Images of different lengths differ at the
    /// shorter length. Pages clean on both sides are skipped unread.
    pub fn first_difference(&self, other: &PagedWords) -> Option<usize> {
        if self.len != other.len {
            return Some(self.len.min(other.len));
        }
        (0..self.pages.len()).find_map(|i| {
            if self.pages[i].is_none() && other.pages[i].is_none() {
                return None;
            }
            let (a, b) = (self.page(i), other.page(i));
            if a == b {
                return None;
            }
            (0..PAGE_WORDS)
                .find(|&k| a[k] != b[k])
                .map(|k| i * PAGE_WORDS + k)
        })
    }

    #[inline]
    fn wrap(&self, addr: usize) -> usize {
        if addr < self.len {
            addr
        } else {
            addr % self.len
        }
    }

    #[inline]
    fn page(&self, i: usize) -> &[u32; PAGE_WORDS] {
        self.pages[i].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Page `i`'s buffer, taken from the free list (or allocated) if
    /// the page is clean.
    #[inline]
    fn page_mut(&mut self, i: usize) -> &mut [u32; PAGE_WORDS] {
        self.pages[i]
            .get_or_insert_with(|| self.free.pop().unwrap_or_else(|| Box::new([0; PAGE_WORDS])))
    }
}

fn release(free: &mut Vec<Page>, mut page: Page) {
    page.fill(0);
    free.push(page);
}

/// Iterator over every word of a [`PagedWords`], in address order.
pub struct Iter<'a> {
    words: &'a PagedWords,
    next_page: usize,
    cur: std::slice::Iter<'a, u32>,
    /// Words still to yield (so a partial last page stops at `len`).
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a u32;

    #[inline]
    fn next(&mut self) -> Option<&'a u32> {
        if self.left == 0 {
            return None;
        }
        if self.cur.len() == 0 {
            self.cur = self.words.page(self.next_page).iter();
            self.next_page += 1;
        }
        self.left -= 1;
        self.cur.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl Index<usize> for PagedWords {
    type Output = u32;

    /// The word at `addr` modulo the length.
    ///
    /// # Panics
    /// Panics if the image is empty.
    #[inline]
    fn index(&self, addr: usize) -> &u32 {
        let a = self.wrap(addr);
        &self.page(a / PAGE_WORDS)[a % PAGE_WORDS]
    }
}

impl Clone for PagedWords {
    fn clone(&self) -> Self {
        let mut out = PagedWords::default();
        out.clone_from(self);
        out
    }

    /// Copies only `source`'s dirty pages, into `self`'s own buffers
    /// (a warm `self` allocates nothing).
    fn clone_from(&mut self, source: &Self) {
        self.clear(source.len);
        for (i, page) in source.pages.iter().enumerate() {
            if let Some(page) = page {
                self.page_mut(i).copy_from_slice(&page[..]);
            }
        }
    }
}

impl PartialEq for PagedWords {
    fn eq(&self, other: &Self) -> bool {
        self.first_difference(other).is_none()
    }
}

impl Eq for PagedWords {}

/// Lists the length and every non-zero word as `address: value`.
impl fmt::Debug for PagedWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PagedWords({} words) ", self.len)?;
        f.debug_map()
            .entries(self.iter().enumerate().filter(|&(_, &v)| v != 0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pages_read_zero_and_hold_no_buffer() {
        let m = PagedWords::new(70_000);
        assert_eq!(m.len(), 70_000);
        assert_eq!(m[69_999], 0);
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.iter().count(), 70_000);
    }

    #[test]
    fn addresses_wrap_at_a_partial_last_page() {
        let mut m = PagedWords::new(PAGE_WORDS + 5);
        m.set(PAGE_WORDS + 5 + 3, 9); // wraps to 3
        assert_eq!(m[3], 9);
        m.set(PAGE_WORDS + 4, 7);
        assert_eq!(m[2 * (PAGE_WORDS + 5) - 1], 7);
        assert_eq!(m.to_vec().len(), PAGE_WORDS + 5);
    }

    #[test]
    fn zero_writes_to_clean_pages_stay_clean() {
        let mut m = PagedWords::new(4 * PAGE_WORDS);
        m.set(5, 0);
        assert_eq!(m.dirty_pages(), 0);
        m.set(5, 1);
        m.set(5, 0);
        assert_eq!(m.dirty_pages(), 1);
        assert_eq!(m, PagedWords::new(4 * PAGE_WORDS));
    }

    #[test]
    fn clear_recycles_buffers() {
        let mut m = PagedWords::new(8 * PAGE_WORDS);
        m.load_image(&[1; 2 * PAGE_WORDS + 1]);
        m.set(7 * PAGE_WORDS, 4);
        assert_eq!(m.dirty_pages(), 4);
        m.clear(8 * PAGE_WORDS);
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.free.len(), 4);
        assert!(m.iter().all(|&v| v == 0));
        m.set(3, 1);
        assert_eq!(m.free.len(), 3);
    }

    #[test]
    fn first_difference_finds_the_lowest_address() {
        let mut a = PagedWords::new(3 * PAGE_WORDS);
        let mut b = a.clone();
        a.set(2 * PAGE_WORDS + 1, 5);
        b.set(PAGE_WORDS + 7, 5);
        assert_eq!(a.first_difference(&b), Some(PAGE_WORDS + 7));
        assert_eq!(a.first_difference(&PagedWords::new(10)), Some(10));
        b.clone_from(&a);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    #[should_panic(expected = "image larger")]
    fn oversized_image_rejected() {
        PagedWords::new(2).load_image(&[0; 3]);
    }
}
