//! `PagedWords` against a dense `Vec<u32>` model: random reads and
//! writes (with wrap-around), resets to a new image, snapshots and
//! swaps must leave both holding the same words, and equality between
//! two paged images must agree with equality between their models.

use proptest::prelude::*;
use ultrascalar_memsys::paged::{PagedWords, PAGE_WORDS};

/// A paged image and its dense model, kept in step.
struct Pair {
    paged: PagedWords,
    dense: Vec<u32>,
}

impl Pair {
    fn new(words: usize) -> Self {
        Pair {
            paged: PagedWords::new(words),
            dense: vec![0; words],
        }
    }

    fn set(&mut self, addr: usize, v: u32) {
        self.paged.set(addr, v);
        let n = self.dense.len();
        self.dense[addr % n] = v;
    }

    fn reset(&mut self, words: usize, image: &[u32]) {
        self.paged.clear(words);
        self.paged.load_image(image);
        self.dense.clear();
        self.dense.resize(words, 0);
        self.dense[..image.len()].copy_from_slice(image);
    }
}

fn check(p: &Pair) -> Result<(), String> {
    prop_assert_eq!(p.paged.len(), p.dense.len());
    prop_assert_eq!(p.paged.to_vec(), p.dense.clone());
    // Built from scratch, so its dirty pages differ from `p.paged`'s.
    let mut rebuilt = PagedWords::new(p.dense.len());
    rebuilt.load_image(&p.dense);
    prop_assert_eq!(&rebuilt, &p.paged);
    Ok(())
}

/// Word counts below one page, at page multiples and in between.
fn word_counts() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..PAGE_WORDS,
        Just(PAGE_WORDS),
        PAGE_WORDS + 1..4 * PAGE_WORDS,
        Just(4 * PAGE_WORDS),
        Just(70_000usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_words_match_a_dense_model(
        words in word_counts(),
        other_words in word_counts(),
        ops in proptest::collection::vec((0u8..12, any::<u32>(), any::<u32>()), 1..64),
    ) {
        let mut a = Pair::new(words);
        let mut b = Pair::new(words);
        for (op, x, y) in ops {
            let addr = x as usize;
            match op {
                // Writes, a third of them zeros; addresses wrap.
                0..=2 => a.set(addr, if y % 3 == 0 { 0 } else { y }),
                // Reads (cheap: no whole-image check after them).
                3..=5 => {
                    let n = a.dense.len();
                    prop_assert_eq!(a.paged[addr], a.dense[addr % n]);
                }
                // Reset to a new image, sometimes at another size.
                6 => {
                    let len = if y % 2 == 0 { words } else { other_words };
                    let image: Vec<u32> =
                        (0..(y as usize % (len + 1)).min(3 * PAGE_WORDS))
                            .map(|i| (i as u32).wrapping_mul(x) % 4)
                            .collect();
                    a.reset(len, &image);
                }
                // Snapshot into the other image.
                7 => {
                    b.paged.clone_from(&a.paged);
                    b.dense.clone_from(&a.dense);
                }
                8 => std::mem::swap(&mut a, &mut b),
                // Write a whole page back to zeros.
                9 => {
                    let n = a.dense.len();
                    let start = addr % n / PAGE_WORDS * PAGE_WORDS;
                    for i in start..(start + PAGE_WORDS).min(n) {
                        a.set(i, 0);
                    }
                }
                _ => b.set(addr, y),
            }
            if (3..=5).contains(&op) {
                continue;
            }
            check(&a)?;
            check(&b)?;
            prop_assert_eq!(a.paged == b.paged, a.dense == b.dense);
            let diff = a.paged.first_difference(&b.paged);
            let dense_diff = if a.dense.len() != b.dense.len() {
                Some(a.dense.len().min(b.dense.len()))
            } else {
                a.dense.iter().zip(&b.dense).position(|(x, y)| x != y)
            };
            prop_assert_eq!(diff, dense_diff);
        }
    }
}

#[test]
fn a_page_written_back_to_zero_equals_an_untouched_one() {
    let mut written = PagedWords::new(3 * PAGE_WORDS + 17);
    for i in 0..PAGE_WORDS {
        written.set(PAGE_WORDS + i, i as u32 + 1);
    }
    for i in 0..PAGE_WORDS {
        written.set(PAGE_WORDS + i, 0);
    }
    assert_eq!(written.dirty_pages(), 1);
    let untouched = PagedWords::new(3 * PAGE_WORDS + 17);
    assert_eq!(written, untouched);
    assert_eq!(written.first_difference(&untouched), None);
    assert!(written.iter().eq(untouched.iter()));
}
