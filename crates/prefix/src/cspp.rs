//! Segmented and **cyclic segmented** parallel prefix (CSPP).
//!
//! The CSPP circuit (Henry & Kuszmaul, Ultrascalar Memo 1; paper
//! Figures 4–5) is the workhorse of the Ultrascalar: for each position
//! `i` of a ring of `n` stations it computes the combination of the
//! inputs of the stations *preceding* `i`, going backwards (cyclically)
//! up to and including the nearest station whose **segment bit** is
//! raised.
//!
//! Two views of the same computation:
//!
//! * with the register-forwarding operator `a ⊗ b = a` and the segment
//!   bit meaning "this station writes the register", position `i`
//!   receives *the value inserted by the nearest preceding writer* —
//!   register renaming, bypass and forwarding in one circuit;
//! * with `a ⊗ b = a ∧ b` and the segment bit raised only at the oldest
//!   station, position `i` receives *whether every older station meets
//!   a condition* — instruction deallocation, memory serialisation and
//!   branch-commit logic.
//!
//! Both a quadratic-work reference evaluation ([`cspp_ring`]) and the
//! hardware's `Θ(log n)`-depth tree evaluation ([`cspp_tree`]) are
//! provided; property tests pin them together. [`cspp_heap_with`] is
//! the same tree evaluation driven by a closure, which is how the
//! circuit generators emit CSPP netlists gate by gate.

use crate::op::{PrefixOp, SegOp, SegPair};
use crate::tree::TreeScan;

/// Non-cyclic segmented *exclusive* backward-looking prefix, linear
/// reference implementation.
///
/// `out[i]` summarises `init ⊗ x[0] ⊗ … ⊗ x[i-1]` under the segmented
/// combination rule: accumulation restarts at every raised segment bit,
/// so `out[i].value` is the combination of the inputs since (and
/// including) the nearest preceding segment start, and `out[i].seg`
/// reports whether any boundary precedes `i` at all. `init` flows in
/// before element 0 (e.g. the committed register file in a processor
/// datapath).
///
/// # Panics
/// Panics if `xs.len() != seg.len()`.
pub fn segmented_prefix_ring<T: Clone, O: PrefixOp<T>>(
    xs: &[T],
    seg: &[bool],
    init: SegPair<T>,
) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = init;
    for (x, &s) in xs.iter().zip(seg) {
        out.push(acc.clone());
        acc = SegOp::<O>::combine(&acc, &SegPair::leaf(x.clone(), s));
    }
    out
}

/// Non-cyclic segmented exclusive prefix via a `Θ(log n)`-depth tree.
///
/// Semantics identical to [`segmented_prefix_ring`]; returns the same
/// vector for every input (property-tested).
pub fn segmented_prefix_tree<T: Clone, O: PrefixOp<T>>(
    xs: &[T],
    seg: &[bool],
    init: SegPair<T>,
) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    if xs.is_empty() {
        return Vec::new();
    }
    let leaves: Vec<SegPair<T>> = xs
        .iter()
        .zip(seg)
        .map(|(x, &s)| SegPair::leaf(x.clone(), s))
        .collect();
    let tree = TreeScan::build::<SegOp<O>>(&leaves);
    tree.scan_exclusive::<SegOp<O>>(init)
}

/// Cyclic segmented parallel prefix, quadratic reference evaluation.
///
/// `out[i]` combines the inputs of the ring positions preceding `i` in
/// cyclic order — `i-1, i-2, …` wrapping around — back to the nearest
/// raised segment bit (inclusive). If the nearest boundary is at `i`
/// itself the summary covers the entire ring (this is the oldest
/// station's wrapped-around view, which the hardware ignores).
///
/// `out[i].seg == false` iff **no** segment bit is raised anywhere. In
/// that case the value is an artefact of the wrap-around (the hardware
/// ties the tree's top data lines together, so without a boundary the
/// ring's total fold leaks into every prefix) and callers must treat it
/// as *don't-care* — processor datapaths guarantee at least one boundary
/// because the oldest station raises all its modified bits.
///
/// Formally, `out[i] = fold(x[0..n]) ⊗ fold(x[0..i])` under the
/// segmented combination rule; whenever any segment bit is raised this
/// equals the fold of exactly the `n` cyclically-preceding elements.
///
/// This is the slow reference form, kept as the oracle for property
/// tests; production paths (benches, the allocator in
/// [`crate::sched`]) use [`cspp_tree`]. A debug assertion rejects
/// rings beyond 4096 stations to catch the reference form sneaking
/// into a sized sweep.
///
/// # Panics
/// Panics if `xs.len() != seg.len()` or the ring is empty.
pub fn cspp_ring<T: Clone, O: PrefixOp<T>>(xs: &[T], seg: &[bool]) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    assert!(!xs.is_empty(), "CSPP ring must be non-empty");
    debug_assert!(
        xs.len() <= 4096,
        "cspp_ring is the slow reference form; use cspp_tree for rings \
         beyond 4096 stations"
    );
    let n = xs.len();
    let leaf = |j: usize| SegPair::leaf(xs[j].clone(), seg[j]);
    // Summary of the whole ring: what the tied-together tree top feeds
    // back into position 0.
    let mut whole = leaf(0);
    for j in 1..n {
        whole = SegOp::<O>::combine(&whole, &leaf(j));
    }
    let mut out = Vec::with_capacity(n);
    let mut acc = whole;
    for j in 0..n {
        out.push(acc.clone());
        acc = SegOp::<O>::combine(&acc, &leaf(j));
    }
    out
}

/// Cyclic segmented parallel prefix via the hardware's tree evaluation:
/// one up-sweep, the data lines tied together at the root (the root's
/// own summary becomes the seed), one down-sweep. Depth `Θ(log n)`.
///
/// Semantics identical to [`cspp_ring`] (property-tested).
///
/// # Panics
/// Panics on empty input or if `xs.len() != seg.len()`.
pub fn cspp_tree<T: Clone, O: PrefixOp<T>>(xs: &[T], seg: &[bool]) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    assert!(!xs.is_empty(), "CSPP ring must be non-empty");
    let leaves: Vec<SegPair<T>> = xs
        .iter()
        .zip(seg)
        .map(|(x, &s)| SegPair::leaf(x.clone(), s))
        .collect();
    let tree = TreeScan::build::<SegOp<O>>(&leaves);
    let root = tree.root().clone();
    // Tying the top of the tree: what flows into leaf 0 "from before" is
    // the summary of the whole ring, i.e. the accumulation since the
    // *last* raised segment bit — exactly the wrap-around.
    tree.scan_exclusive::<SegOp<O>>(root)
}

/// Paper Figure 5 convenience: the 1-bit CSPP with the AND operator.
///
/// Returns, for every station `i`, whether all stations *older* than `i`
/// (from the oldest station, inclusive, to `i-1`, cyclically) have their
/// `condition` input raised. The output at `oldest` itself wraps the
/// whole ring and is ignored by the hardware; it is returned as-is.
///
/// # Panics
/// Panics if `oldest >= conditions.len()` or the ring is empty.
pub fn cspp_all_earlier(conditions: &[bool], oldest: usize) -> Vec<bool> {
    assert!(!conditions.is_empty(), "CSPP ring must be non-empty");
    assert!(oldest < conditions.len(), "oldest station out of range");
    let mut seg = vec![false; conditions.len()];
    seg[oldest] = true;
    cspp_tree::<bool, crate::op::BoolAnd>(conditions, &seg)
        .into_iter()
        .map(|p| p.value)
        .collect()
}

/// Number of leaves covered by heap node `k` in a tree of `size`
/// leaf slots (`size` a power of two, `k` in `1..2*size`).
#[inline]
fn node_span(size: usize, k: usize) -> usize {
    debug_assert!(k >= 1 && k < 2 * size);
    (2 * size) >> (usize::BITS - k.leading_zeros())
}

/// Does heap node `k` cover at least one of the `n` real leaves?
///
/// Occupancy of the left-balanced heap layout is arithmetic: node `k`
/// covers `span(k)` leaves starting at leaf `k*span(k) - size`, so it
/// is occupied iff `k * span(k) < size + n`. Because leaves are
/// left-packed, an occupied right child implies an occupied left child.
#[inline]
fn occupied(size: usize, n: usize, k: usize) -> bool {
    k * node_span(size, k) < size + n
}

/// Cyclic segmented-or-plain parallel prefix over a heap-layout tree,
/// driven by a *closure* instead of a [`PrefixOp`] — the building block
/// the circuit generators use, where "combining" two summaries means
/// **emitting gates into a netlist** (the closure captures `&mut
/// Netlist`). The tree top is tied: the root's own summary seeds the
/// down-sweep, realising the paper's cyclic wrap (Figure 4).
///
/// Returns `out[i]` = the combination flowing into leaf `i` from its
/// cyclic predecessors. The combination *order* (which pairs are
/// combined, bottom-up then top-down over the left-balanced tree) is
/// fixed, so generated circuits have the canonical `Θ(log n)` depth.
///
/// # Panics
/// Panics on empty input.
pub fn cspp_heap_with<T: Clone>(leaves: &[T], mut combine: impl FnMut(&T, &T) -> T) -> Vec<T> {
    assert!(!leaves.is_empty(), "CSPP ring must be non-empty");
    let n = leaves.len();
    let size = n.next_power_of_two();
    let mut summaries: Vec<T> = vec![leaves[0].clone(); 2 * size];
    summaries[size..size + n].clone_from_slice(leaves);
    for k in (1..size).rev() {
        if occupied(size, n, 2 * k + 1) {
            let c = combine(&summaries[2 * k], &summaries[2 * k + 1]);
            summaries[k] = c;
        } else if occupied(size, n, 2 * k) {
            summaries[k] = summaries[2 * k].clone();
        }
    }
    let root = summaries[1].clone();
    let mut prefix: Vec<T> = vec![root; 2 * size];
    for k in 1..size {
        if !occupied(size, n, k) {
            continue;
        }
        let p = prefix[k].clone();
        if occupied(size, n, 2 * k + 1) {
            prefix[2 * k + 1] = combine(&p, &summaries[2 * k]);
        }
        prefix[2 * k] = p;
    }
    prefix[size..size + n].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BoolAnd, First, Sum};

    /// The worked example of paper Figure 5: station 6 is oldest (seg
    /// raised); stations {6, 7, 0, 1, 3} have met the condition; the
    /// circuit outputs high to stations {7, 0, 1, 2}.
    #[test]
    fn figure5_example() {
        let n = 8;
        let mut cond = vec![false; n];
        for i in [6, 7, 0, 1, 3] {
            cond[i] = true;
        }
        let out = cspp_all_earlier(&cond, 6);
        for (i, &o) in out.iter().enumerate() {
            let expected = matches!(i, 7 | 0 | 1 | 2);
            if i == 6 {
                // Oldest wraps the full ring; stations 2, 4, 5 are low,
                // so the wrapped AND is false. The hardware ignores it.
                assert!(!o);
            } else {
                assert_eq!(o, expected, "station {i}");
            }
        }
    }

    /// Register-forwarding semantics of paper Figures 1/4: the ring
    /// carries register R0; station 6 (oldest) inserts the initial
    /// value 10, station 7 has not finished (inserts "not ready"),
    /// station 4 inserts 42. Stations 0–4 must see station 7's pending
    /// write; stations 5 and 6 must see 42.
    #[test]
    fn figure4_register_forwarding() {
        // Value = (value, ready); operator First propagates the nearest
        // preceding writer's insertion.
        type V = (u32, bool);
        let n = 8;
        let mut vals: Vec<V> = vec![(0, false); n];
        let mut seg = vec![false; n];
        // Oldest station 6 inserts initial R0 = 10, ready.
        vals[6] = (10, true);
        seg[6] = true;
        // Station 7 writes R0 but hasn't computed: not ready.
        vals[7] = (0, false);
        seg[7] = true;
        // Station 4 wrote R0 = 42, ready.
        vals[4] = (42, true);
        seg[4] = true;

        let out = cspp_tree::<V, First>(&vals, &seg);
        // Stations 0..=4 read station 7's not-ready insertion.
        for (i, o) in out.iter().enumerate().take(5) {
            assert_eq!(o.value, (0, false), "station {i}");
            assert!(o.seg);
        }
        // Stations 5 and 6 read station 4's 42 (6 ignores, being oldest).
        assert_eq!(out[5].value, (42, true));
        assert_eq!(out[6].value, (42, true));
        // Station 7 reads the oldest station's initial value 10.
        assert_eq!(out[7].value, (10, true));
    }

    #[test]
    fn ring_and_tree_agree_on_exhaustive_small_and_cases() {
        // All 4^n (value, seg) patterns for small n, AND operator.
        for n in 1..=6usize {
            for pattern in 0..(1u32 << (2 * n)) {
                let vals: Vec<bool> = (0..n).map(|i| pattern >> (2 * i) & 1 == 1).collect();
                let seg: Vec<bool> = (0..n).map(|i| pattern >> (2 * i + 1) & 1 == 1).collect();
                let a = cspp_ring::<bool, BoolAnd>(&vals, &seg);
                let b = cspp_tree::<bool, BoolAnd>(&vals, &seg);
                assert_eq!(a, b, "n={n} pattern={pattern:b}");
            }
        }
    }

    #[test]
    fn noncyclic_ring_and_tree_agree() {
        for n in 1..40usize {
            let vals: Vec<u64> = (0..n as u64).map(|i| i * 11 + 5).collect();
            let seg: Vec<bool> = (0..n).map(|i| i % 3 == 1).collect();
            let init = SegPair::leaf(999u64, true);
            assert_eq!(
                segmented_prefix_ring::<_, Sum>(&vals, &seg, init),
                segmented_prefix_tree::<_, Sum>(&vals, &seg, init),
                "n={n}"
            );
        }
    }

    #[test]
    fn no_segment_bit_anywhere_reports_unsegmented() {
        let vals = [1u32, 2, 3, 4];
        let seg = [false; 4];
        let out = cspp_tree::<_, Sum>(&vals, &seg);
        // Without a boundary the values are wrap-around artefacts
        // (ring-fold ⊗ prefix-fold); the seg=false flag marks them as
        // don't-care for callers.
        for (p, expect) in out.iter().zip([10u32, 11, 13, 16]) {
            assert!(!p.seg);
            assert_eq!(p.value, expect);
        }
    }

    #[test]
    fn single_station_ring() {
        let out = cspp_tree::<u32, First>(&[7], &[true]);
        assert_eq!(out[0].value, 7);
        assert!(out[0].seg);
    }

    #[test]
    fn init_flows_to_position_zero() {
        let out =
            segmented_prefix_ring::<u32, Sum>(&[1, 2], &[false, false], SegPair::leaf(50, true));
        assert_eq!(out[0].value, 50);
        assert_eq!(out[1].value, 51);
        assert!(out[1].seg);
    }

    #[test]
    #[should_panic(expected = "oldest station out of range")]
    fn oldest_out_of_range_panics() {
        let _ = cspp_all_earlier(&[true, false], 5);
    }

    #[test]
    fn rotating_oldest_rotates_outputs() {
        // The circuit is symmetric under rotation: rotating both inputs
        // and the oldest pointer rotates the outputs.
        let cond = [true, false, true, true, false, true, true, true];
        let base = cspp_all_earlier(&cond, 0);
        for r in 0..cond.len() {
            let rotated: Vec<bool> = (0..cond.len())
                .map(|i| cond[(i + cond.len() - r) % cond.len()])
                .collect();
            let out = cspp_all_earlier(&rotated, r);
            for i in 0..cond.len() {
                assert_eq!(out[(i + r) % cond.len()], base[i], "rot {r} pos {i}");
            }
        }
    }

    #[test]
    fn occupancy_arithmetic_matches_option_heap() {
        for n in 1..=40usize {
            let size = n.next_power_of_two();
            // Reference: the Option-based occupancy of TreeScan.
            let mut occ = vec![false; 2 * size];
            for i in 0..n {
                occ[size + i] = true;
            }
            for k in (1..size).rev() {
                occ[k] = occ[2 * k] || occ[2 * k + 1];
            }
            for k in 1..2 * size {
                assert_eq!(occupied(size, n, k), occ[k], "n={n} k={k}");
                // Left-packed invariant: right occupied => left occupied.
                if k < size && occ[2 * k + 1] {
                    assert!(occ[2 * k]);
                }
            }
        }
    }

    #[test]
    fn heap_with_closure_matches_cspp_ring() {
        for n in 1..=33usize {
            let vals: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
            let seg: Vec<bool> = (0..n).map(|i| i % 4 == 1).collect();
            let leaves: Vec<SegPair<u32>> = vals
                .iter()
                .zip(&seg)
                .map(|(&v, &s)| SegPair::leaf(v, s))
                .collect();
            let mut combines = 0usize;
            let out = cspp_heap_with(&leaves, |a, b| {
                combines += 1;
                SegOp::<First>::combine(a, b)
            });
            assert_eq!(out, cspp_ring::<u32, First>(&vals, &seg), "n={n}");
            // Work stays linear in n even for non-powers of two: at
            // most one combine per occupied internal node in each
            // sweep.
            assert!(combines <= 4 * n, "n={n} combines={combines}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::op::{BoolAnd, First, Max, Sum};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cspp_tree_matches_ring_sum(
            vals in proptest::collection::vec(0u64..1000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            prop_assert_eq!(
                cspp_ring::<_, Sum>(vals, seg),
                cspp_tree::<_, Sum>(vals, seg)
            );
        }

        #[test]
        fn cspp_tree_matches_ring_first(
            vals in proptest::collection::vec(0u32..1000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            prop_assert_eq!(
                cspp_ring::<_, First>(vals, seg),
                cspp_tree::<_, First>(vals, seg)
            );
        }

        #[test]
        fn cspp_tree_matches_ring_and(
            vals in proptest::collection::vec(any::<bool>(), 1..100),
            segbits in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let n = vals.len().min(segbits.len());
            prop_assert_eq!(
                cspp_ring::<_, BoolAnd>(&vals[..n], &segbits[..n]),
                cspp_tree::<_, BoolAnd>(&vals[..n], &segbits[..n])
            );
        }

        #[test]
        fn noncyclic_tree_matches_ring_max(
            vals in proptest::collection::vec(0i64..10000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
            init in 0i64..10000,
            init_seg in any::<bool>(),
        ) {
            let n = vals.len().min(segbits.len());
            let seed = SegPair::leaf(init, init_seg);
            prop_assert_eq!(
                segmented_prefix_ring::<_, Max>(&vals[..n], &segbits[..n], seed),
                segmented_prefix_tree::<_, Max>(&vals[..n], &segbits[..n], seed)
            );
        }

        /// Direct specification check: out[i] with First equals the
        /// value of the nearest cyclically-preceding raised segment.
        #[test]
        fn cspp_first_is_nearest_preceding_writer(
            vals in proptest::collection::vec(0u32..1000, 1..60),
            segbits in proptest::collection::vec(any::<bool>(), 1..60),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            let out = cspp_tree::<_, First>(vals, seg);
            if seg.iter().any(|&s| s) {
                for (i, o) in out.iter().enumerate() {
                    // Walk backwards from i-1, wrapping, to the nearest
                    // raised segment bit.
                    let mut j = (i + n - 1) % n;
                    let mut steps = 0;
                    while !seg[j] && steps < n {
                        j = (j + n - 1) % n;
                        steps += 1;
                    }
                    prop_assert!(seg[j]);
                    prop_assert_eq!(o.value, vals[j], "station {}", i);
                    prop_assert!(o.seg);
                }
            } else {
                for p in &out {
                    prop_assert!(!p.seg);
                }
            }
        }
    }
}
