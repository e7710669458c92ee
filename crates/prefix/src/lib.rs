//! Parallel-prefix algorithms for the Ultrascalar reproduction.
//!
//! The Ultrascalar processors of Kuszmaul, Henry and Loh (SPAA '99) are
//! built almost entirely out of *parallel-prefix tree circuits*:
//!
//! * one **cyclic segmented parallel prefix (CSPP)** circuit per logical
//!   register forwards register values from each writer to every younger
//!   reader (paper Figure 4),
//! * three 1-bit CSPP circuits with the AND operator sequence
//!   instructions: "all earlier stations finished", "all earlier stores
//!   finished", "all earlier branches confirmed" (paper Figure 5),
//! * the Ultrascalar II register network is a column of *(non-cyclic)
//!   segmented* reduction trees that locate the nearest preceding writer
//!   of a requested register (paper Figure 8).
//!
//! This crate provides those primitives as pure algorithms, which the
//! paper-figure binaries print and the `ultrascalar-circuit` netlists
//! are property-tested against:
//!
//! * [`scan`] — serial reference scans (inclusive, exclusive, segmented),
//! * [`tree`] — work-efficient tree scans with circuit-depth accounting,
//! * [`cspp`] — segmented and cyclic-segmented prefix: a naive
//!   reference "ring" evaluation, the logarithmic-depth tree evaluation
//!   used by the hardware, and [`cspp_heap_with`], the closure-driven
//!   form the circuit generators emit netlists through,
//! * [`op`] — the associative-operator abstraction shared by all of the
//!   above, including the two operators used in the paper
//!   ([`op::First`], the register-forwarding operator `a ⊗ b = a`, and
//!   [`op::BoolAnd`], the sequencing operator `a ⊗ b = a ∧ b`),
//! * [`sched`] — oldest-first allocation of shared ALUs over the ring.
//!
//! One simulator substrate lives here too:
//!
//! * [`lanes`] — the lane-parallel *simulation* view: bit `l` of every
//!   bit-plane belongs to independent simulation `l`, so a
//!   [`lanes::LaneValue`] advances one architectural register of 64
//!   machines per word op (planewise ALU/compare forms, lane-uniform
//!   shift relabelling, and a transpose-based extract/compute/deposit
//!   escape hatch); the lane batch engine in `ultrascalar` runs on it,
//! * [`simd`] — the host SIMD level recorded into bench artifacts (the
//!   lane kernels are portable on every host).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cspp;
pub mod lanes;
pub mod op;
pub mod scan;
pub mod sched;
pub mod simd;
pub mod tree;

pub use cspp::{
    cspp_heap_with, cspp_ring, cspp_tree, segmented_prefix_ring, segmented_prefix_tree,
};
pub use lanes::LaneValue;
pub use op::{BoolAnd, BoolOr, First, Last, Max, Min, PrefixOp, SegPair, Sum};
pub use sched::allocate_oldest_first;
pub use simd::{active_simd_level, detected_simd_level};
pub use tree::{tree_scan_exclusive, tree_scan_inclusive, TreeScan};
