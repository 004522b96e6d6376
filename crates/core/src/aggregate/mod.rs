//! The data aggregation algorithm (paper §6).
//!
//! Three procedures, run sequentially (DESIGN.md deviation #3):
//!
//! 1. [`follower`] — collect follower data at the per-channel reporters
//!    with backoff-controlled random access (Lemmas 18–21);
//! 2. [`treecast`] — deterministic convergecast up the reporter tree to the
//!    dominator (Lemma 16);
//! 3. [`intercluster`] — disseminate among dominators: flood-and-combine in
//!    `O(D + log n)` for idempotent aggregates, exact tree upcast for
//!    duplicate-sensitive ones (Theorem 22; DESIGN.md deviation #2).
//!
//! The end-to-end entry point is [`crate::structure::aggregate`]. Procedures 1
//! and 2 run there as the shared phases `follower_phase` and `tree_phase`,
//! which §7 colouring ([`crate::coloring::color_nodes`]) calls as its
//! procedures 1 and 2.

pub mod follower;
pub mod intercluster;
pub mod treecast;
