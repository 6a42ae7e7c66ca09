//! Shared utilities for the `otis` workspace.
//!
//! This crate deliberately has no dependency on the rest of the
//! workspace; every other crate may depend on it. It provides three
//! things the whole reproduction leans on:
//!
//! * [`hash`] — a fast, non-cryptographic hasher (an `FxHash`-style
//!   multiply-xor hash) plus [`FxHashMap`]/[`FxHashSet`] aliases. The
//!   isomorphism search and the degree–diameter enumeration hash
//!   millions of small integer keys; SipHash would dominate their
//!   profiles.
//! * [`par`] — minimal scoped-thread data parallelism (`par_map`,
//!   `par_chunks_with`, `par_workers`) built on `std::thread::scope`,
//!   used for the all-pairs BFS diameter computation, the Table 1
//!   sweep and the per-destination link-event repair.
//! * [`digits`] — checked d-ary positional arithmetic shared by the
//!   word codecs and the OTIS transceiver indexing.
//! * [`smallvec`] — an inline-first vector for the router layer's
//!   per-query candidate lists (degree-sized, allocation-free).
//! * [`bitset`] — a dense word-addressable bitset, the queueing
//!   engine's active-channel worklist substrate.

pub mod bitset;
pub mod digits;
pub mod hash;
pub mod par;
pub mod smallvec;

pub use bitset::DenseBitset;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use par::{num_threads, par_chunks_with, par_map, par_workers};
pub use smallvec::SmallVec;
