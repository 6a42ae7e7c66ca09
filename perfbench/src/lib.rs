//! The repository benchmark of the OTIS queueing simulator: three
//! workloads, their end-to-end and per-layer metrics, and the
//! forwarding wrappers of the traced run. See `README.md` beside this
//! crate for what each metric predicts, and `main.rs` for the command.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
