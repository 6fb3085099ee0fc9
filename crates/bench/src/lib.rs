//! # sct-bench
//!
//! The benchmark/reproduction harness: the three benches CI runs
//! (`explorer_throughput`, `incremental`, `parallel_scaling`), each a
//! plain `harness = false` main that writes a provenance-stamped
//! `BENCH_*.json` record ([`manifest`]), and the `reproduce` binary
//! that regenerates every table and figure as text.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod manifest;
pub mod render;
pub mod sweep;
