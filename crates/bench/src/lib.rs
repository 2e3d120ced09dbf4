//! Benchmark-only crate; see the `benches/` directory.

#![forbid(unsafe_code)]
