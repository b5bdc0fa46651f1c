//! `perf_ledger`: the repository's benchmark.
//!
//! Four workloads, eight end-to-end metrics measured with tracing off, and
//! a per-layer ledger measured from outside the program by a separate
//! traced run. `README.md` beside this crate defines every metric, says
//! why each workload exists, and which layer should move which number;
//! [`metrics`] holds the same declarations as data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dist;
pub mod host;
pub mod input;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod stats;
