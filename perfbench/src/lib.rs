//! TPC-C benchmark for the BTrim engine: three fixed-seed workloads
//! driven through the public `btrim-tpcc` and `btrim-core` APIs, with
//! output checks, end-to-end metrics, and a traced run for per-layer
//! metrics. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod checks;
pub mod devices;
pub mod stats;
pub mod trace;
pub mod workload;
