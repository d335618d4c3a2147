//! A per-core benchmark of the COCONUT simulator.
//!
//! Three workloads (`paper-steady`, `overload-ramp`, `fault-recovery`)
//! run on one thread; an untraced run reports the end-to-end metrics and
//! a traced run splits each cell's wall time across the layers. See
//! `README.md` in this directory for the workloads, the metric map and how
//! to read the trace.

#![forbid(unsafe_code)]

pub mod bench;
pub mod cells;
pub mod floors;
pub mod record;
pub mod trace;
