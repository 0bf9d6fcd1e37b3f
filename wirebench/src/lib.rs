//! Canonical wire-path benchmark for the locble serving stack: one load
//! generator in one process driving client → reactor → store → engine →
//! core → ack, with end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run. See README.md.

pub mod core_arm;
pub mod deploy;
pub mod drive;
pub mod gates;
pub mod heap;
pub mod inputs;
pub mod run;
pub mod stats;
pub mod trace;
