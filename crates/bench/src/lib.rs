//! # issr-bench
//!
//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§IV–§V). Each figure has a runner returning plain rows
//! and a binary (`src/bin/`) that prints them as a markdown table.

#![forbid(unsafe_code)]

pub mod critical;
pub mod figures;
pub mod report;
pub mod telemetry;
pub mod verdict;

pub use figures::*;
