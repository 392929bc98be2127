//! # dbac-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index E1–E11), plus shared
//! utilities: text tables, graph catalogs, the Appendix-B
//! indistinguishability splice, the [`daemon`] module backing the
//! `dbacd` live-stats operator binary, the workspace's one JSON
//! reader/writer and artifact schemas ([`json`]), and the `bench_trend`
//! gate that reads them back ([`trend`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod daemon;
pub mod impossibility;
pub mod json;
pub mod table;
pub mod trend;
