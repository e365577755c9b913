#![warn(missing_docs)]

//! Harness regenerating every figure of the paper's evaluation.
//!
//! The paper's evaluation (§V) consists of Figures 1–3, 5 and 9–19 (it has
//! no numbered tables). `cargo run -p mlcd-bench --bin figures --release --
//! <id>|all` regenerates the rows/series each figure plots, plus the
//! ablation study. What the machinery itself costs is measured by the
//! benchmark in `perfbench/`, not here.
//!
//! Each figure module returns a [`report::FigReport`] — a printable text
//! block plus a machine-readable JSON value that EXPERIMENTS.md is built
//! from.

pub mod figures;
pub mod report;

pub use report::FigReport;

/// Default seed used by the figure harness (override with `--seed`).
pub const DEFAULT_SEED: u64 = 2020;
