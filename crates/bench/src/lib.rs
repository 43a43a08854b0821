//! # yoco-bench — the figure/table regeneration harness
//!
//! Shared plumbing for the `fig*`/`table*` bins. Every figure and table
//! runs as a scenario grid through [`yoco_sweep::Engine`], so the bins
//! get parallel execution and a content-addressed result cache for free;
//! the computations themselves live in [`yoco_sweep::figures`] and
//! [`yoco_sweep::studies`].

#![warn(missing_docs)]

pub mod output;
pub mod sweep_io;
