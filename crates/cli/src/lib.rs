//! Command line front ends.
//!
//! PLSSVM is "a drop-in replacement for LIBSVM": the `svm-train`,
//! `svm-predict` and `svm-scale` binaries accept LIBSVM's flags (the subset
//! PLSSVM supports) plus the PLSSVM-specific `--backend` switch. The
//! `generate-data` binary is the equivalent of the repository's
//! `generate_data.py` utility script ("planes" problem and the SAT-6-like
//! generator).
//!
//! All argument parsing lives in this library crate so it is unit-testable;
//! the binaries are thin `main` wrappers.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
#[cfg(test)]
#[path = "../../core/tests/scratch/mod.rs"]
mod scratch;
pub mod signals;

pub use args::CliError;
