//! Data handling for the PLSSVM reproduction.
//!
//! This crate provides everything "below" the solver:
//!
//! * [`real`] — the [`real::Real`] floating point abstraction
//!   (the paper's single `real_type` template parameter: `f32` or `f64`),
//! * [`dense`] — row-major [`dense::DenseMatrix`] storage and the
//!   padded, column-major (structure-of-arrays) [`dense::SoAMatrix`]
//!   device layout described in §III-A of the paper,
//! * [`libsvm`] — reading and writing the LIBSVM sparse text format (sparse
//!   input is densified, exactly as PLSSVM does),
//! * [`model`] — LIBSVM-compatible model files,
//! * [`scale`] — feature scaling to a target interval (the `svm-scale` tool),
//! * [`checkpoint`] — the durable CG checkpoint format and journal,
//! * [`io`] — atomic, durable file writes shared by all artifact writers,
//! * [`vfs`] — the virtual filesystem those writes go through, with a
//!   deterministic storage-fault injector ([`vfs::FaultVfs`]) for chaos
//!   testing the durability paths,
//! * [`synthetic`] — the `generate_data.py` "planes" problem generator built
//!   on `make_classification` semantics,
//! * [`sat6`] — a synthetic stand-in for the SAT-6 airborne data set,
//! * [`split`] — train/test splitting utilities,
//! * [`sampling`] — deterministic landmark/sketch sampling for the
//!   randomized low-rank (Nyström) solver path.

#![warn(missing_docs)]

pub mod arff;
pub mod checkpoint;
pub mod dense;
pub mod error;
pub mod io;
pub mod libsvm;
pub mod model;
pub mod multiclass;
pub mod real;
pub mod sampling;
pub mod sat6;
pub mod scale;
#[cfg(test)]
#[path = "../../core/tests/scratch/mod.rs"]
mod scratch;
pub mod sparse;
pub mod split;
pub mod synthetic;
pub mod vfs;

pub use checkpoint::{CheckpointError, CheckpointJournal, Snapshot};
pub use dense::{DenseMatrix, SoAMatrix};
pub use error::{DataError, MAX_FEATURE_INDEX};
pub use io::{write_atomic, write_atomic_with};
pub use libsvm::{read_libsvm_file, read_libsvm_str, write_libsvm_file, LabeledData};
pub use real::Real;
pub use sparse::CsrMatrix;
pub use vfs::{FaultPlan, FaultVfs, RealVfs, Vfs};
