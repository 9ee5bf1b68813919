//! Feature scaling — the `svm-scale` utility.
//!
//! The paper scales all SAT-6 features to `[-1, 1]` with LIBSVM's
//! `svm-scale`. This module reproduces that tool: fit per-feature
//! `min`/`max` ranges on training data, linearly map every feature into the
//! target interval, and save/restore the ranges in LIBSVM's range-file
//! format so test data can be scaled identically.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::{DataError, MAX_FEATURE_INDEX};
use crate::io::write_atomic;
use crate::libsvm::FmtReal;
use crate::real::Real;

/// Fitted per-feature scaling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingParams<T> {
    /// Lower bound of the target interval.
    pub lower: T,
    /// Upper bound of the target interval.
    pub upper: T,
    /// Per-feature `(min, max)` observed on the fitting data.
    pub ranges: Vec<(T, T)>,
}

impl<T: Real> ScalingParams<T> {
    /// Computes per-feature min/max from `data` for scaling into
    /// `[lower, upper]`.
    pub fn fit(data: &DenseMatrix<T>, lower: T, upper: T) -> Result<Self, DataError> {
        if lower.to_f64() >= upper.to_f64() {
            return Err(DataError::Invalid(format!(
                "scaling interval is empty: [{lower}, {upper}]"
            )));
        }
        let mut ranges = vec![(T::ZERO, T::ZERO); data.cols()];
        for (f, range) in ranges.iter_mut().enumerate() {
            let mut lo = data.get(0, f);
            let mut hi = lo;
            for p in 1..data.rows() {
                let v = data.get(p, f);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            *range = (lo, hi);
        }
        Ok(Self {
            lower,
            upper,
            ranges,
        })
    }

    /// Scales a matrix in place. Constant features (min == max) are mapped
    /// to zero, matching `svm-scale` (which drops them from its sparse
    /// output, i.e. makes them zero).
    pub fn apply(&self, data: &mut DenseMatrix<T>) -> Result<(), DataError> {
        if data.cols() != self.ranges.len() {
            return Err(DataError::Invalid(format!(
                "scaling fitted on {} features, data has {}",
                self.ranges.len(),
                data.cols()
            )));
        }
        let span = self.upper - self.lower;
        for p in 0..data.rows() {
            for (f, &(lo, hi)) in self.ranges.iter().enumerate() {
                let v = data.get(p, f);
                let scaled = if lo.to_f64() == hi.to_f64() {
                    T::ZERO
                } else {
                    self.lower + span * (v - lo) / (hi - lo)
                };
                data.set(p, f, scaled);
            }
        }
        Ok(())
    }

    /// Serializes the ranges in LIBSVM's range-file format (`svm-scale -s`).
    pub fn to_range_string(&self) -> String {
        let mut out = String::from("x\n");
        out.push_str(&format!(
            "{} {}\n",
            FmtReal(self.lower),
            FmtReal(self.upper)
        ));
        for (f, &(lo, hi)) in self.ranges.iter().enumerate() {
            out.push_str(&format!("{} {} {}\n", f + 1, FmtReal(lo), FmtReal(hi)));
        }
        out
    }

    /// Writes the range file to disk atomically and durably (temp file +
    /// fsync + rename + parent-directory fsync), so an interrupted
    /// `svm-scale -s` can never leave a truncated range file behind.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        write_atomic(path, self.to_range_string().as_bytes())
    }

    /// [`ScalingParams::save`] through an explicit [`Vfs`](crate::vfs::Vfs).
    pub fn save_with(&self, vfs: &dyn crate::vfs::Vfs, path: &Path) -> Result<(), DataError> {
        crate::io::write_atomic_with(vfs, path, self.to_range_string().as_bytes())
    }

    /// Parses a range file (`svm-scale -r`).
    pub fn from_range_string(content: &str) -> Result<Self, DataError> {
        let mut lines = content.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| DataError::Invalid("empty range file".into()))?;
        if first.trim() != "x" {
            return Err(DataError::parse(1, "range file must start with 'x'"));
        }
        let (_, bounds) = lines
            .next()
            .ok_or_else(|| DataError::Invalid("range file misses bounds line".into()))?;
        let mut it = bounds.split_ascii_whitespace();
        let lower: T = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| DataError::parse(2, "invalid lower bound"))?;
        let upper: T = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| DataError::parse(2, "invalid upper bound"))?;

        let mut ranges: Vec<(usize, T, T)> = Vec::new();
        for (lineno, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            let idx: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| DataError::parse(lineno + 1, "invalid feature index"))?;
            let lo: T = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| DataError::parse(lineno + 1, "invalid feature min"))?;
            let hi: T = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| DataError::parse(lineno + 1, "invalid feature max"))?;
            if idx == 0 {
                return Err(DataError::parse(lineno + 1, "feature indices are 1-based"));
            }
            if idx > MAX_FEATURE_INDEX {
                return Err(DataError::parse(
                    lineno + 1,
                    format!(
                        "feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                    ),
                ));
            }
            ranges.push((idx, lo, hi));
        }
        if ranges.is_empty() {
            return Err(DataError::Invalid("range file contains no features".into()));
        }
        let max_idx = ranges.iter().map(|&(i, _, _)| i).max().unwrap();
        let mut out = vec![(T::ZERO, T::ZERO); max_idx];
        for (idx, lo, hi) in ranges {
            out[idx - 1] = (lo, hi);
        }
        let params = Self {
            lower,
            upper,
            ranges: out,
        };
        if lower.to_f64() >= upper.to_f64() {
            return Err(DataError::Invalid(
                "range file has an empty interval".into(),
            ));
        }
        Ok(params)
    }

    /// Loads a range file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DataError> {
        let path = path.as_ref();
        let mut content = String::new();
        let file = File::open(path).map_err(|e| DataError::io_path(path, e))?;
        BufReader::new(file)
            .read_to_string(&mut content)
            .map_err(|e| DataError::io_path(path, e))?;
        Self::from_range_string(&content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(vec![
            vec![0.0, 10.0, 5.0],
            vec![2.0, 20.0, 5.0],
            vec![4.0, 15.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn fit_and_apply_maps_to_interval() {
        let mut m = sample();
        let p = ScalingParams::fit(&m, -1.0, 1.0).unwrap();
        p.apply(&mut m).unwrap();
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(2, 1), 0.0);
        // constant feature maps to zero
        for r in 0..3 {
            assert_eq!(m.get(r, 2), 0.0);
        }
    }

    #[test]
    fn apply_to_unseen_data_can_exceed_interval() {
        let train = sample();
        let p = ScalingParams::fit(&train, 0.0, 1.0).unwrap();
        let mut test = DenseMatrix::from_rows(vec![vec![8.0, 10.0, 5.0]]).unwrap();
        p.apply(&mut test).unwrap();
        // 8 is outside the fitted [0,4] range → scaled value > 1 (LIBSVM
        // behaves the same way)
        assert_eq!(test.get(0, 0), 2.0);
    }

    #[test]
    fn rejects_empty_interval() {
        let m = sample();
        assert!(ScalingParams::fit(&m, 1.0, 1.0).is_err());
        assert!(ScalingParams::fit(&m, 2.0, -2.0).is_err());
    }

    #[test]
    fn rejects_feature_count_mismatch() {
        let m = sample();
        let p = ScalingParams::fit(&m, -1.0, 1.0).unwrap();
        let mut other = DenseMatrix::from_rows(vec![vec![1.0f64, 2.0]]).unwrap();
        assert!(p.apply(&mut other).is_err());
    }

    #[test]
    fn range_string_roundtrip() {
        let m = sample();
        let p = ScalingParams::fit(&m, -1.0, 1.0).unwrap();
        let s = p.to_range_string();
        let p2 = ScalingParams::<f64>::from_range_string(&s).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn range_file_roundtrip() {
        let m = sample();
        let p = ScalingParams::fit(&m, 0.0, 2.0).unwrap();
        let dir = crate::scratch::ScratchDir::new("scale");
        let path = dir.join("ranges.txt");
        p.save(&path).unwrap();
        let p2 = ScalingParams::<f64>::load(&path).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn malformed_range_files_rejected() {
        assert!(ScalingParams::<f64>::from_range_string("").is_err());
        assert!(ScalingParams::<f64>::from_range_string("y\n-1 1\n1 0 1\n").is_err());
        assert!(ScalingParams::<f64>::from_range_string("x\n-1\n1 0 1\n").is_err());
        assert!(ScalingParams::<f64>::from_range_string("x\n-1 1\n").is_err());
        assert!(ScalingParams::<f64>::from_range_string("x\n-1 1\n0 0 1\n").is_err());
        assert!(ScalingParams::<f64>::from_range_string("x\n1 1\n1 0 1\n").is_err());
        assert!(ScalingParams::<f64>::from_range_string("x\n-1 1\n1 zero 1\n").is_err());
    }

    #[test]
    fn sparse_range_file_fills_missing_features_as_constant() {
        // svm-scale omits constant features from the range file; on load
        // they become (0, 0) ranges, i.e. scaled to zero.
        let p = ScalingParams::<f64>::from_range_string("x\n-1 1\n1 0 4\n3 1 2\n").unwrap();
        assert_eq!(p.ranges.len(), 3);
        assert_eq!(p.ranges[1], (0.0, 0.0));
    }
}
