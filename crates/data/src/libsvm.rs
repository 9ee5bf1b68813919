//! Reading and writing the LIBSVM sparse text data format.
//!
//! Each line is `label idx:value idx:value …` with 1-based feature indices.
//! PLSSVM treats all data as dense: sparse input is densified by filling the
//! missing feature entries with zeros (§I, §III). This module reproduces
//! that behaviour.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::{DataError, MAX_FEATURE_INDEX};
use crate::real::Real;

/// 1-based byte column of `tok` within `line`.
///
/// `tok` must be a subslice of `line` (as produced by `split_ascii_whitespace`);
/// for a token from any other allocation the offset is meaningless, so this
/// falls back to column 1 instead of reporting garbage.
pub(crate) fn token_column(line: &str, tok: &str) -> usize {
    let line_start = line.as_ptr() as usize;
    let tok_start = tok.as_ptr() as usize;
    if tok_start >= line_start && tok_start + tok.len() <= line_start + line.len() {
        tok_start - line_start + 1
    } else {
        1
    }
}

/// A labeled, dense, binary-classification data set.
///
/// Labels are stored as ±1 scalars in `y`; the original file labels are
/// remembered in `label_map` so that model files and predictions can be
/// written with the user's labels (`label_map[0]` maps to `+1`,
/// `label_map[1]` to `-1`).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledData<T> {
    /// The feature matrix: one row per data point.
    pub x: DenseMatrix<T>,
    /// The ±1 class labels, one per data point.
    pub y: Vec<T>,
    /// Original labels: `label_map[0]` ↦ `+1`, `label_map[1]` ↦ `-1`.
    pub label_map: [i32; 2],
}

impl<T: Real> LabeledData<T> {
    /// Builds a data set from a matrix and ±1 labels.
    pub fn new(x: DenseMatrix<T>, y: Vec<T>) -> Result<Self, DataError> {
        Self::with_label_map(x, y, [1, -1])
    }

    /// Builds a data set with an explicit original-label mapping.
    pub fn with_label_map(
        x: DenseMatrix<T>,
        y: Vec<T>,
        label_map: [i32; 2],
    ) -> Result<Self, DataError> {
        if x.rows() != y.len() {
            return Err(DataError::Invalid(format!(
                "{} data points but {} labels",
                x.rows(),
                y.len()
            )));
        }
        if let Some(bad) = y.iter().find(|v| v.to_f64() != 1.0 && v.to_f64() != -1.0) {
            return Err(DataError::Invalid(format!(
                "labels must be +1 or -1, got {bad}"
            )));
        }
        if label_map[0] == label_map[1] {
            return Err(DataError::Invalid(
                "label map must contain two distinct labels".into(),
            ));
        }
        Ok(Self { x, y, label_map })
    }

    /// Number of data points `m`.
    pub fn points(&self) -> usize {
        self.x.rows()
    }

    /// Number of features `d`.
    pub fn features(&self) -> usize {
        self.x.cols()
    }

    /// Counts of (+1, -1) labeled points.
    pub fn class_counts(&self) -> (usize, usize) {
        let pos = self.y.iter().filter(|v| v.to_f64() > 0.0).count();
        (pos, self.y.len() - pos)
    }

    /// Maps a ±1 prediction back to the original file label.
    pub fn original_label(&self, sign: T) -> i32 {
        if sign.to_f64() >= 0.0 {
            self.label_map[0]
        } else {
            self.label_map[1]
        }
    }
}

/// A regression data set: features plus real-valued targets (the §V
/// "regression tasks" extension).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionData<T> {
    /// The feature matrix: one row per data point.
    pub x: DenseMatrix<T>,
    /// Real-valued targets, one per data point.
    pub y: Vec<T>,
}

impl<T: Real> RegressionData<T> {
    /// Builds a regression set, validating dimensions.
    pub fn new(x: DenseMatrix<T>, y: Vec<T>) -> Result<Self, DataError> {
        if x.rows() != y.len() {
            return Err(DataError::Invalid(format!(
                "{} data points but {} targets",
                x.rows(),
                y.len()
            )));
        }
        if let Some(bad) = y.iter().find(|v| !v.is_finite()) {
            return Err(DataError::Invalid(format!("non-finite target {bad}")));
        }
        Ok(Self { x, y })
    }

    /// Number of data points.
    pub fn points(&self) -> usize {
        self.x.rows()
    }

    /// Number of features.
    pub fn features(&self) -> usize {
        self.x.cols()
    }
}

/// Parses LIBSVM-format content with *real-valued* labels (regression).
pub fn read_libsvm_regression_str<T: Real>(
    content: &str,
    num_features: Option<usize>,
) -> Result<RegressionData<T>, DataError> {
    let mut rows: Vec<(T, Vec<(usize, T)>)> = Vec::new();
    let mut max_index = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_ascii_whitespace();
        let target_tok = tokens
            .next()
            .ok_or_else(|| DataError::parse(lineno, "missing target value"))?;
        let target: T = target_tok
            .parse()
            .map_err(|_| DataError::parse(lineno, format!("invalid target '{target_tok}'")))?;
        let mut entries = Vec::new();
        for tok in tokens {
            let col = token_column(line, tok);
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| {
                DataError::parse_at(lineno, col, format!("expected 'index:value', got '{tok}'"))
            })?;
            let idx: usize = idx_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid index '{idx_s}'"))
            })?;
            if idx == 0 {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    "feature indices are 1-based",
                ));
            }
            if idx > MAX_FEATURE_INDEX {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    format!(
                        "feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                    ),
                ));
            }
            let val: T = val_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid value '{val_s}'"))
            })?;
            max_index = max_index.max(idx);
            entries.push((idx - 1, val));
        }
        rows.push((target, entries));
    }
    if rows.is_empty() {
        return Err(DataError::Invalid(
            "data file contains no data points".into(),
        ));
    }
    let features = match num_features {
        Some(n) if n >= max_index => n,
        Some(n) => {
            return Err(DataError::Invalid(format!(
                "requested {n} features but data contains index {max_index}"
            )))
        }
        None => max_index,
    };
    if features == 0 {
        return Err(DataError::Invalid(
            "data file contains no feature entries".into(),
        ));
    }
    let mut x = DenseMatrix::zeros(rows.len(), features);
    let mut y = Vec::with_capacity(rows.len());
    for (p, (target, entries)) in rows.into_iter().enumerate() {
        y.push(target);
        let row = x.row_mut(p);
        for (idx, val) in entries {
            row[idx] = val;
        }
    }
    RegressionData::new(x, y)
}

/// Reads a regression file from disk. See [`read_libsvm_regression_str`].
pub fn read_libsvm_regression_file<T: Real>(
    path: impl AsRef<Path>,
    num_features: Option<usize>,
) -> Result<RegressionData<T>, DataError> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
    read_libsvm_regression_str(&content, num_features)
}

/// Serializes a regression data set (targets as labels).
pub fn write_libsvm_regression_string<T: Real>(data: &RegressionData<T>, sparse: bool) -> String {
    let mut out = String::new();
    for (p, row) in data.x.rows_iter().enumerate() {
        out.push_str(&format!("{}", FmtReal(data.y[p])));
        for (f, &v) in row.iter().enumerate() {
            if sparse && v.to_f64() == 0.0 {
                continue;
            }
            out.push_str(&format!(" {}:{}", f + 1, FmtReal(v)));
        }
        out.push('\n');
    }
    out
}

/// Parses LIBSVM-format content from a string.
///
/// ```
/// use plssvm_data::libsvm::read_libsvm_str;
///
/// let data = read_libsvm_str::<f64>("1 1:0.5 3:1\n-1 2:2\n", None)?;
/// assert_eq!(data.points(), 2);
/// assert_eq!(data.features(), 3);
/// assert_eq!(data.x.row(0), &[0.5, 0.0, 1.0]); // sparse → densified
/// # Ok::<(), plssvm_data::DataError>(())
/// ```
///
/// `num_features` forces the feature count (dimensions beyond the largest
/// index seen are zero filled); pass `None` to infer it from the data. At
/// most two distinct labels may occur; the first label encountered maps to
/// `+1` and the second to `-1` (LIBSVM order-of-appearance semantics).
pub fn read_libsvm_str<T: Real>(
    content: &str,
    num_features: Option<usize>,
) -> Result<LabeledData<T>, DataError> {
    parse_lines(content.lines().map(|l| Ok(l.to_owned())), num_features)
}

/// Reads a LIBSVM-format file from disk. See [`read_libsvm_str`].
pub fn read_libsvm_file<T: Real>(
    path: impl AsRef<Path>,
    num_features: Option<usize>,
) -> Result<LabeledData<T>, DataError> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| DataError::io_path(path, e))?;
    parse_lines(BufReader::new(file).lines(), num_features).map_err(|e| e.with_path(path))
}

fn parse_lines<T: Real>(
    lines: impl Iterator<Item = std::io::Result<String>>,
    num_features: Option<usize>,
) -> Result<LabeledData<T>, DataError> {
    // (label, sparse entries) per point; indices already 0-based.
    let mut rows: Vec<(i32, Vec<(usize, T)>)> = Vec::new();
    let mut max_index = 0usize; // exclusive upper bound of seen indices

    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_ascii_whitespace();
        let label_tok = tokens
            .next()
            .ok_or_else(|| DataError::parse(lineno, "missing label"))?;
        let label = parse_label(label_tok)
            .ok_or_else(|| DataError::parse(lineno, format!("invalid label '{label_tok}'")))?;

        let mut entries = Vec::new();
        let mut last_index: Option<usize> = None;
        for tok in tokens {
            let col = token_column(line, tok);
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| {
                DataError::parse_at(lineno, col, format!("expected 'index:value', got '{tok}'"))
            })?;
            let idx: usize = idx_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid feature index '{idx_s}'"))
            })?;
            if idx == 0 {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    "feature indices are 1-based; index 0 is invalid",
                ));
            }
            if idx > MAX_FEATURE_INDEX {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    format!(
                        "feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                    ),
                ));
            }
            let val: T = val_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid value '{val_s}'"))
            })?;
            if let Some(prev) = last_index {
                if idx - 1 <= prev {
                    return Err(DataError::parse_at(
                        lineno,
                        col,
                        format!("feature indices must be strictly increasing (index {idx})"),
                    ));
                }
            }
            last_index = Some(idx - 1);
            max_index = max_index.max(idx);
            entries.push((idx - 1, val));
        }
        rows.push((label, entries));
    }

    if rows.is_empty() {
        return Err(DataError::Invalid(
            "data file contains no data points".into(),
        ));
    }
    let features = match num_features {
        Some(n) => {
            if n < max_index {
                return Err(DataError::Invalid(format!(
                    "requested {n} features but data contains index {max_index}"
                )));
            }
            n
        }
        None => max_index,
    };
    if features == 0 {
        return Err(DataError::Invalid(
            "data file contains no feature entries".into(),
        ));
    }

    // Order-of-appearance label mapping: first distinct label → +1.
    let first = rows[0].0;
    let mut second: Option<i32> = None;
    for &(label, _) in &rows {
        if label != first {
            match second {
                None => second = Some(label),
                Some(s) if s == label => {}
                Some(s) => {
                    return Err(DataError::Invalid(format!(
                        "binary classification supports exactly two labels, found {first}, {s} and {label}"
                    )))
                }
            }
        }
    }
    // A single-class file is accepted for prediction inputs; map -1 to the
    // complement so the map stays well-formed.
    let second = second.unwrap_or(if first == 1 { -1 } else { 1 });

    let mut x = DenseMatrix::zeros(rows.len(), features);
    let mut y = Vec::with_capacity(rows.len());
    for (p, (label, entries)) in rows.into_iter().enumerate() {
        y.push(if label == first { T::ONE } else { -T::ONE });
        let row = x.row_mut(p);
        for (idx, val) in entries {
            row[idx] = val;
        }
    }
    LabeledData::with_label_map(x, y, [first, second])
}

fn parse_label(tok: &str) -> Option<i32> {
    // LIBSVM labels are numeric but may be written as "+1", "-1.0", "2" …
    let v: f64 = tok.parse().ok()?;
    if !v.is_finite() || v.fract() != 0.0 || v.abs() > i32::MAX as f64 {
        return None;
    }
    Some(v as i32)
}

/// Serializes a data set into LIBSVM format.
///
/// With `sparse == true` zero entries are omitted (standard LIBSVM files);
/// otherwise every feature is written (dense-LIBSVM style).
pub fn write_libsvm_string<T: Real>(data: &LabeledData<T>, sparse: bool) -> String {
    let mut out = String::new();
    for (p, row) in data.x.rows_iter().enumerate() {
        let label = data.original_label(data.y[p]);
        out.push_str(&label.to_string());
        for (f, &v) in row.iter().enumerate() {
            if sparse && v.to_f64() == 0.0 {
                continue;
            }
            out.push_str(&format!(" {}:{}", f + 1, FmtReal(v)));
        }
        out.push('\n');
    }
    out
}

/// Writes a data set to a LIBSVM-format file atomically and durably (the
/// same temp-file + fsync + rename discipline as every other artifact
/// writer). See [`write_libsvm_string`].
pub fn write_libsvm_file<T: Real>(
    path: impl AsRef<Path>,
    data: &LabeledData<T>,
    sparse: bool,
) -> Result<(), DataError> {
    crate::io::write_atomic(path, write_libsvm_string(data, sparse).as_bytes())
}

/// Formats a real so that it round-trips exactly through `parse` while
/// staying human readable for integral values.
pub(crate) struct FmtReal<T>(pub T);

impl<T: Real> std::fmt::Display for FmtReal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0.to_f64();
        if v == v.trunc() && v.abs() < 1e15 {
            write!(f, "{v}")
        } else {
            // Shortest exact representation: `{}` on f64 is already minimal
            // round-trip in Rust.
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1 1:0.5 3:-1.25
-1 2:2
1 1:1 2:1 3:1
-1
";

    #[test]
    fn parses_sparse_to_dense() {
        let d: LabeledData<f64> = read_libsvm_str(SAMPLE, None).unwrap();
        assert_eq!(d.points(), 4);
        assert_eq!(d.features(), 3);
        assert_eq!(d.x.row(0), &[0.5, 0.0, -1.25]);
        assert_eq!(d.x.row(1), &[0.0, 2.0, 0.0]);
        assert_eq!(d.x.row(3), &[0.0, 0.0, 0.0]);
        assert_eq!(d.y, vec![1.0, -1.0, 1.0, -1.0]);
        assert_eq!(d.label_map, [1, -1]);
    }

    #[test]
    fn parses_explicit_plus_labels_and_scientific_values() {
        // LIBSVM tools commonly write "+1" labels and exponent values
        let d: LabeledData<f64> = read_libsvm_str("+1 1:1.5e-3 2:-2E+1\n-1 1:1e0\n", None).unwrap();
        assert_eq!(d.label_map, [1, -1]);
        assert_eq!(d.y, vec![1.0, -1.0]);
        assert_eq!(d.x.get(0, 0), 1.5e-3);
        assert_eq!(d.x.get(0, 1), -20.0);
        assert_eq!(d.x.get(1, 0), 1.0);
    }

    #[test]
    fn first_label_maps_to_plus_one() {
        let d: LabeledData<f64> = read_libsvm_str("3 1:1\n7 1:2\n3 1:0.5\n", None).unwrap();
        assert_eq!(d.label_map, [3, 7]);
        assert_eq!(d.y, vec![1.0, -1.0, 1.0]);
        assert_eq!(d.original_label(1.0), 3);
        assert_eq!(d.original_label(-1.0), 7);
    }

    #[test]
    fn forced_feature_count_pads() {
        let d: LabeledData<f64> = read_libsvm_str("1 1:1\n-1 2:1\n", Some(5)).unwrap();
        assert_eq!(d.features(), 5);
        assert_eq!(d.x.row(0), &[1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn forced_feature_count_too_small_errors() {
        let e = read_libsvm_str::<f64>("1 1:1 4:1\n", Some(2)).unwrap_err();
        assert!(e.to_string().contains("index 4"));
    }

    #[test]
    fn rejects_three_classes() {
        let e = read_libsvm_str::<f64>("1 1:1\n2 1:1\n3 1:1\n", None).unwrap_err();
        assert!(e.to_string().contains("two labels"));
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(read_libsvm_str::<f64>("x 1:1\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1 1\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1 0:1\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1 a:1\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1 1:z\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1.5 1:1\n", None).is_err());
    }

    #[test]
    fn rejects_non_increasing_indices() {
        assert!(read_libsvm_str::<f64>("1 2:1 2:2\n", None).is_err());
        assert!(read_libsvm_str::<f64>("1 3:1 2:2\n", None).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_libsvm_str::<f64>("", None).is_err());
        assert!(read_libsvm_str::<f64>("# only a comment\n\n", None).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let d: LabeledData<f64> =
            read_libsvm_str("# header\n\n1 1:1\n\n-1 1:2\n# trailer\n", None).unwrap();
        assert_eq!(d.points(), 2);
    }

    #[test]
    fn single_class_file_is_allowed() {
        let d: LabeledData<f64> = read_libsvm_str("1 1:1\n1 1:2\n", None).unwrap();
        assert_eq!(d.class_counts(), (2, 0));
        assert_eq!(d.label_map, [1, -1]);
        let d: LabeledData<f64> = read_libsvm_str("5 1:1\n", None).unwrap();
        assert_eq!(d.label_map, [5, 1]);
    }

    #[test]
    fn roundtrip_sparse_and_dense() {
        let d: LabeledData<f64> = read_libsvm_str(SAMPLE, None).unwrap();
        for sparse in [true, false] {
            let s = write_libsvm_string(&d, sparse);
            let d2: LabeledData<f64> = read_libsvm_str(&s, Some(d.features())).unwrap();
            assert_eq!(d.x, d2.x);
            assert_eq!(d.y, d2.y);
            assert_eq!(d.label_map, d2.label_map);
        }
    }

    #[test]
    fn file_roundtrip() {
        let d: LabeledData<f64> = read_libsvm_str(SAMPLE, None).unwrap();
        let dir = crate::scratch::ScratchDir::new("libsvm");
        let path = dir.join("roundtrip.libsvm");
        write_libsvm_file(&path, &d, true).unwrap();
        let d2: LabeledData<f64> = read_libsvm_file(&path, Some(3)).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn fractional_values_roundtrip_exactly() {
        let v = 0.123_456_789_012_345_68_f64; // not exactly representable
        let content = format!("1 1:{v}\n-1 1:1\n");
        let d: LabeledData<f64> = read_libsvm_str(&content, None).unwrap();
        let s = write_libsvm_string(&d, true);
        let d2: LabeledData<f64> = read_libsvm_str(&s, None).unwrap();
        assert_eq!(d.x.get(0, 0), d2.x.get(0, 0));
    }

    #[test]
    fn regression_roundtrip() {
        let content = "0.5 1:1 2:2\n-1.75 2:3\n3.25\n";
        let d: RegressionData<f64> = read_libsvm_regression_str(content, None).unwrap();
        assert_eq!(d.points(), 3);
        assert_eq!(d.features(), 2);
        assert_eq!(d.y, vec![0.5, -1.75, 3.25]);
        assert_eq!(d.x.row(1), &[0.0, 3.0]);
        let s = write_libsvm_regression_string(&d, true);
        let d2: RegressionData<f64> = read_libsvm_regression_str(&s, Some(2)).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn regression_rejects_bad_input() {
        assert!(read_libsvm_regression_str::<f64>("", None).is_err());
        assert!(read_libsvm_regression_str::<f64>("abc 1:1\n", None).is_err());
        assert!(read_libsvm_regression_str::<f64>("1.0 0:1\n", None).is_err());
        assert!(read_libsvm_regression_str::<f64>("1.0 1:x\n", None).is_err());
        assert!(read_libsvm_regression_str::<f64>("1.0 3:1\n", Some(2)).is_err());
        let x = DenseMatrix::from_rows(vec![vec![1.0f64]]).unwrap();
        assert!(RegressionData::new(x.clone(), vec![]).is_err());
        assert!(RegressionData::new(x, vec![f64::NAN]).is_err());
    }

    #[test]
    fn mismatched_label_count_rejected() {
        let x = DenseMatrix::from_rows(vec![vec![1.0f64]]).unwrap();
        assert!(LabeledData::new(x.clone(), vec![]).is_err());
        assert!(LabeledData::new(x.clone(), vec![0.5]).is_err());
        assert!(LabeledData::with_label_map(x, vec![1.0], [2, 2]).is_err());
    }
}
