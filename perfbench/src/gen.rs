//! Layer `loadgen`: the benchmark's own seeded input generator.
//!
//! The generators live here rather than in `plssvm-data` so that a change
//! to the program can never change the benchmark's inputs. Both follow the
//! paper's data: "planes" (two Gaussian clusters either side of a random
//! hyperplane, §IV-B) and SAT-6-like 28×28×4 image patches (§IV-D).
//! Train and held-out rows always come from one draw, split afterwards, so
//! both halves are samples of the same problem.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything
    /// these inputs could show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform(); // (0, 1]: ln never sees 0
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Dense labelled rows, row-major; labels are `1` / `-1`.
pub struct Rows {
    pub features: usize,
    pub x: Vec<f64>,
    pub y: Vec<i32>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.y.len()
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.features..(i + 1) * self.features]
    }

    fn select(&self, idx: &[usize]) -> Rows {
        let mut x = Vec::with_capacity(idx.len() * self.features);
        for &i in idx {
            x.extend_from_slice(self.row(i));
        }
        Rows {
            features: self.features,
            x,
            y: idx.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// One LIBSVM line (label first, every feature written, 1-based
    /// indices, shortest round-trip decimals), newline-terminated.
    pub fn libsvm_line(&self, i: usize) -> String {
        let mut line = String::with_capacity(self.features * 22);
        let _ = write!(line, "{}", self.y[i]);
        for (f, v) in self.row(i).iter().enumerate() {
            let _ = write!(line, " {}:{}", f + 1, v);
        }
        line.push('\n');
        line
    }

    /// Writes rows `range` as a LIBSVM file; returns the bytes written.
    pub fn write_libsvm(&self, path: &Path, range: std::ops::Range<usize>) -> std::io::Result<u64> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut bytes = 0u64;
        for i in range {
            let line = self.libsvm_line(i);
            bytes += line.len() as u64;
            out.write_all(line.as_bytes())?;
        }
        out.flush()?;
        Ok(bytes)
    }
}

/// The "planes" problem: class centroids at `±sep·w` for a random unit
/// normal `w`, unit Gaussian noise per feature, shuffled, then a
/// `flip` fraction of labels flipped.
pub fn planes(points: usize, features: usize, sep: f64, flip: f64, rng: &mut Rng) -> Rows {
    let mut w: Vec<f64> = (0..features).map(|_| rng.normal()).collect();
    let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
    w.iter_mut().for_each(|v| *v /= norm);
    let pos = points.div_ceil(2);
    let mut x = Vec::with_capacity(points * features);
    let mut y = Vec::with_capacity(points);
    for p in 0..points {
        let sign = if p < pos { 1.0 } else { -1.0 };
        x.extend(w.iter().map(|wf| sign * sep * wf + rng.normal()));
        y.push(sign as i32);
    }
    let mut order: Vec<usize> = (0..points).collect();
    rng.shuffle(&mut order);
    let mut rows = Rows { features, x, y }.select(&order);
    let flips = (points as f64 * flip).round() as usize;
    let mut idx: Vec<usize> = (0..points).collect();
    rng.shuffle(&mut idx);
    for &i in idx.iter().take(flips) {
        rows.y[i] = -rows.y[i];
    }
    rows
}

/// SAT-6-like patches: 28×28 pixels × 4 channels (RGB + infrared) =
/// 3136 features in `[0, 1]`. Natural patches (`1`) are smooth textures
/// with bright infrared; man-made ones (`-1`, SAT-6's 60 %) carry a sharp
/// rectangle and dark infrared. The classes differ nonlinearly, which is
/// why the paper trains this data with the RBF kernel.
pub fn sat6_like(points: usize, rng: &mut Rng) -> Rows {
    const S: usize = 28;
    const C: usize = 4;
    let features = S * S * C;
    let man_made = (points as f64 * 0.598).round() as usize;
    let mut x = Vec::with_capacity(points * features);
    let mut y = Vec::with_capacity(points);
    let mut patch = vec![0.0f64; features];
    for p in 0..points {
        let is_man_made = p < man_made;
        for ch in 0..C {
            let base = rng.range(0.25, 0.75);
            let fx = rng.range(0.5, 2.0) * std::f64::consts::PI / S as f64;
            let fy = rng.range(0.5, 2.0) * std::f64::consts::PI / S as f64;
            let tau = std::f64::consts::TAU;
            let (px, py) = (rng.range(0.0, tau), rng.range(0.0, tau));
            let amp = rng.range(0.05, 0.2);
            let ir = match (ch, is_man_made) {
                (3, true) => -0.25,
                (3, false) => 0.25,
                _ => 0.0,
            };
            for r in 0..S {
                for c in 0..S {
                    patch[ch * S * S + r * S + c] = base
                        + ir
                        + amp * ((fx * r as f64 + px).cos() + (fy * c as f64 + py).cos()) / 2.0;
                }
            }
        }
        if is_man_made {
            let w = S / 4 + rng.below(S / 4 + 1);
            let h = S / 4 + rng.below(S / 4 + 1);
            let (r0, c0) = (rng.below(S - h + 1), rng.below(S - w + 1));
            let level = if rng.uniform() < 0.5 {
                rng.range(0.8, 1.0)
            } else {
                rng.range(0.0, 0.2)
            };
            for ch in 0..3 {
                for r in r0..r0 + h {
                    for c in c0..c0 + w {
                        patch[ch * S * S + r * S + c] = level;
                    }
                }
            }
        }
        x.extend(
            patch
                .iter()
                .map(|v| (v + 0.08 * rng.normal()).clamp(0.0, 1.0)),
        );
        y.push(if is_man_made { -1 } else { 1 });
    }
    let mut order: Vec<usize> = (0..points).collect();
    rng.shuffle(&mut order);
    Rows { features, x, y }.select(&order)
}

/// Stratified split of one draw: `train` rows first, the rest held out.
/// Both classes keep their share in each half, so neither half can lose
/// a class on small draws.
pub fn split(all: &Rows, train: usize, rng: &mut Rng) -> Rows {
    let mut pos: Vec<usize> = (0..all.len()).filter(|&i| all.y[i] > 0).collect();
    let mut neg: Vec<usize> = (0..all.len()).filter(|&i| all.y[i] < 0).collect();
    rng.shuffle(&mut pos);
    rng.shuffle(&mut neg);
    let pos_train = (pos.len() * train + all.len() / 2) / all.len();
    let mut train_idx: Vec<usize> = pos[..pos_train].to_vec();
    train_idx.extend_from_slice(&neg[..train - pos_train]);
    let mut test_idx: Vec<usize> = pos[pos_train..].to_vec();
    test_idx.extend_from_slice(&neg[train - pos_train..]);
    rng.shuffle(&mut train_idx);
    rng.shuffle(&mut test_idx);
    train_idx.extend(test_idx);
    all.select(&train_idx)
}
