//! Randomized low-rank (Nyström) solver path.
//!
//! The exact CG solver pays `O(m²·d)` per implicit matvec. Following the
//! randomized kernel methods of Andrecut (PAPERS.md), this module builds a
//! rank-`k` Nyström approximation of the kernel block and solves the
//! reduced LS-SVM system through it in `O(m·k·d + m·k²)`:
//!
//! ```text
//! Q̃ = K + D + P·M·Pᵀ           (the exact decomposition, see below)
//! K ≈ K̂ = C·W⁻¹·Cᵀ             (Nyström: C = K[:,L] ∈ ℝ^{n×k}, W = K[L,L])
//! ```
//!
//! where `D = diag(ridge(i))` is the LS-SVM ridge, `P = [q | 1] ∈ ℝ^{n×2}`
//! and `M = [[0,−1],[−1,q_mm]]` carry the rank-two elimination terms of
//! Eq. 16 (this reproduces [`QTildeParams::apply_corrections`] exactly:
//! `P·M·Pᵀ = −q·1ᵀ − 1·qᵀ + q_mm·1·1ᵀ`). The approximate operator
//! `Â = D + K̂ + P·M·Pᵀ` is inverted **exactly** by two nested Woodbury
//! identities:
//!
//! 1. `A₁ = D + C·W⁻¹·Cᵀ` ⇒ `A₁⁻¹v = D⁻¹v − D⁻¹C·S⁻¹·CᵀD⁻¹v` with the
//!    SPD `k×k` capacitance `S = W + CᵀD⁻¹C`, factored once by Cholesky
//!    with an escalating jitter ladder (rank-deficient sketches — e.g.
//!    duplicate landmark rows — never panic, they get jitter),
//! 2. `Â = A₁ + P·M·Pᵀ` ⇒ a 2×2 capacitance `G = M⁻¹ + Pᵀ·A₁⁻¹·P` with
//!    `M⁻¹ = [[−q_mm,−1],[−1,0]]` (det M = −1), guarded by a determinant
//!    check.
//!
//! `C` and `W` are assembled through the same
//! [`crate::kernel::kernel_panel`] micro-kernels the CPU backends use; all
//! factorization linear algebra runs in f64 regardless of the working
//! precision `T`.
//!
//! **Escalation flow** (the pre-ladder in front of
//! [`crate::guard::solve_with_guardrails`]):
//!
//! 1. direct solve `x = Â⁻¹b`, verified against the **exact** operator;
//! 2. if the true relative residual misses ε, a
//!    [`RecoveryKind::Precondition`] event fires and a Nyström-
//!    preconditioned CG polish runs (exact matvecs, `Â⁻¹` as the
//!    preconditioner, started from the direct iterate);
//! 3. if that still misses ε, a [`RecoveryKind::SolverFallback`] event
//!    fires and the problem goes to the exact escalation ladder of
//!    [`crate::guard`] unchanged.
//!
//! Every low-rank solve streams one [`LowRankSample`] (rank, strategy,
//! jitter steps, direct residual, PCG iterations, assembly/solve wall
//! time) through the [`MetricsSink`](crate::trace::MetricsSink) channel.
//! Landmark selection is fully determined by the seed
//! ([`plssvm_data::sampling`]), so results are bit-reproducible across
//! thread counts.

use std::time::Instant;

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::sampling::{sample_uniform, sample_weighted};
use plssvm_data::Real;

use plssvm_simgpu::device::AtomicScalar;

use crate::backend::Prepared;
use crate::cg::{BreakdownKind, CgConfig, CgResult, LinOp, SolveOutcome};
use crate::error::SvmError;
use crate::guard::{solve_with_guardrails, GuardedRun, GuardedSolve};
use crate::kernel::{dot, kernel_panel, PANEL_MR, PANEL_NR};
use crate::matrix_free::QTildeParams;
use crate::trace::{
    emit, CgIterationSample, CgOutcomeSample, Event, LowRankSample, RecoveryKind, RecoverySample,
};

/// Default landmark-selection seed (the CLI's `--lowrank-seed` default).
pub const DEFAULT_SEED: u64 = 42;

/// How Nyström landmarks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LandmarkStrategy {
    /// `k` indices drawn uniformly without replacement.
    #[default]
    Uniform,
    /// Ridge leverage scores estimated from a uniform pilot sketch, then
    /// `k` indices drawn with probability proportional to their score
    /// (importance sampling — better landmarks on non-uniform data at
    /// twice the assembly cost).
    Leverage,
}

impl LandmarkStrategy {
    /// Stable lower-case name (`uniform` / `leverage`) used by the CLI and
    /// the telemetry schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            LandmarkStrategy::Uniform => "uniform",
            LandmarkStrategy::Leverage => "leverage",
        }
    }
}

impl std::str::FromStr for LandmarkStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(LandmarkStrategy::Uniform),
            "leverage" => Ok(LandmarkStrategy::Leverage),
            other => Err(format!(
                "unknown landmark strategy '{other}' (expected 'uniform' or 'leverage')"
            )),
        }
    }
}

/// The landmark draw of one low-rank solve: the fields of
/// [`SolverSelection::LowRank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkDraw {
    /// Target rank `k`.
    pub rank: usize,
    /// Landmark-selection seed.
    pub seed: u64,
    /// Landmark-selection strategy.
    pub strategy: LandmarkStrategy,
}

/// Which solver the training drivers run (the CLI's `--solver` switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverSelection {
    /// The exact CG solve through the escalation ladder (the paper's
    /// solver; the default).
    #[default]
    Exact,
    /// The randomized low-rank (Nyström) path of this module.
    LowRank {
        /// Target rank `k` (clamped to the reduced dimension `m − 1`;
        /// rank 0 is rejected with a structured error).
        rank: usize,
        /// Landmark-selection seed.
        seed: u64,
        /// Landmark-selection strategy.
        strategy: LandmarkStrategy,
    },
}

impl SolverSelection {
    /// A low-rank selection with the default seed and uniform landmarks.
    pub fn lowrank(rank: usize) -> Self {
        SolverSelection::LowRank {
            rank,
            seed: DEFAULT_SEED,
            strategy: LandmarkStrategy::Uniform,
        }
    }

    /// Stable lower-case solver name (`exact` / `lowrank`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSelection::Exact => "exact",
            SolverSelection::LowRank { .. } => "lowrank",
        }
    }

    /// The model-file provenance string (the `solver` header key; see
    /// [`plssvm_data::model::SvmModel::solver`]). `None` for the exact
    /// solver, so exactly-solved models stay byte-compatible with LIBSVM.
    /// Records the *requested* rank (clamping to the system dimension
    /// happens inside the solve).
    pub fn provenance(&self) -> Option<String> {
        match self {
            SolverSelection::Exact => None,
            SolverSelection::LowRank {
                rank,
                seed,
                strategy,
            } => Some(format!(
                "lowrank rank={rank} seed={seed} strategy={}",
                strategy.as_str()
            )),
        }
    }
}

/// Maximum jitter-ladder steps before a factorization is declared
/// unusable (τ then sits at `0.1·trace(S)/k`, far beyond any realistic
/// rounding deficiency).
const MAX_JITTER_STEPS: usize = 12;

/// Assembles the kernel block `out[i][j] = k(rows_a[i], rows_b[j])`
/// through the panel micro-kernel, upcast to f64 (row-major
/// `rows_a.len() × rows_b.len()`).
fn assemble_block<T: Real>(kernel: &KernelSpec<T>, rows_a: &[&[T]], rows_b: &[&[T]]) -> Vec<f64> {
    let (m, k) = (rows_a.len(), rows_b.len());
    let mut out = vec![0.0f64; m * k];
    if m == 0 || k == 0 {
        return out;
    }
    let isa = crate::simd::Isa::select();
    let mut i = 0;
    while i < m {
        let h = (m - i).min(PANEL_MR);
        let mut ra: [&[T]; PANEL_MR] = [rows_a[i]; PANEL_MR];
        for (a, slot) in ra.iter_mut().enumerate().take(h) {
            *slot = rows_a[i + a];
        }
        let mut j = 0;
        while j < k {
            let w = (k - j).min(PANEL_NR);
            let panel = kernel_panel(kernel, isa, &ra[..h], &rows_b[j..j + w]);
            for (a, prow) in panel.iter().enumerate().take(h) {
                for (bq, &val) in prow.iter().enumerate().take(w) {
                    out[(i + a) * k + (j + bq)] = val.to_f64();
                }
            }
            j += w;
        }
        i += h;
    }
    out
}

/// In-place lower Cholesky of the row-major `k×k` matrix. Fails (with the
/// offending pivot index) on a non-positive or non-finite pivot.
fn cholesky(a: &mut [f64], k: usize) -> Result<(), usize> {
    for i in 0..k {
        for j in 0..=i {
            let mut s = a[i * k + j];
            for p in 0..j {
                s -= a[i * k + p] * a[j * k + p];
            }
            if i == j {
                if !(s.is_finite() && s > 0.0) {
                    return Err(i);
                }
                a[i * k + i] = s.sqrt();
            } else {
                a[i * k + j] = s / a[j * k + j];
            }
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place given the lower factor `L`.
fn chol_solve(l: &[f64], k: usize, x: &mut [f64]) {
    for i in 0..k {
        let mut s = x[i];
        for j in 0..i {
            s -= l[i * k + j] * x[j];
        }
        x[i] = s / l[i * k + i];
    }
    for i in (0..k).rev() {
        let mut s = x[i];
        for j in i + 1..k {
            s -= l[j * k + i] * x[j];
        }
        x[i] = s / l[i * k + i];
    }
}

/// Cholesky with an escalating jitter ladder: attempt τ = 0 first, then
/// `τ = 10^step · 10⁻¹² · trace(S)/k` for `step = 0..MAX_JITTER_STEPS`.
/// Returns the factor and the number of jitter steps taken (0 = clean), or
/// `None` when even the largest jitter cannot make the matrix factorable
/// (non-finite entries).
fn cholesky_with_jitter(s: &[f64], k: usize) -> Option<(Vec<f64>, usize)> {
    let trace: f64 = (0..k).map(|i| s[i * k + i]).sum();
    let base = if trace.is_finite() && trace > 0.0 {
        trace / k as f64
    } else {
        1.0
    };
    for step in 0..=MAX_JITTER_STEPS {
        let mut a = s.to_vec();
        if step > 0 {
            let tau = base * 1e-12 * 10f64.powi(step as i32 - 1);
            for i in 0..k {
                a[i * k + i] += tau;
            }
        }
        if cholesky(&mut a, k).is_ok() {
            return Some((a, step));
        }
    }
    None
}

/// The factored Nyström approximation `Â = D + C·W⁻¹·Cᵀ + P·M·Pᵀ` of `Q̃`,
/// applied as `Â⁻¹·v` through the two nested Woodbury identities of the
/// module docs. All storage and arithmetic are f64.
struct NystromFactor {
    k: usize,
    /// `C = K[:,L]`, row-major `n×k`.
    c: Vec<f64>,
    /// `D⁻¹` (reciprocal ridge), length `n`.
    inv_d: Vec<f64>,
    /// Lower Cholesky factor of `S = W + τI + CᵀD⁻¹C`, row-major `k×k`.
    s_chol: Vec<f64>,
    /// Jitter steps the capacitance factorization needed (0 = clean).
    jitter_steps: usize,
    /// `q` in f64 (length `n`).
    q: Vec<f64>,
    /// `u₁ = A₁⁻¹·q`.
    u1: Vec<f64>,
    /// `u₂ = A₁⁻¹·1`.
    u2: Vec<f64>,
    /// `G = M⁻¹ + Pᵀ·A₁⁻¹·P`, row-major 2×2.
    g: [f64; 4],
    /// `det G`, with usability pre-checked against the matrix scale.
    g_det: f64,
    /// Whether the rank-two stage is applied (false on a degenerate `G`,
    /// leaving `Â⁻¹ ≈ A₁⁻¹` — still a serviceable preconditioner).
    rank2_usable: bool,
}

impl NystromFactor {
    /// Builds the factorization for the given landmark set. `None` when
    /// the capacitance is unfactorable even with maximal jitter.
    fn build<T: Real>(
        params: &QTildeParams<T>,
        data: &DenseMatrix<T>,
        kernel: &KernelSpec<T>,
        landmarks: &[usize],
    ) -> Option<Self> {
        let n = params.dim();
        let k = landmarks.len();
        let rows: Vec<&[T]> = (0..n).map(|i| data.row(i)).collect();
        let lm: Vec<&[T]> = landmarks.iter().map(|&j| data.row(j)).collect();
        let c = assemble_block(kernel, &rows, &lm);
        let mut s = assemble_block(kernel, &lm, &lm);
        let inv_d: Vec<f64> = (0..n).map(|i| 1.0 / params.ridge(i).to_f64()).collect();
        // S = W + CᵀD⁻¹C, accumulated as n rank-one updates over the
        // contiguous rows of C
        for i in 0..n {
            let row = &c[i * k..(i + 1) * k];
            let di = inv_d[i];
            for j1 in 0..k {
                let f = di * row[j1];
                let srow = &mut s[j1 * k..(j1 + 1) * k];
                for (sv, &cv) in srow.iter_mut().zip(row) {
                    *sv += f * cv;
                }
            }
        }
        let (s_chol, jitter_steps) = cholesky_with_jitter(&s, k)?;

        let q: Vec<f64> = params.q.iter().map(|v| v.to_f64()).collect();
        let mut partial = Self {
            k,
            c,
            inv_d,
            s_chol,
            jitter_steps,
            q,
            u1: Vec::new(),
            u2: Vec::new(),
            g: [0.0; 4],
            g_det: 0.0,
            rank2_usable: false,
        };
        let u1 = partial.apply_a1_inv(&partial.q);
        let u2 = partial.apply_a1_inv(&vec![1.0; n]);
        // G = M⁻¹ + PᵀA₁⁻¹P with M⁻¹ = [[−q_mm,−1],[−1,0]] (det M = −1)
        let q_mm = params.q_mm().to_f64();
        let g = [
            -q_mm + dot(&partial.q, &u1),
            -1.0 + dot(&partial.q, &u2),
            -1.0 + u1.iter().sum::<f64>(),
            u2.iter().sum::<f64>(),
        ];
        let g_det = g[0] * g[3] - g[1] * g[2];
        let scale = g.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        partial.u1 = u1;
        partial.u2 = u2;
        partial.g = g;
        partial.g_det = g_det;
        partial.rank2_usable = g_det.is_finite() && g_det.abs() > 1e-14 * scale * scale;
        Some(partial)
    }

    /// `A₁⁻¹·v = D⁻¹v − D⁻¹C·S⁻¹·CᵀD⁻¹v` (stage-one Woodbury).
    fn apply_a1_inv(&self, v: &[f64]) -> Vec<f64> {
        let k = self.k;
        let mut dv: Vec<f64> = v.iter().zip(&self.inv_d).map(|(a, b)| a * b).collect();
        let mut t = vec![0.0f64; k];
        for (i, &dvi) in dv.iter().enumerate() {
            let row = &self.c[i * k..(i + 1) * k];
            for (tj, &cij) in t.iter_mut().zip(row) {
                *tj += dvi * cij;
            }
        }
        chol_solve(&self.s_chol, k, &mut t);
        for (i, dvi) in dv.iter_mut().enumerate() {
            let row = &self.c[i * k..(i + 1) * k];
            *dvi -= self.inv_d[i] * dot(row, &t);
        }
        dv
    }

    /// `Â⁻¹·v` (both Woodbury stages).
    fn apply_inv(&self, v: &[f64]) -> Vec<f64> {
        let mut y = self.apply_a1_inv(v);
        if self.rank2_usable {
            let t1 = dot(&self.q, &y);
            let t2: f64 = y.iter().sum();
            let z1 = (self.g[3] * t1 - self.g[1] * t2) / self.g_det;
            let z2 = (-self.g[2] * t1 + self.g[0] * t2) / self.g_det;
            for ((yv, &u1v), &u2v) in y.iter_mut().zip(&self.u1).zip(&self.u2) {
                *yv -= u1v * z1 + u2v * z2;
            }
        }
        y
    }
}

/// Chooses `k` landmark indices from the `n` non-eliminated training
/// points, deterministically for a given seed.
fn select_landmarks<T: Real>(
    params: &QTildeParams<T>,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    k: usize,
    seed: u64,
    strategy: LandmarkStrategy,
) -> Vec<usize> {
    let n = params.dim();
    match strategy {
        LandmarkStrategy::Uniform => sample_uniform(n, k, seed),
        LandmarkStrategy::Leverage => {
            // Ridge leverage scores against a uniform pilot sketch of the
            // same size: ℓᵢ = K[i,P]·(K[P,P] + λI)⁻¹·K[i,P]ᵀ with λ the
            // mean ridge, then importance-sample proportional to ℓ.
            let pilot = sample_uniform(n, k, seed);
            let p = pilot.len();
            let rows: Vec<&[T]> = (0..n).map(|i| data.row(i)).collect();
            let lm: Vec<&[T]> = pilot.iter().map(|&j| data.row(j)).collect();
            let c = assemble_block(kernel, &rows, &lm);
            let mut w = assemble_block(kernel, &lm, &lm);
            let lambda = (0..n).map(|i| params.ridge(i).to_f64()).sum::<f64>() / (n.max(1) as f64);
            for j in 0..p {
                w[j * p + j] += lambda;
            }
            match cholesky_with_jitter(&w, p) {
                Some((l, _)) => {
                    let scores: Vec<f64> = (0..n)
                        .map(|i| {
                            let row = &c[i * p..(i + 1) * p];
                            let mut t = row.to_vec();
                            chol_solve(&l, p, &mut t);
                            dot(row, &t)
                        })
                        .collect();
                    sample_weighted(&scores, k, seed.wrapping_add(1))
                }
                // a pilot Gram that defeats even the jitter ladder carries
                // no usable leverage information — fall back to uniform
                None => sample_uniform(n, k, seed),
            }
        }
    }
}

/// Rounds `v` to the working precision, applies the exact operator, and
/// returns the result upcast to f64.
fn apply_exact<T: Real>(op: &dyn LinOp<T>, v64: &[f64]) -> Vec<f64> {
    let vt: Vec<T> = v64.iter().map(|&v| T::from_f64(v)).collect();
    let mut out = vec![T::ZERO; op.dim()];
    op.apply(&vt, &mut out);
    out.iter().map(|o| o.to_f64()).collect()
}

/// The exact residual `r = b − Q̃·x` (matvec in working precision,
/// subtraction in f64) and its norm.
fn exact_residual<T: Real>(op: &dyn LinOp<T>, b64: &[f64], x64: &[f64]) -> (Vec<f64>, f64) {
    let ax = apply_exact(op, x64);
    let r: Vec<f64> = b64.iter().zip(&ax).map(|(&bv, &av)| bv - av).collect();
    let norm = dot(&r, &r).sqrt();
    (r, norm)
}

/// Solves `Q̃·x = b` through the randomized low-rank path: Nyström direct
/// solve → Nyström-preconditioned CG polish → exact escalation ladder,
/// with every transition a recorded `recovery` event (see the module
/// docs). The returned [`GuardedSolve`] has the same shape as
/// [`solve_with_guardrails`], so callers destructure it identically;
/// `escalations` lists the low-rank transitions
/// ([`RecoveryKind::Precondition`], [`RecoveryKind::SolverFallback`])
/// before any rungs of the exact ladder.
///
/// `op` is the backend prepared for the training set: its exact `Q̃`
/// verifies and, when needed, polishes the approximate solve. `data` holds
/// the training points row-major with `op.params().dim() + 1` rows. A
/// `draw.rank` of 0 is rejected with [`SvmError::Solver`]; ranks above the
/// reduced dimension are clamped. `run` configures the exact ladder the
/// solve falls back to.
pub fn solve_lowrank<T: AtomicScalar>(
    op: &Prepared<T>,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    draw: LandmarkDraw,
    b: &[T],
    config: &CgConfig<T>,
    run: GuardedRun<'_, T>,
) -> Result<GuardedSolve<T>, SvmError> {
    let LandmarkDraw {
        rank,
        seed,
        strategy,
    } = draw;
    let params = op.params();
    let metrics = run.metrics;
    let n = params.dim();
    assert_eq!(b.len(), n, "right-hand side length must match the system");
    assert!(
        data.rows() == n + 1,
        "training data must hold all m = n + 1 points"
    );
    if rank == 0 {
        return Err(SvmError::Solver(
            "the low-rank solver needs a rank of at least 1 \
             (use the exact solver for a full-rank solve)"
                .into(),
        ));
    }
    let k = rank.min(n);
    let epsilon = config.epsilon.to_f64();
    let b64: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
    let norm_b = dot(&b64, &b64).sqrt();
    if norm_b == 0.0 {
        // b = 0 ⇒ x = 0 exactly; mirror the exact solver's trivial path
        emit(metrics, || {
            Event::CgOutcome(CgOutcomeSample {
                outcome: SolveOutcome::Converged.as_str(),
                iterations: 0,
                final_residual_norm: 0.0,
                relative_residual: 0.0,
            })
        });
        return Ok(GuardedSolve {
            result: CgResult {
                x: vec![T::ZERO; n],
                iterations: 0,
                initial_residual_norm: T::ZERO,
                residual_norm: T::ZERO,
                converged: true,
                outcome: SolveOutcome::Converged,
                drift_restarts: 0,
                checkpoint: None,
            },
            total_iterations: 0,
            escalations: Vec::new(),
        });
    }

    let t_assembly = Instant::now();
    let landmarks = select_landmarks(params, data, kernel, k, seed, strategy);
    let factor = NystromFactor::build(params, data, kernel, &landmarks);
    let assembly_wall = t_assembly.elapsed();

    let Some(factor) = factor else {
        // not factorable even at maximal jitter (non-finite kernel
        // entries): hand the problem to the exact ladder unchanged
        emit(metrics, || {
            Event::Recovery(RecoverySample::solver(
                RecoveryKind::SolverFallback,
                0,
                format!(
                    "rank-{k} Nyström capacitance unfactorable after {MAX_JITTER_STEPS} \
                     jitter steps: falling back to the exact solver ladder"
                ),
            ))
        });
        emit(metrics, || {
            Event::LowRank(LowRankSample {
                rank: k,
                strategy: strategy.as_str(),
                jitter_steps: MAX_JITTER_STEPS,
                direct_relative_residual: f64::INFINITY,
                pcg_iterations: 0,
                assembly_wall,
                solve_wall: std::time::Duration::ZERO,
            })
        });
        let guarded = solve_with_guardrails(op, b, config, run);
        let mut escalations = vec![RecoveryKind::SolverFallback];
        escalations.extend(guarded.escalations.iter().copied());
        return Ok(GuardedSolve {
            escalations,
            ..guarded
        });
    };

    let t_solve = Instant::now();
    let mut x = factor.apply_inv(&b64);
    let (mut r, mut rnorm) = exact_residual(op, &b64, &x);
    let direct_rel = rnorm / norm_b;

    let mut escalations = Vec::new();
    let mut pcg_iterations = 0usize;
    let mut converged = direct_rel <= epsilon;
    let mut pcg_outcome = SolveOutcome::Converged;

    if !converged {
        // The direct solve missed ε: engage Nyström-preconditioned CG,
        // starting from the direct iterate — Â⁻¹ is the preconditioner,
        // the matvec is the exact operator, and termination is on the
        // unpreconditioned ‖r‖ against ε·‖b‖.
        emit(metrics, || {
            Event::Recovery(RecoverySample::solver(
                RecoveryKind::Precondition,
                0,
                format!(
                    "rank-{k} direct Nyström solve reached relative residual \
                     {direct_rel:.3e} > {epsilon:.1e}: polishing with \
                     Nyström-preconditioned CG"
                ),
            ))
        });
        escalations.push(RecoveryKind::Precondition);
        emit(metrics, || Event::CgStart {
            dim: n,
            initial_residual_norm: rnorm,
        });
        let max_iterations = config.max_iterations.unwrap_or((2 * n).max(128));
        let refresh = config.residual_refresh_interval.max(1);
        pcg_outcome = SolveOutcome::IterationBudget;
        let mut z = factor.apply_inv(&r);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        for it in 1..=max_iterations {
            let t_iter = Instant::now();
            let ap = apply_exact(op, &p);
            let pap = dot(&p, &ap);
            if !pap.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            if pap <= 0.0 {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::Indefinite);
                break;
            }
            let alpha = rz / pap;
            for (xv, &pv) in x.iter_mut().zip(&p) {
                *xv += alpha * pv;
            }
            pcg_iterations = it;
            if it % refresh == 0 {
                (r, rnorm) = exact_residual(op, &b64, &x);
            } else {
                for (rv, &apv) in r.iter_mut().zip(&ap) {
                    *rv -= alpha * apv;
                }
                rnorm = dot(&r, &r).sqrt();
            }
            if !rnorm.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            if rnorm <= epsilon * norm_b {
                // trust only an exactly measured residual before claiming
                // convergence
                (r, rnorm) = exact_residual(op, &b64, &x);
                if rnorm <= epsilon * norm_b {
                    emit(metrics, || {
                        Event::CgIteration(CgIterationSample {
                            iteration: it,
                            residual_norm: rnorm,
                            alpha,
                            beta: 0.0,
                            matvec_wall: t_iter.elapsed(),
                        })
                    });
                    converged = true;
                    pcg_outcome = SolveOutcome::Converged;
                    break;
                }
            }
            z = factor.apply_inv(&r);
            let rz_new = dot(&r, &z);
            if !rz_new.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for (pv, &zv) in p.iter_mut().zip(&z) {
                *pv = zv + beta * *pv;
            }
            emit(metrics, || {
                Event::CgIteration(CgIterationSample {
                    iteration: it,
                    residual_norm: rnorm,
                    alpha,
                    beta,
                    matvec_wall: t_iter.elapsed(),
                })
            });
        }
    }
    let solve_wall = t_solve.elapsed();

    emit(metrics, || {
        Event::LowRank(LowRankSample {
            rank: k,
            strategy: strategy.as_str(),
            jitter_steps: factor.jitter_steps,
            direct_relative_residual: direct_rel,
            pcg_iterations,
            assembly_wall,
            solve_wall,
        })
    });

    if converged {
        emit(metrics, || {
            Event::CgOutcome(CgOutcomeSample {
                outcome: SolveOutcome::Converged.as_str(),
                iterations: pcg_iterations,
                final_residual_norm: rnorm,
                relative_residual: rnorm / norm_b,
            })
        });
        return Ok(GuardedSolve {
            result: CgResult {
                x: x.iter().map(|&v| T::from_f64(v)).collect(),
                iterations: pcg_iterations,
                initial_residual_norm: T::from_f64(norm_b),
                residual_norm: T::from_f64(rnorm),
                converged: true,
                outcome: SolveOutcome::Converged,
                drift_restarts: 0,
                checkpoint: None,
            },
            total_iterations: pcg_iterations,
            escalations,
        });
    }

    // The low-rank path is exhausted: record the transition and hand the
    // problem to the exact escalation ladder unchanged.
    emit(metrics, || {
        Event::Recovery(RecoverySample::solver(
            RecoveryKind::SolverFallback,
            pcg_iterations,
            format!(
                "Nyström-preconditioned CG ({pcg_outcome}) at relative residual \
                 {:.3e} after {pcg_iterations} iterations: falling back to the \
                 exact solver ladder",
                rnorm / norm_b
            ),
        ))
    });
    escalations.push(RecoveryKind::SolverFallback);
    let guarded = solve_with_guardrails(op, b, config, run);
    escalations.extend(guarded.escalations.iter().copied());
    Ok(GuardedSolve {
        result: guarded.result,
        total_iterations: pcg_iterations + guarded.total_iterations,
        escalations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendSelection, Prepared};
    use crate::trace::MetricsSink;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn fixture(points: usize, seed: u64) -> (DenseMatrix<f64>, Vec<f64>) {
        let d = generate_planes::<f64>(&PlanesConfig::new(points, 6, seed)).unwrap();
        (d.x, d.y)
    }

    fn prepared(data: &DenseMatrix<f64>, kernel: &KernelSpec<f64>, cost: f64) -> Prepared<f64> {
        Prepared::new(&BackendSelection::Serial, data, None, kernel, cost).unwrap()
    }

    fn solve(
        data: &DenseMatrix<f64>,
        y: &[f64],
        kernel: &KernelSpec<f64>,
        rank: usize,
        strategy: LandmarkStrategy,
        metrics: Option<&dyn MetricsSink>,
    ) -> Result<GuardedSolve<f64>, SvmError> {
        let op = prepared(data, kernel, 2.0);
        let rhs = crate::matrix_free::reduced_rhs(y);
        let draw = LandmarkDraw {
            rank,
            seed: DEFAULT_SEED,
            strategy,
        };
        let run = GuardedRun {
            metrics,
            ..GuardedRun::default()
        };
        solve_lowrank(
            &op,
            data,
            kernel,
            draw,
            &rhs,
            &CgConfig::with_epsilon(1e-8),
            run,
        )
    }

    #[test]
    fn full_rank_direct_solve_is_near_exact() {
        // rank = n ⇒ K̂ = K·K⁻¹·K = K for the strictly PD RBF Gram: the
        // direct Woodbury solve alone must meet a tight tolerance with no
        // escalation
        let (data, y) = fixture(40, 3);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let g = solve(&data, &y, &kernel, 39, LandmarkStrategy::Uniform, None).unwrap();
        assert!(g.result.converged);
        assert!(g.escalations.is_empty(), "{:?}", g.escalations);
        assert_eq!(g.total_iterations, 0);
    }

    #[test]
    fn low_rank_converges_via_pcg_with_recorded_transition() {
        let (data, y) = fixture(80, 7);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let t = crate::trace::Telemetry::new();
        let g = solve(&data, &y, &kernel, 8, LandmarkStrategy::Uniform, Some(&t)).unwrap();
        assert!(g.result.converged, "outcome: {:?}", g.result.outcome);
        assert!(g.escalations.contains(&RecoveryKind::Precondition));
        assert!(!g.escalations.contains(&RecoveryKind::SolverFallback));
        assert!(g.total_iterations > 0);
        let report = t.report();
        let sample = report.lowrank.expect("lowrank sample recorded");
        assert_eq!(sample.rank, 8);
        assert_eq!(sample.strategy, "uniform");
        assert_eq!(sample.pcg_iterations, g.total_iterations);
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::Precondition));

        // the claimed residual is real
        let op = prepared(&data, &kernel, 2.0);
        let rhs = crate::matrix_free::reduced_rhs(&y);
        let b64: Vec<f64> = rhs.clone();
        let (_, rnorm) = exact_residual(&op as &dyn LinOp<f64>, &b64, &g.result.x);
        let nb = dot(&b64, &b64).sqrt();
        assert!(rnorm / nb <= 1e-8, "true relative residual {}", rnorm / nb);
    }

    #[test]
    fn leverage_strategy_solves_and_differs_from_uniform_landmarks() {
        let (data, y) = fixture(60, 11);
        let kernel = KernelSpec::Rbf { gamma: 0.8 };
        let g = solve(&data, &y, &kernel, 12, LandmarkStrategy::Leverage, None).unwrap();
        assert!(g.result.converged);
        // the two strategies are distinct draws
        let op = prepared(&data, &kernel, 2.0);
        let uni = select_landmarks(
            op.params(),
            &data,
            &kernel,
            12,
            DEFAULT_SEED,
            LandmarkStrategy::Uniform,
        );
        let lev = select_landmarks(
            op.params(),
            &data,
            &kernel,
            12,
            DEFAULT_SEED,
            LandmarkStrategy::Leverage,
        );
        assert_eq!(uni.len(), 12);
        assert_eq!(lev.len(), 12);
        assert_ne!(uni, lev);
    }

    #[test]
    fn rank_zero_is_a_structured_error() {
        let (data, y) = fixture(20, 1);
        let kernel = KernelSpec::Linear;
        let err = solve(&data, &y, &kernel, 0, LandmarkStrategy::Uniform, None).unwrap_err();
        assert!(matches!(err, SvmError::Solver(_)));
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn oversized_rank_clamps_to_dimension() {
        let (data, y) = fixture(24, 9);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let t = crate::trace::Telemetry::new();
        let g = solve(
            &data,
            &y,
            &kernel,
            10_000,
            LandmarkStrategy::Uniform,
            Some(&t),
        )
        .unwrap();
        assert!(g.result.converged);
        assert_eq!(t.report().lowrank.unwrap().rank, 23);
    }

    #[test]
    fn duplicate_rows_never_panic_and_still_solve() {
        // every row duplicated: the landmark Gram is rank-deficient, so
        // the capacitance needs jitter — and must never panic
        let (base, ybase) = fixture(16, 5);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut y = Vec::new();
        for (i, yv) in ybase.iter().enumerate() {
            rows.push(base.row(i).to_vec());
            rows.push(base.row(i).to_vec());
            y.push(*yv);
            y.push(*yv);
        }
        let data = DenseMatrix::from_rows(rows).unwrap();
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let g = solve(&data, &y, &kernel, 31, LandmarkStrategy::Uniform, None).unwrap();
        assert!(g.result.converged, "outcome: {:?}", g.result.outcome);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let (data, y) = fixture(50, 13);
        let kernel = KernelSpec::Rbf { gamma: 0.4 };
        let a = solve(&data, &y, &kernel, 10, LandmarkStrategy::Uniform, None).unwrap();
        let b = solve(&data, &y, &kernel, 10, LandmarkStrategy::Uniform, None).unwrap();
        assert_eq!(a.result.x, b.result.x);
        assert_eq!(a.total_iterations, b.total_iterations);
    }

    #[test]
    fn strategy_and_selection_names() {
        assert_eq!(LandmarkStrategy::Uniform.as_str(), "uniform");
        assert_eq!(LandmarkStrategy::Leverage.as_str(), "leverage");
        assert_eq!("leverage".parse(), Ok(LandmarkStrategy::Leverage));
        assert!("nope".parse::<LandmarkStrategy>().is_err());
        assert_eq!(SolverSelection::Exact.name(), "exact");
        assert_eq!(SolverSelection::lowrank(8).name(), "lowrank");
        assert_eq!(
            SolverSelection::lowrank(8),
            SolverSelection::LowRank {
                rank: 8,
                seed: DEFAULT_SEED,
                strategy: LandmarkStrategy::Uniform
            }
        );
    }

    #[test]
    fn cholesky_jitter_ladder_handles_rank_deficiency() {
        // a singular PSD matrix factors only through jitter
        let s = vec![1.0, 1.0, 1.0, 1.0];
        let (l, steps) = cholesky_with_jitter(&s, 2).expect("jitter must rescue");
        assert!(steps > 0);
        assert!(l.iter().all(|v| v.is_finite()));
        // a matrix of NaNs is unfactorable at any jitter
        assert!(cholesky_with_jitter(&[f64::NAN; 4], 2).is_none());
    }
}
