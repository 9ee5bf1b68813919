//! Solver guardrails: the automatic escalation ladder.
//!
//! [`crate::cg`] classifies *why* a solve stopped ([`SolveOutcome`]); this
//! module decides *what to do about it*. When a solve comes back
//! non-converged, [`solve_with_guardrails`] walks an escalation ladder
//! driven by a [`RecoveryPolicy`]:
//!
//! 1. **Restart** — re-derive the exact residual `b − A·x` at the current
//!    iterate and restart the recurrence from it (stalls are often caused
//!    by accumulated recurrence drift, which a restart cancels for free).
//! 2. **Precondition** — enable the Jacobi preconditioner (diagonal
//!    scaling), restarting from the current iterate.
//! 3. **Precision escalation** — for working precisions narrower than
//!    f64 (`T::BYTES < 8`), wrap the backend in an f64
//!    iterative-refinement outer loop: the iterate and the residual
//!    accumulation live in f64, while every heavy matvec still runs
//!    through the original working-precision backend (the paper's >92 %
//!    of runtime stays in the fast precision).
//!
//! Each rung fires a `recovery` telemetry event
//! ([`RecoveryKind::Restart`] / [`RecoveryKind::Precondition`] /
//! [`RecoveryKind::PrecisionEscalation`]), so a training run either
//! succeeds untouched, degrades with a recorded reason, or fails with a
//! classified outcome — never silently.
//!
//! The ladder only engages on non-convergence: a solve that converges on
//! the first attempt takes exactly the same code path (and performs
//! bit-identical arithmetic) as it did before guardrails existed.
//!
//! The randomized low-rank solver ([`crate::lowrank`]) sits *in front of*
//! this ladder as an optional pre-ladder: Nyström direct solve →
//! [`RecoveryKind::Precondition`] → Nyström-preconditioned CG →
//! [`RecoveryKind::SolverFallback`] → this exact ladder, started fresh.
//! Its transitions are prepended to [`GuardedSolve::escalations`], so the
//! full recovery history reads in chronological order regardless of which
//! solver the run started on.

use plssvm_data::Real;

use crate::cg::{
    conjugate_gradients_with, BreakdownKind, CgConfig, CgResult, CgRun, CgState,
    CheckpointSink as CgCheckpointSink, LinOp, SolveOutcome,
};
use crate::kernel::dot;
use crate::trace::{emit, CgOutcomeSample, Event, MetricsSink, RecoveryKind, RecoverySample};

/// Stable rung identifiers persisted inside durable checkpoint snapshots,
/// so a resumed run re-enters the escalation ladder at the rung that was
/// active when the process died instead of redoing earlier rungs.
pub mod rungs {
    /// The first, unescalated solve.
    pub const PRIMARY: u8 = 0;
    /// Rung 1: restart from the exact residual.
    pub const RESTART: u8 = 1;
    /// Rung 2: Jacobi-preconditioned restart.
    pub const JACOBI: u8 = 2;
    /// Rung 3: f64 iterative refinement.
    pub const REFINEMENT: u8 = 3;
}

/// A checkpoint destination that records which escalation rung each
/// snapshot belongs to. The durable journal implements this; the ladder
/// wraps it into a per-rung [`CgCheckpointSink`] for the inner solves.
pub trait RungCheckpointSink<T: Real>: Sync {
    /// Persists one snapshot taken while `rung` was active.
    fn persist(&self, rung: u8, state: &CgState<T>);
}

/// Adapts a [`RungCheckpointSink`] to the rung-unaware hook of
/// [`crate::cg`], pinning the rung the surrounding ladder step is on.
struct RungAdapter<'a, T: Real> {
    inner: &'a dyn RungCheckpointSink<T>,
    rung: u8,
}

impl<T: Real> CgCheckpointSink<T> for RungAdapter<'_, T> {
    fn persist(&self, state: &CgState<T>) {
        self.inner.persist(self.rung, state);
    }
}

/// A recovered checkpoint: the saved CG state plus the escalation rung it
/// was taken on.
#[derive(Debug, Clone)]
pub struct ResumePoint<T> {
    /// Which rung was active when the snapshot was written (see [`rungs`]).
    pub rung: u8,
    /// The saved solver state.
    pub state: CgState<T>,
}

/// Which rungs of the escalation ladder may engage, and how hard the
/// precision-escalation rung tries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Rung 1: restart from the current iterate with the exact residual.
    pub restart: bool,
    /// Rung 2: enable the Jacobi preconditioner (when a diagonal is
    /// available and strictly positive).
    pub jacobi: bool,
    /// Rung 3: escalate `T::BYTES < 8` solves to an f64
    /// iterative-refinement outer loop over the working-precision backend.
    pub precision_escalation: bool,
    /// Maximum outer refinement corrections before giving up with
    /// [`SolveOutcome::IterationBudget`].
    pub refinement_max_outer: usize,
    /// Relative tolerance of each inner working-precision correction
    /// solve. Loose on purpose: refinement converges as long as each
    /// correction gains ~`1/refinement_inner_epsilon` digits.
    pub refinement_inner_epsilon: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            restart: true,
            jacobi: true,
            precision_escalation: true,
            refinement_max_outer: 12,
            refinement_inner_epsilon: 1e-2,
        }
    }
}

impl RecoveryPolicy {
    /// No rung ever engages: the first attempt's classified outcome is
    /// returned as-is. (This is *not* the default — it exists for callers
    /// that want classification without recovery.)
    pub fn disabled() -> Self {
        Self {
            restart: false,
            jacobi: false,
            precision_escalation: false,
            ..Self::default()
        }
    }
}

/// How the escalation ladder can obtain a Jacobi diagonal.
pub enum JacobiDiagonal<'a, T> {
    /// The initial solve already uses this diagonal (the caller enabled
    /// Jacobi preconditioning up front) — rung 2 is a no-op.
    Immediate(&'a [T]),
    /// Computable on demand; only evaluated if rung 2 actually engages,
    /// so the happy path never pays for it.
    Lazy(&'a dyn Fn() -> Vec<T>),
    /// No diagonal available — rung 2 is skipped.
    Unavailable,
}

/// The outcome of a guarded solve: the final [`CgResult`] plus what the
/// ladder had to do to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedSolve<T> {
    /// The final solve result (of the last rung that ran).
    pub result: CgResult<T>,
    /// Matvec-bearing iterations summed across all rungs (the number the
    /// caller should report as "CG iterations").
    pub total_iterations: usize,
    /// The rungs that engaged, in order. Empty on the happy path.
    pub escalations: Vec<RecoveryKind>,
}

impl<T: Real> GuardedSolve<T> {
    /// The final classified outcome.
    pub fn outcome(&self) -> SolveOutcome {
        self.result.outcome
    }
}

/// The current iterate, or zeros if any component is non-finite (after a
/// NaN/Inf breakdown the iterate cannot seed a restart).
fn sanitized<T: Real>(x: &[T]) -> Vec<T> {
    if x.iter().all(|v| v.is_finite()) {
        x.to_vec()
    } else {
        vec![T::ZERO; x.len()]
    }
}

/// `‖b − A·x‖` with the matvec in working precision and the accumulation
/// in f64 (one extra matvec; only used on the failure path).
fn true_residual_norm<T: Real>(op: &dyn LinOp<T>, b: &[T], x: &[T]) -> f64 {
    let mut out = vec![T::ZERO; op.dim()];
    op.apply(x, &mut out);
    b.iter()
        .zip(&out)
        .map(|(&bv, &ov)| {
            let d = bv.to_f64() - ov.to_f64();
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Everything a guarded solve takes besides the system and the CG
/// configuration, passed to [`solve_with_guardrails`].
/// `GuardedRun::default()` engages the default [`RecoveryPolicy`] with no
/// diagonal, no telemetry and no checkpointing.
pub struct GuardedRun<'a, T> {
    /// Which escalation rungs may engage.
    pub policy: RecoveryPolicy,
    /// Where rung 2 gets its Jacobi diagonal from;
    /// [`JacobiDiagonal::Immediate`] preconditions the first attempt too.
    pub jacobi: JacobiDiagonal<'a, T>,
    /// Telemetry sink for every inner solve, the recovery events and the
    /// consolidated [`CgOutcomeSample`].
    pub metrics: Option<&'a dyn MetricsSink>,
    /// Receives every periodic [`CgState`] snapshot the inner solves
    /// produce, tagged with the escalation rung that was active — so a
    /// crash-recovery journal can restore not just the iterate but the
    /// ladder position.
    pub sink: Option<&'a dyn RungCheckpointSink<T>>,
    /// A previously persisted snapshot: rungs *below* `resume.rung` are
    /// skipped entirely (they already ran before the crash) and the
    /// matching rung continues from the saved state instead of
    /// restarting, which keeps an interrupted rung-0 solve bit-exact with
    /// an uninterrupted one.
    pub resume: Option<&'a ResumePoint<T>>,
}

impl<T> Default for GuardedRun<'_, T> {
    fn default() -> Self {
        Self {
            policy: RecoveryPolicy::default(),
            jacobi: JacobiDiagonal::Unavailable,
            metrics: None,
            sink: None,
            resume: None,
        }
    }
}

/// Solves `A·x = b`, escalating through the recovery ladder on
/// non-convergence.
///
/// The first attempt is exactly [`crate::cg::conjugate_gradients_with`]
/// with `run.metrics` (and the diagonal when `run.jacobi` is
/// [`JacobiDiagonal::Immediate`]) — bit-identical to an unguarded solve.
/// Only when that attempt comes back non-converged do the policy's rungs
/// engage, each restarting from the best iterate so far with the
/// relative-residual criterion still measured against the **original**
/// `‖b‖`.
///
/// The consolidated outcome (final classification, total iterations
/// across rungs, final relative residual) is recorded to `run.metrics` as
/// the run's [`CgOutcomeSample`].
///
/// # Panics
/// The contract of [`crate::cg::conjugate_gradients_with`]; in particular
/// a [`JacobiDiagonal::Immediate`] diagonal must be strictly positive.
pub fn solve_with_guardrails<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    run: GuardedRun<'_, T>,
) -> GuardedSolve<T> {
    let GuardedRun {
        policy,
        jacobi,
        metrics,
        sink,
        resume,
    } = run;
    let delta0 = dot(b, b);
    let initial_diag: Option<&[T]> = match &jacobi {
        JacobiDiagonal::Immediate(d) => Some(d),
        _ => None,
    };

    let resume_rung = resume.map(|r| r.rung);
    // A rung that was already *passed* when the snapshot was taken must
    // not run again on resume.
    let already_passed = |rung: u8| resume_rung.is_some_and(|r| r > rung);
    let resume_state_for = |rung: u8| resume.filter(|r| r.rung == rung).map(|r| r.state.clone());
    let adapter_for = |rung: u8| sink.map(|inner| RungAdapter { inner, rung });

    let mut result = if already_passed(rungs::PRIMARY) {
        // The journal says a later rung was active when the process died:
        // seed the ladder with the saved iterate instead of redoing the
        // primary solve.
        let state = &resume.unwrap().state;
        CgResult {
            x: state.solution().to_vec(),
            iterations: 0,
            initial_residual_norm: T::from_f64(delta0.to_f64().max(0.0).sqrt()),
            residual_norm: state.residual_norm(),
            converged: false,
            outcome: SolveOutcome::IterationBudget,
            drift_restarts: 0,
            checkpoint: None,
        }
    } else {
        let adapter = adapter_for(rungs::PRIMARY);
        let resumed = resume_state_for(rungs::PRIMARY);
        let run = CgRun {
            diagonal: initial_diag,
            metrics,
            resume: resumed.as_ref(),
            sink: adapter.as_ref().map(|a| a as &dyn CgCheckpointSink<T>),
        };
        conjugate_gradients_with(op, b, config, run)
    };
    let mut total_iterations = result.iterations;
    let mut escalations = Vec::new();

    // A rung can move *backwards* (a restart from a drifted iterate may
    // end farther from the solution than it started), so on the failure
    // path the best iterate across all rungs is tracked by true residual
    // and restored at the end. The happy path never measures anything.
    let ladder_enabled =
        policy.restart || policy.jacobi || (policy.precision_escalation && T::BYTES < 8);
    let mut best: Option<(Vec<T>, f64)> = None;
    let consider = |result: &CgResult<T>, best: &mut Option<(Vec<T>, f64)>| {
        if result.converged {
            return;
        }
        let x = sanitized(&result.x);
        let norm = true_residual_norm(op, b, &x);
        if norm.is_finite() && best.as_ref().is_none_or(|(_, bn)| norm < *bn) {
            *best = Some((x, norm));
        }
    };
    if !result.converged && ladder_enabled {
        consider(&result, &mut best);
    }

    // Rung 1: restart from the current iterate with the exact residual.
    if !result.converged && policy.restart && !already_passed(rungs::RESTART) {
        emit(metrics, || {
            Event::Recovery(RecoverySample::solver(
                RecoveryKind::Restart,
                total_iterations,
                format!(
                    "escalation after {}: restart from current iterate with exact residual",
                    result.outcome
                ),
            ))
        });
        escalations.push(RecoveryKind::Restart);
        let state = match resume_state_for(rungs::RESTART) {
            Some(saved) => saved,
            None => {
                let x0 = sanitized(&result.x);
                CgState::restart_from(op, b, &x0, initial_diag, Some(delta0))
            }
        };
        let adapter = adapter_for(rungs::RESTART);
        let run = CgRun {
            diagonal: initial_diag,
            metrics,
            resume: Some(&state),
            sink: adapter.as_ref().map(|a| a as &dyn CgCheckpointSink<T>),
        };
        result = conjugate_gradients_with(op, b, config, run);
        total_iterations += result.iterations;
        consider(&result, &mut best);
    }

    // Rung 2: enable the Jacobi preconditioner.
    let mut owned_diag: Option<Vec<T>> = None;
    if !result.converged
        && policy.jacobi
        && initial_diag.is_none()
        && !already_passed(rungs::JACOBI)
    {
        if let JacobiDiagonal::Lazy(make) = &jacobi {
            let diag = make();
            // a non-positive or non-finite diagonal cannot precondition an
            // SPD solve — skip the rung rather than trip the assert
            let usable =
                diag.len() == op.dim() && diag.iter().all(|d| d.is_finite() && d.to_f64() > 0.0);
            if usable {
                emit(metrics, || {
                    Event::Recovery(RecoverySample::solver(
                        RecoveryKind::Precondition,
                        total_iterations,
                        format!(
                            "escalation after {}: enabling Jacobi preconditioner",
                            result.outcome
                        ),
                    ))
                });
                escalations.push(RecoveryKind::Precondition);
                let state = match resume_state_for(rungs::JACOBI) {
                    Some(saved) => saved,
                    None => {
                        let x0 = sanitized(&result.x);
                        CgState::restart_from(op, b, &x0, Some(&diag), Some(delta0))
                    }
                };
                let adapter = adapter_for(rungs::JACOBI);
                let run = CgRun {
                    diagonal: Some(&diag),
                    metrics,
                    resume: Some(&state),
                    sink: adapter.as_ref().map(|a| a as &dyn CgCheckpointSink<T>),
                };
                result = conjugate_gradients_with(op, b, config, run);
                total_iterations += result.iterations;
                consider(&result, &mut best);
                owned_diag = Some(diag);
            }
        }
    }

    // Rung 3: f64 iterative refinement over the working-precision backend.
    if !result.converged && policy.precision_escalation && T::BYTES < 8 {
        emit(metrics, || {
            Event::Recovery(RecoverySample::solver(
                RecoveryKind::PrecisionEscalation,
                total_iterations,
                format!(
                    "escalation after {}: f64 iterative refinement over the {}-byte backend",
                    result.outcome,
                    T::BYTES
                ),
            ))
        });
        escalations.push(RecoveryKind::PrecisionEscalation);
        let diag = initial_diag.or(owned_diag.as_deref());
        // On a rung-3 resume, refinement restarts its outer loop from the
        // persisted iterate (the outer loop has no recurrence to resume —
        // each correction starts from the measured residual, so restarting
        // from the saved x loses nothing but the in-flight correction).
        let resumed_x = resume_state_for(rungs::REFINEMENT).map(|s| s.solution().to_vec());
        let x_start: &[T] = resumed_x.as_deref().unwrap_or(&result.x);
        let adapter = adapter_for(rungs::REFINEMENT);
        let (refined, inner_iterations) = iterative_refinement(
            op,
            b,
            config,
            &policy,
            diag,
            x_start,
            adapter.as_ref().map(|a| a as &dyn CgCheckpointSink<T>),
        );
        total_iterations += inner_iterations;
        result = refined;
        consider(&result, &mut best);
    }

    // Restore the best iterate measured across the ladder: never hand back
    // a final rung's result when an earlier rung got closer.
    if !result.converged && !escalations.is_empty() {
        if let Some((x, norm)) = best {
            result.x = x;
            result.residual_norm = T::from_f64(norm);
        }
    }

    if let Some(sink) = metrics {
        // measured in f64 so a ‖b‖² that overflows the working type still
        // yields an honest relative residual
        let initial = b
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt();
        let final_norm = result.residual_norm.to_f64();
        sink.record(Event::CgOutcome(CgOutcomeSample {
            outcome: result.outcome.as_str(),
            iterations: total_iterations,
            final_residual_norm: final_norm,
            relative_residual: if initial == 0.0 {
                0.0
            } else {
                final_norm / initial
            },
        }));
    }

    GuardedSolve {
        result,
        total_iterations,
        escalations,
    }
}

/// The f64 iterative-refinement outer loop (ladder rung 3).
///
/// The iterate and residual accumulation live in f64; the residual is
/// *measured through the working-precision backend* (`x` is rounded to
/// `T`, the matvec runs in `T`, the subtraction happens in f64), so the
/// heavy O(n²) work never leaves the fast precision. Each correction
/// solves `A·d = r/‖r‖` at a loose inner tolerance — the normalization
/// keeps the inner right-hand side at unit scale, out of the narrow
/// type's denormal range — and applies `x += ‖r‖·d`.
///
/// Returns the final [`CgResult`] (in working precision) and the number
/// of inner iterations consumed.
///
/// When `sink` is present, a synthesized working-precision snapshot of
/// the outer state (iterate + measured residual) is persisted before each
/// correction, so a crash mid-refinement resumes from the last completed
/// correction instead of the ladder's entry iterate.
fn iterative_refinement<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    policy: &RecoveryPolicy,
    diagonal: Option<&[T]>,
    x_start: &[T],
    sink: Option<&dyn CgCheckpointSink<T>>,
) -> (CgResult<T>, usize) {
    let n = op.dim();
    let b64: Vec<f64> = b.iter().map(|&v| v.to_f64()).collect();
    let norm_b = dot(&b64, &b64).sqrt();
    let threshold = config.epsilon.to_f64() * norm_b;
    let mut x64: Vec<f64> = sanitized(x_start).iter().map(|&v| v.to_f64()).collect();
    let mut x_t: Vec<T> = vec![T::ZERO; n];
    let mut out_t: Vec<T> = vec![T::ZERO; n];
    let mut r64: Vec<f64> = vec![0.0; n];
    let inner_config = CgConfig {
        epsilon: T::from_f64(policy.refinement_inner_epsilon),
        ..*config
    };

    let mut inner_iterations = 0usize;
    let mut best_rnorm = f64::INFINITY;
    let mut best_x64 = x64.clone();
    let mut rnorm = 0.0f64;
    let mut outcome = SolveOutcome::IterationBudget;
    for outer in 0..=policy.refinement_max_outer {
        for (xt, &xv) in x_t.iter_mut().zip(&x64) {
            *xt = T::from_f64(xv);
        }
        op.apply(&x_t, &mut out_t);
        for ((r, &bv), &ov) in r64.iter_mut().zip(&b64).zip(&out_t) {
            *r = bv - ov.to_f64();
        }
        rnorm = dot(&r64, &r64).sqrt();
        if !rnorm.is_finite() {
            outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
            break;
        }
        if norm_b == 0.0 || rnorm <= threshold {
            outcome = SolveOutcome::Converged;
            break;
        }
        if outer == policy.refinement_max_outer {
            outcome = SolveOutcome::IterationBudget;
            break;
        }
        if rnorm > best_rnorm * 0.9 {
            // the last correction improved the best residual by less than
            // 10%: we are at the working-precision noise floor and further
            // refinement cannot reach the tolerance
            outcome = SolveOutcome::Stalled;
            break;
        }
        best_rnorm = rnorm;
        best_x64.copy_from_slice(&x64);
        if let Some(out) = sink {
            // Synthesize a CgState from the outer iterate: the refinement
            // loop has no CG recurrence of its own, so the residual also
            // serves as the direction. `iterations` counts completed
            // corrections.
            let r_t: Vec<T> = r64.iter().map(|&v| T::from_f64(v)).collect();
            let delta = T::from_f64(rnorm * rnorm);
            out.persist(&CgState::from_raw_parts(
                x_t.clone(),
                r_t.clone(),
                r_t,
                delta,
                delta,
                T::from_f64(norm_b * norm_b),
                outer,
            ));
        }
        let rhs: Vec<T> = r64.iter().map(|&v| T::from_f64(v / rnorm)).collect();
        let run = CgRun {
            diagonal,
            ..CgRun::default()
        };
        let inner = conjugate_gradients_with(op, &rhs, &inner_config, run);
        inner_iterations += inner.iterations;
        if inner.x.iter().any(|v| !v.is_finite()) {
            outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
            break;
        }
        for (xv, &dv) in x64.iter_mut().zip(&inner.x) {
            *xv += rnorm * dv.to_f64();
        }
    }

    // never hand back an iterate worse than the best one measured — a
    // correction built from a failed inner solve can move backwards
    if !outcome.is_converged() && best_rnorm < rnorm {
        x64 = best_x64;
        rnorm = best_rnorm;
    }

    let result = CgResult {
        x: x64.iter().map(|&v| T::from_f64(v)).collect(),
        iterations: inner_iterations,
        initial_residual_norm: T::from_f64(norm_b),
        residual_norm: T::from_f64(rnorm),
        converged: outcome.is_converged(),
        outcome,
        drift_restarts: 0,
        checkpoint: None,
    };
    (result, inner_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::conjugate_gradients;

    struct Dense64 {
        n: usize,
        a: Vec<f64>,
    }

    impl LinOp<f64> for Dense64 {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, v: &[f64], out: &mut [f64]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(&self.a[i * self.n..(i + 1) * self.n], v);
            }
        }
    }

    /// The same matrix evaluated entirely in f32 — models a
    /// working-precision backend.
    struct Dense32 {
        n: usize,
        a: Vec<f32>,
    }

    impl LinOp<f32> for Dense32 {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, v: &[f32], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(&self.a[i * self.n..(i + 1) * self.n], v);
            }
        }
    }

    fn random_spd(n: usize, seed: u64) -> Dense64 {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[k * n + i] * b[k * n + j];
                }
                a[i * n + j] = s + if i == j { n as f64 } else { 0.0 };
            }
        }
        Dense64 { n, a }
    }

    /// SPD with rows/columns scaled over several orders of magnitude —
    /// plain CG crawls, Jacobi fixes it.
    fn ill_scaled_spd(n: usize) -> Dense64 {
        let mut op = random_spd(n, 99);
        let scales: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(5.0 * i as f64 / n as f64))
            .collect();
        for i in 0..n {
            for j in 0..n {
                op.a[i * n + j] *= scales[i] * scales[j];
            }
        }
        op
    }

    /// An SPD matrix with near-dependent directions (condition number
    /// ~1/`ridge`) whose diagonal is nearly uniform, so Jacobi cannot
    /// rescue it — only precision escalation can.
    fn near_singular_spd(n: usize, perturb: f64, ridge: f64) -> Dense64 {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        // G has n columns that are small perturbations of a single vector:
        // GᵀG is rank-deficient up to the perturbation scale
        let base: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let g: Vec<f64> = (0..n * n)
            .map(|idx| base[idx % n] + perturb * rng.random_range(-1.0..1.0))
            .collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += g[k * n + i] * g[k * n + j];
                }
                a[i * n + j] = s / n as f64 + if i == j { ridge } else { 0.0 };
            }
        }
        Dense64 { n, a }
    }

    #[test]
    fn happy_path_is_bit_identical_and_unescalated() {
        let n = 32;
        let op = random_spd(n, 5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let cfg = CgConfig::with_epsilon(1e-10);
        let guarded = solve_with_guardrails(&op, &b, &cfg, GuardedRun::default());
        let plain = conjugate_gradients(&op, &b, &cfg);
        assert_eq!(guarded.result.x, plain.x);
        assert_eq!(guarded.total_iterations, plain.iterations);
        assert!(guarded.escalations.is_empty());
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
    }

    #[test]
    fn disabled_policy_returns_classified_outcome_untouched() {
        // −I is not SPD: immediate indefinite breakdown, no recovery.
        let n = 4;
        let a: Vec<f64> = (0..n * n)
            .map(|idx| if idx % (n + 1) == 0 { -1.0 } else { 0.0 })
            .collect();
        let op = Dense64 { n, a };
        let guarded = solve_with_guardrails(
            &op,
            &[1.0; 4],
            &CgConfig::with_epsilon(1e-6),
            GuardedRun {
                policy: RecoveryPolicy::disabled(),
                ..GuardedRun::default()
            },
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Breakdown(BreakdownKind::Indefinite)
        );
        assert!(guarded.escalations.is_empty());
    }

    #[test]
    fn indefinite_system_exhausts_ladder_without_lying() {
        // Full policy on −I: restart re-breaks, Jacobi diagonal is
        // negative (skipped), refinement is f64-gated — the final outcome
        // must still be the honest breakdown.
        let n = 4;
        let a: Vec<f64> = (0..n * n)
            .map(|idx| if idx % (n + 1) == 0 { -1.0 } else { 0.0 })
            .collect();
        let op = Dense64 { n, a };
        let make_diag = || vec![-1.0; 4];
        let guarded = solve_with_guardrails(
            &op,
            &[1.0; 4],
            &CgConfig::with_epsilon(1e-6),
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                ..GuardedRun::default()
            },
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Breakdown(BreakdownKind::Indefinite)
        );
        assert_eq!(guarded.escalations, vec![RecoveryKind::Restart]);
    }

    #[test]
    fn jacobi_rung_rescues_ill_scaled_system() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        // budget small enough that plain CG (and its restart) cannot make
        // it, but preconditioned CG can
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            ..CgConfig::default()
        };
        let unguarded = conjugate_gradients(&op, &b, &cfg);
        assert!(!unguarded.converged, "fixture must defeat plain CG");

        let t = crate::trace::Telemetry::new();
        let make_diag = || diag.clone();
        let guarded = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                metrics: Some(&t),
                ..GuardedRun::default()
            },
        );
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
        assert!(guarded.escalations.contains(&RecoveryKind::Precondition));
        // the rescue is recorded, and the consolidated outcome reflects
        // the whole ladder
        let report = t.report();
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::Precondition));
        let outcome = report.cg_outcome.expect("consolidated outcome recorded");
        assert_eq!(outcome.outcome, "converged");
        assert_eq!(outcome.iterations, guarded.total_iterations);
        // the claimed residual is real
        let mut ax = vec![0.0; n];
        op.apply(&guarded.result.x, &mut ax);
        let true_rel = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
            / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(true_rel <= 1e-6, "true relative residual {true_rel}");
    }

    #[test]
    fn f32_solve_converges_only_via_precision_escalation() {
        // A well-conditioned system whose right-hand side lives at a scale
        // where ‖b‖² overflows f32: every f32-native solve (plain,
        // restarted, preconditioned) sees `delta0 = inf` and is classified
        // breakdown_nonfinite, while the f64 refinement outer loop keeps
        // its norms in f64 and normalizes the inner right-hand sides to
        // unit scale — so only rung 3 can solve it, deterministically.
        let n = 32;
        let op64 = random_spd(n, 5);
        let op32 = Dense32 {
            n,
            a: op64.a.iter().map(|&v| v as f32).collect(),
        };
        const SCALE: f64 = 1e25; // ‖b‖² ≈ 1e50 ≫ f32::MAX ≈ 3.4e38
        let b64: Vec<f64> = (0..n)
            .map(|i| SCALE * (1.0 + ((i as f64) * 0.37).sin()))
            .collect();
        let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
        let cfg = CgConfig {
            epsilon: 1e-4f32,
            max_iterations: Some(4 * n),
            ..CgConfig::default()
        };
        let unguarded = conjugate_gradients(&op32, &b32, &cfg);
        assert_eq!(
            unguarded.outcome,
            SolveOutcome::Breakdown(BreakdownKind::NonFinite),
            "fixture must defeat plain f32 CG"
        );

        let t = crate::trace::Telemetry::new();
        let diag: Vec<f32> = (0..n).map(|i| op32.a[i * n + i]).collect();
        let make_diag = || diag.clone();
        let guarded = solve_with_guardrails(
            &op32,
            &b32,
            &cfg,
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                metrics: Some(&t),
                ..GuardedRun::default()
            },
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Converged,
            "escalation ladder must rescue the f32 solve"
        );
        assert!(guarded
            .escalations
            .contains(&RecoveryKind::PrecisionEscalation));
        let report = t.report();
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::PrecisionEscalation));
        // verify the claim against the f64 operator
        let x64: Vec<f64> = guarded.result.x.iter().map(|&v| v as f64).collect();
        let mut ax = vec![0.0; n];
        op64.apply(&x64, &mut ax);
        let true_rel = b64
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
            / b64.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(true_rel <= 1e-3, "true relative residual {true_rel}");
    }

    /// Collects every persisted snapshot together with its rung tag.
    struct Collect<T: Real>(std::sync::Mutex<Vec<(u8, CgState<T>)>>);

    impl<T: Real> Collect<T> {
        fn new() -> Self {
            Self(std::sync::Mutex::new(Vec::new()))
        }
    }

    impl<T: Real> RungCheckpointSink<T> for Collect<T> {
        fn persist(&self, rung: u8, state: &CgState<T>) {
            self.0.lock().unwrap().push((rung, state.clone()));
        }
    }

    #[test]
    fn sink_snapshots_are_tagged_with_the_active_rung() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            checkpoint_interval: Some(5),
            ..CgConfig::default()
        };
        let make_diag = || diag.clone();
        let sink = Collect::new();
        let guarded = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                sink: Some(&sink),
                ..GuardedRun::default()
            },
        );
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
        let seen = sink.0.lock().unwrap();
        let rungs_seen: Vec<u8> = seen.iter().map(|(r, _)| *r).collect();
        assert!(rungs_seen.contains(&rungs::PRIMARY));
        assert!(
            rungs_seen.contains(&rungs::JACOBI),
            "preconditioned rung must stream snapshots too: {rungs_seen:?}"
        );
        // rung tags never decrease: the ladder only climbs
        assert!(rungs_seen.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn resume_at_jacobi_rung_skips_earlier_rungs_and_converges() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            checkpoint_interval: Some(5),
            ..CgConfig::default()
        };
        let make_diag = || diag.clone();
        let sink = Collect::new();
        let full = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                sink: Some(&sink),
                ..GuardedRun::default()
            },
        );
        assert_eq!(full.outcome(), SolveOutcome::Converged);
        let snapshots = sink.0.lock().unwrap();
        let (rung, state) = snapshots
            .iter()
            .find(|(r, _)| *r == rungs::JACOBI)
            .expect("jacobi rung produced a snapshot")
            .clone();

        // Resume from the mid-jacobi snapshot: rungs 0–1 must not rerun.
        let resume = ResumePoint { rung, state };
        let resumed = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                jacobi: JacobiDiagonal::Lazy(&make_diag),
                resume: Some(&resume),
                ..GuardedRun::default()
            },
        );
        assert_eq!(resumed.outcome(), SolveOutcome::Converged);
        assert_eq!(
            resumed.escalations,
            vec![RecoveryKind::Precondition],
            "only the resumed rung engages; earlier rungs are skipped"
        );
        assert!(resumed.total_iterations < full.total_iterations);
        // the resumed continuation reproduces the exact tail of the full
        // jacobi rung: identical final iterate
        assert_eq!(resumed.result.x, full.result.x);
    }

    #[test]
    fn resume_at_primary_rung_is_bit_exact() {
        let n = 32;
        let op = random_spd(n, 5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(3),
            ..CgConfig::default()
        };
        let sink = Collect::new();
        let full = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                sink: Some(&sink),
                ..GuardedRun::default()
            },
        );
        assert_eq!(full.outcome(), SolveOutcome::Converged);
        let snapshots = sink.0.lock().unwrap();
        let (rung, state) = snapshots.last().expect("periodic snapshots taken").clone();
        assert_eq!(rung, rungs::PRIMARY);
        let resume = ResumePoint { rung, state };
        let resumed = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            GuardedRun {
                resume: Some(&resume),
                ..GuardedRun::default()
            },
        );
        assert_eq!(resumed.result.x, full.result.x, "resume must be bit-exact");
        assert!(resumed.escalations.is_empty());
    }

    #[test]
    fn refinement_is_gated_to_narrow_precisions() {
        // An f64 solve that cannot converge must NOT enter rung 3.
        let n = 24;
        let op = near_singular_spd(n, 1e-3, 1e-14);
        let b = vec![1.0; n];
        let cfg = CgConfig {
            epsilon: 1e-12,
            max_iterations: Some(8),
            ..CgConfig::default()
        };
        let guarded = solve_with_guardrails(&op, &b, &cfg, GuardedRun::default());
        assert!(!guarded
            .escalations
            .contains(&RecoveryKind::PrecisionEscalation));
        assert!(!guarded.outcome().is_converged());
    }
}
