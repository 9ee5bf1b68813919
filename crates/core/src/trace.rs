//! Unified solver observability: CG telemetry, kernel-launch metrics and
//! hierarchical timing spans.
//!
//! The paper argues its performance case with three kinds of evidence:
//! per-ε CG iteration counts (Fig. 3), kernel launch counts / achieved
//! FLOP rates from Nsight profiles (§IV-C), and a per-component runtime
//! breakdown (Fig. 2). This module gives the repository one schema for all
//! three so every backend — serial, "OpenMP", sparse and the simulated
//! devices — reports into the same place:
//!
//! * [`MetricsSink`] — the recording interface, one method:
//!   [`MetricsSink::record`] takes an [`Event`]. Backends record an
//!   [`Event::Launch`] once per (logical) kernel launch, the CG solver an
//!   [`Event::CgIteration`] once per iteration, the trainers wall-clock
//!   [`Event::Span`]s, and the server its request, batch, reload and
//!   overload events.
//! * [`Telemetry`] — the standard sink: applies each event to a
//!   lock-protected [`TelemetryReport`] that can be snapshotted at any
//!   time.
//! * [`TelemetryReport`] — the immutable result attached to
//!   [`crate::svm::TrainOutput::telemetry`], with a deterministic subset
//!   ([`TelemetryReport::deterministic_summary`]) and a line-oriented JSON
//!   serialization ([`TelemetryReport::to_json_lines`]) for the CLI's
//!   `--metrics-out`.
//!
//! **Counting convention.** The CPU backends record the *logical* work of
//! the implicit operator (every entry of `K·v` evaluated once), so the
//! serial, "OpenMP" and sparse counters are identical by construction —
//! symmetry tricks and sparse storage are implementation details that do
//! not change what is mathematically computed. Alongside the logical
//! counters they report the *physical* kernel evaluations each matvec
//! performs through [`Event::KernelEvals`]: `n(n+1)/2` for
//! the symmetric schedules of the serial and blocked "OpenMP" backends,
//! `n²` for the full row sweep, `2n` for the "OpenMP" backend's factored
//! linear-kernel operator — so the effect of symmetry exploitation and
//! factoring is observable without perturbing the logical accounting. The device
//! backend records what its tiled kernels *actually* execute (triangular
//! blocking with atomic mirroring, §III-C), folded out of the per-device
//! `plssvm_simgpu::PerfReport`s into the same schema. Counters and
//! simulated times are deterministic; wall-clock spans and per-matvec wall
//! times are not, and are therefore excluded from the deterministic
//! subset.
//!
//! Telemetry is strictly opt-in: a disabled sink costs one `Option` branch
//! per CG iteration and per matvec — nothing is timed or allocated, and no
//! [`Event`] is built ([`emit`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::kernel::{PANEL_MR, PANEL_NR};
use crate::simd::Isa;

/// Canonical span paths used by the training drivers (the hierarchical
/// replacement of the ad-hoc `ComponentTimes` plumbing).
pub mod spans {
    /// The complete training run.
    pub const TRAIN: &str = "train";
    /// Reading and parsing the input file.
    pub const READ: &str = "train/read";
    /// 2D row-major → padded SoA transform.
    pub const TRANSFORM: &str = "train/transform";
    /// The `cg` component: backend setup, transfers and the CG solve.
    pub const CG: &str = "train/cg";
    /// Backend setup and data upload (child of [`CG`]).
    pub const CG_SETUP: &str = "train/cg/setup";
    /// The CG iterations themselves (child of [`CG`]).
    pub const CG_SOLVE: &str = "train/cg/solve";
    /// Model assembly and (optional) model file write.
    pub const WRITE: &str = "train/write";
}

/// One CG iteration's telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgIterationSample {
    /// 1-based iteration number.
    pub iteration: usize,
    /// `‖rₖ‖` after this iteration (recurrence value, deterministic).
    pub residual_norm: f64,
    /// Step length α of this iteration (deterministic).
    pub alpha: f64,
    /// Direction update β of this iteration (deterministic).
    pub beta: f64,
    /// Wall-clock time of this iteration's `A·d` matvec (not
    /// deterministic; excluded from the deterministic subset).
    pub matvec_wall: Duration,
}

/// What happened in one fault-tolerance event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A transient launch failure was retried (with simulated backoff).
    Retry,
    /// A fail-stopped device's shard was redistributed to the survivors.
    Failover,
    /// A device was detected running far slower than its peers.
    Straggler,
    /// The CG solver snapshotted its state ([`crate::cg::CgState`]).
    Checkpoint,
    /// The solver restarted from its current iterate with the exactly
    /// recomputed residual (drift restart, or escalation-ladder rung 1).
    Restart,
    /// The escalation ladder enabled the Jacobi preconditioner (rung 2).
    Precondition,
    /// The escalation ladder switched an f32 solve to an f64
    /// iterative-refinement outer loop (rung 3).
    PrecisionEscalation,
    /// A numeric fault was detected (non-finite matvec output, breakdown);
    /// emitted at the detection point, before any recovery rung engages.
    NumericFault,
    /// An approximate solver (the randomized low-rank path) handed the
    /// problem to the exact escalation ladder after failing to reach the
    /// requested tolerance.
    SolverFallback,
    /// A storage operation failed transiently and was retried (with
    /// capped backoff); the retry succeeded or the attempt budget ran out.
    IoRetry,
    /// Storage kept failing past the retry budget and a durability
    /// feature degraded gracefully (e.g. checkpointing disabled while
    /// training continues).
    IoDegraded,
}

impl RecoveryKind {
    /// The stable lower-case name used in the JSON schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Retry => "retry",
            RecoveryKind::Failover => "failover",
            RecoveryKind::Straggler => "straggler",
            RecoveryKind::Checkpoint => "checkpoint",
            RecoveryKind::Restart => "restart",
            RecoveryKind::Precondition => "precondition",
            RecoveryKind::PrecisionEscalation => "precision_escalation",
            RecoveryKind::NumericFault => "numeric_fault",
            RecoveryKind::SolverFallback => "solver_fallback",
            RecoveryKind::IoRetry => "io_retry",
            RecoveryKind::IoDegraded => "io_degraded",
        }
    }
}

/// One fault-tolerance event: a retry, failover, straggler detection or
/// solver checkpoint. All fields are deterministic (fault injection is
/// keyed on launch counts, never on wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySample {
    /// What happened.
    pub kind: RecoveryKind,
    /// The device involved, if the event concerns one.
    pub device: Option<usize>,
    /// The device's launch-attempt index at the event, if applicable.
    pub at_launch: Option<u64>,
    /// The CG iteration at the event, if applicable (checkpoints).
    pub iteration: Option<usize>,
    /// Human-readable context (deterministic wording).
    pub detail: String,
}

impl RecoverySample {
    /// A solver checkpoint at the given CG iteration.
    pub fn checkpoint(iteration: usize) -> Self {
        Self {
            kind: RecoveryKind::Checkpoint,
            device: None,
            at_launch: None,
            iteration: Some(iteration),
            detail: "cg state snapshot".to_owned(),
        }
    }

    /// A device-scoped event (retry, failover or straggler).
    pub fn device_event(
        kind: RecoveryKind,
        device: usize,
        at_launch: u64,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            kind,
            device: Some(device),
            at_launch: Some(at_launch),
            iteration: None,
            detail: detail.into(),
        }
    }

    /// A solver-scoped event (drift restart, escalation rung, numeric
    /// fault) at the given CG iteration.
    pub fn solver(kind: RecoveryKind, iteration: usize, detail: impl Into<String>) -> Self {
        Self {
            kind,
            device: None,
            at_launch: None,
            iteration: Some(iteration),
            detail: detail.into(),
        }
    }
}

/// The final classification of a CG solve (or of a whole escalation
/// ladder), recorded once at the end: what happened, how many iterations
/// ran, and the final (relative) residual. This is what makes "silently
/// hit `max_iterations`" observable — the outcome and final residual are
/// part of every telemetry summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOutcomeSample {
    /// Stable lowercase outcome name (see `plssvm_core::cg::SolveOutcome`):
    /// `converged`, `stalled`, `diverged`, `breakdown_indefinite`,
    /// `breakdown_nonfinite` or `iteration_budget`.
    pub outcome: &'static str,
    /// Matvec-bearing iterations performed (across all ladder rungs when
    /// recorded by the guard layer).
    pub iterations: usize,
    /// Final residual norm `‖r‖` (deterministic).
    pub final_residual_norm: f64,
    /// `‖r‖ / ‖r₀‖` against the *original* right-hand side (deterministic).
    pub relative_residual: f64,
}

/// One randomized low-rank (Nyström) solve's telemetry: the chosen rank,
/// landmark strategy, factorization cost and achieved accuracy. Recorded
/// once per low-rank solve as an [`Event::LowRank`]; wall
/// times are *not* deterministic and are excluded from
/// [`TelemetryReport::deterministic_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankSample {
    /// Effective rank `k` after clamping to the reduced dimension.
    pub rank: usize,
    /// Landmark strategy name (`uniform` or `leverage`).
    pub strategy: &'static str,
    /// Jitter steps taken before the capacitance Cholesky succeeded
    /// (0 = clean factorization).
    pub jitter_steps: usize,
    /// Relative residual `‖b − Q̃x‖/‖b‖` of the *direct* Nyström solve,
    /// measured against the exact operator (deterministic).
    pub direct_relative_residual: f64,
    /// Iterations spent in the Nyström-preconditioned CG polish (0 when
    /// the direct solve already met the tolerance).
    pub pcg_iterations: usize,
    /// Wall-clock spent assembling `C`, `W` and the factorizations (not
    /// deterministic).
    pub assembly_wall: Duration,
    /// Wall-clock of the direct solve + PCG polish (not deterministic).
    pub solve_wall: Duration,
}

/// The SIMD dispatch decision of a blocked CPU backend: which ISA tier
/// the panel micro-kernels resolved to and whether it was forced through
/// `PLSSVM_FORCE_ISA` (the panel and lane geometry follow from the tier).
/// Recorded once when a prepared backend is attached to a sink as an
/// [`Event::Dispatch`]; fully deterministic for a given host and
/// environment, but host-dependent — so it is serialized to the JSON
/// lines yet excluded from [`TelemetryReport::deterministic_summary`]
/// (which must stay byte-identical across hosts of different ISA tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchSample {
    /// The tier the micro-kernels run.
    pub isa: Isa,
    /// Whether `PLSSVM_FORCE_ISA` selected the tier (vs auto-detection).
    pub forced: bool,
}

impl std::fmt::Display for DispatchSample {
    /// The `--verbose` and serve-log rendering, e.g.
    /// `avx2 (f32x8/f64x4, panel 4x4), auto-detected`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let how = if self.forced {
            "forced via PLSSVM_FORCE_ISA"
        } else {
            "auto-detected"
        };
        write!(f, "{}, {how}", self.isa.summary())
    }
}

/// One flushed micro-batch of the serving layer (`svm-serve`): how many
/// coalesced requests it carried, how long the oldest of them queued, and
/// how long the batched prediction took. Timing fields are measured on the
/// server's injected clock, so they are deterministic exactly when the
/// clock is (manual clocks in tests, wall time in production) — serve
/// samples are therefore excluded from
/// [`TelemetryReport::deterministic_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeBatchSample {
    /// Requests coalesced into this batch.
    pub batch_size: usize,
    /// Requests still queued after this batch was taken.
    pub queue_depth: usize,
    /// Queue wait of the oldest request in the batch, in clock µs.
    pub queued_us: u64,
    /// Batched prediction time, in clock µs.
    pub process_us: u64,
}

/// One completed serving request: submit-to-response latency and whether
/// it produced a prediction (vs a structured per-request error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequestSample {
    /// Submit-to-response latency in clock µs.
    pub latency_us: u64,
    /// `true` when the request was answered with a prediction.
    pub ok: bool,
}

/// One model hot-reload attempt of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReloadSample {
    /// The model generation serving *after* the attempt (bumped on an
    /// accepted swap, unchanged on a rejected one).
    pub generation: u64,
    /// Whether the new model file was validated and swapped in.
    pub accepted: bool,
    /// Human-readable context (model kind/features, or the load error).
    pub detail: String,
}

/// Why the serving layer refused to do work — the overload-control events
/// of `svm-serve`'s admission/deadline/drain layer. Every shed request or
/// refused connection still receives a structured reply; these samples are
/// the server-side count of those replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeShedKind {
    /// A request was shed at admission: the batch queue was at its
    /// watermark, so the request was answered `overloaded` immediately
    /// instead of queuing unboundedly.
    Overloaded,
    /// An admitted request waited past its deadline and was answered
    /// `deadline_exceeded` at dequeue time without taking a batch slot.
    DeadlineExceeded,
    /// A request arrived while the server was draining and was answered
    /// `shutting_down`.
    ShuttingDown,
    /// A connection was refused at the `--max-connections` cap (answered
    /// with a one-line structured error before close).
    RefusedConnection,
}

/// One engagement of the hot-reload circuit breaker: after a run of
/// consecutive failed reloads the watcher backs off exponentially while
/// the old generation keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReloadBackoffSample {
    /// Consecutive failed reload attempts when the backoff engaged.
    pub consecutive_failures: u64,
    /// How long reload attempts are suppressed, in clock µs.
    pub backoff_us: u64,
}

/// Bounded-memory aggregation of the serving layer's telemetry: batch-size
/// histogram, queue/latency counters and the reload audit trail. A
/// long-lived server records unbounded request streams, so per-request
/// samples are folded into counters instead of stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Micro-batches flushed.
    pub batches: u64,
    /// Batch-size histogram: `size → batches of exactly that size`.
    pub batch_size_hist: BTreeMap<usize, u64>,
    /// Largest queue depth observed at a batch flush.
    pub max_queue_depth: usize,
    /// Sum over batches of the oldest request's queue wait (clock µs).
    pub queued_us_sum: u64,
    /// Sum of batched prediction times (clock µs).
    pub process_us_sum: u64,
    /// Requests answered (predictions and structured errors).
    pub requests: u64,
    /// Requests answered with a structured per-request error.
    pub request_errors: u64,
    /// Sum of request latencies (clock µs).
    pub latency_us_sum: u64,
    /// Largest single request latency (clock µs).
    pub latency_us_max: u64,
    /// Every hot-reload attempt, in order (reloads are rare events, so
    /// the full audit trail is kept).
    pub reloads: Vec<ServeReloadSample>,
    /// Requests shed at admission with an `overloaded` reply.
    pub shed_overloaded: u64,
    /// Admitted requests answered `deadline_exceeded` at dequeue time.
    pub shed_deadline: u64,
    /// Requests answered `shutting_down` while the server drained.
    pub shed_draining: u64,
    /// Connections refused at the connection cap (each got a one-line
    /// structured error before close).
    pub refused_connections: u64,
    /// Every engagement of the reload circuit breaker, in order.
    pub reload_backoffs: Vec<ServeReloadBackoffSample>,
}

impl ServeStats {
    /// Whether any overload-control event (shed, deadline, drain
    /// rejection, refused connection, reload backoff) was recorded.
    pub fn overloaded(&self) -> bool {
        self.shed_overloaded > 0
            || self.shed_deadline > 0
            || self.shed_draining > 0
            || self.refused_connections > 0
            || !self.reload_backoffs.is_empty()
    }

    /// Mean batch size (0 when no batch flushed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: u64 = self
            .batch_size_hist
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        total as f64 / self.batches as f64
    }

    /// Mean request latency in clock µs (0 when no request completed).
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.latency_us_sum as f64 / self.requests as f64
    }
}

/// Aggregated counters for one kernel name — the unified schema the
/// per-backend bookkeeping folds into.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCounter {
    /// Number of launches (CPU backends: one per logical kernel
    /// invocation; device backends: one per device launch).
    pub launches: u64,
    /// Floating point operations across all launches.
    pub flops: u128,
    /// Global memory traffic in bytes across all launches (CPU backends:
    /// the logical minimum traffic; device backends: counted traffic).
    pub bytes: u128,
    /// Simulated seconds (roofline model; 0 for CPU backends).
    pub sim_time_s: f64,
}

impl KernelCounter {
    /// Achieved arithmetic throughput in FLOP/s against the *simulated*
    /// time (0 if no simulated time was recorded).
    pub fn achieved_flops(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            self.flops as f64 / self.sim_time_s
        } else {
            0.0
        }
    }
}

/// One recorded wall-clock span. Paths are `/`-separated for hierarchy
/// (`train/cg/solve` is a child of `train/cg`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Hierarchical span path (see [`spans`] for the canonical names).
    pub path: String,
    /// Wall-clock duration of the span.
    pub wall: Duration,
}

/// One telemetry event: a kernel launch, a CG step, a span, a recovery
/// event, a solver or dispatch sample, or one of the serving layer's
/// request, batch, reload and overload events. Each variant is one line
/// type of [`TelemetryReport::to_json_lines`] (or one counter behind it).
#[derive(Debug)]
pub enum Event<'a> {
    /// `launches` launches of kernel `name` with the given aggregate cost.
    Launch {
        /// Kernel name (`q_kernel`, `svm_kernel`, `w_kernel`, …).
        name: &'a str,
        /// Launches performed.
        launches: u64,
        /// Floating point operations across the launches.
        flops: u128,
        /// Global memory traffic across the launches, in bytes.
        bytes: u128,
        /// Simulated seconds (0 for CPU backends).
        sim_time_s: f64,
    },
    /// `evals` *physical* kernel evaluations performed under kernel
    /// `name` — the complement to the logical [`Event::Launch`] counters:
    /// symmetric CPU schedules report `n(n+1)/2` per matvec where the
    /// logical convention counts `n²` entries.
    KernelEvals {
        /// Kernel name.
        name: &'a str,
        /// Physical evaluations performed.
        evals: u128,
    },
    /// The start of a CG solve (`dim` unknowns, `‖r₀‖`); restarts the
    /// iteration history.
    CgStart {
        /// Unknowns of the solve.
        dim: usize,
        /// `‖r₀‖`.
        initial_residual_norm: f64,
    },
    /// One CG iteration.
    CgIteration(CgIterationSample),
    /// The final classification of a CG solve (or escalation ladder),
    /// recorded last; the most recent outcome wins.
    CgOutcome(CgOutcomeSample),
    /// One wall-clock span.
    Span {
        /// Hierarchical span path (see [`spans`]).
        path: &'a str,
        /// Wall-clock duration.
        wall: Duration,
    },
    /// One fault-tolerance event (retry, failover, straggler, checkpoint,
    /// escalation rung, storage retry or degradation).
    Recovery(RecoverySample),
    /// One randomized low-rank (Nyström) solve; the most recent wins.
    LowRank(LowRankSample),
    /// The SIMD dispatch decision of a blocked CPU backend; the most
    /// recent wins.
    Dispatch(DispatchSample),
    /// One flushed serving micro-batch.
    ServeBatch(ServeBatchSample),
    /// One completed serving request.
    ServeRequest(ServeRequestSample),
    /// One model hot-reload attempt.
    ServeReload(ServeReloadSample),
    /// One overload-control event of the serving layer (shed request,
    /// expired deadline, drain rejection, or refused connection).
    ServeShed(ServeShedKind),
    /// One engagement of the hot-reload circuit breaker.
    ServeReloadBackoff(ServeReloadBackoffSample),
}

/// The recording interface of the observability layer.
///
/// Every backend, solver and server reports into a `MetricsSink`;
/// [`Telemetry`] is the standard implementation. Implementations must be
/// thread-safe — device backends record from the (potentially parallel)
/// launch path.
pub trait MetricsSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: Event<'_>);
}

/// Records the event `make` builds when a sink is attached. Without one
/// this costs one `Option` branch: no event is built and no detail string
/// formatted.
#[inline]
pub fn emit<'a>(metrics: Option<&dyn MetricsSink>, make: impl FnOnce() -> Event<'a>) {
    if let Some(sink) = metrics {
        sink.record(make());
    }
}

/// The standard [`MetricsSink`]: applies every event to a
/// [`TelemetryReport`] behind a lock, and snapshots it on demand.
///
/// ```
/// use std::sync::Arc;
/// use plssvm_core::prelude::*;
/// use plssvm_core::trace::Telemetry;
/// use plssvm_data::synthetic::{generate_planes, PlanesConfig};
///
/// let data = generate_planes::<f64>(&PlanesConfig::new(64, 8, 42))?;
/// let telemetry = Telemetry::shared();
/// let out = LsSvm::new()
///     .with_epsilon(1e-6)
///     .with_metrics(Arc::clone(&telemetry))
///     .train(&data)?;
/// let report = out.telemetry.expect("telemetry was enabled");
/// assert_eq!(report.iterations(), out.iterations);
/// assert!(report.kernels.contains_key("svm_kernel"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Telemetry {
    report: Mutex<TelemetryReport>,
}

impl Telemetry {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh collector already wrapped in the [`Arc`] the training APIs
    /// take.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Snapshots the collected data.
    pub fn report(&self) -> TelemetryReport {
        self.report
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl MetricsSink for Telemetry {
    fn record(&self, event: Event<'_>) {
        let mut guard = self.report.lock().unwrap_or_else(|e| e.into_inner());
        let r = &mut *guard;
        let serve = &mut r.serve;
        match event {
            Event::Launch {
                name,
                launches,
                flops,
                bytes,
                sim_time_s,
            } => {
                let entry = r.kernels.entry(name.to_owned()).or_default();
                entry.launches += launches;
                entry.flops += flops;
                entry.bytes += bytes;
                entry.sim_time_s += sim_time_s;
            }
            Event::KernelEvals { name, evals } => {
                *r.kernel_evals.entry(name.to_owned()).or_default() += evals;
            }
            Event::CgStart {
                dim,
                initial_residual_norm,
            } => {
                r.cg_dim = Some(dim);
                r.cg_initial_residual_norm = Some(initial_residual_norm);
                r.cg.clear();
            }
            Event::CgIteration(sample) => r.cg.push(sample),
            Event::CgOutcome(sample) => r.cg_outcome = Some(sample),
            Event::Span { path, wall } => r.spans.push(SpanRecord {
                path: path.to_owned(),
                wall,
            }),
            Event::Recovery(sample) => r.recovery.push(sample),
            Event::LowRank(sample) => r.lowrank = Some(sample),
            Event::Dispatch(sample) => r.dispatch = Some(sample),
            Event::ServeBatch(sample) => {
                serve.batches += 1;
                *serve.batch_size_hist.entry(sample.batch_size).or_default() += 1;
                serve.max_queue_depth = serve.max_queue_depth.max(sample.queue_depth);
                serve.queued_us_sum += sample.queued_us;
                serve.process_us_sum += sample.process_us;
            }
            Event::ServeRequest(sample) => {
                serve.requests += 1;
                if !sample.ok {
                    serve.request_errors += 1;
                }
                serve.latency_us_sum += sample.latency_us;
                serve.latency_us_max = serve.latency_us_max.max(sample.latency_us);
            }
            Event::ServeReload(sample) => serve.reloads.push(sample),
            Event::ServeShed(kind) => match kind {
                ServeShedKind::Overloaded => serve.shed_overloaded += 1,
                ServeShedKind::DeadlineExceeded => serve.shed_deadline += 1,
                ServeShedKind::ShuttingDown => serve.shed_draining += 1,
                ServeShedKind::RefusedConnection => serve.refused_connections += 1,
            },
            Event::ServeReloadBackoff(sample) => serve.reload_backoffs.push(sample),
        }
    }
}

/// Immutable snapshot of one training run's telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Unified kernel counters, keyed by kernel name (`q_kernel`,
    /// `svm_kernel`, `w_kernel`).
    pub kernels: BTreeMap<String, KernelCounter>,
    /// *Physical* kernel evaluations by kernel name — what the backend's
    /// schedule actually computed (symmetric CPU schedules: `n(n+1)/2` per
    /// matvec vs the logical `n²`). Empty when no backend reported them.
    pub kernel_evals: BTreeMap<String, u128>,
    /// Dimension of the reduced CG system (`m − 1`), when a solve ran.
    pub cg_dim: Option<usize>,
    /// `‖r₀‖` of the CG solve, when a solve ran.
    pub cg_initial_residual_norm: Option<f64>,
    /// Per-iteration CG samples, in iteration order.
    pub cg: Vec<CgIterationSample>,
    /// Final classification of the (most recent) CG solve: outcome,
    /// iteration count and final relative residual. `None` when no solve
    /// ran against this sink.
    pub cg_outcome: Option<CgOutcomeSample>,
    /// The (most recent) randomized low-rank solve's sample. `None` when
    /// no low-rank solve ran against this sink.
    pub lowrank: Option<LowRankSample>,
    /// The (most recent) blocked CPU backend's SIMD dispatch decision.
    /// `None` when no blocked CPU backend was attached to this sink.
    /// Host-dependent, so excluded from
    /// [`TelemetryReport::deterministic_summary`].
    pub dispatch: Option<DispatchSample>,
    /// Recorded wall-clock spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Fault-tolerance events (retries, failovers, straggler detections,
    /// solver checkpoints), in recording order.
    pub recovery: Vec<RecoverySample>,
    /// Aggregated serving-layer telemetry (`svm-serve`): batch-size
    /// histogram, queue/latency counters and the hot-reload audit trail.
    /// Empty unless a server recorded into this sink. Timing-dependent,
    /// so excluded from [`TelemetryReport::deterministic_summary`].
    pub serve: ServeStats,
}

impl TelemetryReport {
    /// Number of CG iterations recorded.
    pub fn iterations(&self) -> usize {
        self.cg.len()
    }

    /// The per-iteration residual norms, in iteration order.
    pub fn residual_history(&self) -> Vec<f64> {
        self.cg.iter().map(|s| s.residual_norm).collect()
    }

    /// Total kernel launches across all kernels.
    pub fn total_launches(&self) -> u64 {
        self.kernels.values().map(|k| k.launches).sum()
    }

    /// Total FLOPs across all kernels.
    pub fn total_flops(&self) -> u128 {
        self.kernels.values().map(|k| k.flops).sum()
    }

    /// Total global memory traffic across all kernels, in bytes.
    pub fn total_bytes(&self) -> u128 {
        self.kernels.values().map(|k| k.bytes).sum()
    }

    /// Sum of the wall-clock of all spans matching `path` (0 when absent).
    pub fn span(&self, path: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.path == path)
            .map(|s| s.wall)
            .sum()
    }

    /// The deterministic subset of the telemetry, serialized to a string
    /// that is byte-identical across repeated runs on identical inputs:
    /// the iteration count, per-kernel launch/FLOP/byte counters, and the
    /// bit-exact residual history. Wall-clock (and simulated) times are
    /// excluded.
    pub fn deterministic_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "iterations={}", self.cg.len());
        if let Some(dim) = self.cg_dim {
            let _ = writeln!(out, "cg_dim={dim}");
        }
        if let Some(r0) = self.cg_initial_residual_norm {
            let _ = writeln!(out, "initial_residual_bits={:016x}", r0.to_bits());
        }
        for (name, k) in &self.kernels {
            let _ = writeln!(
                out,
                "kernel={name} launches={} flops={} bytes={}",
                k.launches, k.flops, k.bytes
            );
        }
        for (name, evals) in &self.kernel_evals {
            let _ = writeln!(out, "kernel_evals={name} evals={evals}");
        }
        for s in &self.cg {
            let _ = writeln!(
                out,
                "iter={} residual_bits={:016x} alpha_bits={:016x} beta_bits={:016x}",
                s.iteration,
                s.residual_norm.to_bits(),
                s.alpha.to_bits(),
                s.beta.to_bits()
            );
        }
        if let Some(o) = &self.cg_outcome {
            let _ = writeln!(
                out,
                "outcome={} iterations={} final_residual_bits={:016x} relative_residual_bits={:016x}",
                o.outcome,
                o.iterations,
                o.final_residual_norm.to_bits(),
                o.relative_residual.to_bits()
            );
        }
        if let Some(l) = &self.lowrank {
            let _ = writeln!(
                out,
                "lowrank rank={} strategy={} jitter_steps={} \
                 direct_residual_bits={:016x} pcg_iterations={}",
                l.rank,
                l.strategy,
                l.jitter_steps,
                l.direct_relative_residual.to_bits(),
                l.pcg_iterations
            );
        }
        for s in &self.recovery {
            let _ = writeln!(
                out,
                "recovery={} device={} launch={} iter={} detail={}",
                s.kind.as_str(),
                s.device.map_or_else(|| "-".to_owned(), |d| d.to_string()),
                s.at_launch
                    .map_or_else(|| "-".to_owned(), |l| l.to_string()),
                s.iteration
                    .map_or_else(|| "-".to_owned(), |i| i.to_string()),
                s.detail
            );
        }
        // overload-control counters are event counts, not timings: under a
        // manual clock (or any fixed request schedule) they are exactly
        // reproducible, so they belong to the deterministic subset —
        // unlike the latency/queue timing stats, which stay JSON-only
        if self.serve.overloaded() {
            let _ = writeln!(
                out,
                "serve_overload shed={} deadline_exceeded={} rejected_draining={} \
                 refused_connections={} reload_backoffs={}",
                self.serve.shed_overloaded,
                self.serve.shed_deadline,
                self.serve.shed_draining,
                self.serve.refused_connections,
                self.serve.reload_backoffs.len()
            );
        }
        out
    }

    /// Serializes the full report as line-oriented JSON (one object per
    /// line), the format of the CLI's `--metrics-out`.
    ///
    /// Documented line types and keys:
    /// * `{"type":"cg_start","dim":n,"initial_residual_norm":x}`
    /// * `{"type":"cg_iteration","iteration":k,"residual_norm":x,`
    ///   `"alpha":x,"beta":x,"matvec_wall_s":x}`
    /// * `{"type":"kernel","name":"svm_kernel","launches":n,"flops":n,`
    ///   `"bytes":n,"sim_time_s":x}`
    /// * `{"type":"kernel_evals","name":"svm_kernel","evals":n}` — only
    ///   present when a backend reported physical evaluation counts
    /// * `{"type":"cg_outcome","outcome":"converged|stalled|diverged|`
    ///   `breakdown_indefinite|breakdown_nonfinite|iteration_budget",`
    ///   `"iterations":n,"final_residual_norm":x,"relative_residual":x}` —
    ///   present when a solve ran against a guardrail-aware solver
    /// * `{"type":"lowrank","rank":n,"strategy":"uniform|leverage",`
    ///   `"jitter_steps":n,"direct_relative_residual":x,`
    ///   `"pcg_iterations":n,"assembly_wall_s":x,"solve_wall_s":x}` —
    ///   present when the randomized low-rank solver ran
    /// * `{"type":"simd_dispatch","isa":"scalar|neon|avx2|avx512",`
    ///   `"forced":true|false,"panel_mr":n,"panel_nr":n,"lanes_f32":n,`
    ///   `"lanes_f64":n}` — present when a blocked CPU backend reported
    ///   its micro-kernel dispatch decision
    /// * `{"type":"span","path":"train/cg","wall_s":x}`
    /// * `{"type":"recovery","kind":"retry|failover|straggler|checkpoint|`
    ///   `restart|precondition|precision_escalation|numeric_fault|`
    ///   `solver_fallback|io_retry|io_degraded","device":n|null,"at_launch":n|null,`
    ///   `"iteration":n|null,"detail":"..."}`
    /// * `{"type":"serve_batches","count":n,"max_queue_depth":n,`
    ///   `"queued_us_sum":n,"process_us_sum":n,"mean_batch_size":x}` —
    ///   present when a server recorded batches into this sink
    /// * `{"type":"serve_batch_size","size":n,"count":n}` — one line per
    ///   batch-size histogram bucket
    /// * `{"type":"serve_requests","count":n,"errors":n,`
    ///   `"latency_us_sum":n,"latency_us_max":n,"mean_latency_us":x}` —
    ///   present when a server completed requests against this sink
    /// * `{"type":"serve_reload","generation":n,"accepted":true|false,`
    ///   `"detail":"..."}` — one line per hot-reload attempt
    /// * `{"type":"serve_overload","shed":n,"deadline_exceeded":n,`
    ///   `"rejected_draining":n,"refused_connections":n}` — present when
    ///   the server's admission/deadline/drain layer shed any work
    /// * `{"type":"serve_reload_backoff","consecutive_failures":n,`
    ///   `"backoff_us":n}` — one line per reload circuit-breaker
    ///   engagement
    ///
    /// Non-finite floats serialize as `null`; all other values are plain
    /// JSON numbers or strings.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        if let (Some(dim), Some(r0)) = (self.cg_dim, self.cg_initial_residual_norm) {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_start\",\"dim\":{dim},\"initial_residual_norm\":{}}}",
                json_f64(r0)
            );
        }
        for s in &self.cg {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_iteration\",\"iteration\":{},\"residual_norm\":{},\
                 \"alpha\":{},\"beta\":{},\"matvec_wall_s\":{}}}",
                s.iteration,
                json_f64(s.residual_norm),
                json_f64(s.alpha),
                json_f64(s.beta),
                json_f64(s.matvec_wall.as_secs_f64())
            );
        }
        for (name, k) in &self.kernels {
            let _ = writeln!(
                out,
                "{{\"type\":\"kernel\",\"name\":{},\"launches\":{},\"flops\":{},\
                 \"bytes\":{},\"sim_time_s\":{}}}",
                json_str(name),
                k.launches,
                k.flops,
                k.bytes,
                json_f64(k.sim_time_s)
            );
        }
        for (name, evals) in &self.kernel_evals {
            let _ = writeln!(
                out,
                "{{\"type\":\"kernel_evals\",\"name\":{},\"evals\":{evals}}}",
                json_str(name)
            );
        }
        if let Some(o) = &self.cg_outcome {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_outcome\",\"outcome\":{},\"iterations\":{},\
                 \"final_residual_norm\":{},\"relative_residual\":{}}}",
                json_str(o.outcome),
                o.iterations,
                json_f64(o.final_residual_norm),
                json_f64(o.relative_residual)
            );
        }
        if let Some(l) = &self.lowrank {
            let _ = writeln!(
                out,
                "{{\"type\":\"lowrank\",\"rank\":{},\"strategy\":{},\
                 \"jitter_steps\":{},\"direct_relative_residual\":{},\
                 \"pcg_iterations\":{},\"assembly_wall_s\":{},\"solve_wall_s\":{}}}",
                l.rank,
                json_str(l.strategy),
                l.jitter_steps,
                json_f64(l.direct_relative_residual),
                l.pcg_iterations,
                json_f64(l.assembly_wall.as_secs_f64()),
                json_f64(l.solve_wall.as_secs_f64())
            );
        }
        if let Some(d) = &self.dispatch {
            let _ = writeln!(
                out,
                "{{\"type\":\"simd_dispatch\",\"isa\":{},\"forced\":{},\
                 \"panel_mr\":{PANEL_MR},\"panel_nr\":{PANEL_NR},\"lanes_f32\":{},\"lanes_f64\":{}}}",
                json_str(d.isa.name()),
                d.forced,
                d.isa.lanes_f32(),
                d.isa.lanes_f64()
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":{},\"wall_s\":{}}}",
                json_str(&s.path),
                json_f64(s.wall.as_secs_f64())
            );
        }
        for s in &self.recovery {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |n| n.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"recovery\",\"kind\":{},\"device\":{},\"at_launch\":{},\
                 \"iteration\":{},\"detail\":{}}}",
                json_str(s.kind.as_str()),
                opt(s.device.map(|d| d as u64)),
                opt(s.at_launch),
                opt(s.iteration.map(|i| i as u64)),
                json_str(&s.detail)
            );
        }
        if self.serve.batches > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_batches\",\"count\":{},\"max_queue_depth\":{},\
                 \"queued_us_sum\":{},\"process_us_sum\":{},\"mean_batch_size\":{}}}",
                self.serve.batches,
                self.serve.max_queue_depth,
                self.serve.queued_us_sum,
                self.serve.process_us_sum,
                json_f64(self.serve.mean_batch_size())
            );
            for (size, count) in &self.serve.batch_size_hist {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"serve_batch_size\",\"size\":{size},\"count\":{count}}}"
                );
            }
        }
        if self.serve.requests > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_requests\",\"count\":{},\"errors\":{},\
                 \"latency_us_sum\":{},\"latency_us_max\":{},\"mean_latency_us\":{}}}",
                self.serve.requests,
                self.serve.request_errors,
                self.serve.latency_us_sum,
                self.serve.latency_us_max,
                json_f64(self.serve.mean_latency_us())
            );
        }
        for r in &self.serve.reloads {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_reload\",\"generation\":{},\"accepted\":{},\"detail\":{}}}",
                r.generation,
                r.accepted,
                json_str(&r.detail)
            );
        }
        if self.serve.overloaded() {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_overload\",\"shed\":{},\"deadline_exceeded\":{},\
                 \"rejected_draining\":{},\"refused_connections\":{}}}",
                self.serve.shed_overloaded,
                self.serve.shed_deadline,
                self.serve.shed_draining,
                self.serve.refused_connections
            );
        }
        for b in &self.serve.reload_backoffs {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_reload_backoff\",\"consecutive_failures\":{},\
                 \"backoff_us\":{}}}",
                b.consecutive_failures, b.backoff_us
            );
        }
        out
    }
}

/// Formats an `f64` as a JSON value (`null` for non-finite values) — the
/// convention of every JSON line this module (and the serving layer's
/// wire protocol) emits.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // Rust renders integral floats as "1.0" — already valid JSON.
        s
    } else {
        "null".to_owned()
    }
}

/// Formats a string as a JSON string literal with minimal escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A local, lock-free span collector used by the training drivers.
///
/// Spans are always collected (they are how [`crate::timing::ComponentTimes`]
/// is derived) and flushed into the optional [`MetricsSink`] at the end of
/// the run.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<SpanRecord>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pre-measured span.
    pub fn record(&mut self, path: impl Into<String>, wall: Duration) {
        self.spans.push(SpanRecord {
            path: path.into(),
            wall,
        });
    }

    /// Runs `f`, recording its wall-clock under `path`.
    pub fn time<R>(&mut self, path: &str, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let result = f();
        self.record(path, t0.elapsed());
        result
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Replays every recorded span into a sink.
    pub fn flush_into(&self, sink: &dyn MetricsSink) {
        for s in &self.spans {
            sink.record(Event::Span {
                path: &s.path,
                wall: s.wall,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize) -> CgIterationSample {
        CgIterationSample {
            iteration: i,
            residual_norm: 1.0 / (i as f64 + 1.0),
            alpha: 0.5,
            beta: 0.25,
            matvec_wall: Duration::from_micros(10),
        }
    }

    #[test]
    fn kernel_counters_accumulate() {
        let t = Telemetry::new();
        t.record(Event::Launch {
            name: "svm_kernel",
            launches: 1,
            flops: 100,
            bytes: 10,
            sim_time_s: 0.5,
        });
        t.record(Event::Launch {
            name: "svm_kernel",
            launches: 2,
            flops: 100,
            bytes: 10,
            sim_time_s: 0.5,
        });
        t.record(Event::Launch {
            name: "q_kernel",
            launches: 1,
            flops: 7,
            bytes: 3,
            sim_time_s: 0.25,
        });
        let r = t.report();
        assert_eq!(r.kernels["svm_kernel"].launches, 3);
        assert_eq!(r.kernels["svm_kernel"].flops, 200);
        assert_eq!(r.total_launches(), 4);
        assert_eq!(r.total_flops(), 207);
        assert_eq!(r.total_bytes(), 23);
        assert_eq!(r.kernels["svm_kernel"].achieved_flops(), 200.0);
    }

    #[test]
    fn cg_samples_in_order_and_start_resets() {
        let t = Telemetry::new();
        t.record(Event::CgStart {
            dim: 8,
            initial_residual_norm: 2.0,
        });
        t.record(Event::CgIteration(sample(1)));
        t.record(Event::CgIteration(sample(2)));
        // a second solve on the same sink restarts the history
        t.record(Event::CgStart {
            dim: 8,
            initial_residual_norm: 2.0,
        });
        t.record(Event::CgIteration(sample(1)));
        let r = t.report();
        assert_eq!(r.iterations(), 1);
        assert_eq!(r.cg_dim, Some(8));
        assert_eq!(r.cg_initial_residual_norm, Some(2.0));
        assert_eq!(r.residual_history(), vec![0.5]);
    }

    #[test]
    fn deterministic_summary_is_stable_and_ignores_walltime() {
        let build = |wall_us: u64| {
            let t = Telemetry::new();
            t.record(Event::CgStart {
                dim: 4,
                initial_residual_norm: 1.5,
            });
            t.record(Event::Launch {
                name: "svm_kernel",
                launches: 1,
                flops: 123,
                bytes: 456,
                sim_time_s: 0.75,
            });
            t.record(Event::CgIteration(CgIterationSample {
                matvec_wall: Duration::from_micros(wall_us),
                ..sample(1)
            }));
            t.record(Event::Span {
                path: spans::CG,
                wall: Duration::from_micros(wall_us),
            });
            t.report().deterministic_summary()
        };
        assert_eq!(build(10), build(99_999));
        assert!(build(1).contains("kernel=svm_kernel launches=1 flops=123 bytes=456"));
    }

    #[test]
    fn json_lines_have_documented_shape() {
        let t = Telemetry::new();
        t.record(Event::CgStart {
            dim: 4,
            initial_residual_norm: 1.5,
        });
        t.record(Event::CgIteration(sample(1)));
        t.record(Event::Launch {
            name: "q_kernel",
            launches: 1,
            flops: 10,
            bytes: 20,
            sim_time_s: 0.0,
        });
        t.record(Event::Span {
            path: spans::TRAIN,
            wall: Duration::from_millis(5),
        });
        let json = t.report().to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"cg_start\""));
        assert!(lines[1].contains("\"type\":\"cg_iteration\""));
        assert!(lines[2].contains("\"name\":\"q_kernel\""));
        assert!(lines[3].contains("\"path\":\"train\""));
    }

    #[test]
    fn kernel_evals_accumulate_and_serialize() {
        let t = Telemetry::new();
        t.record(Event::KernelEvals {
            name: "svm_kernel",
            evals: 55,
        });
        t.record(Event::KernelEvals {
            name: "svm_kernel",
            evals: 55,
        });
        let r = t.report();
        assert_eq!(r.kernel_evals["svm_kernel"], 110);
        assert!(r
            .deterministic_summary()
            .contains("kernel_evals=svm_kernel evals=110"));
        let json = r.to_json_lines();
        assert!(json.contains("{\"type\":\"kernel_evals\",\"name\":\"svm_kernel\",\"evals\":110}"));
        // sinks that never see the channel emit no kernel_evals lines
        let empty = Telemetry::new().report();
        assert!(!empty.deterministic_summary().contains("kernel_evals"));
        assert!(!empty.to_json_lines().contains("kernel_evals"));
    }

    #[test]
    fn recovery_events_are_recorded_and_serialized() {
        let t = Telemetry::new();
        t.record(Event::Recovery(RecoverySample::device_event(
            RecoveryKind::Retry,
            1,
            5,
            "transient timeout, retry 1",
        )));
        t.record(Event::Recovery(RecoverySample::checkpoint(8)));
        // cg_start must NOT clear recovery history: device-setup faults
        // legitimately predate the solve.
        t.record(Event::CgStart {
            dim: 4,
            initial_residual_norm: 1.0,
        });
        let r = t.report();
        assert_eq!(r.recovery.len(), 2);
        assert_eq!(r.recovery[0].kind, RecoveryKind::Retry);
        assert_eq!(r.recovery[1].iteration, Some(8));
        let json = r.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.iter().any(|l| l.contains("\"type\":\"recovery\"")
            && l.contains("\"kind\":\"retry\"")
            && l.contains("\"device\":1")
            && l.contains("\"at_launch\":5")
            && l.contains("\"iteration\":null")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"checkpoint\"")
            && l.contains("\"device\":null")
            && l.contains("\"iteration\":8")));
        let summary = r.deterministic_summary();
        assert!(summary.contains("recovery=retry device=1 launch=5 iter=-"));
        assert!(summary.contains("recovery=checkpoint device=- launch=- iter=8"));
    }

    #[test]
    fn lowrank_sample_is_recorded_and_serialized() {
        let t = Telemetry::new();
        t.record(Event::LowRank(LowRankSample {
            rank: 64,
            strategy: "uniform",
            jitter_steps: 2,
            direct_relative_residual: 1e-3,
            pcg_iterations: 7,
            assembly_wall: Duration::from_micros(123),
            solve_wall: Duration::from_micros(456),
        }));
        let r = t.report();
        assert_eq!(r.lowrank.as_ref().unwrap().rank, 64);
        let json = r.to_json_lines();
        assert!(json.contains("\"type\":\"lowrank\""));
        assert!(json.contains("\"rank\":64"));
        assert!(json.contains("\"strategy\":\"uniform\""));
        assert!(json.contains("\"pcg_iterations\":7"));
        // deterministic summary includes the rank/residual but no wall time
        let wall_free = {
            let t2 = Telemetry::new();
            t2.record(Event::LowRank(LowRankSample {
                assembly_wall: Duration::from_secs(9),
                solve_wall: Duration::from_secs(9),
                ..r.lowrank.clone().unwrap()
            }));
            t2.report().deterministic_summary()
        };
        assert_eq!(r.deterministic_summary(), wall_free);
        assert!(r.deterministic_summary().contains("lowrank rank=64"));
    }

    #[test]
    fn dispatch_sample_serializes_but_stays_out_of_deterministic_summary() {
        let t = Telemetry::new();
        let sample = DispatchSample {
            isa: Isa::Avx2,
            forced: true,
        };
        t.record(Event::Dispatch(sample));
        let r = t.report();
        assert_eq!(r.dispatch.as_ref().unwrap().isa, Isa::Avx2);
        assert_eq!(
            sample.to_string(),
            "avx2 (f32x8/f64x4, panel 4x4), forced via PLSSVM_FORCE_ISA"
        );
        let json = r.to_json_lines();
        assert!(json.contains(
            "{\"type\":\"simd_dispatch\",\"isa\":\"avx2\",\"forced\":true,\
             \"panel_mr\":4,\"panel_nr\":4,\"lanes_f32\":8,\"lanes_f64\":4}"
        ));
        // the deterministic subset must stay byte-identical across hosts
        // of different ISA tiers, so the dispatch line is JSON-only
        let empty = Telemetry::new().report();
        assert_eq!(r.deterministic_summary(), empty.deterministic_summary());
        assert!(!empty.to_json_lines().contains("simd_dispatch"));
    }

    #[test]
    fn serve_stats_aggregate_boundedly_and_serialize() {
        let t = Telemetry::new();
        t.record(Event::ServeBatch(ServeBatchSample {
            batch_size: 3,
            queue_depth: 5,
            queued_us: 100,
            process_us: 40,
        }));
        t.record(Event::ServeBatch(ServeBatchSample {
            batch_size: 3,
            queue_depth: 1,
            queued_us: 50,
            process_us: 60,
        }));
        t.record(Event::ServeBatch(ServeBatchSample {
            batch_size: 1,
            queue_depth: 0,
            queued_us: 0,
            process_us: 10,
        }));
        t.record(Event::ServeRequest(ServeRequestSample {
            latency_us: 200,
            ok: true,
        }));
        t.record(Event::ServeRequest(ServeRequestSample {
            latency_us: 400,
            ok: false,
        }));
        t.record(Event::ServeReload(ServeReloadSample {
            generation: 2,
            accepted: true,
            detail: "binary model, 8 features".into(),
        }));
        t.record(Event::ServeReload(ServeReloadSample {
            generation: 2,
            accepted: false,
            detail: "torn file".into(),
        }));
        let r = t.report();
        assert_eq!(r.serve.batches, 3);
        assert_eq!(r.serve.batch_size_hist[&3], 2);
        assert_eq!(r.serve.batch_size_hist[&1], 1);
        assert_eq!(r.serve.max_queue_depth, 5);
        assert_eq!(r.serve.requests, 2);
        assert_eq!(r.serve.request_errors, 1);
        assert_eq!(r.serve.latency_us_max, 400);
        assert!((r.serve.mean_batch_size() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.serve.mean_latency_us(), 300.0);
        let json = r.to_json_lines();
        assert!(json.contains("\"type\":\"serve_batches\",\"count\":3"));
        assert!(json.contains("{\"type\":\"serve_batch_size\",\"size\":3,\"count\":2}"));
        assert!(json.contains("\"type\":\"serve_requests\",\"count\":2,\"errors\":1"));
        assert!(json.contains("\"type\":\"serve_reload\",\"generation\":2,\"accepted\":false"));
        // serve telemetry is timing-dependent: the deterministic subset
        // must not change when a server records into the sink
        let empty = Telemetry::new().report();
        assert_eq!(r.deterministic_summary(), empty.deterministic_summary());
        // sinks never touched by a server emit no serve lines
        assert!(!empty.to_json_lines().contains("serve_"));
        assert!(empty.serve == ServeStats::default() && r.serve != ServeStats::default());
    }

    #[test]
    fn serve_overload_counters_reach_deterministic_summary_and_json() {
        let t = Telemetry::new();
        t.record(Event::ServeShed(ServeShedKind::Overloaded));
        t.record(Event::ServeShed(ServeShedKind::Overloaded));
        t.record(Event::ServeShed(ServeShedKind::DeadlineExceeded));
        t.record(Event::ServeShed(ServeShedKind::ShuttingDown));
        t.record(Event::ServeShed(ServeShedKind::RefusedConnection));
        t.record(Event::ServeReloadBackoff(ServeReloadBackoffSample {
            consecutive_failures: 3,
            backoff_us: 1_000_000,
        }));
        let r = t.report();
        assert_eq!(r.serve.shed_overloaded, 2);
        assert_eq!(r.serve.shed_deadline, 1);
        assert_eq!(r.serve.shed_draining, 1);
        assert_eq!(r.serve.refused_connections, 1);
        assert_eq!(r.serve.reload_backoffs.len(), 1);
        assert!(r.serve.overloaded() && r.serve != ServeStats::default());
        // unlike the timing-dependent serve stats, shed COUNTS are exact
        // under a fixed request schedule, so they pin into the
        // deterministic summary — and only when something was shed
        let summary = r.deterministic_summary();
        assert!(
            summary.contains(
                "serve_overload shed=2 deadline_exceeded=1 rejected_draining=1 \
                 refused_connections=1 reload_backoffs=1"
            ),
            "{summary}"
        );
        let json = r.to_json_lines();
        assert!(json.contains(
            "{\"type\":\"serve_overload\",\"shed\":2,\"deadline_exceeded\":1,\
             \"rejected_draining\":1,\"refused_connections\":1}"
        ));
        assert!(json.contains(
            "{\"type\":\"serve_reload_backoff\",\"consecutive_failures\":3,\
             \"backoff_us\":1000000}"
        ));
        // an overload-free run keeps both serializations untouched
        let clean = Telemetry::new().report();
        assert!(!clean.deterministic_summary().contains("serve_overload"));
        assert!(!clean.to_json_lines().contains("serve_overload"));
    }

    /// Pins the complete `--metrics-out` schema and line order, and the
    /// complete deterministic summary, for one event of every kind.
    #[test]
    fn every_event_kind_has_a_golden_serialization() {
        let t = Telemetry::new();
        t.record(Event::Dispatch(DispatchSample {
            isa: Isa::Avx2,
            forced: false,
        }));
        t.record(Event::Launch {
            name: "q_kernel",
            launches: 1,
            flops: 10,
            bytes: 20,
            sim_time_s: 0.0,
        });
        t.record(Event::Launch {
            name: "svm_kernel",
            launches: 2,
            flops: 300,
            bytes: 400,
            sim_time_s: 0.5,
        });
        t.record(Event::Recovery(RecoverySample::device_event(
            RecoveryKind::Retry,
            1,
            5,
            "transient \"timeout\"",
        )));
        t.record(Event::CgStart {
            dim: 3,
            initial_residual_norm: 2.0,
        });
        t.record(Event::CgIteration(CgIterationSample {
            iteration: 1,
            residual_norm: 0.5,
            alpha: 0.25,
            beta: 0.125,
            matvec_wall: Duration::from_micros(1500),
        }));
        t.record(Event::KernelEvals {
            name: "svm_kernel",
            evals: 6,
        });
        t.record(Event::Recovery(RecoverySample::checkpoint(1)));
        t.record(Event::CgOutcome(CgOutcomeSample {
            outcome: "converged",
            iterations: 1,
            final_residual_norm: 0.5,
            relative_residual: 0.25,
        }));
        t.record(Event::LowRank(LowRankSample {
            rank: 2,
            strategy: "leverage",
            jitter_steps: 1,
            direct_relative_residual: 0.001,
            pcg_iterations: 3,
            assembly_wall: Duration::from_millis(2),
            solve_wall: Duration::from_millis(4),
        }));
        t.record(Event::Span {
            path: spans::CG_SOLVE,
            wall: Duration::from_millis(250),
        });
        t.record(Event::Span {
            path: spans::TRAIN,
            wall: Duration::from_secs(1),
        });
        t.record(Event::ServeBatch(ServeBatchSample {
            batch_size: 2,
            queue_depth: 1,
            queued_us: 30,
            process_us: 12,
        }));
        t.record(Event::ServeBatch(ServeBatchSample {
            batch_size: 1,
            queue_depth: 0,
            queued_us: 5,
            process_us: 4,
        }));
        t.record(Event::ServeRequest(ServeRequestSample {
            latency_us: 40,
            ok: true,
        }));
        t.record(Event::ServeRequest(ServeRequestSample {
            latency_us: 60,
            ok: false,
        }));
        t.record(Event::ServeReload(ServeReloadSample {
            generation: 2,
            accepted: true,
            detail: "binary model, 4 features".into(),
        }));
        t.record(Event::ServeShed(ServeShedKind::Overloaded));
        t.record(Event::ServeShed(ServeShedKind::DeadlineExceeded));
        t.record(Event::ServeShed(ServeShedKind::ShuttingDown));
        t.record(Event::ServeShed(ServeShedKind::RefusedConnection));
        t.record(Event::ServeReloadBackoff(ServeReloadBackoffSample {
            consecutive_failures: 3,
            backoff_us: 250_000,
        }));
        let r = t.report();
        assert_eq!(
            r.to_json_lines(),
            "{\"type\":\"cg_start\",\"dim\":3,\"initial_residual_norm\":2.0}\n\
             {\"type\":\"cg_iteration\",\"iteration\":1,\"residual_norm\":0.5,\"alpha\":0.25,\
             \"beta\":0.125,\"matvec_wall_s\":0.0015}\n\
             {\"type\":\"kernel\",\"name\":\"q_kernel\",\"launches\":1,\"flops\":10,\
             \"bytes\":20,\"sim_time_s\":0.0}\n\
             {\"type\":\"kernel\",\"name\":\"svm_kernel\",\"launches\":2,\"flops\":300,\
             \"bytes\":400,\"sim_time_s\":0.5}\n\
             {\"type\":\"kernel_evals\",\"name\":\"svm_kernel\",\"evals\":6}\n\
             {\"type\":\"cg_outcome\",\"outcome\":\"converged\",\"iterations\":1,\
             \"final_residual_norm\":0.5,\"relative_residual\":0.25}\n\
             {\"type\":\"lowrank\",\"rank\":2,\"strategy\":\"leverage\",\"jitter_steps\":1,\
             \"direct_relative_residual\":0.001,\"pcg_iterations\":3,\
             \"assembly_wall_s\":0.002,\"solve_wall_s\":0.004}\n\
             {\"type\":\"simd_dispatch\",\"isa\":\"avx2\",\"forced\":false,\"panel_mr\":4,\
             \"panel_nr\":4,\"lanes_f32\":8,\"lanes_f64\":4}\n\
             {\"type\":\"span\",\"path\":\"train/cg/solve\",\"wall_s\":0.25}\n\
             {\"type\":\"span\",\"path\":\"train\",\"wall_s\":1.0}\n\
             {\"type\":\"recovery\",\"kind\":\"retry\",\"device\":1,\"at_launch\":5,\
             \"iteration\":null,\"detail\":\"transient \\\"timeout\\\"\"}\n\
             {\"type\":\"recovery\",\"kind\":\"checkpoint\",\"device\":null,\"at_launch\":null,\
             \"iteration\":1,\"detail\":\"cg state snapshot\"}\n\
             {\"type\":\"serve_batches\",\"count\":2,\"max_queue_depth\":1,\"queued_us_sum\":35,\
             \"process_us_sum\":16,\"mean_batch_size\":1.5}\n\
             {\"type\":\"serve_batch_size\",\"size\":1,\"count\":1}\n\
             {\"type\":\"serve_batch_size\",\"size\":2,\"count\":1}\n\
             {\"type\":\"serve_requests\",\"count\":2,\"errors\":1,\"latency_us_sum\":100,\
             \"latency_us_max\":60,\"mean_latency_us\":50.0}\n\
             {\"type\":\"serve_reload\",\"generation\":2,\"accepted\":true,\
             \"detail\":\"binary model, 4 features\"}\n\
             {\"type\":\"serve_overload\",\"shed\":1,\"deadline_exceeded\":1,\
             \"rejected_draining\":1,\"refused_connections\":1}\n\
             {\"type\":\"serve_reload_backoff\",\"consecutive_failures\":3,\
             \"backoff_us\":250000}\n"
        );
        assert_eq!(
            r.deterministic_summary(),
            "iterations=1\n\
             cg_dim=3\n\
             initial_residual_bits=4000000000000000\n\
             kernel=q_kernel launches=1 flops=10 bytes=20\n\
             kernel=svm_kernel launches=2 flops=300 bytes=400\n\
             kernel_evals=svm_kernel evals=6\n\
             iter=1 residual_bits=3fe0000000000000 alpha_bits=3fd0000000000000 \
             beta_bits=3fc0000000000000\n\
             outcome=converged iterations=1 final_residual_bits=3fe0000000000000 \
             relative_residual_bits=3fd0000000000000\n\
             lowrank rank=2 strategy=leverage jitter_steps=1 \
             direct_residual_bits=3f50624dd2f1a9fc pcg_iterations=3\n\
             recovery=retry device=1 launch=5 iter=- detail=transient \"timeout\"\n\
             recovery=checkpoint device=- launch=- iter=1 detail=cg state snapshot\n\
             serve_overload shed=1 deadline_exceeded=1 rejected_draining=1 \
             refused_connections=1 reload_backoffs=1\n"
        );
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(1e-7), "1e-7");
    }

    #[test]
    fn span_recorder_times_and_flushes() {
        let mut rec = SpanRecorder::new();
        let v = rec.time(spans::CG, || 41 + 1);
        assert_eq!(v, 42);
        rec.record(spans::READ, Duration::from_millis(3));
        assert_eq!(rec.spans().len(), 2);
        let t = Telemetry::new();
        rec.flush_into(&t);
        let r = t.report();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.span(spans::READ), Duration::from_millis(3));
    }
}
