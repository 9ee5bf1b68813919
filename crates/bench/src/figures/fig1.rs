//! Figure 1 — runtime comparison PLSSVM vs LIBSVM (sparse/dense) vs
//! ThunderSVM, on CPU (measured) and GPU (modeled at paper scale).
//!
//! * 1a: CPU runtime vs number of data points (fixed features)
//! * 1b: CPU runtime vs number of features (fixed points)
//! * 1c: GPU runtime vs number of data points (fixed features)
//! * 1d: GPU runtime vs number of features (fixed points)
//!
//! CPU rows follow the paper's ε protocol (train until ≥ 97 % training
//! accuracy) with real wall-clock on this host at reduced sizes. GPU rows
//! evaluate the validated work models at the paper's sizes, with solver
//! iteration counts measured at feasible sizes (the paper itself observes
//! the CG iteration count to be nearly size-independent, §IV-C).

use plssvm_data::model::KernelSpec;
use plssvm_simgpu::{hw, Backend as DeviceApi};
use plssvm_smo::{SmoConfig, ThunderConfig, ThunderSolver};

use crate::figures::common::{
    fmt_secs, paper_openmp, planes_data, timed_lssvm_train, train_accuracy, FigureReport, Scale,
    Table,
};
use crate::protocol::epsilon_search;
use crate::workmodel::{LsSvmWorkModel, ThunderWorkModel};

/// The four CPU competitors of Fig. 1a/1b.
const CPU_METHODS: &[&str] = &["plssvm", "thundersvm", "libsvm", "libsvm-dense"];

fn cpu_method_time(method: &str, points: usize, features: usize, seed: u64) -> (f64, f64, usize) {
    let data = planes_data(points, features, seed);
    let result = epsilon_search(|eps| match method {
        "plssvm" => {
            let (out, _) = timed_lssvm_train(&data, KernelSpec::Linear, eps, paper_openmp(None));
            (train_accuracy(&out, &data), out.iterations)
        }
        "libsvm" | "libsvm-dense" => {
            let cfg = SmoConfig {
                kernel: KernelSpec::Linear,
                epsilon: eps,
                ..Default::default()
            };
            let out = if method == "libsvm" {
                plssvm_smo::solver::train_sparse(&data, &cfg)
            } else {
                plssvm_smo::solver::train_dense(&data, &cfg)
            }
            .expect("smo training");
            (
                plssvm_core::svm::accuracy(&out.model, &data),
                out.iterations,
            )
        }
        "thundersvm" => {
            let cfg = ThunderConfig {
                kernel: KernelSpec::Linear,
                epsilon: eps,
                working_set_size: 64,
                ..Default::default()
            };
            let out = ThunderSolver::new(cfg)
                .unwrap()
                .train(&data)
                .expect("thunder training");
            (
                plssvm_core::svm::accuracy(&out.model, &data),
                out.outer_iterations,
            )
        }
        _ => unreachable!(),
    });
    (
        result.chosen.time.as_secs_f64(),
        result.chosen.accuracy,
        result.chosen.iterations,
    )
}

fn cpu_sweep(
    id: &str,
    title: &str,
    sizes: &[(usize, usize)], // (points, features)
    vary_points: bool,
) -> FigureReport {
    let mut table = Table::new(&[
        if vary_points { "points" } else { "features" },
        "plssvm (1t)",
        "plssvm (128t model)",
        "thundersvm",
        "libsvm",
        "libsvm-dense",
        "plssvm acc",
    ]);
    // The paper's CPU comparison gives PLSSVM 128 OpenMP threads while
    // LIBSVM is single-threaded; this host has one core, so the many-core
    // column is the measured time divided by the Amdahl speedup fitted in
    // fig4a — that is where the paper's crossover comes from.
    let threads_speedup = crate::figures::fig4::cg_speedup(128);
    for (idx, &(m, d)) in sizes.iter().enumerate() {
        let mut cells = vec![if vary_points { m } else { d }.to_string()];
        let mut acc = 0.0;
        for method in CPU_METHODS {
            let (t, a, _) = cpu_method_time(method, m, d, 1000 + idx as u64);
            if *method == "plssvm" {
                acc = a;
                cells.push(fmt_secs(t));
                cells.push(fmt_secs(t / threads_speedup));
            } else {
                cells.push(fmt_secs(t));
            }
        }
        cells.push(format!("{:.1}%", 100.0 * acc));
        table.row(cells);
    }
    let csv = table.write_csv(&format!("{id}.csv"));
    FigureReport {
        id: id.into(),
        title: title.into(),
        body: format!(
            "{}\nProtocol: ε search ×0.1 until ≥97 % training accuracy (paper §IV-B).\n\
             Measured wall-clock on this host (single core), linear kernel. The \
             '128t model' column divides the measured PLSSVM time by the Amdahl \
             speedup ({threads_speedup:.0}x at 128 threads): the paper runs PLSSVM with \
             OpenMP on 2x64 cores against single-threaded LIBSVM, which is what \
             produces its CPU crossover at ~2^11 points.\n",
            table.to_aligned()
        ),
        csv_files: vec![csv],
    }
}

/// Fig. 1a — CPU, runtime vs data points (paper: 2⁶…2¹⁵ points, 2¹⁰
/// features; scaled here).
pub fn run_fig1a(scale: Scale) -> FigureReport {
    let (d, exps): (usize, Vec<u32>) = match scale {
        Scale::Small => (16, vec![5, 6, 7]),
        Scale::Medium => (64, vec![6, 7, 8, 9, 10, 11]),
    };
    let sizes: Vec<(usize, usize)> = exps.iter().map(|&e| (1usize << e, d)).collect();
    cpu_sweep(
        "fig1a",
        &format!("CPU runtime vs #points ({d} features)"),
        &sizes,
        true,
    )
}

/// Fig. 1b — CPU, runtime vs features (paper: 2⁴…2¹⁴ features, 2¹³
/// points; scaled here).
pub fn run_fig1b(scale: Scale) -> FigureReport {
    let (m, exps): (usize, Vec<u32>) = match scale {
        Scale::Small => (64, vec![3, 4, 5]),
        Scale::Medium => (256, vec![4, 5, 6, 7, 8]),
    };
    let sizes: Vec<(usize, usize)> = exps.iter().map(|&e| (m, 1usize << e)).collect();
    cpu_sweep(
        "fig1b",
        &format!("CPU runtime vs #features ({m} points)"),
        &sizes,
        false,
    )
}

/// Measures the batched solver's *total updates per data point* `u` at
/// feasible sizes. Batched SMO performs `≈ u·m` two-variable updates in
/// total, so its outer iteration count at any working set size `q` is
/// `u·m/q` — this is the law the paper's own profiling implies (≈1600
/// launches at `m = 2¹⁴` ⇒ `u ≈ 8-20`), and it is what makes the GPU
/// comparison extrapolate sanely.
pub(crate) fn thunder_updates_per_point(scale: Scale) -> f64 {
    let sizes: Vec<usize> = match scale {
        Scale::Small => vec![64, 128],
        Scale::Medium => vec![128, 256, 512],
    };
    let ws = 64usize;
    let mut us = Vec::new();
    for (i, &m) in sizes.iter().enumerate() {
        let data = planes_data(m, 32, 400 + i as u64);
        let out = ThunderSolver::new(ThunderConfig {
            kernel: KernelSpec::Linear,
            working_set_size: ws,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .expect("thunder");
        us.push((out.outer_iterations.max(1) * ws) as f64 / m as f64);
    }
    crate::stats::mean(&us)
}

/// CG iterations for the paper-scale models, measured at a feasible size.
fn cg_iterations(scale: Scale) -> usize {
    match scale {
        Scale::Small => crate::figures::common::measured_iterations(128, 32, 7),
        Scale::Medium => crate::figures::common::measured_iterations(512, 128, 7),
    }
}

fn gpu_sweep(
    id: &str,
    title: &str,
    sizes: &[(usize, usize)],
    vary_points: bool,
    scale: Scale,
) -> FigureReport {
    let iters = cg_iterations(scale);
    let calls = LsSvmWorkModel::matvec_calls(iters);
    let u = thunder_updates_per_point(scale);
    let mut table = Table::new(&[
        if vary_points { "points" } else { "features" },
        "plssvm (A100)",
        "thundersvm (A100)",
        "speedup",
    ]);
    for &(m, d) in sizes {
        let t_ls = LsSvmWorkModel::new(m, d, KernelSpec::Linear).sim_time_s(
            &hw::A100,
            DeviceApi::Cuda,
            calls,
        );
        let thunder = ThunderWorkModel::new(m, d);
        let outer = thunder.outer_iterations(u);
        let t_th = thunder.sim_time_s(&hw::A100, outer);
        table.row(vec![
            if vary_points { m } else { d }.to_string(),
            fmt_secs(t_ls),
            fmt_secs(t_th),
            format!("{:.1}x", t_th / t_ls),
        ]);
    }
    let csv = table.write_csv(&format!("{id}.csv"));
    FigureReport {
        id: id.into(),
        title: title.into(),
        body: format!(
            "{}\nModeled at paper scale on a simulated A100 (CUDA profile): \
             LS-SVM with {iters} CG iterations (measured at a feasible size; the \
             paper reports the count to be nearly size-independent); ThunderSVM \
             priced at its profiled 2.4 % of FP64 peak with its outer iterations \
             from the total-updates law u·m/q, u = {u:.1} measured from executed \
             batched-SMO runs. Paper reference points: 10 s vs 72 s at 2^14 \
             points (7.2x) and 17 s vs 241 s at 2^11 features (14.2x).\n",
            table.to_aligned()
        ),
        csv_files: vec![csv],
    }
}

/// Fig. 1c — GPU, runtime vs data points (paper: 2⁸…2¹⁵ points, 2¹²
/// features).
pub fn run_fig1c(scale: Scale) -> FigureReport {
    let exps: Vec<u32> = match scale {
        Scale::Small => vec![8, 10, 12],
        Scale::Medium => vec![8, 9, 10, 11, 12, 13, 14, 15],
    };
    let sizes: Vec<(usize, usize)> = exps.iter().map(|&e| (1usize << e, 1 << 12)).collect();
    gpu_sweep(
        "fig1c",
        "GPU runtime vs #points (2^12 features)",
        &sizes,
        true,
        scale,
    )
}

/// Fig. 1d — GPU, runtime vs features (paper: 2⁶…2¹⁴ features, 2¹⁵
/// points).
pub fn run_fig1d(scale: Scale) -> FigureReport {
    let exps: Vec<u32> = match scale {
        Scale::Small => vec![6, 8, 10],
        Scale::Medium => vec![6, 7, 8, 9, 10, 11, 12, 13, 14],
    };
    let sizes: Vec<(usize, usize)> = exps.iter().map(|&e| (1usize << 15, 1 << e)).collect();
    gpu_sweep(
        "fig1d",
        "GPU runtime vs #features (2^15 points)",
        &sizes,
        false,
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_small_produces_all_columns() {
        let r = run_fig1a(Scale::Small);
        assert_eq!(r.id, "fig1a");
        for m in ["plssvm", "thundersvm", "libsvm", "libsvm-dense"] {
            assert!(r.body.contains(m), "{}", r.body);
        }
        // three sizes → header + separator + 3 rows
        assert!(r.body.lines().count() >= 5);
    }

    #[test]
    fn fig1c_small_shows_plssvm_ahead() {
        let r = run_fig1c(Scale::Small);
        // at 2^12 points the modeled speedup must be > 1 (the paper's
        // headline: PLSSVM clearly ahead of ThunderSVM on GPUs)
        let last = r
            .body
            .lines()
            .rfind(|l| l.starts_with(" "))
            .unwrap()
            .to_string();
        assert!(last.contains('x'), "{last}");
    }

    #[test]
    fn thunder_updates_per_point_in_plausible_range() {
        let u = thunder_updates_per_point(Scale::Small);
        // the paper's profiling implies u ≈ 8-20 on planes-like data
        assert!((1.0..200.0).contains(&u), "u = {u}");
    }
}
