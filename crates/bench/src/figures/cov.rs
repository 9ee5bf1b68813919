//! §IV-C — run-to-run stability: coefficient of variation of the
//! training time.
//!
//! The paper regenerates the synthetic data for every repetition and
//! reports the averaged coefficient of variation per implementation:
//! PLSSVM 0.26 (CPU) / 0.11 (GPU) vs ThunderSVM 0.92/0.37 and LIBSVM
//! 0.60/0.66 — the LS-SVM's iteration count barely depends on the data
//! realization, SMO's does. This driver reproduces that protocol and
//! additionally reports the CoV of the *solver iteration count*, which is
//! the underlying algorithmic quantity and is free of host scheduler
//! noise (this box has a single shared core).

use std::time::Instant;

use plssvm_core::svm::LsSvm;
use plssvm_core::trace::{spans, Telemetry};
use plssvm_data::model::KernelSpec;
use plssvm_smo::{SmoConfig, ThunderConfig, ThunderSolver};

use crate::figures::common::{paper_openmp, planes_data, FigureReport, Scale, Table};
use crate::stats::coefficient_of_variation;

/// One repetition: wall time and solver iterations. The PLSSVM row reads
/// both from the unified telemetry (the `train` span and the CG sample
/// count); the SMO baselines have no telemetry and are timed directly.
fn run_once(method: &str, m: usize, d: usize, seed: u64) -> (f64, f64) {
    let data = planes_data(m, d, seed);
    if method == "plssvm" {
        let out = LsSvm::new()
            .with_kernel(KernelSpec::Linear)
            .with_epsilon(1e-6)
            .with_backend(paper_openmp(None))
            .with_metrics(Telemetry::shared())
            .train(&data)
            .unwrap();
        let report = out.telemetry.expect("telemetry attached");
        return (
            report.span(spans::TRAIN).as_secs_f64(),
            report.iterations() as f64,
        );
    }
    let t0 = Instant::now();
    let iterations = match method {
        "libsvm" => {
            plssvm_smo::solver::train_sparse(&data, &SmoConfig::default())
                .unwrap()
                .iterations
        }
        "libsvm-dense" => {
            plssvm_smo::solver::train_dense(&data, &SmoConfig::default())
                .unwrap()
                .iterations
        }
        "thundersvm" => {
            ThunderSolver::new(ThunderConfig {
                working_set_size: 64,
                ..Default::default()
            })
            .unwrap()
            .train(&data)
            .unwrap()
            .inner_iterations
        }
        _ => unreachable!(),
    };
    (t0.elapsed().as_secs_f64(), iterations as f64)
}

/// Runs the stability study.
pub fn run(scale: Scale) -> FigureReport {
    let (m, d, reps) = match scale {
        Scale::Small => (96, 16, 4),
        Scale::Medium => (256, 64, 10),
    };
    let mut table = Table::new(&[
        "method",
        "mean time",
        "time CoV",
        "mean iterations",
        "iteration CoV",
        "runs",
    ]);
    for method in ["plssvm", "thundersvm", "libsvm", "libsvm-dense"] {
        // fresh data per repetition, like the paper
        let results: Vec<(f64, f64)> = (0..reps)
            .map(|r| run_once(method, m, d, 9000 + r as u64))
            .collect();
        let times: Vec<f64> = results.iter().map(|r| r.0).collect();
        let iters: Vec<f64> = results.iter().map(|r| r.1).collect();
        table.row(vec![
            method.into(),
            format!("{:.4}s", crate::stats::mean(&times)),
            format!("{:.2}", coefficient_of_variation(&times)),
            format!("{:.1}", crate::stats::mean(&iters)),
            format!("{:.2}", coefficient_of_variation(&iters)),
            reps.to_string(),
        ]);
    }
    let csv = table.write_csv("cov.csv");
    FigureReport {
        id: "cov".into(),
        title: format!("run-to-run stability, {m} points x {d} features, fresh data per run"),
        body: format!(
            "{}\nPaper CoVs (CPU wall time): PLSSVM 0.26, ThunderSVM 0.92, LIBSVM \
             0.60, LIBSVM-DENSE 0.66 — the SMO methods vary far more across data \
             realizations than the LS-SVM. The iteration-CoV column isolates the \
             algorithmic effect: the CG iteration count moves little across data \
             realizations while the SMO update counts swing; wall-clock on a \
             busy single-core host adds scheduler noise on top.\n",
            table.to_aligned()
        ),
        csv_files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_reports_all_methods_with_iteration_column() {
        let r = run(Scale::Small);
        for m in ["plssvm", "thundersvm", "libsvm", "libsvm-dense"] {
            assert!(r.body.contains(m), "{}", r.body);
        }
        assert!(r.body.contains("iteration CoV"));
        assert_eq!(r.csv_files.len(), 1);
    }

    #[test]
    fn lssvm_iteration_count_is_more_stable_than_smo() {
        // the algorithmic claim behind the paper's CoV table, measured on
        // iteration counts (noise-free): CG varies less than SMO updates
        let reps = 6;
        let cov_of = |method: &str| {
            let iters: Vec<f64> = (0..reps)
                .map(|r| run_once(method, 96, 16, 500 + r as u64).1)
                .collect();
            coefficient_of_variation(&iters)
        };
        let plssvm = cov_of("plssvm");
        let libsvm = cov_of("libsvm-dense");
        assert!(
            plssvm < libsvm,
            "CG iteration CoV {plssvm:.3} should undercut SMO's {libsvm:.3}"
        );
    }
}
