//! Cross-crate integration tests: the full pipelines a user of the
//! published library would run, spanning `plssvm-data`, `plssvm-core`,
//! `plssvm-simgpu` and `plssvm-smo`.

use plssvm::core::backend::BackendSelection;
use plssvm::core::svm::{accuracy, predict_decision_values, predict_labels, LsSvm};
use plssvm::data::libsvm::{read_libsvm_str, write_libsvm_string};
use plssvm::data::model::{KernelSpec, SvmModel};
use plssvm::data::scale::ScalingParams;
use plssvm::data::split::train_test_split;
use plssvm::data::synthetic::{generate_planes, PlanesConfig};
use plssvm::simgpu::{hw, Backend as DeviceApi};
use plssvm::smo::{SmoConfig, ThunderConfig, ThunderSolver};

#[path = "../crates/core/tests/scratch/mod.rs"]
mod scratch;
use scratch::ScratchDir;

#[test]
fn generate_scale_split_train_save_load_predict() {
    // 1. generate
    let mut data =
        generate_planes::<f64>(&PlanesConfig::new(300, 12, 424).with_cluster_sep(3.0)).unwrap();
    // 2. scale to [-1, 1]
    let params = ScalingParams::fit(&data.x, -1.0, 1.0).unwrap();
    params.apply(&mut data.x).unwrap();
    // 3. split
    let (train, test) = train_test_split(&data, 0.25, true, 1).unwrap();
    // 4. train
    let out = LsSvm::new()
        .with_kernel(KernelSpec::Linear)
        .with_epsilon(1e-8)
        .train(&train)
        .unwrap();
    assert!(out.converged);
    // 5. save + reload, predictions identical
    let dir = ScratchDir::new("e2e");
    let path = dir.join("e2e.model");
    out.model.save(&path).unwrap();
    let loaded = SvmModel::<f64>::load(&path).unwrap();
    assert_eq!(
        predict_labels(&out.model, &test.x),
        predict_labels(&loaded, &test.x)
    );
    // 6. accuracy sane on held-out data (1 % label flips bound it)
    let acc = accuracy(&loaded, &test);
    assert!(acc > 0.90, "test accuracy {acc}");
}

#[test]
fn libsvm_text_roundtrip_preserves_training_result() {
    let data = generate_planes::<f64>(&PlanesConfig::new(120, 8, 5)).unwrap();
    let text = write_libsvm_string(&data, true);
    let reparsed = read_libsvm_str::<f64>(&text, Some(data.features())).unwrap();
    let a = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
    let b = LsSvm::new().with_epsilon(1e-10).train(&reparsed).unwrap();
    assert_eq!(a.iterations, b.iterations);
    // LIBSVM maps the *first label in the file* to +1, so the sign of rho
    // may flip on re-parse — predictions in original label space must be
    // identical though.
    assert!((a.model.rho.abs() - b.model.rho.abs()).abs() < 1e-12);
    assert_eq!(
        predict_labels(&a.model, &data.x),
        predict_labels(&b.model, &data.x)
    );
}

#[test]
fn all_backends_produce_interchangeable_models() {
    let data = generate_planes::<f64>(&PlanesConfig::new(150, 10, 6)).unwrap();
    let backends = [
        BackendSelection::Serial,
        BackendSelection::openmp(Some(2)),
        BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        BackendSelection::sim_gpu(hw::RADEON_VII, DeviceApi::OpenCl),
        BackendSelection::sim_gpu(hw::V100, DeviceApi::SyclHip),
        BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 3),
    ];
    let outputs: Vec<_> = backends
        .iter()
        .map(|b| {
            LsSvm::new()
                .with_epsilon(1e-10)
                .with_backend(b.clone())
                .train(&data)
                .unwrap()
        })
        .collect();
    let reference = predict_decision_values(&outputs[0].model, &data.x);
    for out in &outputs[1..] {
        let values = predict_decision_values(&out.model, &data.x);
        for (a, b) in reference.iter().zip(&values) {
            assert!(
                (a - b).abs() < 1e-6,
                "{}: decision values diverge: {a} vs {b}",
                out.backend_name
            );
        }
    }
}

#[test]
fn lssvm_and_smo_reach_comparable_accuracy() {
    // the paper's central accuracy claim: LS-SVM accuracy on par with SMO
    let data =
        generate_planes::<f64>(&PlanesConfig::new(200, 16, 7).with_cluster_sep(2.5)).unwrap();
    let ls = LsSvm::new().with_epsilon(1e-8).train(&data).unwrap();
    let smo = plssvm::smo::solver::train_dense(&data, &SmoConfig::default()).unwrap();
    let thunder = ThunderSolver::new(ThunderConfig {
        working_set_size: 32,
        ..Default::default()
    })
    .unwrap()
    .train(&data)
    .unwrap();
    let a_ls = accuracy(&ls.model, &data);
    let a_smo = accuracy(&smo.model, &data);
    let a_th = accuracy(&thunder.model, &data);
    assert!((a_ls - a_smo).abs() < 0.05, "LS {a_ls} vs SMO {a_smo}");
    assert!((a_ls - a_th).abs() < 0.05, "LS {a_ls} vs Thunder {a_th}");
    assert!(a_ls > 0.93);
}

#[test]
fn lssvm_uses_all_points_smo_uses_few_on_separable_data() {
    // the structural difference §II-C describes
    let data = generate_planes::<f64>(
        &PlanesConfig::new(160, 8, 8)
            .with_cluster_sep(4.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let ls = LsSvm::new().train(&data).unwrap();
    let smo = plssvm::smo::solver::train_dense(&data, &SmoConfig::default()).unwrap();
    assert_eq!(ls.model.total_sv(), data.points());
    assert!(
        smo.model.total_sv() < data.points() / 4,
        "SMO kept {} of {} points",
        smo.model.total_sv(),
        data.points()
    );
}

#[test]
fn device_memory_limit_is_enforced_end_to_end() {
    // the Intel iGPU has an 8 GiB budget; a data set bigger than that must
    // fail with an out-of-memory device error, not crash
    let data = generate_planes::<f64>(&PlanesConfig::new(64, 8, 9)).unwrap();
    // shrink the budget by using a custom spec
    let mut tiny = hw::INTEL_P630;
    tiny.memory_gib = 1.0 / (1 << 18) as f64; // 4 KiB
    let err = LsSvm::new()
        .with_backend(BackendSelection::sim_gpu(tiny, DeviceApi::OpenCl))
        .train(&data)
        .unwrap_err();
    assert!(err.to_string().contains("out of memory"), "{err}");
}

#[test]
fn f32_and_f64_models_agree_on_easy_data() {
    let data64 = generate_planes::<f64>(
        &PlanesConfig::new(100, 6, 10)
            .with_cluster_sep(4.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let data32 = generate_planes::<f32>(
        &PlanesConfig::new(100, 6, 10)
            .with_cluster_sep(4.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let out64 = LsSvm::<f64>::new()
        .with_epsilon(1e-6)
        .train(&data64)
        .unwrap();
    let out32 = LsSvm::<f32>::new()
        .with_epsilon(1e-4)
        .train(&data32)
        .unwrap();
    assert_eq!(accuracy(&out64.model, &data64), 1.0);
    assert_eq!(accuracy(&out32.model, &data32), 1.0);
}

#[test]
fn polynomial_kernel_end_to_end() {
    let data = generate_planes::<f64>(&PlanesConfig::new(120, 6, 11)).unwrap();
    let out = LsSvm::new()
        .with_kernel(KernelSpec::Polynomial {
            degree: 2,
            gamma: 0.5,
            coef0: 1.0,
        })
        .with_epsilon(1e-8)
        .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
        .train(&data)
        .unwrap();
    assert!(out.converged);
    assert!(accuracy(&out.model, &data) > 0.9);
    // model file roundtrip keeps the kernel hyperparameters
    let dir = ScratchDir::new("poly");
    let path = dir.join("poly.model");
    out.model.save(&path).unwrap();
    let loaded = SvmModel::<f64>::load(&path).unwrap();
    assert_eq!(loaded.kernel, out.model.kernel);
}
