//! The implicit `Q̃` matrix–vector product — the paper's hot kernel —
//! across all backends, plus the OpenMP backend's factored linear-kernel
//! operator (`openmp/linear`) against its implicit sweep
//! (`openmp_implicit/linear`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use plssvm_core::backend::{BackendSelection, CpuTilingConfig, Prepared};
use plssvm_core::cg::LinOp;
use plssvm_data::dense::SoAMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};
use plssvm_simgpu::{hw, Backend as DeviceApi};

fn kernel_name(k: &KernelSpec<f64>) -> &'static str {
    k.name()
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("q_tilde_matvec");
    group.sample_size(10);
    let m = 256usize;
    let d = 64usize;
    let data = generate_planes::<f64>(&PlanesConfig::new(m, d, 2)).unwrap();
    let soa = SoAMatrix::from_dense(&data.x, 64);
    let n = m - 1;
    let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    for (name, selection) in [
        ("serial", BackendSelection::Serial),
        ("openmp", BackendSelection::openmp(None)),
        (
            "openmp_implicit",
            BackendSelection::OpenMp {
                threads: None,
                tiling: CpuTilingConfig::default().with_implicit(true),
            },
        ),
        (
            "simgpu_cuda",
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ),
        (
            "simgpu_4dev",
            BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 4),
        ),
    ] {
        for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 0.1 }] {
            if matches!(kernel, KernelSpec::Rbf { .. }) && name == "simgpu_4dev" {
                continue; // multi-device is linear-only, as in the paper
            }
            let prepared = Prepared::new(&selection, &data.x, Some(&soa), &kernel, 1.0).unwrap();
            let mut out = vec![0.0; n];
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/{}", kernel_name(&kernel)), m),
                &m,
                |bench, _| {
                    bench.iter(|| {
                        prepared.apply(black_box(&v), &mut out);
                        black_box(out[0])
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matvec);
criterion_main!(benches);
