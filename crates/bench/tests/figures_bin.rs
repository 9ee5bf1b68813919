//! Smoke tests of the `figures` experiment binary.

use std::process::Command;

/// Runs `figures` from the test scratch directory under `target/` and
/// points its results directory there, so the smoke-size CSVs never
/// overwrite the workspace's `bench_results/`.
fn run(args: &[&str]) -> (bool, String, String) {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(tmp)
        .env(plssvm_bench::RESULTS_DIR_ENV, tmp.join("bench_results"))
        .output()
        .expect("spawn figures");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_every_experiment() {
    let (ok, stdout, _) = run(&["--list"]);
    assert!(ok);
    for id in [
        "table1",
        "fig1a",
        "fig1b",
        "fig1c",
        "fig1d",
        "fig2a",
        "fig2b",
        "fig3",
        "fig4a",
        "fig4b",
        "sat6",
        "profiling",
        "cov",
        "ablation",
        "multinode",
        "precision",
    ] {
        assert!(stdout.lines().any(|l| l == id), "missing {id}:\n{stdout}");
    }
}

#[test]
fn runs_a_small_experiment_and_writes_csv() {
    let (ok, stdout, stderr) = run(&["fig3", "--scale", "small"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("## fig3"), "{stdout}");
    assert!(stdout.contains("epsilon"), "{stdout}");
    assert!(std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("bench_results/fig3.csv")
        .exists());
}

#[test]
fn unknown_experiment_fails_cleanly() {
    let (ok, _, stderr) = run(&["fig9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (ok, _, stderr) = run(&["fig3", "--scale", "galactic"]);
    assert!(!ok);
    assert!(stderr.contains("--scale"), "{stderr}");
}
