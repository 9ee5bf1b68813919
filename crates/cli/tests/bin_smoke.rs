//! End-to-end smoke tests of the real CLI binaries (spawned processes,
//! exactly as a user would run them).

use std::path::PathBuf;
use std::process::Command;

#[path = "../../core/tests/scratch/mod.rs"]
mod scratch;
use scratch::ScratchDir;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let exe = match bin {
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        "svm-scale" => env!("CARGO_BIN_EXE_svm-scale"),
        "generate-data" => env!("CARGO_BIN_EXE_generate-data"),
        _ => panic!("unknown binary {bin}"),
    };
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_pipeline_through_the_binaries() {
    let dir = ScratchDir::new("bin-smoke-pipeline");
    let data = dir.join("train.dat");
    let scaled = dir.join("scaled.dat");
    let model = dir.join("train.model");
    let preds = dir.join("preds.txt");

    // generate
    let (ok, stdout, stderr) = run(
        "generate-data",
        &[
            "--points",
            "80",
            "--features",
            "6",
            "--seed",
            "4",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("80 points"), "{stdout}");

    // scale (stdout → file)
    let (ok, scaled_content, stderr) = run(
        "svm-scale",
        &["-l", "-1", "-u", "1", data.to_str().unwrap()],
    );
    assert!(ok, "{stderr}");
    std::fs::write(&scaled, &scaled_content).unwrap();
    assert_eq!(scaled_content.lines().count(), 80);

    // train on the simulated GPU
    let (ok, stdout, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--backend",
            "cuda",
            "-n",
            "2",
            scaled.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simulated device time"), "{stdout}");
    assert!(model.exists());

    // predict
    let (ok, stdout, stderr) = run(
        "svm-predict",
        &[
            scaled.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Accuracy"), "{stdout}");
    let acc: f64 = stdout
        .split('=')
        .nth(1)
        .unwrap()
        .trim()
        .split('%')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(acc >= 97.0, "{stdout}");
    assert_eq!(std::fs::read_to_string(&preds).unwrap().lines().count(), 80);
}

#[test]
fn fault_injected_training_through_the_binary() {
    let dir = ScratchDir::new("bin-smoke-fault");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let metrics = dir.join("metrics.jsonl");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "8",
            "--seed",
            "21",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // fail-stop device 1 of 4 mid-solve, with transient noise and
    // periodic CG checkpoints; training must still converge
    let (ok, stdout, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--backend",
            "cuda",
            "-n",
            "4",
            "--fault-plan",
            "fail:1@4;transient:3@1x2",
            "--checkpoint-every",
            "4",
            "--metrics-out",
            metrics.to_str().unwrap(),
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("converged: true"), "{stdout}");
    assert!(stdout.contains("training accuracy"), "{stdout}");
    assert!(model.exists());

    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"type\":\"recovery\""), "{json}");
    assert!(json.contains("\"kind\":\"failover\""), "{json}");
    assert!(json.contains("\"kind\":\"retry\""), "{json}");
    assert!(json.contains("\"kind\":\"checkpoint\""), "{json}");

    // a malformed plan is a usage error, not a crash
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "--backend",
            "cuda",
            "--fault-plan",
            "explode:0@1",
            data.to_str().unwrap(),
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("fault"), "{stderr}");
}

/// Like [`run`], with extra environment variables set for the child —
/// the only race-free way to test `PLSSVM_FORCE_ISA` (mutating the
/// parent's environment would leak across parallel tests).
fn run_env(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let exe = match bin {
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        _ => panic!("unknown binary {bin}"),
    };
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn force_isa_env_round_trips_through_the_binaries() {
    let dir = ScratchDir::new("bin-smoke-force_isa");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let preds = dir.join("preds.txt");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "5",
            "--seed",
            "19",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // forcing the scalar tier is honored and surfaced in --verbose
    let (ok, stdout, stderr) = run_env(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "scalar")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simd dispatch: scalar"), "{stdout}");
    assert!(stdout.contains("forced via PLSSVM_FORCE_ISA"), "{stdout}");
    assert!(model.exists());

    // predict surfaces the dispatch too
    let (ok, stdout, stderr) = run_env(
        "svm-predict",
        &[
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "scalar")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simd dispatch: scalar"), "{stdout}");

    // a typo in the override warns but never fails the run: the engine
    // falls back to auto-detection
    let (ok, stdout, stderr) = run_env(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "avx9000")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("WARNING: PLSSVM_FORCE_ISA"), "{stdout}");
    assert!(stdout.contains("auto-detected"), "{stdout}");
}

#[test]
fn train_help_and_errors_exit_nonzero() {
    let (ok, _, stderr) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(stderr.contains("-t kernel_type"), "{stderr}");

    let (ok, _, stderr) = run("svm-train", &["/nonexistent/input.dat"]);
    assert!(!ok);
    assert!(stderr.contains("svm-train:"), "{stderr}");

    let (ok, _, stderr) = run("svm-predict", &["only-one-arg"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    let (ok, _, stderr) = run("svm-scale", &[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    let (ok, _, stderr) = run("generate-data", &["--points", "10"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn lowrank_resume_is_a_usage_error_with_exit_code_2() {
    let dir = ScratchDir::new("bin-smoke-lowrank_resume");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "40",
            "--features",
            "4",
            "--seed",
            "7",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    // --resume with --solver lowrank is rejected at parse time: the
    // checkpoint journal streams exact-CG state only
    let exe = env!("CARGO_BIN_EXE_svm-train");
    let out = Command::new(exe)
        .args([
            "--solver",
            "lowrank",
            "--rank",
            "16",
            "--checkpoint-dir",
            dir.join("journal").to_str().unwrap(),
            "--resume",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--resume"), "{stderr}");
    assert!(stderr.contains("lowrank"), "{stderr}");

    // the help text documents the solver flags
    let (ok, _, help) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(help.contains("--solver"), "{help}");
    assert!(help.contains("--rank"), "{help}");
    assert!(help.contains("--landmarks"), "{help}");
}

#[test]
fn cross_validation_through_the_binary() {
    let dir = ScratchDir::new("bin-smoke-cv");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "4",
            "--seed",
            "5",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    let (ok, stdout, stderr) = run("svm-train", &["-v", "4", data.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Cross Validation Accuracy"), "{stdout}");
}

#[test]
fn arff_input_through_the_binary() {
    let dir = ScratchDir::new("bin-smoke-arff");
    let data = dir.join("train.arff");
    run(
        "generate-data",
        &[
            "--points",
            "50",
            "--features",
            "4",
            "--seed",
            "6",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "--format",
            "arff",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    let (ok, stdout, stderr) = run("svm-train", &["-e", "1e-8", data.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("training accuracy"), "{stdout}");
}

#[test]
fn storage_faults_through_the_binary_exit_4_or_retry_to_success() {
    let dir = ScratchDir::new("bin-smoke-io_faults");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "50",
            "--features",
            "4",
            "--seed",
            "19",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );

    // a persistent ENOSPC on every model-write operation: distinct exit
    // code 4 (storage failure), no model file left behind
    let model = dir.join("refused.model");
    let exe = env!("CARGO_BIN_EXE_svm-train");
    let out = Command::new(exe)
        .args([
            "-e",
            "1e-8",
            "--io-faults",
            "enospc:write@0~model!",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "storage failures must exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("storage failure"), "{stderr}");
    assert!(stderr.contains("ENOSPC"), "{stderr}");
    assert!(!model.exists(), "no torn model may survive");

    // a transient fault on the same operation is retried to success
    let model = dir.join("retried.model");
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--io-faults",
            "enospc:write@0~model",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(model.exists());

    // a malformed plan is a usage error (exit 2)
    let out = Command::new(exe)
        .args(["--io-faults", "explode:write@1", data.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // the help text documents the storage-fault flags and exit code 4
    let (ok, _, help) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(help.contains("--io-faults"), "{help}");
    assert!(help.contains("--on-io-degraded"), "{help}");
    assert!(help.contains("4 storage failure"), "{help}");
}

/// `svm-predict`'s binary `Accuracy =` line must score each prediction
/// against the held-out file's own labels, even when that file's first
/// row belongs to the class the training file lists second (the ±1
/// encoding of the two files then disagrees).
#[test]
fn predict_accuracy_follows_the_test_files_labels() {
    let dir = ScratchDir::new("bin-smoke-accuracy_labels");
    let train = dir.join("train.dat");
    let model = dir.join("train.model");
    let generate = |format: &str, out: &PathBuf| {
        let (ok, _, stderr) = run(
            "generate-data",
            &[
                "--points",
                "60",
                "--features",
                "4",
                "--seed",
                "12",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "--format",
                format,
                "-o",
                out.to_str().unwrap(),
            ],
        );
        assert!(ok, "{stderr}");
    };
    generate("libsvm", &train);
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            train.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    let arff = dir.join("train.arff");
    generate("arff", &arff);
    // (held-out file, label of a data line, whether a line is a data line)
    type Format = (&'static str, fn(&str) -> i32, fn(&str) -> bool);
    let libsvm: Format = (
        "test.dat",
        |l| l.split_whitespace().next().unwrap().parse().unwrap(),
        |l| !l.trim().is_empty(),
    );
    let arff_format: Format = (
        "test.arff",
        |l| l.rsplit(',').next().unwrap().trim().parse().unwrap(),
        |l| !l.trim().is_empty() && !l.starts_with('@') && !l.starts_with('%'),
    );
    for ((name, label_of, is_data), source) in [(libsvm, &train), (arff_format, &arff)] {
        // move the first row of the other class to the front
        let content = std::fs::read_to_string(source).unwrap();
        let mut lines: Vec<&str> = content.lines().collect();
        let first = lines.iter().position(|l| is_data(l)).unwrap();
        let other = (first..lines.len())
            .find(|&i| is_data(lines[i]) && label_of(lines[i]) != label_of(lines[first]))
            .unwrap();
        let row = lines.remove(other);
        lines.insert(first, row);
        let test = dir.join(name);
        std::fs::write(&test, lines.join("\n") + "\n").unwrap();

        let preds = dir.join(format!("{name}.preds"));
        let (ok, stdout, stderr) = run(
            "svm-predict",
            &[
                test.to_str().unwrap(),
                model.to_str().unwrap(),
                preds.to_str().unwrap(),
            ],
        );
        assert!(ok, "{stderr}");
        let truth: Vec<i32> = lines
            .iter()
            .filter(|l| is_data(l))
            .map(|l| label_of(l))
            .collect();
        let predicted: Vec<i32> = std::fs::read_to_string(&preds)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        let correct = truth.iter().zip(&predicted).filter(|(t, p)| t == p).count();
        assert!(
            correct * 10 >= truth.len() * 9,
            "{name}: {correct}/{}",
            truth.len()
        );
        let expected = format!("({correct}/{})", truth.len());
        assert!(stdout.contains(&expected), "{name}: {stdout} vs {expected}");
    }
}
