//! `perfbench`: one seeded benchmark of `svm-train`, `svm-predict` and
//! `svm-serve` (see README.md).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` runs the real binaries as processes and prints the
//! end-to-end metrics; `--trace 1` times each layer's public functions
//! in-process on the same inputs and prints the per-layer metrics. The
//! last stdout line is the JSON result.

mod gen;
mod layers;
mod load;
mod procs;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use load::{open_loop, poisson_schedule, saturate, Rung, Server, LAG_BOUND_MS, MAX_OUTSTANDING};
use stats::median;

/// Saturation runs per run; `max_rate_rps` is the median of their reply
/// rates, so one host stall does not set it. Each lasts over a second:
/// half-second runs on the same server scatter by ±25 %.
const SATURATION_RUNS: usize = 5;
/// Upper bound on train/predict repetitions within one run. Repetitions
/// run back to back until the train share of the run is spent: on a VM,
/// a process started after the CPU idled (even for 100 ms) takes 1.5–2×
/// as long, and scatters far more, as one started right after another.
const MAX_REPS: usize = 10_000;

#[derive(Clone, Copy)]
pub enum Data {
    Planes {
        features: usize,
        sep: f64,
        flip: f64,
    },
    Sat6,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Kernel {
    Linear,
    Rbf,
}

/// One workload: a seeded data draw, the kernel it is trained with, and
/// how its model is served.
pub struct Workload {
    pub name: &'static str,
    data: Data,
    train_rows: usize,
    test_rows: usize,
    pub kernel: Kernel,
    /// The process users wait on is `svm-serve`: start-up and peak memory
    /// are measured on it instead of `svm-predict` and `svm-train`.
    pub serving: bool,
    accuracy_floor: f64,
    /// Start-up probes per run; `setup_s` is their median.
    setup_probes: usize,
    /// Share of `--seconds` spent repeating train + predict, with the
    /// start-up probes and saturation runs spread between the repetitions.
    train_share: f64,
    /// The open-loop rate whose latencies are reported (requests/s), and
    /// its share of `--seconds`.
    pub reference_rps: f64,
    reference_share: f64,
    /// Requests of each saturation run (1 to 1.5 s worth).
    saturation_requests: usize,
}

impl Workload {
    /// Seconds of the reference run.
    pub fn reference_s(&self, seconds: f64) -> f64 {
        seconds * self.reference_share
    }
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "planes-linear",
        data: Data::Planes {
            features: 128,
            sep: 2.0,
            flip: 0.01,
        },
        train_rows: 4096,
        test_rows: 4096,
        kernel: Kernel::Linear,
        serving: false,
        accuracy_floor: 0.9,
        setup_probes: 21,
        train_share: 0.85,
        reference_rps: 200.0,
        reference_share: 0.075,
        saturation_requests: 6000,
    },
    Workload {
        name: "sat6-rbf",
        data: Data::Sat6,
        train_rows: 1024,
        test_rows: 1024,
        kernel: Kernel::Rbf,
        serving: false,
        accuracy_floor: 0.9,
        setup_probes: 7,
        train_share: 0.85,
        reference_rps: 25.0,
        reference_share: 0.075,
        saturation_requests: 400,
    },
    Workload {
        name: "serve-tiny",
        data: Data::Planes {
            features: 4,
            sep: 3.0,
            flip: 0.0,
        },
        train_rows: 32,
        test_rows: 480,
        kernel: Kernel::Linear,
        serving: true,
        accuracy_floor: 0.9,
        setup_probes: 21,
        train_share: 0.5,
        reference_rps: 2000.0,
        reference_share: 0.3,
        saturation_requests: 400_000,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value()? == "1"),
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// Paths of the built binaries (they sit next to this executable).
pub struct Bins {
    pub train: PathBuf,
    pub predict: PathBuf,
    pub serve: PathBuf,
}

/// The generated inputs of one run, in a scratch directory removed on drop.
pub struct Inputs {
    dir: PathBuf,
    /// The run's seed; it also seeds the serve schedules.
    pub seed: u64,
    pub train: PathBuf,
    pub test: PathBuf,
    pub probe: PathBuf,
    pub train_bytes: u64,
    pub test_labels: Vec<i32>,
    /// Held-out rows as newline-terminated LIBSVM request lines.
    pub requests: Vec<String>,
}

impl Inputs {
    fn generate(w: &Workload, seed: u64, smoke: bool, dir: PathBuf) -> std::io::Result<Inputs> {
        // smoke size: an eighth of the train workloads' rows
        let (train_rows, test_rows) = match smoke && !w.serving {
            true => (w.train_rows / 8, w.test_rows / 8),
            false => (w.train_rows, w.test_rows),
        };
        let mut rng = gen::Rng::new(seed);
        let all = match w.data {
            Data::Planes {
                features,
                sep,
                flip,
            } => gen::planes(train_rows + test_rows, features, sep, flip, &mut rng),
            Data::Sat6 => gen::sat6_like(train_rows + test_rows, &mut rng),
        };
        let rows = gen::split(&all, train_rows, &mut rng);
        std::fs::create_dir_all(&dir)?;
        let requests: Vec<String> = (train_rows..rows.len())
            .map(|i| rows.libsvm_line(i))
            .collect();
        let (train, test, probe) = (
            dir.join("train.libsvm"),
            dir.join("test.libsvm"),
            dir.join("probe.libsvm"),
        );
        let train_bytes = rows.write_libsvm(&train, 0..train_rows)?;
        rows.write_libsvm(&test, train_rows..rows.len())?;
        std::fs::write(&probe, &requests[0])?;
        Ok(Inputs {
            dir,
            seed,
            train,
            test,
            probe,
            train_bytes,
            test_labels: rows.y[train_rows..].to_vec(),
            requests,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Metrics plus the operation tally: every process, check and request is
/// one attempted operation; any that fails makes the run incorrect.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Set when the load generator itself fell behind.
    invalid: Option<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            invalid: None,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(false, format_args!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one operation; logs and counts a failure when `!ok`.
    pub fn check(&mut self, ok: bool, what: std::fmt::Arguments) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
        ok
    }

    /// Counts `total` requests of which `failed` failed.
    pub fn requests(&mut self, total: usize, failed: usize, what: &str) {
        self.attempted += total as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("perfbench: FAILED: {failed} of {total} {what} replies missing or wrong");
        }
    }

    /// Checks the generator kept to its schedule on `rung`.
    pub fn lag(&mut self, rung: &Rung) {
        if !rung.on_schedule() && self.invalid.is_none() {
            self.invalid = Some(format!(
                "load generator median lag {:.3} ms > {LAG_BOUND_MS} ms at {} req/s",
                rung.lag_ms(0.5),
                rung.rate
            ));
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}{}: {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                trace::json_str(name)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Runs `svm-train` with default flags plus the kernel; checks exit 0 and
/// `converged: true`.
pub fn cli_train(w: &Workload, bins: &Bins, inp: &Inputs, r: &mut Report) -> Option<procs::Run> {
    let kernel = if w.kernel == Kernel::Linear { "0" } else { "2" };
    let model = inp.path("model");
    let args = ["-t", kernel, path_str(&inp.train), path_str(&model)];
    let run = procs::run(&bins.train, &args);
    let ok = matches!(&run, Ok(run) if run.ok && run.stdout.contains("converged: true"));
    let detail = match &run {
        Ok(run) => format!("{}{}", run.stdout, run.stderr),
        Err(e) => e.to_string(),
    };
    r.check(
        ok,
        format_args!("svm-train exits 0 and converges:\n{detail}"),
    );
    run.ok().filter(|_| ok)
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

/// Runs `svm-predict` on `query` and returns the run with its labels.
pub fn cli_predict(
    bins: &Bins,
    inp: &Inputs,
    query: &Path,
    rows: usize,
    r: &mut Report,
) -> Option<(procs::Run, Vec<String>)> {
    let (model, out) = (inp.path("model"), inp.path("predictions"));
    let args = [query, &model, &out].map(path_str);
    let run = procs::run(&bins.predict, &args).ok().filter(|run| run.ok);
    let labels: Option<Vec<String>> = run.as_ref().and_then(|_| {
        let text = std::fs::read_to_string(&out).ok()?;
        Some(text.lines().map(str::to_string).collect())
    });
    let ok = labels.as_ref().is_some_and(|l| l.len() == rows);
    r.check(ok, format_args!("svm-predict exits 0 with {rows} labels"));
    Some((run?, labels?)).filter(|_| ok)
}

/// Held-out accuracy of `labels`, computed here (never taken from the
/// program's printed accuracy).
pub fn held_out_accuracy(labels: &[String], truth: &[i32]) -> f64 {
    let correct = labels
        .iter()
        .zip(truth)
        .filter(|(l, t)| l.parse::<i32>().ok() == Some(**t))
        .count();
    correct as f64 / truth.len() as f64
}

/// Spawns `svm-serve` on `model` and answers one request; returns the
/// server and the spawn→first-reply time.
pub fn start_server(
    bins: &Bins,
    inp: &Inputs,
    model: &Path,
    expected: &str,
    r: &mut Report,
) -> Option<(Server, f64)> {
    let t0 = Instant::now();
    let server = Server::spawn(&bins.serve, model);
    let reply = server.as_ref().map(|s| s.ask(&inp.requests[0]));
    let ready_s = t0.elapsed().as_secs_f64();
    let ok = matches!(&reply, Ok(Ok(reply)) if reply == expected);
    r.check(
        ok,
        format_args!("svm-serve starts and answers '{expected}'"),
    );
    match (server, ok) {
        (Ok(server), true) => Some((server, ready_s)),
        _ => None,
    }
}

/// Drains and reaps `server`; checks it exits 0. Returns its peak RSS.
pub fn stop_server(server: Server, r: &mut Report) -> Option<i64> {
    let stopped = server.shutdown();
    let ok = matches!(&stopped, Ok((exit, _)) if exit.code == Some(0));
    r.check(ok, format_args!("svm-serve drains and exits 0"));
    stopped.ok().map(|(exit, _)| exit.peak_rss_kb)
}

/// One start-up probe: `svm-predict` on one row, or `svm-serve` up to
/// its first reply. Checks the answer is `expected`; returns the time.
fn setup_probe(
    w: &Workload,
    bins: &Bins,
    inp: &Inputs,
    expected: &str,
    r: &mut Report,
) -> Option<f64> {
    if w.serving {
        let (server, ready_s) = start_server(bins, inp, &inp.path("model"), expected, r)?;
        stop_server(server, r);
        Some(ready_s)
    } else {
        let (probe, got) = cli_predict(bins, inp, &inp.probe, 1, r)?;
        r.check(
            got[0] == expected,
            format_args!("one-row probe agrees with svm-predict"),
        );
        Some(probe.wall_s)
    }
}

/// Counts the requests of one serve run and logs its figures.
fn serve_run(run: std::io::Result<Rung>, what: &str, r: &mut Report) -> Option<Rung> {
    let rung = match run {
        Ok(rung) => rung,
        Err(e) => {
            r.check(false, format_args!("{what}: {e}"));
            return None;
        }
    };
    r.requests(rung.sent, rung.failed(), "serve");
    let mut line = format!("perfbench: {what}: {:.0} replies/s", rung.achieved_rps);
    if rung.rate > 0.0 {
        let _ = write!(
            line,
            ", p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, lag p50/p99 {:.3}/{:.3} ms",
            rung.p50_ms(),
            stats::quantile(&rung.latency_ms, 0.9),
            rung.p99_ms(),
            rung.lag_ms(0.5),
            rung.lag_ms(0.99),
        );
    }
    let backlog = if rung.backlogged {
        ", backlog grew"
    } else {
        ""
    };
    eprintln!("{line}, {} failed{backlog}", rung.failed());
    Some(rung)
}

/// One saturation run against `server`; returns its reply rate.
fn saturation_run(
    w: &Workload,
    server: &Server,
    inp: &Inputs,
    labels: &[String],
    r: &mut Report,
) -> Option<f64> {
    let run = saturate(server, &inp.requests, labels, w.saturation_requests);
    serve_run(run, "saturated", r).map(|rung| rung.achieved_rps)
}

/// The untraced run: process walls, held-out accuracy, start-up time,
/// peak memory, the reference rate and the saturation runs.
fn end_to_end(w: &Workload, bins: &Bins, inp: &Inputs, seconds: f64, r: &mut Report) -> Option<()> {
    let t0 = Instant::now();
    let train_budget_s = seconds * w.train_share;
    let rows = inp.test_labels.len();
    let (mut train_s, mut predict_s, mut train_rss) = (vec![], vec![], vec![]);
    let (mut setup_s, mut max_rate) = (vec![], vec![]);
    let mut served: Option<(Server, Vec<String>)> = None;
    loop {
        let rep_start = Instant::now();
        let train = cli_train(w, bins, inp, r)?;
        let (predict, got) = cli_predict(bins, inp, &inp.test, rows, r)?;
        train_s.push(train.wall_s);
        train_rss.push(train.peak_rss_kb as f64);
        predict_s.push(predict.wall_s);
        // after the first repetition, a server on a copy of its model
        // (later repetitions rewrite the model, which would reload it)
        let (server, labels) = match &served {
            Some((server, labels)) => {
                r.check(*labels == got, format_args!("predictions repeat exactly"));
                (server, labels)
            }
            None => {
                let copy = inp.path("served.model");
                let copied = std::fs::copy(inp.path("model"), &copy);
                r.check(
                    copied.is_ok(),
                    format_args!("copying the model: {copied:?}"),
                );
                let (server, _) = start_server(bins, inp, &copy, &got[0], r)?;
                let (server, labels) = served.insert((server, got));
                (&*server, &*labels)
            }
        };
        // start-up probes and saturation runs spread over the repetitions:
        // after each, those due by the share of the budget spent
        let spent = (t0.elapsed().as_secs_f64() / train_budget_s).min(1.0);
        let due = |count: usize| (count as f64 * spent).ceil() as usize;
        while setup_s.len() < due(w.setup_probes) {
            setup_s.push(setup_probe(w, bins, inp, &labels[0], r)?);
        }
        while max_rate.len() < due(SATURATION_RUNS) {
            max_rate.push(saturation_run(w, server, inp, labels, r)?);
        }
        // another repetition only if one as long as this fits the budget
        let rep_s = rep_start.elapsed().as_secs_f64();
        if train_s.len() == MAX_REPS || t0.elapsed().as_secs_f64() + rep_s > train_budget_s {
            break;
        }
    }
    let (server, labels) = served.expect("the first repetition started the server");
    while setup_s.len() < w.setup_probes {
        setup_s.push(setup_probe(w, bins, inp, &labels[0], r)?);
    }
    while max_rate.len() < SATURATION_RUNS {
        max_rate.push(saturation_run(w, &server, inp, &labels, r)?);
    }
    let acc = held_out_accuracy(&labels, &inp.test_labels);
    r.check(
        acc >= w.accuracy_floor,
        format_args!("held-out accuracy {acc:.4} >= {}", w.accuracy_floor),
    );

    let due = poisson_schedule(w.reference_rps, w.reference_s(seconds), inp.seed);
    let reference = open_loop(&server, &inp.requests, &labels, w.reference_rps, due);
    let what = format!("{} req/s", w.reference_rps);
    let reference = serve_run(reference, &what, r);
    let serve_rss = stop_server(server, r);
    let reference = reference?;
    r.lag(&reference);
    r.check(
        !reference.backlogged,
        format_args!("the backlog stays below {MAX_OUTSTANDING} at the reference rate"),
    );

    let peak_rss_kb = if w.serving {
        serve_rss.unwrap_or(0) as f64
    } else {
        median(&train_rss)
    };
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("train_s", median(&train_s), "s");
    r.metric("predict_s", median(&predict_s), "s");
    r.metric("test_accuracy", acc, "ratio");
    r.metric("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    r.metric("latency_p50_ms", reference.p50_ms(), "ms");
    r.metric("max_rate_rps", median(&max_rate), "req/s");
    eprintln!(
        "perfbench: {:.1} s; train_s {}, predict_s {}, setup_s {}, saturated {max_rate:.0?}",
        t0.elapsed().as_secs_f64(),
        stats::summary(&train_s),
        stats::summary(&predict_s),
        stats::summary(&setup_s),
    );
    // the two end-to-end figures that are not gated metrics
    println!(
        "latency_p99_ms {} ms (scheduling stalls set it on a shared host)",
        reference.p99_ms()
    );
    println!(
        "error_ratio {} ({}/{})",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
    Some(())
}

/// Host facts recorded with every result.
fn host_json() -> String {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {}, \"simd\": \"{}\", \"commit\": {}, \"rustc\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plssvm_core::simd::Isa::detect().name(),
        trace::json_str(&output("git", &["rev-parse", "HEAD"])),
        trace::json_str(&output("rustc", &["--version"])),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S \
                 --trace 0|1 [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload '{}'; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let exe = std::env::current_exe().expect("own executable path");
    let bin_dir = exe.parent().expect("executable has a directory");
    let bins = Bins {
        train: bin_dir.join("svm-train"),
        predict: bin_dir.join("svm-predict"),
        serve: bin_dir.join("svm-serve"),
    };
    for bin in [&bins.train, &bins.predict, &bins.serve] {
        if !bin.is_file() {
            eprintln!("perfbench: {} is not built", bin.display());
            return ExitCode::from(2);
        }
    }
    // in-process layers, like the child processes, use the detected tier
    std::env::remove_var(procs::FORCE_ISA_ENV);

    let work = PathBuf::from(".bench_work");
    let run_dir = work.join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let inputs = match Inputs::generate(w, args.seed, args.smoke, run_dir) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("perfbench: generating inputs: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_json();
    println!("host {host}");
    let mut report = Report::new();
    if args.trace {
        let mut tracer = trace::Tracer::new();
        layers::run(w, &bins, &inputs, args.seconds, &mut report, &mut tracer);
        let path = work
            .join("traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {host}}}",
            w.name, args.seed
        );
        if let Err(e) = tracer.write(&path, &header) {
            report.check(false, format_args!("writing {}: {e}", path.display()));
        }
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        let _ = end_to_end(w, &bins, &inputs, args.seconds, &mut report);
    }
    drop(inputs);
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: invalid run: {why}");
        return ExitCode::from(3);
    }
    println!("{}", report.to_json());
    if report.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
