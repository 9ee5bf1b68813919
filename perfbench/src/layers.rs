//! The traced run: every layer's public functions called in-process on
//! the workload's inputs, each call wrapped in a span, so the per-layer
//! numbers explain the end-to-end ones.
//!
//! `cli` (three process runs each of `svm-train` and `svm-predict`) is
//! measured in the same run, so the time the layers do not cover can be
//! reported as `cli.*_unattributed_s`.

use std::hint::black_box;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use plssvm_core::backend::{BackendSelection, Prepared};
use plssvm_core::cg::{conjugate_gradients, CgConfig, LinOp};
use plssvm_core::matrix_free::reduced_rhs;
use plssvm_core::trace::{MetricsSink, Telemetry};
use plssvm_core::{accuracy, predict_decision_values, LsSvm};
use plssvm_data::model::{KernelSpec, SvmModel};
use plssvm_data::{read_libsvm_file, DenseMatrix};
use plssvm_serve::protocol::format_response;
use plssvm_serve::{
    parse_line, Engine, EngineConfig, ParsedLine, Pending, Query, QueryFormat, ServeModel,
    SystemClock,
};

use crate::load::{open_loop, poisson_schedule};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{
    cli_predict, cli_train, start_server, stop_server, Bins, Inputs, Kernel, Report, Workload,
};

/// A repeated measurement stops once it has this much busy time…
const MIN_BUSY_S: f64 = 0.3;
/// …or this many samples.
const MAX_SAMPLES: usize = 200;
/// The CLI's training defaults: `-c 1 -e 1e-3`.
const COST: f64 = 1.0;
const EPSILON: f64 = 1e-3;

/// Calls `f` at least `min` times (and until [`MIN_BUSY_S`] has passed),
/// one span each; returns the last result and the median call time.
fn repeat<R>(
    tr: &mut Tracer,
    name: &str,
    parent: usize,
    min: usize,
    mut f: impl FnMut() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, s) = tr.time(name, parent, &mut f);
        times.push(s);
        let busy = start.elapsed().as_secs_f64() >= MIN_BUSY_S;
        if times.len() >= min && (busy || times.len() >= MAX_SAMPLES) {
            return (out, median(&times));
        }
    }
}

/// `Prepared` with every `apply` timed, so CG's matvec time and its
/// vector work can be told apart.
struct TimedOp<'a> {
    op: &'a Prepared<f64>,
    applies: Mutex<Vec<(Instant, Instant)>>,
}

impl LinOp<f64> for TimedOp<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let start = Instant::now();
        self.op.apply(v, out);
        let end = Instant::now();
        self.applies
            .lock()
            .expect("no panic while holding the apply log")
            .push((start, end));
    }
}

/// The engine's side of one in-process open-loop run.
struct EngineRun {
    latency_us: Vec<f64>,
    shed: usize,
    wrong: usize,
    batch_size_mean: f64,
}

/// Submits `queries` (cycled) to an in-process [`Engine`] on the
/// open-loop schedule of the reference rate and resolves them in order.
/// Engine time is submit→resolve, without parsing or the socket.
fn engine_open_loop(
    model: ServeModel,
    queries: &[Query],
    expected: &[String],
    due: &[Duration],
    tr: &mut Tracer,
    parent: usize,
) -> EngineRun {
    let telemetry = Telemetry::shared();
    let engine = Engine::new(
        model,
        EngineConfig::default(),
        Arc::new(SystemClock::new()),
        Some(Arc::clone(&telemetry) as Arc<dyn MetricsSink>),
    );
    let requests = due.len();
    let start = Instant::now() + Duration::from_millis(1);
    let (tx, rx) = mpsc::channel();
    let resolved = std::thread::scope(|s| {
        let engine = &engine;
        s.spawn(move || {
            for i in 0..requests {
                let due = start + due[i];
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let query = queries[i % queries.len()].clone();
                let submitted = Instant::now();
                let pending = engine.submit(query);
                if tx.send((i, submitted, pending)).is_err() {
                    break;
                }
            }
        });
        rx.iter()
            .map(|(i, submitted, pending)| {
                let shed = matches!(pending, Pending::Shed { .. });
                let reply = engine.resolve(pending);
                (i, submitted, Instant::now(), shed, reply)
            })
            .collect::<Vec<_>>()
    });
    engine.shutdown();
    let mut run = EngineRun {
        latency_us: Vec::with_capacity(requests),
        shed: 0,
        wrong: 0,
        batch_size_mean: 0.0,
    };
    for (i, submitted, done, shed, reply) in resolved {
        tr.record(
            "serve.engine.request",
            submitted,
            done,
            Some(parent),
            Some(i as u64),
        );
        run.latency_us
            .push(done.duration_since(submitted).as_secs_f64() * 1e6);
        run.shed += usize::from(shed);
        run.wrong += usize::from(reply != expected[i % expected.len()]);
    }
    let hist = telemetry.report().serve.batch_size_hist;
    let (rows, batches) = hist.iter().fold((0u64, 0u64), |(r, b), (&size, &n)| {
        (r + size as u64 * n, b + n)
    });
    run.batch_size_mean = rows as f64 / batches.max(1) as f64;
    run
}

/// Dense query rows, as the engine builds them for a batch.
fn densify(queries: &[Query], features: usize) -> DenseMatrix<f64> {
    let mut x = DenseMatrix::zeros(queries.len(), features);
    for (row, q) in queries.iter().enumerate() {
        for &(i, v) in &q.entries {
            x.set(row, i, v);
        }
    }
    x
}

/// The traced run of one workload; adds every per-layer metric to `r`.
pub fn run(w: &Workload, bins: &Bins, inp: &Inputs, seconds: f64, r: &mut Report, tr: &mut Tracer) {
    let root = tr.open("run", None);
    let rows = inp.test_labels.len();

    // cli: the binaries, to set the layers against (medians of three)
    let (mut train_walls, mut predict_walls, mut labels) = (vec![], vec![], vec![]);
    for _ in 0..3 {
        let (train, _) = tr.time("cli.svm-train", root, || cli_train(w, bins, inp, r));
        let (predict, _) = tr.time("cli.svm-predict", root, || {
            cli_predict(bins, inp, &inp.test, rows, r)
        });
        let (Some(train), Some((predict, got))) = (train, predict) else {
            return;
        };
        train_walls.push(train.wall_s);
        predict_walls.push(predict.wall_s);
        labels = got;
    }
    let (train_wall, predict_wall) = (median(&train_walls), median(&predict_walls));

    // data: parsing
    let (parsed, parse_s) = repeat(tr, "data.read_libsvm_file", root, 3, || {
        read_libsvm_file::<f64>(&inp.train, None)
    });
    let Ok(data) = parsed else {
        r.check(
            false,
            format_args!("read_libsvm_file parses the training file"),
        );
        return;
    };
    let features = data.features();
    let (parsed, test_parse_s) = repeat(tr, "data.read_libsvm_file", root, 1, || {
        read_libsvm_file::<f64>(&inp.test, Some(features))
    });
    let Ok(test) = parsed else {
        r.check(
            false,
            format_args!("read_libsvm_file parses the held-out file"),
        );
        return;
    };

    // svm: training as `svm-train` does it with default flags
    let kernel = match w.kernel {
        Kernel::Linear => KernelSpec::Linear,
        Kernel::Rbf => KernelSpec::Rbf {
            gamma: 1.0 / features as f64,
        },
    };
    let trainer = LsSvm::<f64>::new()
        .with_kernel(kernel)
        .with_cost(COST)
        .with_epsilon(EPSILON)
        .with_backend(BackendSelection::default());
    let (trained, svm_train_s) = tr.time("svm.LsSvm::train", root, || trainer.train(&data));
    let Ok(trained) = trained else {
        r.check(false, format_args!("LsSvm::train succeeds"));
        return;
    };
    r.check(trained.converged, format_args!("LsSvm::train converges"));
    let model = trained.model;

    // data: model files
    let model_path = inp.path("model.inprocess");
    let (saved, model_write_s) = repeat(tr, "data.SvmModel::save", root, 3, || {
        model.save(&model_path)
    });
    r.check(
        saved.is_ok(),
        format_args!("SvmModel::save writes the model"),
    );
    let (loaded, svm_load_s) = repeat(tr, "data.SvmModel::load", root, 3, || {
        SvmModel::<f64>::load(&model_path)
    });
    r.check(
        loaded.is_ok(),
        format_args!("SvmModel::load reads the model back"),
    );
    let (serve_model, serve_load_s) = repeat(tr, "data.ServeModel::load", root, 3, || {
        ServeModel::load(&model_path)
    });
    let Ok(serve_model) = serve_model else {
        r.check(false, format_args!("ServeModel::load reads the model"));
        return;
    };

    // backend: set-up and one matvec of the reduced system
    let selection = BackendSelection::default();
    let (prepared, backend_setup_s) = repeat(tr, "backend.Prepared::new", root, 3, || {
        Prepared::new(&selection, &data.x, None, &kernel, COST)
    });
    let Ok(prepared) = prepared else {
        r.check(false, format_args!("Prepared::new succeeds"));
        return;
    };
    let n = prepared.dim();
    let rhs = reduced_rhs(&data.y);
    let mut out = vec![0.0; n];
    let (_, matvec_s) = repeat(tr, "backend.LinOp::apply", root, 3, || {
        prepared.apply(black_box(&rhs), &mut out);
        black_box(&out);
    });

    // cg: the solve, with every matvec timed inside it
    let timed = TimedOp {
        op: &prepared,
        applies: Mutex::new(Vec::new()),
    };
    let config = CgConfig {
        epsilon: EPSILON,
        ..CgConfig::default()
    };
    let cg_span = tr.open("cg.conjugate_gradients", Some(root));
    let solved = conjugate_gradients(&timed, &rhs, &config);
    let solve_s = tr.close(cg_span);
    r.check(
        solved.converged,
        format_args!("conjugate_gradients converges"),
    );
    let mut cg_matvec_s = 0.0;
    for (start, end) in timed.applies.into_inner().expect("apply log not poisoned") {
        tr.record("backend.LinOp::apply", start, end, Some(cg_span), None);
        cg_matvec_s += end.duration_since(start).as_secs_f64();
    }

    // svm: the training-accuracy pass and held-out prediction
    let (train_acc, accuracy_s) = repeat(tr, "svm.accuracy", root, 1, || accuracy(&model, &data));
    r.check(
        train_acc > 0.5,
        format_args!("training accuracy {train_acc} beats chance"),
    );
    let (decisions, predict_s) = repeat(tr, "svm.predict_decision_values", root, 1, || {
        predict_decision_values(&model, &test.x)
    });
    let agree = decisions
        .iter()
        .zip(&labels)
        .all(|(&d, l)| model.decide(d).to_string() == *l);
    r.check(
        agree,
        format_args!("in-process predictions equal svm-predict's"),
    );

    // serve: parse, compute, format, then the engine on the reference schedule
    let queries: Option<Vec<Query>> = inp
        .requests
        .iter()
        .map(|line| match parse_line(line) {
            ParsedLine::Query(q) => Some(q),
            _ => None,
        })
        .collect();
    let Some(queries) = queries else {
        r.check(false, format_args!("parse_line accepts every request"));
        return;
    };
    let (_, parse_pass_s) = repeat(tr, "serve.parse_line", root, 3, || {
        for line in &inp.requests {
            black_box(parse_line(black_box(line)));
        }
    });
    let singles: Vec<DenseMatrix<f64>> = queries
        .iter()
        .take(64)
        .map(|q| densify(std::slice::from_ref(q), features))
        .collect();
    let (_, single_pass_s) = repeat(tr, "serve.ServeModel::predict_batch", root, 3, || {
        for x in &singles {
            let _ = black_box(serve_model.predict_batch(x));
        }
    });
    let max_batch = EngineConfig::default().max_batch.min(queries.len());
    let batch = densify(&queries[..max_batch], features);
    let (predicted, batch_s) = repeat(tr, "serve.ServeModel::predict_batch", root, 3, || {
        serve_model.predict_batch(&batch)
    });
    let Ok(predicted) = predicted else {
        r.check(false, format_args!("ServeModel::predict_batch succeeds"));
        return;
    };
    let outcomes: Vec<Result<_, String>> = predicted.into_iter().map(Ok).collect();
    let (formatted, format_pass_s) = repeat(tr, "serve.format_response", root, 3, || {
        outcomes
            .iter()
            .map(|o| format_response(QueryFormat::Libsvm, None, black_box(o)))
            .collect::<Vec<_>>()
    });
    r.check(
        formatted.iter().zip(&labels).all(|(f, l)| f == l),
        format_args!("served labels equal svm-predict's"),
    );

    let due = poisson_schedule(w.reference_rps, w.reference_s(seconds), inp.seed);
    let engine_span = tr.open("serve.engine", Some(root));
    let engine = engine_open_loop(serve_model, &queries, &labels, &due, tr, engine_span);
    tr.close(engine_span);
    r.requests(
        engine.latency_us.len(),
        engine.shed + engine.wrong,
        "in-process engine",
    );

    // cli: the same schedule over the wire, for the wire share
    let wire_span = tr.open("cli.svm-serve", Some(root));
    let Some((server, _)) = start_server(bins, inp, &inp.path("model"), &labels[0], r) else {
        return;
    };
    let rung = open_loop(&server, &inp.requests, &labels, w.reference_rps, due);
    stop_server(server, r);
    tr.close(wire_span);
    let Ok(rung) = rung else {
        r.check(false, format_args!("open loop at the reference rate"));
        return;
    };
    r.requests(rung.sent, rung.failed(), "serve");
    r.lag(&rung);
    for (i, ms) in rung.latency_ms.iter().enumerate() {
        let due = rung.start + rung.due[i];
        let end = due + Duration::from_secs_f64(ms / 1e3);
        tr.record(
            "serve.wire.request",
            due,
            end,
            Some(wire_span),
            Some(i as u64),
        );
    }
    tr.close(root);

    let load_s = if w.serving { serve_load_s } else { svm_load_s };
    let model_sv = model.total_sv() as f64;
    let per_eval = match w.kernel {
        Kernel::Linear => 2.0 * features as f64,
        Kernel::Rbf => 3.0 * features as f64,
    };
    // the symmetric CPU schedule: n(n+1)/2 kernel evaluations, each
    // feeding two multiply-adds; bytes are the compulsory traffic
    let evals = (n * (n + 1) / 2) as f64;
    let flops = evals * (per_eval + 4.0);
    let bytes = 8.0 * (n * features + 3 * n) as f64;
    let engine_p50_us = quantile(&engine.latency_us, 0.5);

    r.metric("data.parse_s", parse_s, "s");
    r.metric(
        "data.parse_mb_s",
        inp.train_bytes as f64 / parse_s / 1e6,
        "MB/s",
    );
    r.metric("data.model_load_s", load_s, "s");
    r.metric("data.model_write_s", model_write_s, "s");
    r.metric("backend.setup_s", backend_setup_s, "s");
    r.metric("backend.matvec_s", matvec_s, "s");
    r.metric("backend.matvec_kevals_s", evals / matvec_s, "evals/s");
    r.metric("backend.matvec_flops", flops, "flop");
    r.metric("backend.matvec_bytes", bytes, "B");
    r.metric("backend.matvec_flop_per_byte", flops / bytes, "flop/B");
    r.metric("cg.iterations", solved.iterations as f64, "count");
    r.metric("cg.solve_s", solve_s, "s");
    r.metric("cg.matvec_share", cg_matvec_s / solve_s, "ratio");
    r.metric("cg.vector_s", solve_s - cg_matvec_s, "s");
    r.metric("svm.train_s", svm_train_s, "s");
    r.metric("svm.accuracy_pass_s", accuracy_s, "s");
    r.metric("svm.predict_s", predict_s, "s");
    r.metric(
        "svm.predict_kevals_s",
        rows as f64 * model_sv / predict_s,
        "evals/s",
    );
    r.metric(
        "cli.train_unattributed_s",
        train_wall - (parse_s + svm_train_s + model_write_s + accuracy_s),
        "s",
    );
    r.metric(
        "cli.predict_unattributed_s",
        predict_wall - (svm_load_s + test_parse_s + predict_s),
        "s",
    );
    r.metric(
        "serve.parse_us",
        parse_pass_s / inp.requests.len() as f64 * 1e6,
        "us",
    );
    r.metric(
        "serve.format_us",
        format_pass_s / outcomes.len() as f64 * 1e6,
        "us",
    );
    r.metric(
        "serve.compute_us",
        single_pass_s / singles.len() as f64 * 1e6,
        "us",
    );
    r.metric(
        "serve.compute_batch_us",
        batch_s / max_batch as f64 * 1e6,
        "us",
    );
    r.metric("serve.engine_p50_us", engine_p50_us, "us");
    r.metric(
        "serve.engine_p99_us",
        quantile(&engine.latency_us, 0.99),
        "us",
    );
    r.metric("serve.batch_size_mean", engine.batch_size_mean, "count");
    r.metric("serve.wire_us", rung.p50_ms() * 1e3 - engine_p50_us, "us");
    r.metric("cli.serve_p99_ms", rung.p99_ms(), "ms");
    r.metric("loadgen.lag_p99_ms", rung.lag_ms(0.99), "ms");
    // sheds fail the run (counted above), so a correct run prints 0
    println!("serve.shed {} (in-process engine)", engine.shed);
}
