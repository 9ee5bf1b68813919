//! `svm-serve` as a process, and the open-loop load generator (layer
//! `loadgen`) that drives it over loopback.
//!
//! The generator is one connection per run with two threads: a sender
//! and a reader that takes the replies in order. In an open-loop rung the
//! sender writes each request at its due time whatever the replies do;
//! latency runs from the due time to the reply, so a stall also charges
//! the requests queued behind it, and how late the sender ran is reported
//! as lag. In a saturation run the sender keeps `MAX_OUTSTANDING`
//! requests in flight, so the server never idles and the reply rate is
//! its capacity.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::procs::{reap, Exit, FORCE_ISA_ENV};
use crate::stats::quantile;

/// The generator fell behind its schedule when its median lag passes
/// this: latencies would then measure the generator. (Its p99 lag is
/// reported; on a shared host it is set by scheduling stalls, not by the
/// generator.)
pub const LAG_BOUND_MS: f64 = 1.0;
/// Unanswered requests one connection keeps at most. An open-loop rung
/// ends early when it reaches this (the backlog is growing); a saturation
/// run keeps exactly this many in flight. It stays below `svm-serve`'s
/// default queue watermark (1024) and per-connection pipeline depth
/// (1024), so the server never sheds a benchmark request.
pub const MAX_OUTSTANDING: usize = 256;
/// A saturation sender that found the window full waits until this many
/// slots are free and refills them in one write, so that it and the
/// server's reader wake once per refill instead of once per request.
const REFILL: usize = 64;
/// Replies slower than this count as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long `svm-serve` may take to drain and exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `svm-serve --listen 127.0.0.1:0 <model>`.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    log: Option<std::thread::JoinHandle<String>>,
    reaped: bool,
}

impl Server {
    /// Spawns the server with default flags and waits until it reports
    /// its listening address.
    pub fn spawn(bin: &Path, model: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg(model)
            .env_remove(FORCE_ISA_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("svm-serve: listening on ") {
                    let _ = tx.send(addr.trim().parse::<SocketAddr>());
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: Some(log),
            reaped: false,
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            Ok(Err(e)) => Err(std::io::Error::other(format!("bad listen address: {e}"))),
            Err(_) => Err(std::io::Error::other(format!(
                "svm-serve did not report a listening address; log:\n{}",
                server.finish_log()
            ))),
        }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(stream)
    }

    /// Sends one line on a fresh connection and returns the reply line.
    pub fn ask(&self, line: &str) -> std::io::Result<String> {
        let mut stream = self.connect()?;
        stream.write_all(line.as_bytes())?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply)?;
        Ok(reply.trim_end().to_string())
    }

    /// Drains the server with the `shutdown` control line and reaps it.
    /// Returns its exit (with peak RSS) and its log.
    pub fn shutdown(mut self) -> std::io::Result<(Exit, String)> {
        // the ack is optional: a server that already closed is still reaped
        let _ = self.ask("shutdown\n");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(exit) = reap(&self.child, true)? {
                self.reaped = true;
                return Ok((exit, self.finish_log()));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other(format!(
                    "svm-serve did not exit after shutdown; log:\n{}",
                    self.finish_log()
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn finish_log(&mut self) -> String {
        if !self.reaped {
            let _ = self.child.kill();
            self.reaped = reap(&self.child, false).is_ok();
        }
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish_log();
    }
}

/// When each request of a rung is due, as offsets from the rung's start:
/// `rate × duration` arrivals placed uniformly at random in the rung, a
/// Poisson process (independent users) with its count fixed so that
/// every run offers the same load. Arrivals fall at every phase of the
/// server's batching window; a fixed period can lock onto it and make
/// the median jump between runs.
pub fn poisson_schedule(rate: f64, duration_s: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let requests = ((rate * duration_s).round() as usize).max(1);
    let mut due: Vec<f64> = (0..requests).map(|_| rng.uniform() * duration_s).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter().map(Duration::from_secs_f64).collect()
}

/// One run of the generator: an open-loop rung at a fixed offered rate,
/// or a saturation run (`rate` 0, every request due at the start).
pub struct Rung {
    pub rate: f64,
    /// The instant the schedule's offsets count from.
    pub start: Instant,
    /// Due offset of each request.
    pub due: Vec<Duration>,
    /// Due→reply latency per answered request, in request order.
    pub latency_ms: Vec<f64>,
    /// How late the sender wrote each request.
    pub lag_ms: Vec<f64>,
    /// Requests written; fewer than scheduled when the backlog grew.
    pub sent: usize,
    /// An open-loop sender stopped at `MAX_OUTSTANDING` unanswered
    /// requests.
    pub backlogged: bool,
    /// Replies that differ from the expected label.
    pub wrong: usize,
    /// Requests that got no reply.
    pub missing: usize,
    /// Replies per second over the rung.
    pub achieved_rps: f64,
}

impl Rung {
    pub fn failed(&self) -> usize {
        self.wrong + self.missing
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.50)
    }

    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    pub fn lag_ms(&self, q: f64) -> f64 {
        quantile(&self.lag_ms, q)
    }

    /// The generator kept to the schedule (median lag within bound).
    pub fn on_schedule(&self) -> bool {
        self.lag_ms(0.5) <= LAG_BOUND_MS
    }
}

/// Offers `lines` (cycled) on one connection at the offsets `due` (the
/// schedule of `rate`) and checks every reply against `expected` (same
/// cycle).
pub fn open_loop(
    server: &Server,
    lines: &[String],
    expected: &[String],
    rate: f64,
    due: Vec<Duration>,
) -> std::io::Result<Rung> {
    drive(server, lines, expected, rate, due, false)
}

/// Sends `requests` of `lines` (cycled) as fast as the server answers,
/// `MAX_OUTSTANDING` in flight, and checks every reply against
/// `expected`. The rung's `achieved_rps` is the server's capacity: the
/// highest offered rate at which its backlog would not grow.
pub fn saturate(
    server: &Server,
    lines: &[String],
    expected: &[String],
    requests: usize,
) -> std::io::Result<Rung> {
    drive(
        server,
        lines,
        expected,
        0.0,
        vec![Duration::ZERO; requests],
        true,
    )
}

/// One run on one connection. The sender writes request `i` at `due[i]`;
/// with `MAX_OUTSTANDING` requests unanswered it waits for a reply when
/// `wait_for_room`, else it ends the run. Then it half-closes the
/// connection, so the server answers what it got and closes.
fn drive(
    server: &Server,
    lines: &[String],
    expected: &[String],
    rate: f64,
    due: Vec<Duration>,
    wait_for_room: bool,
) -> std::io::Result<Rung> {
    let requests = due.len();
    let stream = server.connect()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    // one untimed round trip warms the connection and its server thread
    writer.write_all(lines[0].as_bytes())?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;

    let start = Instant::now() + Duration::from_millis(1);
    let due_at = |i: usize| start + due[i];
    let mut latency_ms = Vec::with_capacity(requests);
    let mut wrong = 0;
    let mut last_reply = start;
    let answered = AtomicUsize::new(0);
    let (lag_ms, sent, backlogged) = std::thread::scope(|s| {
        let answered = &answered;
        let sender = s.spawn(move || {
            let mut lag = Vec::with_capacity(requests);
            let mut backlogged = false;
            let mut sent = 0;
            let mut out = std::io::BufWriter::with_capacity(1 << 18, writer);
            for i in 0..requests {
                let now = Instant::now();
                if now < due_at(i) {
                    std::thread::sleep(due_at(i) - now);
                }
                let unanswered = || i.saturating_sub(answered.load(Ordering::Acquire));
                if unanswered() >= MAX_OUTSTANDING {
                    if !wait_for_room {
                        backlogged = true;
                        break;
                    }
                    if out.flush().is_err() {
                        break;
                    }
                    while unanswered() > MAX_OUTSTANDING - REFILL {
                        // the reader unparks this thread every REFILL replies
                        std::thread::park_timeout(Duration::from_millis(10));
                    }
                }
                lag.push(due_at(i).elapsed().as_secs_f64() * 1e3);
                if out.write_all(lines[i % lines.len()].as_bytes()).is_err() {
                    break;
                }
                // open loop: every request leaves at its due time
                if !wait_for_room && out.flush().is_err() {
                    break;
                }
                sent += 1;
            }
            if let Ok(stream) = out.into_inner() {
                let _ = stream.shutdown(Shutdown::Write);
            }
            (lag, sent, backlogged)
        });
        let sender_thread = sender.thread().clone();
        loop {
            reply.clear();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let i = latency_ms.len();
            if i == requests {
                wrong += 1; // a reply to no request
                break;
            }
            last_reply = Instant::now();
            latency_ms.push(
                last_reply
                    .saturating_duration_since(due_at(i))
                    .as_secs_f64()
                    * 1e3,
            );
            answered.store(i + 1, Ordering::Release);
            if (i + 1) % REFILL == 0 {
                sender_thread.unpark();
            }
            if reply.trim_end() != expected[i % expected.len()] {
                wrong += 1;
            }
        }
        // unblocks a sender stuck on a server that stopped reading
        let _ = stream.shutdown(Shutdown::Both);
        sender.join().expect("sender thread panicked")
    });
    let answered = latency_ms.len();
    Ok(Rung {
        rate,
        start,
        achieved_rps: answered as f64 / last_reply.duration_since(start).as_secs_f64().max(1e-9),
        latency_ms,
        lag_ms,
        // replies beyond the requests sent are wrong too
        wrong: wrong + answered.saturating_sub(sent),
        missing: sent.saturating_sub(answered),
        sent,
        backlogged,
        due,
    })
}
