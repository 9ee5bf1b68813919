//! Layer `cli`: the binaries as processes, timed from spawn to reap.
//!
//! Peak resident memory comes from the kernel's `rusage` for the child,
//! read with `wait4(2)` (declared here; no crate needed).

use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// The SIMD override the program honours; every child runs without it so
/// the benchmark always measures the auto-detected tier.
pub const FORCE_ISA_ENV: &str = "PLSSVM_FORCE_ISA";

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

const WNOHANG: c_int = 1;

/// How a reaped child ended.
pub struct Exit {
    /// `Some(code)` for a normal exit, `None` when killed by a signal.
    pub code: Option<i32>,
    pub peak_rss_kb: i64,
}

/// Reaps `child` with `wait4`, blocking unless `nohang`. `Ok(None)` means
/// it is still running (only with `nohang`). After this returns `Some`,
/// the pid is gone: never `kill` or `wait` the `Child` again.
pub fn reap(child: &Child, nohang: bool) -> std::io::Result<Option<Exit>> {
    let pid = c_int::try_from(child.id()).expect("pids fit in pid_t");
    loop {
        let mut status: c_int = 0;
        let mut usage = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `usage` are live, writable, correctly laid
        // out locals for the duration of the call; `pid` is our own
        // unreaped child, so no other process's status can be consumed.
        let ret = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if ret == 0 {
            return Ok(None);
        }
        if ret < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        return Ok(Some(Exit {
            code,
            peak_rss_kb: usage.ru_maxrss,
        }));
    }
}

/// One finished process run.
pub struct Run {
    pub wall_s: f64,
    pub peak_rss_kb: i64,
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `program args…` to completion, timing spawn→reap.
pub fn run(program: &Path, args: &[&str]) -> std::io::Result<Run> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .env_remove(FORCE_ISA_ENV)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let (exit, stdout, stderr) = std::thread::scope(|s| {
        let o = s.spawn(move || {
            let mut text = String::new();
            out.read_to_string(&mut text).map(|_| text)
        });
        let e = s.spawn(move || {
            let mut text = String::new();
            err.read_to_string(&mut text).map(|_| text)
        });
        let exit = reap(&child, false).map(|e| (e, start.elapsed().as_secs_f64()));
        (
            exit,
            o.join().expect("stdout reader panicked"),
            e.join().expect("stderr reader panicked"),
        )
    });
    let (exit, wall_s) = exit?;
    let exit = exit.expect("blocking wait4 returns an exit");
    Ok(Run {
        wall_s,
        peak_rss_kb: exit.peak_rss_kb,
        ok: exit.code == Some(0),
        stdout: stdout?,
        stderr: stderr?,
    })
}
