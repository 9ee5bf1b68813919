//! Spans of the traced run, kept in memory and written once at the end.
//!
//! A span has a name, a start and an end (µs since the run began), the
//! span that caused it and, for serve requests, the request id. The
//! spans wrap the benchmark's own calls into each layer; the program is
//! not instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start: Instant::now(),
            end: None,
            parent,
            request: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        let end = Instant::now();
        span.end = Some(end);
        end.duration_since(span.start).as_secs_f64()
    }

    /// Records a finished span, e.g. one request of a load run.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: Some(end),
            parent,
            request,
        });
    }

    /// Opens a span, runs `f`, closes it; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// Writes `header` then one JSON line per span.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.base).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(header);
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{}}}",
                json_str(&s.name),
                us(s.start),
                us(s.end.unwrap_or(s.start)),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
