//! One scratch directory per test. Each [`ScratchDir`] is a fresh, empty
//! directory under the system temp dir whose name carries the process id
//! and a per-process counter, and it is removed on drop — so tests never
//! share a directory, whether they run on parallel threads of one test
//! binary or in concurrent test processes.
//!
//! Core's integration tests use it as `mod scratch;`; every other test
//! that needs a scratch directory (core's unit tests, the data and CLI
//! crates' tests, the workspace root's tests) includes this same file
//! through `#[path]`.

// every including crate uses a different subset of the helpers
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique, empty directory that is deleted when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory; `label` only makes the path readable.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let label: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "plssvm-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
