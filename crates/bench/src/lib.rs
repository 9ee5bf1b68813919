//! Experiment harness for the PLSSVM reproduction.
//!
//! One module per concern:
//!
//! * [`protocol`] — the paper's ε-search measurement protocol (§IV-B):
//!   decrease ε by ×0.1 starting from 0.1 until the model reaches ≥ 97 %
//!   training accuracy or the accuracy converges in its first three
//!   decimals.
//! * [`workmodel`] — closed-form predictions of the device backend's
//!   counted work (FLOPs, traffic, transfers, launches, peak memory) for
//!   arbitrary problem sizes. Validated against the *executed* counters in
//!   tests, then evaluated at paper scale where functional execution is
//!   infeasible on this machine.
//! * [`stats`] — means, standard deviations, coefficients of variation.
//! * [`figures`] — one driver per table/figure of the paper; see
//!   `EXPERIMENTS.md` for the index and `src/bin/figures.rs` for the CLI.

#![warn(missing_docs)]

pub mod figures;
pub mod protocol;
pub mod stats;
pub mod workmodel;

/// Where figure drivers write their CSV outputs.
pub const RESULTS_DIR: &str = "bench_results";

/// Overrides where the figure drivers write (see [`results_path`]).
pub const RESULTS_DIR_ENV: &str = "PLSSVM_RESULTS_DIR";

/// Ensures the results directory exists and returns the path for a file:
/// `bench_results/` at the workspace root whatever the working directory,
/// or the directory named by `$PLSSVM_RESULTS_DIR` when set. The crate's
/// own unit tests write their smoke-size tables under the workspace's
/// `target/` instead, never next to the paper's CSVs.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate lives at <workspace>/crates/bench");
    #[cfg(test)]
    let dir = root.join("target/tmp").join(RESULTS_DIR);
    #[cfg(not(test))]
    let dir = std::env::var_os(RESULTS_DIR_ENV)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root.join(RESULTS_DIR));
    std::fs::create_dir_all(&dir).ok();
    dir.join(name)
}
