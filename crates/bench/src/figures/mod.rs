//! One driver per table/figure of the paper's evaluation (§IV).
//!
//! Every driver returns a [`common::FigureReport`] (markdown-ish text plus
//! CSV files under `bench_results/`). The `figures` binary dispatches on
//! experiment ids; `EXPERIMENTS.md` records a full run.
//!
//! Sizes are scaled down from the paper (this host has a single CPU core);
//! where functional execution is infeasible the drivers evaluate the
//! validated closed-form work models of [`crate::workmodel`] at paper
//! scale and clearly label those rows as *modeled*.

pub mod ablation;
pub mod common;
pub mod cov;
pub mod cpu_tiling;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod lowrank;
pub mod multinode;
pub mod precision;
pub mod profiling;
pub mod sat6;
pub mod table1;

pub use common::{FigureReport, Scale};

/// Every experiment id the `figures` binary accepts.
pub const ALL_IDS: &[&str] = &[
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
    "ablation_factored",
    "ablation_cpu_tiling",
    "ablation_lowrank",
    "multinode",
    "precision",
];

/// Runs one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<FigureReport> {
    Some(match id {
        "table1" => table1::run(scale),
        "fig1a" => fig1::run_fig1a(scale),
        "fig1b" => fig1::run_fig1b(scale),
        "fig1c" => fig1::run_fig1c(scale),
        "fig1d" => fig1::run_fig1d(scale),
        "fig2a" => fig2::run_fig2a(scale),
        "fig2b" => fig2::run_fig2b(scale),
        "fig3" => fig3::run(scale),
        "fig4a" => fig4::run_fig4a(scale),
        "fig4b" => fig4::run_fig4b(scale),
        "sat6" => sat6::run(scale),
        "profiling" => profiling::run(scale),
        "cov" => cov::run(scale),
        "ablation" => ablation::run(scale),
        "ablation_factored" => ablation::run_factored(scale),
        "ablation_cpu_tiling" => cpu_tiling::run(scale),
        "ablation_lowrank" => lowrank::run(scale),
        "multinode" => multinode::run(scale),
        "precision" => precision::run(scale),
        _ => return None,
    })
}
