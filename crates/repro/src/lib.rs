//! # lit-repro — the reproduction harness
//!
//! Everything needed to regenerate the paper's evaluation section:
//! the Figure 6 topology ([`topology`]), one experiment module per
//! figure/table ([`experiments`]), and plain-text/CSV reporting
//! ([`report`]). The `lit-repro` binary dispatches one sub-command per
//! artifact; integration tests and benches reuse the same experiment
//! functions with shorter horizons.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collect;
pub mod commands;
pub mod experiments;
pub mod fuzz;
pub mod heavy;
pub mod report;
pub mod scenario;
pub mod topology;
