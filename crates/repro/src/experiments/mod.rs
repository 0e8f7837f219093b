//! One module per figure/table of the paper's evaluation, plus shared
//! machinery in [`common`]: every figure admits its sessions into the
//! paper tandem through one builder, `common::Tandem`, and the single-run
//! distribution experiments pool their replicas through one runner,
//! `common::run_replicas`. See DESIGN.md's experiment index for the
//! mapping.

pub mod ablation;
pub mod common;
pub mod fig14_17;
pub mod fig7;
pub mod fig8;
pub mod fig9_11;
pub mod firewall;
pub mod heavytail;
pub mod tables;

pub use common::{replica_seed, run_points, PooledSession, RunConfig};
