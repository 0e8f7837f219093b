//! # lit-analysis — queueing analysis and measurement utilities
//!
//! * [`Md1`] — exact M/D/1 waiting/sojourn-time distribution
//!   (Erlang/Crommelin), the analytic reference-server model behind the
//!   paper's Figures 9–11;
//! * [`DurationHistogram`] — fixed-bin histograms with exact extrema, for
//!   delay distributions, CCDFs and jitter measurements, over [`Bins`],
//!   the count store that holds only the bins the data reached;
//! * [`OnlineStats`] / [`BusyFraction`] — streaming moments and link
//!   utilization;
//! * [`BatchMeans`] — batch-means confidence intervals for steady-state
//!   simulation output (autocorrelation-robust).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod hist;
mod md1;
mod stats;

pub use batch::BatchMeans;
pub use hist::{Bins, DurationHistogram};
pub use md1::Md1;
pub use stats::{BusyFraction, OnlineStats};
