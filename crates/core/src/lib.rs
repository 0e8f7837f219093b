//! # lit-core — the Leave-in-Time service discipline
//!
//! The paper's contribution (Figueira & Pasquale, SIGCOMM '95), complete:
//!
//! * [`LitDiscipline`] — the scheduler: delay regulators (eq. 6–9),
//!   split deadline/rate clocks `F`/`K` (eq. 10–11), deadline-ordered
//!   service, and the holding-time header stamp for the next hop, over
//!   one [`lit_net::SessionTable`] row per session;
//! * [`ClassedAdmission`] (procedures 1 and 2) and [`Ac3Fast`]
//!   (procedure 3, incremental and residency-independent, with
//!   teardown) — the delay-shifting admission control framework;
//! * [`establish`] — all-or-nothing end-to-end establishment with
//!   rollback, per the paper's "satisfied in all the nodes along the
//!   session's route", over any per-node admission controller;
//!   [`ConnectionManager`] runs it over one [`ClassedAdmission`] per node;
//! * [`PathBounds`] — the service commitments as executable formulas:
//!   end-to-end delay (ineq. 12/15), delay distribution (ineq. 16), delay
//!   jitter (ineq. 17), and per-node buffer space.
//!
//! Every guarantee is expressed against a session's reference server
//! (eq. 1), [`lit_net::ReferenceServer`], which the network co-simulates
//! at injection. The discipline plugs into a `lit-net`
//! [`lit_net::NetworkBuilder`] via [`LitDiscipline::factory`]. Special
//! case worth knowing: **one admission class + `d = L/r` + no jitter
//! control ≡ VirtualClock**, and then the token-bucket delay bound equals
//! the PGPS/WFQ bound.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
mod bounds;
mod connection;
mod discipline;

pub use admission::fast::{Ac3ClassSpec, Ac3Fast, Ac3FastError, Ac3Handle, Ac3Witness};
pub use admission::{
    AdmissionError, ClassedAdmission, ConfigError, DRule, DelayClass, Procedure, SessionRequest,
};
pub use bounds::{install_oracle_bounds, stop_and_go_comparison, HopSpec, PathBounds};
pub use connection::{establish, Connection, ConnectionManager, EstablishError};
pub use discipline::LitDiscipline;
