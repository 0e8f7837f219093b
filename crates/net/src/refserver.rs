//! The reference server (paper §2, Figure 1, eq. 1).
//!
//! A session's *reference server* is a work-conserving FCFS server of rate
//! `r_s` serving that session **alone**. Every service commitment of
//! Leave-in-Time is expressed relative to it: the scheduler guarantees
//! end-to-end service "no worse than" the reference server plus a constant.
//!
//! Finishing times obey the recursion
//!
//! ```text
//! W_{i,s} = max{ t_{i,s}, W_{i-1,s} } + L_{i,s}/r_s,   W_{0,s} = t_{1,s}
//! ```
//!
//! which is also the skeleton of VirtualClock's deadline update (eq. 2) and
//! of the `K` clock in Leave-in-Time's final form (eq. 11). The node step
//! co-simulates one per session at injection, so every packet carries its
//! `D^ref_i` to the delivery-side checks of ineq. 12 and 17.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use lit_sim::{Duration, Time};

/// Incremental evaluator of eq. (1).
#[derive(Clone, Debug)]
pub struct ReferenceServer {
    rate_bps: u64,
    /// `W_{i-1}`, starting at `Time::ZERO`: then `max{t_1, W_0} = t_1`,
    /// which is eq. 1's `W_0 = t_1`.
    w_prev: Time,
}

/// Outcome of offering one packet to the reference server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefOutcome {
    /// Finishing transmission time `W_i`.
    pub finish: Time,
    /// Delay in the reference server, `D^ref_i = W_i − t_i`.
    pub delay: Duration,
}

impl ReferenceServer {
    /// A reference server with rate `r_s`. A zero rate panics at the
    /// first [`ReferenceServer::offer`].
    pub fn new(rate_bps: u64) -> Self {
        ReferenceServer {
            rate_bps,
            w_prev: Time::ZERO,
        }
    }

    /// Offer packet `i` arriving (last bit) at `t` with length `len_bits`.
    /// Arrivals need not be time-sorted (eq. 1 only needs the max), but
    /// feeding order defines the packet numbering.
    /// Paper: eq. 1
    pub fn offer(&mut self, t: Time, len_bits: u32) -> RefOutcome {
        let service = Duration::from_bits_at_rate(len_bits as u64, self.rate_bps);
        let finish = t.max(self.w_prev) + service;
        self.w_prev = finish;
        RefOutcome {
            finish,
            delay: finish - t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_arrivals_see_pure_service_time() {
        let mut rs = ReferenceServer::new(32_000);
        // 424-bit packets every 20 ms: service 13.25 ms < spacing, so each
        // packet's delay is exactly the service time.
        for i in 0..10u64 {
            let out = rs.offer(Time::from_ms(20 * i), 424);
            assert_eq!(out.delay, Duration::from_us(13_250), "packet {i}");
        }
    }

    #[test]
    fn back_to_back_burst_queues_linearly() {
        let mut rs = ReferenceServer::new(32_000);
        // 4 packets all arriving at t = 0: delays L/r, 2L/r, 3L/r, 4L/r.
        for i in 1..=4u64 {
            let out = rs.offer(Time::ZERO, 424);
            assert_eq!(out.delay, Duration::from_us(13_250) * i, "packet {i}");
        }
    }

    #[test]
    fn idle_period_resets_the_clock() {
        let mut rs = ReferenceServer::new(32_000);
        rs.offer(Time::ZERO, 424);
        rs.offer(Time::ZERO, 424); // backlog until 26.5 ms
                                   // Long idle gap: next packet starts fresh.
        let out = rs.offer(Time::from_secs(1), 424);
        assert_eq!(out.delay, Duration::from_us(13_250));
    }

    #[test]
    fn token_bucket_traffic_never_exceeds_b0_over_r() {
        // Empirical check of eq. (14), D^ref_max = b0/r: shape an
        // adversarial burst source through a (r, b0) bucket and feed it to
        // the reference server.
        use lit_sim::SimRng;
        use lit_traffic::{BurstSource, ShapedSource, Source};
        let (r, b0) = (50_000u64, 2_120u64); // 5 packets deep
        let mut src = ShapedSource::new(BurstSource::new(Duration::from_ms(30), 8, 424), r, b0);
        let mut rng = SimRng::seed_from(9);
        let mut rs = ReferenceServer::new(r);
        let bound = Duration::from_bits_at_rate(b0, r);
        for _ in 0..5_000 {
            let e = src.next_emission(&mut rng).unwrap();
            let out = rs.offer(e.at, e.len_bits);
            assert!(
                out.delay <= bound,
                "delay {} exceeds b0/r {}",
                out.delay,
                bound
            );
        }
    }
}
