//! The paper's in-text numeric artifacts rendered as tables:
//!
//! * §2's worked admission-control examples (AC1 vs AC2 `d` values);
//! * §2's PGPS-equivalence claim (ineq. 15 = Parekh's bound), checked by
//!   computing both sides independently over a hop sweep;
//! * §4's Stop-and-Go delay-bound comparison.

use crate::report::{ms, Table};
use lit_core::{
    stop_and_go_comparison, ClassedAdmission, DRule, DelayClass, HopSpec, PathBounds, Procedure,
    SessionRequest,
};
use lit_net::{DelayAssignment, LinkParams};
use lit_sim::Duration;

/// The worked example's class ladder: (10 Mbit/s, 0.2 ms),
/// (40 Mbit/s, 1.6 ms), (100 Mbit/s, 4 ms) on a 100 Mbit/s link.
fn example_classes() -> Vec<DelayClass> {
    vec![
        DelayClass {
            max_bandwidth_bps: 10_000_000,
            base_delay: Duration::from_us(200),
        },
        DelayClass {
            max_bandwidth_bps: 40_000_000,
            base_delay: Duration::from_us(1_600),
        },
        DelayClass {
            max_bandwidth_bps: 100_000_000,
            base_delay: Duration::from_ms(4),
        },
    ]
}

/// §2 worked examples: `d` per class under AC1 and AC2 for the
/// 100 kbit/s and 10 kbit/s sessions. Expected values (paper):
/// AC1 100 kbit/s → 0.4 / 1.8 / 5.6 ms; AC2 100 kbit/s → 0.2 / 2.0 /
/// 5.6 ms; class-1 10 kbit/s → 4 ms (AC1) vs 0.2 ms (AC2).
pub fn admission_examples() -> Table {
    let mut t = Table::new(
        "§2 worked examples — d_{i,s} per class (C = 100 Mbit/s, L = 400 bits)",
        &["procedure", "rate_kbps", "class", "d_ms"],
    );
    for (proc_name, procedure) in [("AC1", Procedure::Proc1), ("AC2", Procedure::Proc2)] {
        let ac = ClassedAdmission::new(procedure, 100_000_000, example_classes())
            .expect("example classes are valid");
        for rate in [100_000u64, 10_000] {
            let req = SessionRequest::new(rate, 400);
            for class in 0..3usize {
                let a = ac.d_assignment(class, &req, DRule::PerSessionMax);
                let d = a.d_for(400, rate);
                t.push(vec![
                    proc_name.to_string(),
                    (rate / 1000).to_string(),
                    (class + 1).to_string(),
                    ms(d),
                ]);
            }
        }
    }
    t
}

/// §2 PGPS equivalence: for a token-bucket `(r, b₀)` session with
/// `d = L/r` at every hop, ineq. (15) must coincide with Parekh's PGPS
/// bound `b₀/r + (N−1)·L_max/r + Σₙ(L_MAX/Cₙ + Γₙ)`, computed here from
/// its published closed form, independent of `PathBounds`.
pub fn pgps_equivalence(max_hops: usize) -> Table {
    let mut t = Table::new(
        "§2 — Leave-in-Time (AC1/one class) delay bound vs PGPS closed form",
        &["hops", "lit_bound_ms", "pgps_bound_ms", "equal"],
    );
    let link = LinkParams::paper_t1();
    let (rate, b0, lmax) = (32_000u64, 424u64, 424u64);
    for n in 1..=max_hops {
        let hop = HopSpec {
            link,
            assignment: DelayAssignment::LenOverRate,
        };
        let lit = PathBounds::new(rate, lmax as u32, lmax as u32, vec![hop; n])
            .delay_bound_token_bucket(b0);
        // PGPS closed form (Parekh eq. 23 plus propagation).
        let mut pgps = Duration::from_bits_at_rate(b0, rate);
        pgps += Duration::from_bits_at_rate(lmax, rate) * (n as u64 - 1);
        for _ in 0..n {
            pgps += link.lmax_time() + link.propagation;
        }
        t.push(vec![
            n.to_string(),
            ms(lit),
            ms(pgps),
            (lit == pgps).to_string(),
        ]);
    }
    t
}

/// §4 Stop-and-Go comparison over a frame-size sweep: the session sends
/// ≤ 10 packets of `0.01·T·C` bits per `T` (average rate `0.1·C`), both
/// schemes reserve `0.1·C`, Leave-in-Time uses `d = L/r = 0.1·T`.
pub fn stop_and_go_table() -> Table {
    let mut t = Table::new(
        "§4 — end-to-end delay bounds: Stop-and-Go vs Leave-in-Time (H = 5 hops, no propagation)",
        &["frame_T_ms", "sng_low_ms", "sng_high_ms", "lit_bound_ms"],
    );
    for t_ms in [5u64, 10, 20, 50, 100] {
        let frame = Duration::from_ms(t_ms);
        let link = LinkParams {
            rate_bps: 1_536_000,
            propagation: Duration::ZERO,
            lmax_bits: 424,
        };
        let rate = link.rate_bps / 10; // 0.1·C
        let d_max = frame / 10; // 0.1·T
        let (lo, hi, lit) = stop_and_go_comparison(frame, 5, &link, rate, d_max);
        t.push(vec![t_ms.to_string(), ms(lo), ms(hi), ms(lit)]);
    }
    t
}

/// §5's "new results for VirtualClock": because VirtualClock is
/// Leave-in-Time with one class, `d = L/r`, and no jitter control, the
/// paper's jitter / distribution-shift / buffer bounds apply to it — the
/// first such bounds published for VirtualClock. This table evaluates them
/// for the paper's standard voice session over 1–10 hops.
pub fn virtualclock_bounds(max_hops: usize) -> Table {
    let mut t = Table::new(
        "§5 — bounds inherited by VirtualClock (32 kbit/s voice session, T1 links)",
        &[
            "hops",
            "delay_bound_ms",
            "jitter_bound_ms",
            "dist_shift_ms",
            "buffer_bound_last_node_bits",
        ],
    );
    let link = LinkParams::paper_t1();
    for n in 1..=max_hops {
        let hop = HopSpec {
            link,
            assignment: DelayAssignment::LenOverRate,
        };
        let pb = PathBounds::new(32_000, 424, 424, vec![hop; n]);
        let dref = pb.dref_token_bucket(424); // a one-cell bucket
        t.push(vec![
            n.to_string(),
            ms(pb.delay_bound(dref)),
            ms(pb.jitter_bound(dref, false)),
            format!("{:.3}", pb.shift_ps() as f64 / 1e9),
            pb.buffer_bound_bits(dref, n - 1, false).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgps_rows_all_equal() {
        let t = pgps_equivalence(10);
        let csv = t.to_csv();
        assert_eq!(csv.matches("true").count(), 10, "{csv}");
        assert!(!csv.contains("false"));
    }

    #[test]
    fn admission_example_table_has_all_rows() {
        let t = admission_examples();
        assert_eq!(t.len(), 12);
        let csv = t.to_csv();
        // Spot-check the paper's headline values.
        assert!(csv.contains("AC1,100,1,0.400"));
        assert!(csv.contains("AC2,100,1,0.200"));
        assert!(csv.contains("AC1,10,1,4.000"));
        assert!(csv.contains("AC2,10,1,0.200"));
        assert!(csv.contains("AC1,100,3,5.600"));
        assert!(csv.contains("AC2,100,3,5.600"));
    }

    #[test]
    fn virtualclock_bounds_grow_linearly_in_hops() {
        let t = virtualclock_bounds(10);
        assert_eq!(t.len(), 10);
        let csv = t.to_csv();
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // Delay bound and jitter bound increase with every hop; the
        // increments are constant (β is linear in N).
        for w in rows.windows(2) {
            assert!(w[1][1] > w[0][1]);
            assert!(w[1][2] > w[0][2]);
            assert!(w[1][4] >= w[0][4]);
        }
        let inc1 = rows[1][1] - rows[0][1];
        let inc2 = rows[9][1] - rows[8][1];
        assert!((inc1 - inc2).abs() < 1e-6, "{inc1} vs {inc2}");
    }

    #[test]
    fn stop_and_go_lit_wins_at_every_frame_size() {
        let csv = stop_and_go_table().to_csv();
        let link = LinkParams {
            rate_bps: 1_536_000,
            propagation: Duration::ZERO,
            lmax_bits: 424,
        };
        let mut frames = 0;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let lo: f64 = cells[1].parse().unwrap();
            let lit: f64 = cells[3].parse().unwrap();
            assert!(lit < lo, "{line}");
            // Ineq. 12 through `PathBounds` is the paper's hand form
            // T + H·(L_MAX/C + d_max), to the picosecond.
            let frame = Duration::from_ms(cells[0].parse().unwrap());
            let d_max = frame / 10;
            let hand = frame + (link.lmax_time() + d_max) * 5;
            let (_, _, got) = stop_and_go_comparison(frame, 5, &link, 153_600, d_max);
            assert_eq!(got, hand, "{line}");
            assert_eq!(cells[3], ms(hand), "{line}");
            frames += 1;
        }
        assert_eq!(frames, 5);
    }
}
