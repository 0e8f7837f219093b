//! Property tests: the admission-control procedures keep their invariants
//! under arbitrary admit/release interleavings.

#![forbid(unsafe_code)]

use lit_core::{ClassedAdmission, ConnectionManager, DRule, DelayClass, Procedure, SessionRequest};
use lit_net::DelayAssignment;
use lit_prop::{check, Gen};
use lit_sim::Duration;

/// A random-but-valid class ladder over a 10 Mbit/s link.
fn gen_classes(g: &mut Gen) -> Vec<DelayClass> {
    let n = g.size(1, 5);
    let link = 10_000_000u64;
    let mut bw = 0u64;
    let mut sigma = 0u64;
    let mut classes: Vec<DelayClass> = (0..n)
        .map(|_| {
            let b = g.range(1, 101);
            let s = g.range(1, 50_001);
            bw = (bw + b * link / 100).min(link);
            sigma += s;
            DelayClass {
                max_bandwidth_bps: bw,
                base_delay: Duration::from_us(sigma),
            }
        })
        .collect();
    classes.last_mut().unwrap().max_bandwidth_bps = link;
    classes
}

/// After any sequence of *accepted* admissions, the paper's tests
/// (1.1) and (1.2)/(2.2) hold on the final state — re-derived here
/// from scratch.
#[test]
fn accepted_state_always_satisfies_the_tests() {
    check("accepted_state_always_satisfies_the_tests", |g| {
        let classes = gen_classes(g);
        let procedure = *g.pick(&[Procedure::Proc1, Procedure::Proc2]);
        let n_reqs = g.size(1, 40);
        let reqs: Vec<(usize, u64, u32)> = (0..n_reqs)
            .map(|_| {
                (
                    g.size(0, 5),
                    g.range(10_000, 2_000_000),
                    g.range(100, 2_000) as u32,
                )
            })
            .collect();
        let link = 10_000_000u64;
        let p = classes.len();
        let mut ac = ClassedAdmission::new(procedure, link, classes.clone()).unwrap();
        // Shadow bookkeeping of accepted sessions.
        let mut rate_in = vec![0u64; p];
        let mut bits_in = vec![0u64; p];
        for (class_raw, rate, len) in reqs {
            let class = class_raw % p;
            let req = SessionRequest::new(rate, len);
            if ac.try_admit(class, &req, DRule::PerSessionMax).is_ok() {
                rate_in[class] += rate;
                bits_in[class] += len as u64;
            }
        }
        // Re-derive test (1.1) for every m.
        let mut cum_rate = 0u64;
        for m in 0..p {
            cum_rate += rate_in[m];
            assert!(
                cum_rate <= classes[m].max_bandwidth_bps,
                "test 1.1 violated at class {m}"
            );
        }
        // Re-derive the base-delay test: (1.2) up to P−1, (2.2) up to P.
        let last = match procedure {
            Procedure::Proc1 => p.saturating_sub(1),
            Procedure::Proc2 => p,
        };
        let mut cum_bits = 0u64;
        for m in 0..last {
            cum_bits += bits_in[m];
            let needed = Duration::from_bits_at_rate(cum_bits, link);
            assert!(
                needed <= classes[m].base_delay,
                "base-delay test violated at class {m}: {needed} > {}",
                classes[m].base_delay
            );
        }
    });
}

/// Churn: arbitrary admit/release interleavings on [`ClassedAdmission`]
/// (both procedures × both `DRule`s) keep `admitted_rate_bps` equal to
/// the shadow sum of live sessions at every step, return it exactly to
/// zero after a full drain, and never underflow the per-class
/// accounting (an underflow panics inside `release`, failing the test).
#[test]
fn classed_admission_churn_conserves_rate() {
    check("classed_admission_churn_conserves_rate", |g| {
        let classes = gen_classes(g);
        let p = classes.len();
        let procedure = *g.pick(&[Procedure::Proc1, Procedure::Proc2]);
        let rule = *g.pick(&[DRule::PerPacket, DRule::PerSessionMax]);
        let mut ac = ClassedAdmission::new(procedure, 10_000_000, classes).unwrap();
        let mut live: Vec<(usize, SessionRequest)> = Vec::new();
        let mut shadow = 0u64;
        let mut first_accept: Option<(usize, SessionRequest)> = None;
        let steps = g.size(1, 60);
        for _ in 0..steps {
            let admit = live.is_empty() || g.weighted(&[2, 1]) == 0;
            if admit {
                let class = g.below(p as u64) as usize;
                let req =
                    SessionRequest::new(g.range(10_000, 2_000_000), g.range(100, 2_000) as u32);
                if ac.try_admit(class, &req, rule).is_ok() {
                    shadow += req.rate_bps;
                    live.push((class, req));
                    first_accept.get_or_insert((class, req));
                }
            } else {
                let (class, req) = live.swap_remove(g.below(live.len() as u64) as usize);
                ac.release(class, &req);
                shadow -= req.rate_bps;
            }
            assert_eq!(ac.admitted_rate_bps(), shadow, "rate accounting drifted");
        }
        // Full drain: the server returns exactly to zero committed rate...
        for (class, req) in live.drain(..) {
            ac.release(class, &req);
        }
        assert_eq!(ac.admitted_rate_bps(), 0, "drain left residual rate");
        // ...and to full capacity: anything it ever accepted is
        // acceptable again on the emptied server.
        if let Some((class, req)) = first_accept {
            assert!(
                ac.try_admit(class, &req, rule).is_ok(),
                "emptied server rejects a previously accepted request"
            );
        }
    });
}

/// The granted d is always at least the class's structural minimum
/// and increases (weakly) with the class index.
#[test]
fn granted_d_is_monotone_in_class() {
    check("granted_d_is_monotone_in_class", |g| {
        let classes = gen_classes(g);
        let rate = g.range(10_000, 2_000_000);
        let len = g.range(100, 2_000) as u32;
        for procedure in [Procedure::Proc1, Procedure::Proc2] {
            let ac = ClassedAdmission::new(procedure, 10_000_000, classes.clone()).unwrap();
            let req = SessionRequest::new(rate, len);
            let mut prev: Option<Duration> = None;
            for class in 0..classes.len() {
                let a = ac.d_assignment(class, &req, DRule::PerSessionMax);
                let d = match a {
                    DelayAssignment::Fixed(d) => d,
                    _ => unreachable!("PerSessionMax grants Fixed"),
                };
                if let Some(p) = prev {
                    assert!(d >= p, "d not monotone across classes");
                }
                prev = Some(d);
            }
        }
    });
}

/// Establish/teardown through the ConnectionManager never leaks or
/// double-frees capacity, for arbitrary route/rate mixes.
#[test]
fn connection_manager_conserves_capacity() {
    check("connection_manager_conserves_capacity", |g| {
        let n_steps = g.size(1, 60);
        let script: Vec<(usize, usize, u64)> = (0..n_steps)
            .map(|_| (g.size(0, 5), g.size(0, 5), g.range(10_000, 800_000)))
            .collect();
        let mut cm = ConnectionManager::one_class(5, 1_536_000);
        let mut live = Vec::new();
        let mut shadow = [0u64; 5]; // committed rate per node
        for (a, b, rate) in script {
            let (lo, hi) = (a.min(b), a.max(b));
            let req = SessionRequest::new(rate, 424);
            match cm.establish(lo..=hi, 0, req, DRule::PerPacket) {
                Ok(c) => {
                    for &(n, _) in &c.assignments {
                        shadow[n] += rate;
                    }
                    live.push(c);
                }
                Err(_) => {
                    if let Some(c) = live.pop() {
                        for &(n, _) in &c.assignments {
                            shadow[n] -= c.request.rate_bps;
                        }
                        cm.teardown(&c);
                    }
                }
            }
            for (n, &committed) in shadow.iter().enumerate() {
                assert_eq!(cm.node(n).admitted_rate_bps(), committed);
                assert!(committed <= 1_536_000);
            }
        }
    });
}
