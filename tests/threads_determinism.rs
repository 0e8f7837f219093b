//! The worker pool is a wall-clock knob, never a results knob: any
//! experiment must produce byte-identical tables for any `--threads`
//! value. Each sweep point / replica runs `f(i, items[i])` with its own
//! seed and no shared state, and results are reassembled by index — these
//! tests pin that contract end to end, through table rendering and the
//! collector's pooled observability exports.

#![forbid(unsafe_code)]

use lit_obs::hub::Hub;
use lit_repro::collect::Collector;
use lit_repro::experiments::{fig7, fig8, replica_seed, run_points, RunConfig};

fn cfg(collector: &Collector, threads: usize, seconds: u64, replicas: u32) -> RunConfig<'_> {
    RunConfig {
        seconds: Some(seconds),
        seed: 7,
        threads: Some(threads),
        replicas,
        ..RunConfig::paper(collector)
    }
}

#[test]
fn fig8_csv_identical_across_thread_counts() {
    // The ISSUE's acceptance case: fig8 with pooled replicas, 1 worker vs
    // 8 workers, CSV compared byte for byte.
    let c = Collector::default();
    let serial = fig8::run(&cfg(&c, 1, 12, 4));
    let pooled = fig8::run(&cfg(&c, 8, 12, 4));
    assert_eq!(fig8::table(&serial).to_csv(), fig8::table(&pooled).to_csv());
    assert_eq!(
        fig8::pdf_table(&serial).to_csv(),
        fig8::pdf_table(&pooled).to_csv()
    );
    assert_eq!(
        fig8::buffer_table(&serial, true).to_csv(),
        fig8::buffer_table(&pooled, true).to_csv()
    );
}

#[test]
fn fig7_sweep_identical_across_thread_counts() {
    let c = Collector::default();
    let serial = fig7::run(&cfg(&c, 1, 8, 1));
    let pooled = fig7::run(&cfg(&c, 5, 8, 1));
    assert_eq!(fig7::table(&serial).to_csv(), fig7::table(&pooled).to_csv());
}

#[test]
fn run_points_preserves_order_and_indices() {
    let c = Collector::default();
    let items: Vec<u64> = (0..57).collect();
    let out = run_points(&cfg(&c, 8, 1, 1), &items, |i, &x| {
        assert_eq!(i as u64, x, "item handed to the wrong index");
        x * x
    });
    assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    // Degenerate cases: empty input, more workers than items.
    let empty: Vec<u64> = Vec::new();
    assert!(run_points(&cfg(&c, 8, 1, 1), &empty, |_, &x| x).is_empty());
    assert_eq!(
        run_points(&cfg(&c, 64, 1, 1), &[1u64, 2], |_, &x| x),
        vec![1, 2]
    );
}

#[test]
fn replica_seeds_are_stable_and_distinct() {
    // Replica 0 keeps the master seed, so `--replicas 1` reproduces the
    // historical single-run results exactly.
    assert_eq!(replica_seed(7, 0), 7);
    let seeds: Vec<u64> = (0..16).map(|r| replica_seed(7, r)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len(), "replica seeds collide");
    // And they are a pure function of (master, replica).
    assert_eq!(
        seeds,
        (0..16).map(|r| replica_seed(7, r)).collect::<Vec<_>>()
    );
}

#[test]
fn pooled_obs_exports_identical_across_thread_counts() {
    // Workers retire their replicas into the collector in completion
    // order; the pooled metrics JSON, Chrome trace and trace JSONL must
    // not show it.
    let run_pooled = |threads: usize| {
        let c = Collector::new(Hub::new(true, 256));
        let _ = fig8::run(&cfg(&c, threads, 6, 4));
        let hub = c.hub();
        (
            hub.metrics_shard().networks,
            hub.metrics_json(),
            hub.chrome_trace_json(),
            hub.trace_jsonl(),
        )
    };
    let (nets, m1, c1, j1) = run_pooled(1);
    let (_, m4, c4, j4) = run_pooled(4);

    assert_eq!(nets, 4, "every replica's probe reaches the hub");
    assert!(c1.contains("traceEvents"), "chrome trace export empty");
    assert!(!j1.is_empty(), "jsonl trace export empty");

    assert_eq!(m1, m4, "pooled metrics JSON depends on thread count");
    assert_eq!(c1, c4, "pooled Chrome trace depends on thread count");
    assert_eq!(j1, j4, "pooled trace JSONL depends on thread count");
}

#[test]
fn obs_shard_pooling_is_merge_order_independent() {
    // The hub pools worker shards in completion order, which varies with
    // the thread count; the exported bytes must not. Build three distinct
    // shards and pool them in opposite orders.
    use lit_obs::metrics::ObsShard;
    use lit_obs::{PacketView, Probe};
    use lit_sim::{Duration, Time};

    let mk = |seed: u64, n: u64| -> ObsShard {
        let mut p = lit_obs::ObsProbe::new(0);
        p.on_build(seed, 2, &[2]);
        for i in 0..n {
            let v = PacketView {
                session: 0,
                seq: i + 1,
                hop: 0,
                len_bits: 424,
                created: Time::ZERO,
                arrived: Time::from_us(i),
            };
            p.on_arrive(Time::from_us(i), 0, v, i as usize, 2 * i as usize);
            p.on_eligible(Time::from_us(i + 1), 0, v, Duration::from_us(seed));
            p.on_dispatch(Time::from_us(i + 1), 0, v);
            p.on_depart(Time::from_us(i + 2), 0, v, i as i64 - 3, false);
        }
        p.shard
    };

    let parts = [mk(1, 3), mk(2, 7), mk(5, 11)];
    let mut fwd = ObsShard::default();
    let mut rev = ObsShard::default();
    for s in parts.iter() {
        fwd.merge(s);
    }
    for s in parts.iter().rev() {
        rev.merge(s);
    }
    assert_eq!(fwd.to_json(), rev.to_json());
    assert_eq!(fwd.networks, 3);
    assert_eq!(fwd.nodes[0].arrivals, 21);
}
