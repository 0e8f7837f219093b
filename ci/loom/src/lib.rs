//! Loom models for the workspace's concurrent protocols: the `lit-obs`
//! hub pool (below) and the sharded executor's barrier/mailbox window
//! protocol (`shard_models`).
//!
//! The production hub (`lit_obs::hub::Hub`, a value shared by reference
//! among the workers) pools per-network `ObsShard`s behind one `Mutex`
//! and claims the pooled result is independent of worker completion
//! order because `ObsShard::merge` is commutative and associative. The
//! models here re-create that `Hub::absorb` path under loom's
//! exhaustive scheduler with the *real* `ObsShard`/`merge` code, so every
//! interleaving of worker threads is checked, not just the ones a lucky
//! test run happens to hit.
//!
//! Run with `cd ci/loom && cargo test` (CI-only; needs the network to
//! fetch loom — the offline dev workspace deliberately excludes this
//! crate).

#![forbid(unsafe_code)]

#[cfg(test)]
mod models {
    use lit_obs::metrics::ObsShard;
    use loom::sync::{Arc, Mutex};
    use loom::thread;

    /// A distinguishable shard for worker `w`: one node, one single-hop
    /// session, and a violation label unique to the worker so the merged
    /// result proves every submission landed exactly once.
    fn worker_shard(w: u64) -> ObsShard {
        let mut s = ObsShard::sized(1, &[1]);
        s.violations.insert(format!("worker-{w}"), w + 1);
        s
    }

    /// Mirror of `Hub::absorb`: lock the pool, merge the shard.
    fn submit(pool: &Mutex<ObsShard>, shard: &ObsShard) {
        pool.lock().unwrap().merge(shard);
    }

    /// Every interleaving of two workers submitting into the shared pool
    /// must produce the same pooled totals the sequential merge does.
    #[test]
    fn hub_merge_is_order_independent() {
        loom::model(|| {
            let pool = Arc::new(Mutex::new(ObsShard::default()));
            let handles: Vec<_> = (0..2u64)
                .map(|w| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || submit(&pool, &worker_shard(w)))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            let got = pool.lock().unwrap();
            let mut want = ObsShard::default();
            for w in 0..2u64 {
                want.merge(&worker_shard(w));
            }
            assert_eq!(got.networks, want.networks);
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.violation_total(), 1 + 2);
        });
    }

    /// A worker submitting while another thread snapshots the pool (the
    /// exporter path) must never observe a torn shard: the snapshot is
    /// either before or after the merge, with nothing in between.
    #[test]
    fn hub_snapshot_never_tears() {
        loom::model(|| {
            let pool = Arc::new(Mutex::new(ObsShard::default()));
            let writer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || submit(&pool, &worker_shard(0)))
            };
            let snap = pool.lock().unwrap().clone();
            assert!(
                snap.networks == 0 || snap.violation_total() == 1,
                "torn snapshot: networks={} violations={}",
                snap.networks,
                snap.violation_total()
            );
            writer.join().unwrap();
            assert_eq!(pool.lock().unwrap().violation_total(), 1);
        });
    }
}

/// Loom models of the k-shard driver's window protocol
/// (`crates/net/src/shard.rs`): per-window barrier alignment, atomic
/// `next_event_ps` publication, the bounded-mailbox-plus-spill-lane
/// handoff, and the full multi-window worker loop with its two exits
/// (tmin exhaustion, post-barrier-B abort) under a mid-window panic.
/// Loom provides neither `std::sync::Barrier` nor
/// `std::sync::mpsc`, so the model rebuilds both from loom's `Mutex`,
/// `Condvar` and atomics with the *same* protocol rules the production
/// code follows: sends happen strictly between barriers A and B, drains
/// strictly after barrier B, spill only after the bounded lane fills,
/// and the receiver empties the bounded lane before the spill lane.
#[cfg(test)]
mod shard_models {
    use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};
    use loom::thread;
    use std::collections::VecDeque;

    /// `std::sync::Barrier` stand-in: generation-counted so reuse across
    /// windows is safe under spurious wakeups.
    struct Barrier {
        state: Mutex<(usize, u64)>, // (arrived, generation)
        cv: Condvar,
        n: usize,
    }

    impl Barrier {
        fn new(n: usize) -> Self {
            Barrier {
                state: Mutex::new((0, 0)),
                cv: Condvar::new(),
                n,
            }
        }

        fn wait(&self) {
            let mut g = self.state.lock().unwrap();
            let gen = g.1;
            g.0 += 1;
            if g.0 == self.n {
                g.0 = 0;
                g.1 += 1;
                self.cv.notify_all();
            } else {
                while g.1 == gen {
                    g = self.cv.wait(g).unwrap();
                }
            }
        }
    }

    /// `sync_channel(cap)` stand-in with the production spill rule: once
    /// a `try_send` hits capacity, the rest of the window's handoffs go
    /// to the spill lane, and the receiver drains channel-then-spill so
    /// per-pair FIFO order survives the overflow.
    struct Mailbox {
        chan: Mutex<VecDeque<u64>>,
        spill: Mutex<Vec<u64>>,
        cap: usize,
    }

    impl Mailbox {
        fn new(cap: usize) -> Self {
            Mailbox {
                chan: Mutex::new(VecDeque::new()),
                spill: Mutex::new(Vec::new()),
                cap,
            }
        }

        /// Sender side; `spilling` is the sender-local per-window flag.
        fn send(&self, v: u64, spilling: &mut bool) {
            if !*spilling {
                let mut c = self.chan.lock().unwrap();
                if c.len() < self.cap {
                    c.push_back(v);
                    return;
                }
                *spilling = true;
            }
            self.spill.lock().unwrap().push(v);
        }

        /// Receiver side, called only after barrier B.
        fn drain(&self) -> Vec<u64> {
            let mut out: Vec<u64> = self.chan.lock().unwrap().drain(..).collect();
            out.extend(self.spill.lock().unwrap().drain(..));
            out
        }
    }

    /// One full window round-trip between two shards: both publish their
    /// next event time, agree on `tmin` from the same snapshot, the
    /// sender overflows the mailbox into the spill lane, and after
    /// barrier B the receiver sees every handoff in FIFO order. Checked
    /// under every interleaving loom can schedule.
    #[test]
    fn window_handoff_is_fifo_and_tmin_agrees() {
        loom::model(|| {
            let barrier = Arc::new(Barrier::new(2));
            let mailbox = Arc::new(Mailbox::new(2));
            let next_ts = Arc::new([AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)]);

            let sender = {
                let (barrier, mailbox, next_ts) = (
                    Arc::clone(&barrier),
                    Arc::clone(&mailbox),
                    Arc::clone(&next_ts),
                );
                thread::spawn(move || {
                    next_ts[0].store(10, Ordering::SeqCst);
                    barrier.wait(); // A
                    let tmin = next_ts
                        .iter()
                        .map(|a| a.load(Ordering::SeqCst))
                        .min()
                        .unwrap();
                    // Window body: 4 handoffs through a capacity-2 lane.
                    let mut spilling = false;
                    for v in 1..=4u64 {
                        mailbox.send(v, &mut spilling);
                    }
                    assert!(spilling, "capacity 2 must overflow on 4 sends");
                    barrier.wait(); // B
                    tmin
                })
            };

            next_ts[1].store(20, Ordering::SeqCst);
            barrier.wait(); // A
            let tmin = next_ts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .unwrap();
            barrier.wait(); // B
            // Post-barrier drain: every pre-barrier send is visible, in
            // order, channel contents ahead of spilled overflow.
            assert_eq!(mailbox.drain(), vec![1, 2, 3, 4]);
            let sender_tmin = sender.join().unwrap();
            assert_eq!(tmin, 10, "receiver must see the sender's publication");
            assert_eq!(sender_tmin, tmin, "shards disagree on the window floor");
        });
    }

    /// The production worker loop of `lit_net::shard::run_windows`, windows
    /// and all, with one shard "panicking" (trapping a payload and
    /// flagging the shared abort) partway through a window. Mirrors the
    /// production break conditions exactly: the *only* pre-window exit
    /// is a pure function of the barrier-A `next_ts` snapshot (`tmin`
    /// exhausted), and abort is checked *only* after barrier B. A
    /// pre-window `abort` load — which an earlier revision had — lets a
    /// slow survivor observe a sibling's mid-window store and break
    /// before barrier B while the flagging shard is already parked
    /// there: a permanent deadlock this multi-window model exists to
    /// exhibit (loom reports it as every thread blocked). Running the
    /// loop over two windows keeps that interleaving inside the
    /// explored state space instead of outside it.
    struct AbortLoop {
        barrier: Barrier,
        next_ts: [AtomicU64; 2],
        abort: AtomicBool,
        payload: Mutex<Option<&'static str>>,
    }

    /// One shard's worker loop: events at t = 10 and t = 20, horizon 100,
    /// lookahead 5 (so the two events land in different windows).
    /// `fail_at_window` simulates a panic trapped inside that window's
    /// body. Returns (windows fully completed, exited via abort).
    fn abort_loop_worker(lp: &AbortLoop, id: usize, fail_at_window: Option<usize>) -> (usize, bool) {
        const UNTIL: u64 = 100;
        const LOOKAHEAD: u64 = 5;
        let mut pending: VecDeque<u64> = [10u64, 20].into_iter().collect();
        let mut window = 0usize;
        loop {
            lp.next_ts[id].store(
                pending.front().copied().unwrap_or(u64::MAX),
                Ordering::SeqCst,
            );
            lp.barrier.wait(); // A
            let tmin = lp
                .next_ts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .unwrap();
            // Pure function of the common snapshot — no abort load here.
            if tmin == u64::MAX || tmin > UNTIL {
                return (window, false);
            }
            // Window body: consume local events strictly below the horizon.
            while let Some(&t) = pending.front() {
                if t < tmin.saturating_add(LOOKAHEAD) {
                    pending.pop_front();
                } else {
                    break;
                }
            }
            if fail_at_window == Some(window) {
                lp.payload.lock().unwrap().get_or_insert("boom");
                lp.abort.store(true, Ordering::SeqCst);
            }
            lp.barrier.wait(); // B
            if lp.abort.load(Ordering::SeqCst) {
                return (window, true);
            }
            window += 1;
        }
    }

    #[test]
    fn panic_abort_exits_every_shard_on_an_aligned_barrier() {
        loom::model(|| {
            let lp = Arc::new(AbortLoop {
                barrier: Barrier::new(2),
                next_ts: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
                abort: AtomicBool::new(false),
                payload: Mutex::new(None),
            });

            let failing = {
                let lp = Arc::clone(&lp);
                // Shard 0 "panics" inside its second window (index 1).
                thread::spawn(move || abort_loop_worker(&lp, 0, Some(1)))
            };
            let survivor = abort_loop_worker(&lp, 1, None);
            let failed = failing.join().unwrap();

            // Both exit via the post-barrier-B abort check, in the same
            // window — nobody is left parked and nobody runs past the
            // flagged window.
            assert_eq!(survivor, (1, true), "survivor missed the aligned abort exit");
            assert_eq!(failed, (1, true));
            assert_eq!(*lp.payload.lock().unwrap(), Some("boom"));
        });
    }

    /// The clean-exhaustion exit of the same loop: with no failure both
    /// shards drain both windows and leave on the tmin == MAX branch,
    /// never observing an abort.
    #[test]
    fn window_loop_exhausts_cleanly_without_abort() {
        loom::model(|| {
            let lp = Arc::new(AbortLoop {
                barrier: Barrier::new(2),
                next_ts: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
                abort: AtomicBool::new(false),
                payload: Mutex::new(None),
            });
            let other = {
                let lp = Arc::clone(&lp);
                thread::spawn(move || abort_loop_worker(&lp, 0, None))
            };
            assert_eq!(abort_loop_worker(&lp, 1, None), (2, false));
            assert_eq!(other.join().unwrap(), (2, false));
            assert!(lp.payload.lock().unwrap().is_none());
        });
    }
}
