//! Known-bad fixture for `barrier-protocol`: a reconstruction of the
//! PR-7 sharded worker loop *before* the abort-race fix (commit
//! af60162), presented as if it lived at `crates/net/src/shard.rs`.
//!
//! The bug: `abort.load(..)` sits in the break condition **between**
//! barrier A and barrier B (phase 1). A worker that observes the flag
//! there leaves the loop without reaching barrier B, while a peer that
//! missed the flag this iteration is already blocked on B — the barrier
//! count never completes and the fleet deadlocks. The fixed protocol
//! reads `abort` only after barrier B (phase 2), where every worker is
//! guaranteed to reach the same decision point. The rule must flag this
//! loop forever. Never compiled.
#![forbid(unsafe_code)]

fn pre_fix_worker_loop(shard: &mut Shard) {
    let worker = |shard: &mut Shard| {
        loop {
            next_ts[shard.id].store(shard.next_event_ps(), Ordering::SeqCst);
            barrier.wait();
            let tmin = next_ts.iter().map(|a| a.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX);
            if tmin == u64::MAX || tmin > until_ps || abort.load(Ordering::SeqCst) {
                break;
            }
            // lit-lint: allow(checked-clock-ops, "u64::MAX is the no-event sentinel; saturating keeps it a sentinel instead of wrapping")
            let horizon = tmin.saturating_add(lookahead_ps);
            let r = catch_unwind(AssertUnwindSafe(|| shard.process_window(horizon, until)));
            if let Err(payload) = r {
                let mut slot = match panic_slot.lock() { Ok(s) => s, Err(p) => p.into_inner() };
                slot.get_or_insert(payload);
                abort.store(true, Ordering::SeqCst);
            }
            barrier.wait(); // barrier B: every send of this window is done
            if abort.load(Ordering::SeqCst) { break; }
            shard.drain_inboxes();
        }
    };
    worker(shard);
}

/// A second phase violation in the same file: draining the mailboxes
/// between the barriers reads sends that peers have not published yet.
fn drain_between_barriers(shard: &mut Shard) {
    loop {
        next_ts[shard.id].store(shard.next_event_ps(), Ordering::SeqCst);
        barrier.wait();
        shard.drain_inboxes(); // phase 1: too early, peers still sending
        shard.process_window(0, 0);
        barrier.wait();
        if abort.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// A conditional barrier: workers that skip the wait desynchronize the
/// barrier count for everyone else.
fn conditional_wait(shard: &mut Shard) {
    loop {
        next_ts[shard.id].store(shard.next_event_ps(), Ordering::SeqCst);
        barrier.wait();
        shard.process_window(0, 0);
        if shard.has_new_work() {
            barrier.wait();
        }
        if abort.load(Ordering::SeqCst) {
            break;
        }
        shard.drain_inboxes();
    }
}
