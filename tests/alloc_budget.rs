//! Allocation budget: what a session costs on the heap, counted exactly.
//!
//! A counting `#[global_allocator]` (this test binary only) tracks each
//! thread's live bytes — as requested, before the allocator's own
//! rounding — and live blocks, and counts its allocation calls.
//! Statistics memory follows the data: a histogram's bin 0 is inline and
//! the bins past it exist from their first hit, a session's per-hop rows
//! are one block, its route lives in the topology's flat table. The
//! budgets below fail when a per-session `Vec` or a dense bin array comes
//! back, or when the steady state starts to allocate. The same counter
//! holds procedure 3's admission to one allocation per rejection.

use leave_in_time::analysis::{BatchMeans, DurationHistogram};
use leave_in_time::core::{Ac3Fast, Ac3FastError, LitDiscipline};
use leave_in_time::net::{
    DelayAssignment, LinkParams, Network, NetworkBuilder, OccupancyHistogram, SessionId,
    SessionSpec, SessionStats, StatsConfig,
};
use leave_in_time::sim::{Duration, SimRng, Time};
use leave_in_time::traffic::DeterministicSource;
use lit_repro::scenario::{RunOptions, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(bytes, blocks)` this thread allocated and has not freed. Per
    /// thread, so the tests of this binary (each on its own thread, each
    /// simulation single-threaded) do not see each other or the harness.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
    /// `alloc` and `realloc` calls this thread made: what a steady state
    /// must not do.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: isize, blocks: isize) {
    // `try_with`: a thread's last frees can come after its locals are gone.
    let _ = LIVE.try_with(|c| c.set((c.get().0 + bytes, c.get().1 + blocks)));
}

fn count_call() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain statistic (a `const`
// thread-local `Cell`, which neither allocates nor has a destructor) and
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        count_call();
        if !p.is_null() {
            count(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(p, layout) };
        count(-(layout.size() as isize), -1);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with this layout; the caller
        // vouches for `new_size`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        count_call();
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize, 0);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(bytes, blocks)` allocated on this thread and still live since `since`.
fn live(since: (isize, isize)) -> (isize, isize) {
    let now = LIVE.get();
    (now.0 - since.0, now.1 - since.1)
}

/// `lit-bench`'s `sessions_100k` builder at `n` sessions: 2-node T1
/// tandem, reserved rate 0.8·C/n each, every second session
/// jitter-controlled, phases spread over one gap plus 37 ns,
/// `StatsConfig::compact()`. With `distinct`, the traffic stays the same
/// but session `i` reserves `i` bit/s more and gets its own rule (1.3)
/// assignment, so no two sessions share a rate or a delay (the
/// reservations overbook the link: nothing here checks a bound).
fn sessions(n: u64, distinct: bool) -> Network {
    let link = LinkParams::paper_t1();
    let mut b = NetworkBuilder::new().seed(1).stats(StatsConfig::compact());
    let nodes = b.tandem(2, link);
    let rate = link.rate_bps * 8 / 10 / n;
    let gap = Duration::from_bits_at_rate(424, rate);
    for i in 0..n {
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = i % 2 == 1;
        if distinct {
            spec.rate_bps += i;
            spec.delay = DelayAssignment::Linear {
                num: link.rate_bps,
                den: u128::from(spec.rate_bps) * u128::from(link.rate_bps),
                base: Duration::from_ms(1) + Duration::from_ns(i),
            };
        }
        let offset = gap * i / n + Duration::from_ns(37);
        let source = DeterministicSource::new(gap, 424).with_offset(offset);
        b.add_session(spec, &nodes, Box::new(source));
    }
    b.build(&LitDiscipline::factory())
}

/// Build `n` sessions, run `secs` simulated seconds, and return the
/// blocks per session live after the build, then the bytes and blocks per
/// session live at the horizon.
fn live_per_session(n: u64, secs: u64, distinct: bool) -> (f64, f64, f64) {
    let before = LIVE.get();
    let mut net = sessions(n, distinct);
    let (_, built_blocks) = live(before);
    net.run_until(Time::ZERO + Duration::from_secs(secs));
    let (bytes, blocks) = live(before);
    assert!(net.session_stats(SessionId(0)).delivered > 0);
    let per_session = |x: isize| x as f64 / n as f64;
    let (built, bytes, blocks) = (
        per_session(built_blocks),
        per_session(bytes),
        per_session(blocks),
    );
    println!(
        "{n} sessions (distinct: {distinct}): {built:.2} blocks/session after build; \
         {bytes:.1} B in {blocks:.2} blocks/session at {secs} s"
    );
    (built, bytes, blocks)
}

/// Build `n` sessions, run `secs` simulated seconds, and hold the heap
/// they leave live against the per-session budget. Before histogram bins
/// materialised on first hit and the gauge and route vectors were folded
/// away, the 100 000-session build read 2 112 B in 8.0 blocks per session
/// (EXPERIMENTS.md, "Performance", has the table by allocation site).
fn hold_to_budget(n: u64, secs: u64) {
    let (built_blocks, bytes, blocks) = live_per_session(n, secs, false);
    // A boxed source and the per-hop rows, and a few dozen tables.
    assert!(
        built_blocks <= 2.01,
        "{built_blocks} blocks/session after build"
    );
    // And nothing more: every sample of the hop occupancies, and of the
    // e2e delays on the half that is not jitter-controlled (the other
    // half's all overflow 1 s), falls in bin 0, which is inline.
    assert!(blocks <= 2.01, "{blocks} blocks/session at {secs} s");
    // LiT's two 16-byte rows included, sized once at build, one shared
    // profile and route delay, a 24-byte spec row, histograms that refer
    // to their layout, and random state only for sources that draw:
    // 635.7 B at 10 000 sessions and 75 s (776 B with each histogram
    // holding its layout and every injector a stream, 860 B with bin 0 on
    // the heap and 80-byte spec rows, 1 188 B when the rows, the route and
    // the statistics copied the rate and the delay assignment).
    assert!(bytes <= 648.0, "{bytes} B/session live at {secs} s");
}

/// A histogram holds one word per bin up to the highest bin hit — no heap
/// while every sample is in bin 0 (inline) or overflows, never more than
/// `nbins` words.
#[test]
fn a_histogram_costs_the_prefix_it_reached() {
    let before = LIVE.get();
    let mut h = DurationHistogram::new(Duration::from_ms(1), 1_000);
    h.record(Duration::from_secs(5)); // overflow: no bin to store
    h.record(Duration::ZERO);
    h.record(Duration::from_us(999));
    assert_eq!(live(before), (0, 0));
    h.record(Duration::from_ms(1));
    assert_eq!(live(before), (16, 1), "bins 0 and 1, in one block");
    for ms in 1..1_000 {
        // Doubling on the way up, clamped to `nbins` at the top.
        h.record(Duration::from_ms(ms));
        let (bytes, blocks) = live(before);
        assert!((8 * (ms as isize + 1)..=8_000).contains(&bytes) && blocks == 1);
    }
    assert_eq!(live(before), (8_000, 1));
    assert_eq!(h.count(), 1_003);
    assert_eq!(h.bin_counts().len(), 1_000);
}

#[test]
fn a_compact_session_fits_its_budget() {
    hold_to_budget(10_000, 75);
    // Each histogram refers to its layout (8 B) instead of holding it
    // (16 B), its stored prefix is a 16-byte inline-or-boxed count, and
    // the batch-means target is a constant.
    assert_eq!(size_of::<DurationHistogram>(), 64);
    assert_eq!(size_of::<OccupancyHistogram>(), 48);
    assert_eq!(size_of::<BatchMeans>(), 48);
    assert_eq!(size_of::<SessionStats>(), 240);
}

/// Past the warm-up every session has sent, every histogram has its
/// bins and every table its capacity: from 40 s to 75 s the 10 000-session
/// build allocates less than once per 10 000 events.
#[test]
fn the_steady_state_does_not_allocate() {
    let n = 10_000;
    let mut net = sessions(n, false);
    net.run_until(Time::ZERO + Duration::from_secs(40));
    let (calls, events) = (CALLS.get(), net.event_count());
    net.run_until(Time::ZERO + Duration::from_secs(75));
    let (calls, events) = (CALLS.get() - calls, net.event_count() - events);
    println!("{n} sessions, 40 s to 75 s: {calls} allocation calls in {events} events");
    assert!(events > 100_000, "{events} events");
    assert!(
        calls * 10_000 < events,
        "{calls} allocation calls in {events} events"
    );
}

/// No two sessions alike: whatever is stored once per distinct rate or
/// delay assignment is stored once per session here, and must still cost
/// no more than the per-row copies did.
#[test]
fn distinct_sessions_cost_no_more_than_copies_did() {
    let (_, bytes, _) = live_per_session(10_000, 75, true);
    assert!(
        bytes <= PARENT_DISTINCT_BYTES_PER_SESSION,
        "{bytes} B/session live at 75 s"
    );
}

/// What `distinct_sessions_cost_no_more_than_copies_did` read when every
/// LiT row, route hop and statistics row held its own copy of the
/// session's rate and delay assignment (80-byte LiT rows, 64-byte route
/// hops, 368-byte statistics rows): 11 950 333 B over 10 000 sessions.
const PARENT_DISTINCT_BYTES_PER_SESSION: f64 = 1_195.033_3;

/// The benchmark's own size and horizon (~10 s with `-O`).
#[test]
#[ignore = "the full sessions_100k build; run with --release -- --ignored"]
fn sessions_100k_fits_its_budget() {
    hold_to_budget(100_000, 600);
}

/// The paper-sized runs size their histograms at `StatsConfig::default()`
/// (4 000 + 4 000 + 256·hops words a session). Live heap at the end of
/// `gen_tandem_ladder.scn`'s own 10 s run, 36 sessions of which four
/// cross all 8 hops: 2 530 565 B in 421 blocks with dense bin arrays,
/// 82 125 B in 303 blocks with bins grown on first hit.
#[test]
fn a_paper_sized_run_pays_for_the_bins_it_hit() {
    let path = format!(
        "{}/scenarios/gen_tandem_ladder.scn",
        env!("CARGO_MANIFEST_DIR")
    );
    let sc = Scenario::load(&path).expect("committed scenario loads");
    let before = LIVE.get();
    let (net, ids) = sc.run_probed(&RunOptions::default(), None);
    let (bytes, blocks) = live(before);
    println!(
        "{} sessions at StatsConfig::default(): {bytes} B live in {blocks} blocks",
        ids.len()
    );
    assert_eq!(ids.len(), 36);
    assert!(net.session_stats(ids[0]).delivered > 0);
    assert!(
        bytes <= PARENT_LIVE_BYTES / 2,
        "{bytes} B live at the horizon"
    );
}

/// What `a_paper_sized_run_pays_for_the_bins_it_hit` read at the parent
/// commit (dense bin arrays).
const PARENT_LIVE_BYTES: isize = 2_530_565;

/// Admit/release churn on one `Ac3Fast` at the edge of ineq. (19):
/// `lit-bench`'s `ac3_storm` palette (12 classes, delays divided by 55)
/// on a 1 Gbit/s link, which puts the edge near 10 300 residents. Prefill
/// 10 000, let 55 % admits climb to the edge, then over 10 000 more
/// operations a decision may allocate only its rejection witness (one
/// `Vec` each): the cut, its flow and the class totals work in buffers
/// the server keeps.
#[test]
fn an_ac3_decision_allocates_only_its_witness() {
    let class = |k: u64| {
        let k = k % 12;
        let d = (Duration::from_ms(200) + Duration::from_ms(50) * k) / 55;
        (2_000 + 500 * k, 400 + 100 * k as u32, d)
    };
    let mut ac = Ac3Fast::new(1_000_000_000);
    let mut handles = Vec::with_capacity(20_000);
    for k in 0..10_000 {
        let (r, l, d) = class(k);
        handles.push(ac.try_admit(r, l, d).expect("the prefill is feasible").0);
    }
    let mut rng = SimRng::seed_from(40);
    let mut churn = |ops: u64| {
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for _ in 0..ops {
            let x = rng.next_u64();
            if x % 100 < 55 {
                let (r, l, d) = class(x >> 8);
                match ac.try_admit(r, l, d) {
                    Ok((h, _)) => {
                        handles.push(h);
                        admitted += 1;
                    }
                    Err(Ac3FastError::Infeasible(_)) => rejected += 1,
                    Err(e) => panic!("undecided: {e}"),
                }
            } else {
                let h = handles.swap_remove((x >> 8) as usize % handles.len());
                assert!(ac.release(h));
            }
        }
        (admitted, rejected)
    };
    churn(10_000);
    let calls = CALLS.get();
    let (admitted, rejected) = churn(10_000);
    let calls = CALLS.get() - calls;
    println!("AC3 churn: {calls} allocation calls, {admitted} admits, {rejected} rejections");
    assert!(admitted > 1_000 && rejected > 1_000, "not at the edge");
    assert!(
        calls <= rejected,
        "{calls} allocation calls for {rejected} rejections"
    );
}
