//! Property tests: the grow-on-first-hit histograms against a dense model.
//!
//! [`DurationHistogram`] and `lit_net::OccupancyHistogram` store only the
//! prefix of bins the data reached, bin 0 inline; the model below is the layout they
//! replaced — every bin allocated up front, the textbook loops over all
//! of them. After every step of a random program of `record` / `merge` /
//! clone, everything either type lets a caller see must equal what the
//! model computes, bit for bit (the f64 helpers divide the same integers).

#![forbid(unsafe_code)]

use lit_analysis::DurationHistogram;
use lit_net::OccupancyHistogram;
use lit_prop::{check, Gen};
use lit_sim::Duration;

/// Everything observable, in one comparable value. Fields a type does not
/// expose are `None` on both sides.
#[derive(Debug, PartialEq)]
struct Seen {
    count: u64,
    max: Option<u64>,
    pdf: Vec<(u64, f64)>,
    ccdf: Vec<(u64, f64)>,
    ccdf_at: Vec<f64>,
    /// `DurationHistogram` only from here on.
    bins: Option<Vec<u64>>,
    overflow: Option<u64>,
    min: Option<u64>,
    mean: Option<u64>,
    nonempty: Option<Vec<(u64, u64)>>,
    quantiles: Option<Vec<Option<u64>>>,
}

/// Where to look: `ccdf_at` thresholds and `quantile` levels.
struct Probes {
    at: Vec<u64>,
    q: Vec<f64>,
}

/// The histogram under test, over plain `u64` samples.
trait Subject: Clone {
    const DURATION: bool;
    fn new(width: u64, nbins: usize) -> Self;
    fn record(&mut self, x: u64);
    fn merge(&mut self, other: &Self);
    fn seen(&self, probes: &Probes) -> Seen;
}

impl Subject for DurationHistogram {
    const DURATION: bool = true;

    fn new(width: u64, nbins: usize) -> Self {
        DurationHistogram::new(Duration::from_ps(width), nbins)
    }

    fn record(&mut self, x: u64) {
        DurationHistogram::record(self, Duration::from_ps(x));
    }

    fn merge(&mut self, other: &Self) {
        DurationHistogram::merge(self, other);
    }

    fn seen(&self, probes: &Probes) -> Seen {
        let ps = |d: Duration| d.as_ps();
        let rows = |v: Vec<(Duration, f64)>| v.into_iter().map(|(d, p)| (ps(d), p)).collect();
        let bins = self.bin_counts();
        assert_eq!(bins.len(), bins.count(), "ExactSizeIterator lied");
        Seen {
            count: self.count(),
            max: self.max().map(ps),
            pdf: rows(self.pdf()),
            ccdf: rows(self.ccdf()),
            ccdf_at: probes
                .at
                .iter()
                .map(|&t| self.ccdf_at(Duration::from_ps(t)))
                .collect(),
            bins: Some(self.bin_counts().copied().collect()),
            overflow: Some(self.overflow_count()),
            min: self.min().map(ps),
            mean: self.mean().map(ps),
            nonempty: Some(self.nonempty_bins().map(|(d, c)| (ps(d), c)).collect()),
            quantiles: Some(probes.q.iter().map(|&q| self.quantile(q).map(ps)).collect()),
        }
    }
}

impl Subject for OccupancyHistogram {
    const DURATION: bool = false;

    fn new(width: u64, nbins: usize) -> Self {
        OccupancyHistogram::new(width, nbins)
    }

    fn record(&mut self, x: u64) {
        OccupancyHistogram::record(self, x);
    }

    fn merge(&mut self, other: &Self) {
        OccupancyHistogram::merge(self, other);
    }

    fn seen(&self, probes: &Probes) -> Seen {
        Seen {
            count: self.count(),
            max: Some(self.max_bits()),
            pdf: self.pdf(),
            ccdf: self.ccdf(),
            ccdf_at: probes.at.iter().map(|&b| self.ccdf_at(b)).collect(),
            bins: None,
            overflow: None,
            min: None,
            mean: None,
            nonempty: None,
            quantiles: None,
        }
    }
}

/// The dense reference: all `nbins` counters from the start, every
/// question answered by a loop over all of them, merges saturating.
#[derive(Clone)]
struct Dense {
    width: u64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Dense {
    fn new(width: u64, nbins: usize) -> Self {
        Dense {
            width,
            bins: vec![0u64; nbins],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, x: u64) {
        self.count += 1;
        self.sum += u128::from(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        match self.bins.get_mut((x / self.width) as usize) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn seen(&self, probes: &Probes, duration: bool) -> Seen {
        let n = self.count as f64;
        let some = self.count > 0;
        let nonempty: Vec<(u64, u64)> = self
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64 * self.width, c))
            .collect();
        let mut ccdf = Vec::new();
        let mut remaining = self.count;
        for (i, &c) in self.bins.iter().enumerate() {
            if !some {
                break;
            }
            remaining = remaining.saturating_sub(c);
            if c > 0 || i == 0 {
                ccdf.push(((i as u64 + 1) * self.width, remaining as f64 / n));
            }
            if remaining == 0 {
                break;
            }
        }
        if self.overflow > 0 {
            ccdf.push((self.max, 0.0));
        }
        let ccdf_at = |t: u64| {
            if !some {
                return 0.0;
            }
            let idx = (t / self.width) as usize;
            let below = self
                .bins
                .iter()
                .take(idx)
                .fold(0u64, |s, &c| s.saturating_add(c));
            self.count.saturating_sub(below) as f64 / n
        };
        let quantile = |q: f64| {
            let target = (q * n).ceil() as u64;
            let mut cum = 0u64;
            for (i, &c) in self.bins.iter().enumerate() {
                cum = cum.saturating_add(c);
                if cum >= target {
                    return (i as u64 + 1) * self.width;
                }
            }
            self.max
        };
        let when = |on: bool, x: u64| (on && some).then_some(x);
        Seen {
            count: self.count,
            // `max_bits` is a plain 0 on an empty occupancy histogram.
            max: if duration {
                when(true, self.max)
            } else {
                Some(self.max)
            },
            pdf: nonempty
                .iter()
                .map(|&(edge, c)| (edge, c as f64 / self.count.max(1) as f64))
                .collect(),
            ccdf,
            ccdf_at: probes.at.iter().map(|&t| ccdf_at(t)).collect(),
            bins: duration.then(|| self.bins.clone()),
            overflow: duration.then_some(self.overflow),
            min: when(duration, self.min),
            mean: when(duration, (self.sum / u128::from(self.count.max(1))) as u64),
            nonempty: duration.then_some(nonempty),
            quantiles: duration.then(|| {
                probes
                    .q
                    .iter()
                    .map(|&q| some.then(|| quantile(q)))
                    .collect()
            }),
        }
    }
}

/// A sample aimed at where the layouts could disagree: bin edges and the
/// words either side of them, the last bin, the first overflow, far
/// overflow, or anywhere. `only_overflow` keeps every sample past the bins.
fn gen_sample(g: &mut Gen, width: u64, nbins: u64, only_overflow: bool) -> u64 {
    let top = nbins * width;
    if only_overflow {
        return top + g.below(3 * width + 1) * g.below(3);
    }
    match g.weighted(&[3, 2, 2, 2, 1, 4]) {
        0 => g.below(nbins + 2) * width,
        1 => (g.below(nbins + 2) * width).saturating_sub(1),
        2 => top - 1 - g.below(width),
        3 => top,
        4 => top + g.below(1 << 40),
        _ => g.below(top + 3 * width),
    }
}

fn gen_probes(g: &mut Gen, width: u64, nbins: u64) -> Probes {
    let top = nbins * width;
    Probes {
        at: (0..4)
            .map(|_| match g.weighted(&[2, 2, 1]) {
                0 => g.below(nbins + 2) * width,
                1 => g.below(top + 2 * width),
                _ => u64::MAX - g.below(3),
            })
            .collect(),
        q: (0..3)
            .map(|_| match g.weighted(&[1, 1, 4]) {
                0 => 1.0,
                1 => f64::MIN_POSITIVE,
                _ => 1.0 - g.f64(),
            })
            .collect(),
    }
}

/// One random program over a pool of three histograms sharing a layout,
/// each in lockstep with its dense twin.
fn lockstep<S: Subject>(g: &mut Gen) {
    let width = *g.pick(&[1, 1, 7, 424, 250_000_000]);
    let nbins = *g.pick(&[1, 1, 2, 3, 8, 50, 256]);
    let only_overflow = g.weighted(&[5, 1]) == 1;
    let fresh = || {
        (
            S::new(width, nbins as usize),
            Dense::new(width, nbins as usize),
        )
    };
    let mut pool = [fresh(), fresh(), fresh()];
    // Every merge at most doubles the largest count in the pool, and 64
    // doublings reach the saturating edge; `record` on a saturated counter
    // is out of contract, so a pool that has merged this often only
    // merges from then on.
    let mut merges = 0;
    let steps = g.size(0, 120);
    for step in 0..=steps {
        let i = g.size(0, 3);
        let j = (i + g.size(1, 3)) % 3;
        // Step 0 only looks, at the empty histogram.
        let op = if step == 0 {
            usize::MAX
        } else {
            g.weighted(&[12, 3, 1, 1, 2])
        };
        match op {
            0 if merges < 40 => {
                let x = gen_sample(g, width, nbins, only_overflow);
                pool[i].0.record(x);
                pool[i].1.record(x);
            }
            1 => {
                let other = pool[j].clone();
                pool[i].0.merge(&other.0);
                pool[i].1.merge(&other.1);
                merges += 1;
            }
            2 => pool[i] = pool[j].clone(),
            3 => pool[i] = fresh(),
            0 | 4 => {
                // Pool with itself: the way to 2⁶⁴ samples.
                let twin = pool[i].clone();
                pool[i].0.merge(&twin.0);
                pool[i].1.merge(&twin.1);
                merges += 1;
            }
            _ => {}
        }
        let probes = gen_probes(g, width, nbins);
        let (subject, model) = &pool[i];
        assert_eq!(
            subject.seen(&probes),
            model.seen(&probes, S::DURATION),
            "step {step} (op {op}), width {width}, nbins {nbins}, probes at {:?} q {:?}",
            probes.at,
            probes.q
        );
    }
}

#[test]
fn duration_histogram_matches_dense_model() {
    check(
        "duration_histogram_matches_dense_model",
        lockstep::<DurationHistogram>,
    );
}

#[test]
fn occupancy_histogram_matches_dense_model() {
    check(
        "occupancy_histogram_matches_dense_model",
        lockstep::<OccupancyHistogram>,
    );
}

/// The saturating edge, on purpose rather than by luck: 70 self-merges
/// take every touched counter past `u64::MAX`, further merges (a longer
/// prefix into a shorter one and back) keep it there, and the answers
/// stay the dense model's.
fn saturates<S: Subject>(g: &mut Gen) {
    let (width, nbins) = (10, 6);
    let mut a = (S::new(width, nbins), Dense::new(width, nbins));
    let mut b = a.clone();
    for x in [0, 5, 15, 1_000] {
        a.0.record(x);
        a.1.record(x);
    }
    for x in [55, 59, 60] {
        b.0.record(x);
        b.1.record(x);
    }
    for round in 0..70 {
        let twin = a.clone();
        a.0.merge(&twin.0);
        a.1.merge(&twin.1);
        if round % 16 == 3 {
            a.0.merge(&b.0);
            a.1.merge(&b.1);
            b.0.merge(&a.0);
            b.1.merge(&a.1);
        }
        let probes = gen_probes(g, width, nbins as u64);
        assert_eq!(
            a.0.seen(&probes),
            a.1.seen(&probes, S::DURATION),
            "a, round {round}"
        );
        assert_eq!(
            b.0.seen(&probes),
            b.1.seen(&probes, S::DURATION),
            "b, round {round}"
        );
    }
    assert_eq!(a.1.count, u64::MAX);
    assert_eq!(a.1.bins[0], u64::MAX);
}

#[test]
fn merges_saturate_like_the_dense_model() {
    check("merges_saturate_like_the_dense_model", |g| {
        saturates::<DurationHistogram>(g);
        saturates::<OccupancyHistogram>(g);
    });
}

/// A subject and its dense twin, fed and merged together.
type Twin<S> = (S, Dense);

/// `len` samples inside bin 0, the one the store keeps inline.
fn bin_0_run<S: Subject>(g: &mut Gen, h: &mut Twin<S>, width: u64, len: usize) {
    for _ in 0..len {
        let x = g.below(width);
        h.0.record(x);
        h.1.record(x);
    }
}

/// One sample past bin 0: into a later bin, which moves the prefix to
/// the heap, or (always when `nbins` is 1) into overflow, which does not.
fn past_bin_0<S: Subject>(g: &mut Gen, h: &mut Twin<S>, width: u64, nbins: u64) {
    let x = width + g.below((nbins + 1) * width);
    h.0.record(x);
    h.1.record(x);
}

fn merge<S: Subject>(into: &mut Twin<S>, from: &Twin<S>) {
    into.0.merge(&from.0);
    into.1.merge(&from.1);
}

fn agree<S: Subject>(g: &mut Gen, h: &Twin<S>, width: u64, nbins: u64, what: &str) {
    let probes = gen_probes(g, width, nbins);
    assert_eq!(
        h.0.seen(&probes),
        h.1.seen(&probes, S::DURATION),
        "{what}, width {width}, nbins {nbins}, probes at {:?} q {:?}",
        probes.at,
        probes.q
    );
}

/// The shape the engine's histograms have: long runs in bin 0, where the
/// count is inline, and now and then one sample past it. First the four
/// merges by the stores' shapes — inline into inline, heap into inline,
/// inline into heap, heap into heap — and a clone of each shape, then a
/// random program of the same moves; the dense model agrees throughout.
fn bin_0_heavy<S: Subject>(g: &mut Gen) {
    let width = *g.pick(&[1, 7, 424, 250_000_000]);
    let nbins = *g.pick(&[1, 2, 3, 8, 50]);
    let fresh = || -> Twin<S> { (S::new(width, nbins), Dense::new(width, nbins)) };
    let n = nbins as u64;
    let mut pool = [fresh(), fresh(), fresh(), fresh()];
    for (k, h) in pool.iter_mut().enumerate() {
        let len = g.size(1, 300);
        bin_0_run(g, h, width, len);
        if k >= 2 {
            past_bin_0(g, h, width, n);
            let len = g.size(0, 30);
            bin_0_run(g, h, width, len);
        }
        agree(g, h, width, n, &format!("setup {k}"));
    }
    let [inline, to_heap, heap, heap2] = &mut pool;
    merge(inline, &to_heap.clone());
    agree(g, inline, width, n, "inline into inline");
    merge(to_heap, &heap.clone());
    agree(g, to_heap, width, n, "heap into inline");
    merge(heap, &inline.clone());
    agree(g, heap, width, n, "inline into heap");
    merge(heap2, &to_heap.clone());
    agree(g, heap2, width, n, "heap into heap");
    for h in &pool {
        agree(g, &h.clone(), width, n, "clone");
    }
    let mut merges = 4;
    for step in 0..g.size(0, 60) {
        let i = g.size(0, 4);
        let j = g.size(0, 4);
        let op = g.weighted(&[8, 1, 2, 1, 1]);
        match op {
            // Merges at most double the counts: stop recording before
            // they can saturate (see `lockstep`).
            0 if merges < 40 => {
                let len = g.size(1, 200);
                bin_0_run(g, &mut pool[i], width, len);
            }
            1 if merges < 40 => past_bin_0(g, &mut pool[i], width, n),
            2 => {
                let other = pool[j].clone();
                merge(&mut pool[i], &other);
                merges += 1;
            }
            3 => pool[i] = pool[j].clone(),
            4 => pool[i] = fresh(),
            _ => {}
        }
        agree(g, &pool[i], width, n, &format!("step {step} (op {op})"));
    }
}

#[test]
fn bin_0_runs_match_the_dense_model() {
    check("bin_0_runs_match_the_dense_model", |g| {
        bin_0_heavy::<DurationHistogram>(g);
        bin_0_heavy::<OccupancyHistogram>(g);
    });
}
