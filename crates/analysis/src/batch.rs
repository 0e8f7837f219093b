//! Batch-means confidence intervals for steady-state simulation output.
//!
//! A single long run's per-packet delays are heavily autocorrelated, so
//! the naive `s/√n` confidence interval is far too optimistic. The
//! classical remedy — used here for the reproduction's mean-delay
//! estimates — is the **method of batch means**: split the sample stream
//! into `k` contiguous batches, average each batch, and treat the batch
//! averages as (approximately) independent observations. With `k` around
//! 20–40 the batch averages are close enough to i.i.d. normal for a
//! t-interval, and the batch size grows automatically as samples arrive
//! (batch doubling), so one pass works for any run length.

/// Streaming batch-means accumulator with automatic batch doubling.
///
/// Starts with batches of `initial_batch` samples; whenever the number of
/// completed batches reaches `2 ·` [`BatchMeans::TARGET`],
/// adjacent batches are merged pairwise and the batch size doubles —
/// keeping the batch count in `[TARGET, 2·TARGET)` forever
/// while each batch grows long enough to wash out autocorrelation.
///
/// Every completed batch holds exactly `batch_size` samples (a merge
/// always pairs all of them), so the count and the grand mean follow
/// from the batches and the batch in progress; nothing else is stored.
/// The accumulator exists for the half-width: a caller that keeps an
/// exact record of the samples, as `lit-net`'s delay histogram does,
/// takes its point estimate from there.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batch_size: u64,
    /// Completed batch means.
    batches: Vec<f64>,
    /// Running sum/count of the batch in progress.
    cur_sum: f64,
    cur_n: u64,
}

impl BatchMeans {
    /// The number of batches every accumulator aims for.
    pub const TARGET: usize = 32;

    /// An accumulator aiming for [`BatchMeans::TARGET`] batches, starting
    /// from batches of `initial_batch` samples (≥ 1).
    pub fn new(initial_batch: u64) -> Self {
        assert!(initial_batch >= 1, "batch means: empty batches");
        BatchMeans {
            batch_size: initial_batch,
            batches: Vec::new(),
            cur_sum: 0.0,
            cur_n: 0,
        }
    }

    /// A sensible default: batches of 64 samples to start with.
    pub fn default_config() -> Self {
        BatchMeans::new(64)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.cur_sum += x;
        self.cur_n += 1;
        if self.cur_n == self.batch_size {
            self.batches.push(self.cur_sum / self.cur_n as f64);
            self.cur_sum = 0.0;
            self.cur_n = 0;
            if self.batches.len() >= 2 * Self::TARGET {
                // Merge adjacent batches; double the batch size.
                let merged: Vec<f64> = self
                    .batches
                    .chunks(2)
                    .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                    .collect();
                self.batches = merged;
                self.batch_size *= 2;
            }
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.batches.len() as u64 * self.batch_size + self.cur_n
    }

    /// Point estimate: the grand mean over *all* samples, the batches
    /// weighted by their common size.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        let batched = self.batches.iter().sum::<f64>() * self.batch_size as f64;
        (n > 0).then(|| (batched + self.cur_sum) / n as f64)
    }

    /// Number of completed batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Half-width of the ~95 % confidence interval from the batch means,
    /// or `None` with fewer than 2 completed batches.
    ///
    /// Uses the t-distribution's 97.5 % quantile (two-sided 95 %) with
    /// `k − 1` degrees of freedom, from a small table (exact asymptotics
    /// are pointless at this precision).
    pub fn half_width(&self) -> Option<f64> {
        let k = self.batches.len();
        if k < 2 {
            return None;
        }
        let mean = self.batches.iter().sum::<f64>() / k as f64;
        let var = self.batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (k as f64 - 1.0);
        Some(t_975(k - 1) * (var / k as f64).sqrt())
    }

    /// `(mean, half_width)` if at least two batches completed.
    pub fn interval(&self) -> Option<(f64, f64)> {
        Some((self.mean()?, self.half_width()?))
    }
}

/// Two-sided-95 % Student-t quantile for `df` degrees of freedom.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else if df <= 60 {
        2.00
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;
    use lit_sim::SimRng;

    #[test]
    fn covers_iid_mean() {
        // For i.i.d. samples the interval should cover the true mean in
        // the vast majority of replications.
        let mut covered = 0;
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut bm = BatchMeans::new(32);
            for _ in 0..20_000 {
                bm.record(rng.unit_f64()); // mean 0.5
            }
            let (m, h) = bm.interval().unwrap();
            if (m - 0.5).abs() <= h {
                covered += 1;
            }
        }
        assert!(covered >= 34, "covered only {covered}/40");
    }

    #[test]
    fn widens_under_autocorrelation() {
        // An AR(1)-ish stream: the naive s/sqrt(n) interval would be ~3x
        // too small at phi = 0.8; batch means must widen accordingly.
        let mut rng = SimRng::seed_from(5);
        let mut bm = BatchMeans::new(32);
        let mut naive = OnlineStats::new();
        let mut x = 0.0f64;
        for _ in 0..50_000 {
            x = 0.8 * x + (rng.unit_f64() - 0.5);
            bm.record(x);
            naive.record(x);
        }
        let h_batch = bm.half_width().unwrap();
        let h_naive = 1.96 * naive.stddev().unwrap() / (naive.count() as f64).sqrt();
        assert!(
            h_batch > 2.0 * h_naive,
            "batch {h_batch} vs naive {h_naive}"
        );
    }

    #[test]
    fn batch_doubling_caps_batch_count() {
        let mut bm = BatchMeans::new(1);
        for i in 0..10_000 {
            bm.record(i as f64);
        }
        let target = BatchMeans::TARGET;
        assert!(
            bm.num_batches() < 2 * target,
            "batches={}",
            bm.num_batches()
        );
        assert!(bm.num_batches() >= target);
        assert_eq!(bm.count(), 10_000);
    }

    #[test]
    fn too_few_batches_gives_none() {
        let mut bm = BatchMeans::new(1000);
        for _ in 0..10 {
            bm.record(1.0);
        }
        assert_eq!(bm.half_width(), None);
        assert_eq!(bm.mean(), Some(1.0));
    }

    #[test]
    fn t_table_monotone() {
        assert!(t_975(1) > t_975(2));
        assert!(t_975(10) > t_975(30));
        assert!(t_975(30) >= t_975(61));
        assert_eq!(t_975(0), f64::INFINITY);
    }
}
