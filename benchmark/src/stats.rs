//! The two summarising rules every timing metric goes through.

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty). Used over windows, so one disturbed window cannot move a metric.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and tail of a latency sample.
pub struct Percentiles {
    /// The 50th percentile.
    pub p50: u64,
    /// The tail value.
    pub tail: u64,
    /// Which percentile `tail` is, in percent: 99 when the sample supports
    /// it, otherwise the highest one with at least ten samples beyond it.
    pub tail_pct: f64,
    /// Sample count.
    pub count: usize,
}

/// Samples needed before the 99th percentile has ten samples beyond it.
const FULL_TAIL_SAMPLES: usize = 1000;
const BEYOND: usize = 10;

/// Parts a timed run's sample is cut into by [`Percentiles::steady`].
const PARTS: usize = 5;

impl Percentiles {
    /// Summarise `samples`, sorting them in place. With fewer than 1,000
    /// samples the tail drops to the highest percentile that still has ten
    /// samples beyond it; with ten or fewer there is no such percentile
    /// and the tail is the median. An empty sample gives zeros.
    pub fn of(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let count = samples.len();
        if count == 0 {
            return Self { p50: 0, tail: 0, tail_pct: 0.0, count };
        }
        let tail_p = if count >= FULL_TAIL_SAMPLES {
            0.99
        } else if count > BEYOND {
            (count - BEYOND) as f64 / count as f64
        } else {
            0.5
        };
        Self {
            p50: nearest_rank(samples, 0.5),
            tail: nearest_rank(samples, tail_p),
            tail_pct: tail_p * 100.0,
            count,
        }
    }

    /// Summarise a sample given in completion order so that one stall of
    /// the machine cannot move the tail: the sample is cut into five
    /// consecutive parts, each part gives its own tail by the rule of
    /// [`Percentiles::of`], and the median part's tail is reported. The
    /// 50th percentile is that of the whole sample.
    pub fn steady(samples: &mut [u64]) -> Self {
        let count = samples.len();
        let mut tails: Vec<Self> =
            samples.chunks_mut(count.div_ceil(PARTS).max(1)).map(Self::of).collect();
        tails.sort_by_key(|t| t.tail);
        let whole = Self::of(samples);
        match tails.get(tails.len() / 2) {
            Some(mid) if tails.len() == PARTS => {
                Self { tail: mid.tail, tail_pct: mid.tail_pct, ..whole }
            }
            _ => whole,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_median_ignores_one_disturbed_window() {
        let mut rates = vec![100.0; 19];
        rates.push(3.0);
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn full_sample_reports_p99_with_ten_beyond() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let p = Percentiles::of(&mut s);
        assert_eq!((p.p50, p.tail, p.count), (500, 990, 1000));
        assert_eq!(p.tail_pct, 99.0);
        assert_eq!(s.iter().filter(|&&x| x > p.tail).count(), 10);
    }

    #[test]
    fn short_sample_drops_to_the_percentile_with_ten_beyond() {
        let mut s: Vec<u64> = (1..=200).collect();
        let p = Percentiles::of(&mut s);
        assert_eq!(p.tail, 190);
        assert_eq!(p.tail_pct, 95.0);
        assert_eq!(s.iter().filter(|&&x| x > p.tail).count(), 10);
    }

    #[test]
    fn steady_tail_ignores_a_stall_confined_to_one_part() {
        // 5,000 samples of 100..=199 in a repeating pattern; one stall
        // inflates a hundred consecutive samples in the second fifth.
        let mut s: Vec<u64> = (0..5000u64).map(|i| 100 + i % 100).collect();
        let calm = Percentiles::steady(&mut s.clone());
        s[1500..1600].iter_mut().for_each(|x| *x += 100_000);
        let stalled = Percentiles::steady(&mut s.clone());
        assert_eq!((calm.tail, calm.tail_pct, calm.p50), (198, 99.0, 149));
        assert_eq!(stalled.tail, calm.tail, "the stall moved the tail");
        assert!(Percentiles::of(&mut s).tail > 100_000, "the plain p99 does see it");
        assert_eq!(stalled.count, 5000);
    }

    #[test]
    fn steady_tail_of_a_short_sample_uses_what_each_part_supports() {
        // 400 samples: 80 per part, so each part's tail is its p87.5.
        let mut s: Vec<u64> = (1..=400).collect();
        let p = Percentiles::steady(&mut s);
        assert_eq!(p.tail_pct, 87.5);
        assert_eq!(p.tail, 160 + 70, "third part is 161..=240, ten beyond 230");
        let mut few = vec![3, 1, 2];
        assert_eq!(Percentiles::steady(&mut few).tail, 2);
        assert_eq!(Percentiles::steady(&mut []).count, 0);
    }

    #[test]
    fn tiny_and_empty_samples_do_not_invent_a_tail() {
        let mut s = vec![5, 1, 9];
        let p = Percentiles::of(&mut s);
        assert_eq!((p.p50, p.tail, p.tail_pct), (5, 5, 50.0));
        let p = Percentiles::of(&mut []);
        assert_eq!((p.p50, p.tail, p.count), (0, 0, 0));
    }
}
