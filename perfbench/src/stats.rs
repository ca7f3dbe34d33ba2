//! The benchmark's own arithmetic: medians, the tail-percentile rule and
//! operation counting.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile's rank before the
/// benchmark reports it as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile as reported: which percentile, its value, and how
/// many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `90.0`).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. With too few
/// samples for even the median to qualify, the median is reported (its
/// `samples` field shows how thin the support is). `None` for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let percentile = TAIL_LADDER
        .into_iter()
        .find(|&p| n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Some(Tail { percentile, value: v[nearest_rank(percentile, n) - 1], samples: n })
}

/// Operations attempted and failed over one benchmark invocation. An
/// operation is one workload run, or one live admission of a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, were refused, or failed the
    /// output check.
    pub failed: u64,
}

impl Ops {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count one workload run and the live admissions it attempted, of
    /// which `refused` were refused (each a failed operation; the run
    /// itself continues without them).
    pub fn record_run(&mut self, ok: bool, admits: u64, refused: u64) {
        self.record(ok);
        self.attempted += admits;
        self.failed += refused;
    }

    /// Share of attempted operations that failed (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a of `text`: the digest of planner decisions.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: the median's nearest rank is 10, with exactly 10
        // beyond it; p75 (rank 15) has only 5 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some(Tail { percentile: 50.0, value: 10.0, samples: 20 }));

        // 44 samples: p75 has rank 33 and 11 beyond; p90 (rank 40) has 4.
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.percentile, t.value)), Some((75.0, 33.0)));

        // 100 samples: p90 has rank 90 and exactly 10 beyond.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.percentile, t.value)), Some((90.0, 90.0)));

        // 1000 samples: p99 has rank 990 and 10 beyond; p99.9 has 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.percentile, t.value)), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_falls_back_to_median_on_thin_support() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(tail(&v), Some(Tail { percentile: 50.0, value: 3.0, samples: 3 }));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ops_count_failures_over_attempts() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_frac(), 0.0);
        ops.record(true);
        ops.record(false);
        ops.record(true);
        ops.record(true);
        assert_eq!(ops, Ops { attempted: 4, failed: 1 });
        assert_eq!(ops.failed_frac(), 0.25);
    }

    #[test]
    fn a_refused_admission_is_one_failed_operation() {
        // A run of six admissions, the first refused: seven operations,
        // one failed.
        let mut ops = Ops::default();
        ops.record_run(true, 6, 1);
        assert_eq!(ops, Ops { attempted: 7, failed: 1 });
        assert!((ops.failed_frac() - 1.0 / 7.0).abs() < 1e-15);
        // A run that failed its check, with no admissions.
        ops.record_run(false, 0, 0);
        assert_eq!(ops, Ops { attempted: 8, failed: 2 });
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
