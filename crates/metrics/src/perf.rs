//! The paper's three performance metrics (Table 5).
//!
//! With per-core IPCs under a scheme and under the baseline (L2P):
//!
//! * **Throughput** — `Σᵢ IPCᵢ(scheme)`;
//! * **Average Weighted Speedup** — `(1/N) Σᵢ IPCᵢ(scheme)/IPCᵢ(base)`
//!   (Tullsen & Brown);
//! * **Fair Speedup** — `N / Σᵢ IPCᵢ(base)/IPCᵢ(scheme)` — the harmonic
//!   mean of relative IPCs (Luo et al.), balancing performance and
//!   fairness.

/// Per-core IPCs for one (workload, scheme) run.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcVector {
    /// IPC of each core.
    pub ipcs: Vec<f64>,
}

impl IpcVector {
    /// Wrap a vector of per-core IPCs.
    pub fn new(ipcs: Vec<f64>) -> Self {
        assert!(!ipcs.is_empty(), "need at least one core");
        assert!(ipcs.iter().all(|&x| x > 0.0), "IPCs must be positive");
        IpcVector { ipcs }
    }

    /// Number of cores.
    pub(crate) fn cores(&self) -> usize {
        self.ipcs.len()
    }

    /// Throughput: the sum of IPCs.
    pub fn throughput(&self) -> f64 {
        self.ipcs.iter().sum()
    }
}

/// Throughput of `scheme` normalised to `baseline` (the quantity plotted
/// in Fig. 9).
pub fn normalized_throughput(scheme: &IpcVector, baseline: &IpcVector) -> f64 {
    assert_eq!(scheme.cores(), baseline.cores());
    scheme.throughput() / baseline.throughput()
}

/// Average Weighted Speedup (Fig. 10).
pub(crate) fn average_weighted_speedup(scheme: &IpcVector, baseline: &IpcVector) -> f64 {
    assert_eq!(scheme.cores(), baseline.cores());
    let n = scheme.cores() as f64;
    scheme
        .ipcs
        .iter()
        .zip(&baseline.ipcs)
        .map(|(s, b)| s / b)
        .sum::<f64>()
        / n
}

/// Fair Speedup (Fig. 11): harmonic mean of relative IPCs.
pub(crate) fn fair_speedup(scheme: &IpcVector, baseline: &IpcVector) -> f64 {
    assert_eq!(scheme.cores(), baseline.cores());
    let n = scheme.cores() as f64;
    n / scheme
        .ipcs
        .iter()
        .zip(&baseline.ipcs)
        .map(|(s, b)| b / s)
        .sum::<f64>()
}

/// All three metrics for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSet {
    /// Normalised throughput.
    pub throughput: f64,
    /// Average weighted speedup.
    pub aws: f64,
    /// Fair speedup.
    pub fair: f64,
}

impl MetricSet {
    /// Compute all three metrics against the baseline.
    pub fn compute(scheme: &IpcVector, baseline: &IpcVector) -> Self {
        MetricSet {
            throughput: normalized_throughput(scheme, baseline),
            aws: average_weighted_speedup(scheme, baseline),
            fair: fair_speedup(scheme, baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &[f64]) -> IpcVector {
        IpcVector::new(x.to_vec())
    }

    #[test]
    fn identical_vectors_give_unity() {
        let a = v(&[1.0, 2.0, 0.5, 1.5]);
        let m = MetricSet::compute(&a, &a);
        assert!((m.throughput - 1.0).abs() < 1e-12);
        assert!((m.aws - 1.0).abs() < 1e-12);
        assert!((m.fair - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_speedup_reflected_in_all_metrics() {
        let base = v(&[1.0, 1.0, 1.0, 1.0]);
        let fast = v(&[1.2, 1.2, 1.2, 1.2]);
        let m = MetricSet::compute(&fast, &base);
        assert!((m.throughput - 1.2).abs() < 1e-12);
        assert!((m.aws - 1.2).abs() < 1e-12);
        assert!((m.fair - 1.2).abs() < 1e-12);
    }

    #[test]
    fn throughput_favours_high_absolute_ipc() {
        // One core doubles from a high base, another halves from a low
        // base: throughput rises, fairness falls.
        let base = v(&[2.0, 0.2]);
        let skew = v(&[4.0, 0.1]);
        assert!(normalized_throughput(&skew, &base) > 1.5);
        assert!(
            fair_speedup(&skew, &base) < 1.0,
            "harmonic mean punishes the slowdown"
        );
    }

    #[test]
    fn aws_is_arithmetic_mean_of_ratios() {
        let base = v(&[1.0, 2.0]);
        let s = v(&[2.0, 2.0]);
        // ratios: 2.0 and 1.0 → mean 1.5.
        assert!((average_weighted_speedup(&s, &base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fair_speedup_is_harmonic_mean_of_ratios() {
        let base = v(&[1.0, 1.0]);
        let s = v(&[2.0, 0.5]);
        // harmonic mean of 2 and 0.5 = 2/(0.5+2) = 0.8.
        assert!((fair_speedup(&s, &base) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fair_never_exceeds_aws() {
        // Harmonic mean ≤ arithmetic mean.
        let base = v(&[1.0, 1.3, 0.7, 2.0]);
        let s = v(&[1.4, 1.1, 0.9, 2.2]);
        assert!(fair_speedup(&s, &base) <= average_weighted_speedup(&s, &base) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ipc_rejected() {
        v(&[1.0, 0.0]);
    }
}
