//! Rolling-window throughput convergence estimation.
//!
//! The run-plan layer stops a simulation once its measured throughput
//! is *stable* instead of at a guessed cycle count. Stability is judged
//! over a rolling window of interval throughputs: the estimator keeps
//! the most recent `capacity` samples and reports the window's relative
//! spread, `(max − min) / mean`. A full window whose spread is at or
//! below a policy's `rel_epsilon` means every recent interval agrees on
//! the throughput to within that tolerance — the signal
//! `sim_cmp::Converged` stop policies act on.

use std::collections::VecDeque;

/// A fixed-capacity rolling window of interval throughput samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingThroughput {
    capacity: usize,
    samples: VecDeque<f64>,
}

impl RollingThroughput {
    /// A window holding the `capacity` most recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` — spread over fewer than two samples is
    /// meaningless.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "rolling window needs at least two samples");
        RollingThroughput {
            capacity,
            samples: VecDeque::with_capacity(capacity),
        }
    }

    /// Push one interval throughput, evicting the oldest sample once
    /// the window is full.
    pub fn push(&mut self, throughput: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(throughput);
    }

    /// Drop every sample, keeping the capacity — a re-convergence
    /// policy clears the window at a workload phase boundary so
    /// pre-shift plateau samples never vouch for the post-shift regime.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the window holds its full `capacity` of samples.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// The configured window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean of the samples currently held (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Relative spread of the window: `(max − min) / mean`. Infinite
    /// until the window is full or while the mean is not positive, so a
    /// partial or degenerate window can never read as converged.
    pub fn rel_spread(&self) -> f64 {
        if !self.is_full() {
            return f64::INFINITY;
        }
        let mean = self.mean();
        if mean <= 0.0 {
            return f64::INFINITY;
        }
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (max - min) / mean
    }

    /// Whether a full window agrees to within `rel_epsilon`.
    pub fn converged(&self, rel_epsilon: f64) -> bool {
        self.rel_spread() <= rel_epsilon
    }
}

/// One workload phase's plateau as a re-convergence stop policy saw it:
/// the segment between two phase boundaries (or the window edges), and
/// whether/where the rolling window stabilised inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlateau {
    /// Zero-based phase index (0 = before the first shift).
    pub phase: usize,
    /// Measured cycle the phase begins at (0 for the first).
    pub start_cycle: u64,
    /// Measured cycle the rolling window first reported convergence
    /// inside this phase, or `None` if the phase ended (shift or
    /// ceiling) while still ramping.
    pub converged_at: Option<u64>,
    /// Mean throughput of the rolling window at the end of the phase —
    /// the plateau level when `converged_at` is set, a mid-ramp reading
    /// otherwise (0 when the phase produced no full sample).
    pub mean_throughput: f64,
}

impl PhasePlateau {
    /// Whether the phase reached a stable plateau before it ended.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_window_never_converges() {
        let mut w = RollingThroughput::new(4);
        for _ in 0..3 {
            w.push(1.0);
            assert!(!w.converged(f64::INFINITY.min(1e9)), "window not full");
            assert_eq!(w.rel_spread(), f64::INFINITY);
        }
        w.push(1.0);
        assert!(w.is_full());
        assert!(w.converged(0.0), "constant window has zero spread");
    }

    #[test]
    fn spread_is_relative_to_the_mean() {
        let mut w = RollingThroughput::new(2);
        w.push(99.0);
        w.push(101.0);
        // (101 − 99) / 100 = 2 %.
        assert!((w.rel_spread() - 0.02).abs() < 1e-12);
        assert!(w.converged(0.02));
        assert!(!w.converged(0.019));
    }

    #[test]
    fn window_rolls_forward() {
        let mut w = RollingThroughput::new(3);
        for tp in [10.0, 1.0, 1.0, 1.0] {
            w.push(tp);
        }
        // The 10.0 outlier has rolled out of the window.
        assert_eq!(w.len(), 3);
        assert!(w.converged(0.0));
        assert!((w.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_mean_window_never_converges() {
        let mut w = RollingThroughput::new(2);
        w.push(0.0);
        w.push(0.0);
        assert_eq!(w.rel_spread(), f64::INFINITY);
        assert!(!w.converged(1e9));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn capacity_below_two_is_rejected() {
        RollingThroughput::new(1);
    }

    #[test]
    fn clear_resets_the_window_but_keeps_capacity() {
        let mut w = RollingThroughput::new(3);
        for _ in 0..3 {
            w.push(2.0);
        }
        assert!(w.converged(0.0));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.rel_spread(), f64::INFINITY, "cleared window is partial");
        // Refilling converges again only once full.
        w.push(1.0);
        w.push(1.0);
        assert!(!w.converged(1e9));
        w.push(1.0);
        assert!(w.converged(0.0));
    }
}
