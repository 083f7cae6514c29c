//! Saturating counters and the modulo-*p* hit counter used by SNUG's
//! per-set capacity-demand monitor (paper §3.1.2, Figs. 6–7).
//!
//! The scheme: a k-bit saturating counter is initialised to `2^(k-1) - 1`
//! (all bits below the MSB set). Every hit on the *shadow* set increments
//! it; every `p` hits on the real-or-shadow set decrement it. The MSB
//! then answers "would doubling this set's capacity raise its hit rate by
//! at least 1/p?": MSB = 1 ⇒ the set is a **taker**, MSB = 0 ⇒ **giver**.

/// A k-bit saturating counter (1 ≤ k ≤ 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SatCounter {
    value: u16,
    max: u16,
    init: u16,
}

impl SatCounter {
    /// Create a k-bit counter initialised to `2^(k-1) - 1` (paper Fig. 7).
    pub(crate) fn new(k: u32) -> Self {
        assert!((1..=16).contains(&k), "counter width must be 1..=16 bits");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "k is asserted 1..=16, so 2^k - 1 <= u16::MAX"
        )]
        let max = ((1u32 << k) - 1) as u16;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "k is asserted 1..=16, so 2^(k-1) - 1 <= u16::MAX"
        )]
        let init = ((1u32 << (k - 1)) - 1) as u16;
        SatCounter {
            value: init,
            max,
            init,
        }
    }

    /// Saturating increment.
    #[inline]
    pub(crate) fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub(crate) fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Most significant bit of the counter. For SNUG this is the
    /// taker/giver verdict: `true` ⇒ taker.
    #[inline]
    pub(crate) fn msb(&self) -> bool {
        self.value > self.init
    }

    /// Reset to the initial value `2^(k-1) - 1`.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.value = self.init;
    }
}

/// Wider saturating counter for DSR's PSEL policy selector (10 bits in
/// Qureshi's HPCA'09 paper). Semantics identical to the k-bit
/// `SatCounter` but u32-valued for convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Psel {
    value: u32,
    max: u32,
    mid: u32,
}

impl Psel {
    /// Create a k-bit PSEL initialised to its midpoint.
    pub fn new(k: u32) -> Self {
        assert!((1..=31).contains(&k));
        let max = (1u32 << k) - 1;
        let mid = 1u32 << (k - 1);
        Psel {
            value: mid,
            max,
            mid,
        }
    }

    /// Saturating increment.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Whether the counter sits at or above its midpoint.
    #[inline]
    pub fn high(&self) -> bool {
        self.value >= self.mid
    }
}

/// The complete per-set monitor: the k-bit saturating counter plus the
/// modulo-p divider that turns "one decrement per p real-or-shadow hits"
/// into counter operations (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandMonitor {
    counter: SatCounter,
    /// Counts hits modulo p; on reaching p the saturating counter is
    /// decremented. In hardware this is the `log p`-bit counter of
    /// paper Table 2 (3 bits for p = 8).
    mod_count: u16,
    p: u16,
}

impl DemandMonitor {
    /// Create a monitor with counter width `k` bits and threshold `1/p`.
    /// The paper uses k = 4, p = 8.
    pub fn new(k: u32, p: u16) -> Self {
        assert!(p >= 1, "p must be at least 1");
        DemandMonitor {
            counter: SatCounter::new(k),
            mod_count: 0,
            p,
        }
    }

    /// Record a hit on the **real** L2 set: contributes only to the
    /// modulo-p decrement stream.
    #[inline]
    pub fn real_hit(&mut self) {
        self.tick_mod();
    }

    /// Record a hit on the **shadow** set: increments the saturating
    /// counter *and* contributes to the modulo-p stream (shadow hits are
    /// "hits on the real or shadow sets" in the paper's wording).
    #[inline]
    pub fn shadow_hit(&mut self) {
        self.counter.inc();
        self.tick_mod();
    }

    #[inline]
    fn tick_mod(&mut self) {
        self.mod_count += 1;
        if self.mod_count == self.p {
            self.mod_count = 0;
            self.counter.dec();
        }
    }

    /// The taker/giver verdict: `true` ⇒ taker (MSB set).
    #[inline]
    pub fn is_taker(&self) -> bool {
        self.counter.msb()
    }

    /// Reset for the next sampling period (counter to neutral, mod-p
    /// phase cleared).
    pub(crate) fn reset(&mut self) {
        self.counter.reset();
        self.mod_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_counter_inits_to_seven() {
        let c = SatCounter::new(4);
        assert_eq!(c.value, 7);
        assert_eq!(c.max, 15);
        assert!(!c.msb(), "init value has MSB clear");
    }

    #[test]
    fn msb_flips_at_eight() {
        let mut c = SatCounter::new(4);
        c.inc();
        assert_eq!(c.value, 8);
        assert!(c.msb());
        c.dec();
        assert!(!c.msb());
    }

    #[test]
    fn saturates_at_bounds() {
        let mut c = SatCounter::new(2); // max = 3, init = 1
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.value, 3);
        for _ in 0..10 {
            c.dec();
        }
        assert_eq!(c.value, 0);
    }

    #[test]
    fn psel_midpoint_behaviour() {
        let mut p = Psel::new(10);
        assert!(p.high());
        p.dec();
        assert!(!p.high());
        p.inc();
        assert!(p.high());
    }

    #[test]
    fn monitor_marks_taker_when_shadow_hits_dominate() {
        // sigma = shadow / (real + shadow) > 1/8 should eventually set MSB.
        let mut m = DemandMonitor::new(4, 8);
        // 1 shadow hit per 4 total hits: sigma = 1/4 > 1/8 ⇒ taker.
        for _ in 0..64 {
            m.shadow_hit();
            m.real_hit();
            m.real_hit();
            m.real_hit();
        }
        assert!(m.is_taker());
    }

    #[test]
    fn monitor_marks_giver_when_shadow_hits_rare() {
        // 1 shadow hit per 16 total: sigma = 1/16 < 1/8 ⇒ giver.
        let mut m = DemandMonitor::new(4, 8);
        for _ in 0..64 {
            m.shadow_hit();
            for _ in 0..15 {
                m.real_hit();
            }
        }
        assert!(!m.is_taker());
    }

    #[test]
    fn monitor_neutral_at_exact_threshold() {
        // Exactly 1 shadow hit per 8 total hits: +1 per group, -1 per
        // group; the counter should hover at its init value and stay giver
        // (the paper requires sigma STRICTLY greater than 1/p).
        let mut m = DemandMonitor::new(4, 8);
        for _ in 0..100 {
            m.shadow_hit();
            for _ in 0..7 {
                m.real_hit();
            }
        }
        assert!(!m.is_taker());
        assert_eq!(m.counter.value, 7);
    }

    #[test]
    fn monitor_reset_clears_phase() {
        let mut m = DemandMonitor::new(4, 8);
        for _ in 0..5 {
            m.real_hit();
        }
        m.reset();
        // After reset, 7 more real hits must NOT decrement (phase cleared).
        for _ in 0..7 {
            m.real_hit();
        }
        assert_eq!(m.counter.value, 7);
        m.real_hit();
        assert_eq!(m.counter.value, 6);
    }

    #[test]
    fn streaming_set_is_giver() {
        // A streaming set sees no shadow hits at all: every eviction is
        // cold. The counter should drift to 0 and stay a giver.
        let mut m = DemandMonitor::new(4, 8);
        for _ in 0..1000 {
            m.real_hit();
        }
        assert!(!m.is_taker());
        assert_eq!(m.counter.value, 0);
    }
}
