//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's formulas rely on.

use proptest::prelude::*;
use sim_cache::{
    block_required, DemandMonitor, DemandParams, LruOrder, SetDemandProfiler, ShadowSet, TagStack,
    WriteBuffer,
};
use sim_mem::{BlockAddr, Geometry, Trace};
use snug_core::{GroupCase, GtVector, OverheadParams};

proptest! {
    /// Mattson's stack property (paper §2.1): hit_count(S, I, A) is
    /// monotonically non-decreasing in A for any reference string.
    #[test]
    fn stack_property_holds_for_any_reference_string(
        refs in proptest::collection::vec(0u64..64, 1..600)
    ) {
        let mut profiler = SetDemandProfiler::new(1, 32);
        for &r in &refs {
            profiler.access(0, BlockAddr(r));
        }
        let h = profiler.histogram(0);
        let mut prev = 0;
        for a in 1..=32 {
            let c = h.hit_count(a);
            prop_assert!(c >= prev, "hit_count not monotone at A={a}");
            prev = c;
        }
        // Conservation: hits at threshold + cold = total references.
        prop_assert_eq!(h.hit_count(32) + h.cold(), refs.len() as u64);
    }

    /// block_required is minimal: one fewer way must lose hits (or the
    /// demand is 1).
    #[test]
    fn block_required_is_minimal(
        refs in proptest::collection::vec(0u64..48, 50..600)
    ) {
        let params = DemandParams::paper();
        let mut profiler = SetDemandProfiler::new(1, 32);
        for &r in &refs {
            profiler.access(0, BlockAddr(r));
        }
        let h = profiler.histogram(0);
        let br = block_required(h, &params);
        prop_assert!((1..=32).contains(&br));
        prop_assert_eq!(h.hit_count(br), h.hit_count(32), "br satisfies Formula (3)");
        if br > 1 {
            prop_assert!(h.hit_count(br - 1) < h.hit_count(32), "br-1 must not satisfy it");
        }
    }

    /// Every demand value lands in exactly one bucket (Formula 4's
    /// membership function is a partition).
    #[test]
    fn buckets_partition_the_demand_range(br in 1usize..=32) {
        let params = DemandParams::paper();
        let j = params.bucket_of(br);
        let (lo, hi) = params.bucket_range(j);
        prop_assert!((lo..=hi).contains(&br));
        let others = (1..=8).filter(|&k| k != j).filter(|&k| {
            let (l, h) = params.bucket_range(k);
            (l..=h).contains(&br)
        }).count();
        prop_assert_eq!(others, 0);
    }

    /// An LRU order always remains a permutation of the ways under any
    /// touch/demote sequence.
    #[test]
    fn lru_order_stays_a_permutation(
        ops in proptest::collection::vec((0usize..8, proptest::bool::ANY), 1..200)
    ) {
        let mut lru = LruOrder::new(8);
        for (way, demote) in ops {
            if demote {
                lru.demote(way);
            } else {
                lru.touch(way);
            }
            let mut seen: Vec<usize> = lru.iter_mru_to_lru().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..8).collect::<Vec<_>>());
        }
    }

    /// A touched way is always MRU, and touch reports its old position.
    #[test]
    fn touch_promotes_to_mru(ways in proptest::collection::vec(0usize..6, 1..100)) {
        let mut lru = LruOrder::new(6);
        for w in ways {
            let pos = lru.touch(w);
            prop_assert!((1..=6).contains(&pos));
            prop_assert_eq!(lru.position(w), 1);
        }
    }

    /// TagStack reports distances consistent with an exact LRU stack:
    /// re-referencing after k distinct intervening tags yields k+1.
    #[test]
    fn tag_stack_distance_counts_distinct_intervening(
        target in 1000u64..2000,
        between in proptest::collection::vec(0u64..24, 0..16)
    ) {
        let mut stack = TagStack::new(32);
        stack.access(target);
        let mut distinct = std::collections::BTreeSet::new();
        for &t in &between {
            stack.access(t);
            distinct.insert(t);
        }
        let d = stack.access(target);
        prop_assert_eq!(d, Some(distinct.len() + 1));
    }

    /// The demand monitor's taker verdict matches the paper's σ > 1/p
    /// criterion when fed `shadow` shadow-hits uniformly interleaved
    /// among `real` real-hits (strictly: verdict is never taker when
    /// σ < 1/p − margin, always taker when σ > 1/p + margin).
    #[test]
    fn monitor_tracks_sigma_threshold(shadow in 0u32..60, real in 0u32..400) {
        let mut m = DemandMonitor::new(8, 8); // wide counter: no saturation noise
        let total = shadow + real;
        prop_assume!(total > 50);
        // Interleave deterministically.
        let mut s_done = 0;
        let mut r_done = 0;
        for i in 0..total {
            // Largest remainder scheduling of shadow events.
            if (i as u64 * shadow as u64) / total as u64 > s_done {
                m.shadow_hit();
                s_done = (i as u64 * shadow as u64) / total as u64;
            } else if r_done < real {
                m.real_hit();
                r_done += 1;
            } else {
                m.shadow_hit();
            }
        }
        let sigma = shadow as f64 / total as f64;
        if sigma > 0.125 + 0.05 {
            prop_assert!(m.is_taker(), "σ={sigma:.3} must be taker");
        }
        if sigma < 0.125 - 0.05 {
            prop_assert!(!m.is_taker(), "σ={sigma:.3} must be giver");
        }
    }

    /// Shadow sets remain strictly exclusive: after any operation
    /// sequence, a lookup-hit tag is gone.
    #[test]
    fn shadow_lookup_consumes_entry(
        ops in proptest::collection::vec((0u64..32, proptest::bool::ANY), 1..200)
    ) {
        let mut s = ShadowSet::new(8);
        for (tag, insert) in ops {
            if insert {
                s.insert(BlockAddr(tag));
            } else if s.lookup_invalidate(BlockAddr(tag)) {
                prop_assert!(!s.contains(BlockAddr(tag)));
            }
            prop_assert!(s.len() <= 8);
        }
    }

    /// Write buffer: FIFO drain order equals insertion order of distinct
    /// blocks; occupancy never exceeds capacity.
    #[test]
    fn write_buffer_fifo_and_bounded(
        blocks in proptest::collection::vec(0u64..12, 1..60)
    ) {
        let mut wb = WriteBuffer::new(8);
        let mut expected = Vec::new();
        for b in blocks {
            let block = BlockAddr(b);
            if expected.contains(&block) {
                // merge
                wb.push(block);
            } else if expected.len() < 8 {
                wb.push(block);
                expected.push(block);
            }
            prop_assert!(wb.len() <= 8);
        }
        for e in expected {
            prop_assert_eq!(wb.drain_one(), Some(e));
        }
        prop_assert_eq!(wb.drain_one(), None);
    }

    /// Trace serialisation round-trips arbitrary op streams.
    #[test]
    fn trace_round_trip(
        ops in proptest::collection::vec((0u64..1u64<<40, 0u32..64, 0u8..3, proptest::bool::ANY), 0..200)
    ) {
        let mut t = Trace::new();
        for (addr, gap, kind, critical) in ops {
            let access = match kind {
                0 => sim_mem::Access::load(addr),
                1 => sim_mem::Access::store(addr),
                _ => sim_mem::Access::ifetch(addr),
            };
            t.push(sim_mem::CoreOp { gap, access, critical });
        }
        let back = Trace::from_bytes(t.to_bytes()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Geometry decomposition is lossless for any block address.
    #[test]
    fn geometry_compose_locate_roundtrip(block in 0u64..(1u64 << 50)) {
        let g = Geometry::paper_l2();
        let b = BlockAddr(block);
        let set = g.set_index(b);
        let tag = g.arch_tag(b);
        prop_assert_eq!(g.compose(set, tag), b);
        prop_assert!(set < 1024);
    }

    /// The G/T grouping cases are exhaustive and mutually exclusive for
    /// any vector and set.
    #[test]
    fn group_cases_are_consistent(
        bits in proptest::collection::vec(proptest::bool::ANY, 8),
        set in 0usize..8
    ) {
        let mut v = GtVector::all_givers(8);
        v.latch(bits.clone());
        match v.group_case(set, true) {
            GroupCase::SameIndex => prop_assert!(!bits[set]),
            GroupCase::FlippedIndex => {
                prop_assert!(bits[set]);
                prop_assert!(!bits[set ^ 1]);
            }
            GroupCase::NoMatch => {
                prop_assert!(bits[set]);
                prop_assert!(bits[set ^ 1]);
            }
        }
        // Without flipping, case 2 never appears.
        prop_assert!(v.group_case(set, false) != GroupCase::FlippedIndex);
    }

    /// Storage overhead is monotone in address width and antitone in
    /// block size, and stays within (0, 10%) for sane parameters.
    #[test]
    fn overhead_monotonicity(addr in 30u32..64, block_exp in 6u32..8) {
        let p = OverheadParams {
            address_bits: addr,
            block_bytes: 1 << block_exp,
            ..OverheadParams::paper()
        };
        let o = p.storage_overhead();
        prop_assert!(o > 0.0 && o < 0.10);
        let wider = OverheadParams { address_bits: addr + 1, ..p };
        prop_assert!(wider.storage_overhead() >= o);
    }
}
