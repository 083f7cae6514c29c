//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's formulas rely on.

use proptest::prelude::*;
use sim_cache::{
    block_required, DemandMonitor, DemandParams, LruOrder, SetDemandProfiler, ShadowSet, TagStack,
    WriteBuffer,
};
use sim_cmp::{Bus, ChipResources, L2Org, SystemConfig};
use sim_mem::{
    AccessKind, BlockAddr, Dram, FrontDecoder, FrontEncoder, FrontOp, FrontRecord, Geometry,
    L1Outcome, Victim, HIT_DEPTHS,
};
use snug_core::{
    Cc, Dsr, DsrConfig, GroupCase, GtVector, OverheadParams, Private, PrivatePolicy, Snug,
    SnugConfig,
};

/// One random call on a private-slice organisation: `(core, block code,
/// kind, cycles since the previous call)`. Kind 0–1 is a read, 2 a
/// write, 3 an L1 writeback. The block code picks a block of the core's
/// own address space in sets 0–3 of the tiny 4-way L2: eight tags in
/// each even set (a taker that evicts and spills), three in each odd
/// one (a giver that receives flipped spills).
type Call = (usize, u64, u8, u64);

/// Drive `org` through `calls`, checking after every call that no block
/// is on chip twice and that every slice's incremental CC-line tally
/// equals a scan of its metadata.
fn drive_private<P: PrivatePolicy>(
    mut org: Private<P>,
    calls: &[Call],
) -> Result<(), TestCaseError> {
    let cfg = SystemConfig::tiny_test();
    let mut bus = Bus::new(cfg.bus);
    let mut dram = Dram::new(cfg.dram);
    let mut now = 0;
    for (i, &(core, code, kind, dt)) in calls.iter().enumerate() {
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        now += dt;
        let set = code % 4;
        let tag = if set % 2 == 0 { code / 4 } else { code / 4 % 3 };
        let block = BlockAddr(((core as u64 * 64 + tag) << 4) | set);
        if kind == 3 {
            org.writeback(core, block, now, &mut res);
        } else {
            org.access(core, block, kind == 2, now, &mut res);
        }
        let ch = org.chassis();
        prop_assert!(ch.single_copy_invariant(), "{}: call {i}", org.name());
        for (c, slice) in ch.slices.iter().enumerate() {
            prop_assert_eq!(
                slice.cc_lines(),
                slice.cc_lines_scan(),
                "slice {c}, call {i}"
            );
        }
    }
    Ok(())
}

proptest! {
    /// Every sharing organisation keeps one copy per block and an exact
    /// CC-line tally through any mix of accesses and L1 writebacks.
    #[test]
    fn private_slices_keep_single_copy_and_cc_tally(
        calls in proptest::collection::vec((0usize..4, 0u64..32, 0u8..4, 1u64..400), 1..400)
    ) {
        let cfg = SystemConfig::tiny_test();
        drive_private(Cc::new(cfg, 0.25), &calls)?;
        drive_private(Cc::new(cfg, 1.0), &calls)?;
        drive_private(Dsr::new(cfg, DsrConfig::tiny()), &calls)?;
        drive_private(Snug::new(cfg, SnugConfig::scaled(25_000)), &calls)?;
    }

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
    /// rule when fed `shadow` shadow-hits uniformly interleaved
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

    /// The front-end record codec round-trips arbitrary op sequences —
    /// any `u32` gap, all three access kinds, every L1 outcome, runs of
    /// hits on both L1 sides — keeping each miss whole and each hit's
    /// side, gap and walk depth; every run splits at every position into
    /// parts that sum to it; every record cut short is an error; and
    /// truncated or garbage bytes return an error instead of panicking.
    #[test]
    fn trace_round_trip(
        ops in proptest::collection::vec(
            ((0..=u64::MAX, 0..=u32::MAX), (0u8..3, proptest::bool::ANY), (0u8..6, 0u64..1 << 40)),
            0..200,
        ),
        garbage in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let ops: Vec<FrontOp> = ops
            .into_iter()
            .map(|((block, gap), (kind, critical), (outcome, other))| FrontOp {
                // Small gaps, as real streams mostly have, half the time.
                gap: if other & 1 == 0 { gap % 32 } else { gap },
                kind: [AccessKind::Load, AccessKind::Store, AccessKind::IFetch][usize::from(kind)],
                critical,
                block: BlockAddr(block),
                l1: match outcome {
                    0..=2 => L1Outcome::Hit { distance: (other % 17) as usize },
                    3 => L1Outcome::Miss { victim: None },
                    o => L1Outcome::Miss {
                        victim: Some(Victim { block: BlockAddr(other), dirty: o == 5 }),
                    },
                },
            })
            .collect();
        let mut bytes = Vec::new();
        let mut enc = FrontEncoder::new();
        for op in &ops {
            enc.encode(op, &mut bytes);
        }
        enc.flush(&mut bytes);
        let mut dec = FrontDecoder::new();
        let mut rest = &bytes[..];
        let mut expected = ops.iter();
        while !rest.is_empty() {
            let (record, n) = dec.decode(rest).unwrap();
            // The record cut short is an error, never a shorter record.
            for cut in 0..n {
                prop_assert!(dec.clone().decode(&rest[..cut]).is_err());
            }
            match record {
                FrontRecord::Miss(back) => prop_assert_eq!(Some(&back), expected.next()),
                FrontRecord::Hits(run) => {
                    // Each hit's instructions (gap plus one) and depth.
                    let mut hits = Vec::new();
                    prop_assert_eq!(run.scan(|n, bucket| { hits.push((n, bucket + 1)); true }), run.len());
                    prop_assert_eq!(hits.len(), run.len());
                    for &(n, depth) in &hits {
                        let op = expected.next().unwrap();
                        let L1Outcome::Hit { distance } = op.l1 else {
                            return Err(TestCaseError::Fail("a miss read as a hit".into()));
                        };
                        prop_assert_eq!(run.ifetch(), op.kind == AccessKind::IFetch);
                        prop_assert_eq!(n, op.instructions());
                        prop_assert_eq!(depth, distance.clamp(1, HIT_DEPTHS));
                    }
                    // Split at every position: the scan stops there,
                    // having seen the hits up to it in order.
                    for cut in 0..=run.len() {
                        let mut seen = Vec::new();
                        let kept = run.scan(|n, bucket| {
                            seen.push((n, bucket + 1));
                            seen.len() <= cut
                        });
                        prop_assert_eq!(kept, cut);
                        prop_assert_eq!(seen, &hits[..(cut + 1).min(hits.len())]);
                    }
                }
            }
            rest = &rest[n..];
        }
        prop_assert!(expected.next().is_none());
        // Garbage decodes or errors; it never panics or over-reads.
        let mut dec = FrontDecoder::new();
        let mut rest = &garbage[..];
        while let Ok((record, n)) = dec.decode(rest) {
            prop_assert!(n >= 2 && n <= rest.len());
            if let FrontRecord::Hits(run) = record {
                prop_assert!(!run.is_empty());
                prop_assert_eq!(run.scan(|_, _| true), run.len());
            }
            rest = &rest[n..];
        }
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
