//! Shared machinery for the private-L2 organisations (L2P, CC, DSR,
//! SNUG): per-core slices, write-back buffers, latency composition and
//! victim handling.
//!
//! Latency model (uncontended values recover the paper's §4.1 numbers;
//! bus/DRAM queuing adds on top):
//!
//! * local hit — `l2_local_latency` (10 cycles);
//! * write-buffer direct read — local latency;
//! * peer hit — snoop address transaction → peer lookup → data
//!   transaction, floored at the configured flat remote latency
//!   (30 cycles; 40 for SNUG);
//! * off-chip — snoop address transaction → DRAM (300 cycles).

use sim_cache::{Evicted, LineFlags, PushOutcome, SetAssocCache, WriteBuffer};
use sim_cmp::{ChipResources, SystemConfig};
use sim_mem::BlockAddr;

/// Per-core private slices plus write buffers.
#[derive(Clone)]
pub struct PrivateChassis {
    /// The system configuration.
    pub cfg: SystemConfig,
    /// One L2 slice per core.
    pub slices: Vec<SetAssocCache>,
    /// One write-back buffer per core.
    pub wbs: Vec<WriteBuffer>,
}

/// Where a retrieval found the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerHit {
    /// Which peer cache held it.
    pub peer: usize,
    /// Which set of that cache (may be the flipped index).
    pub set: usize,
}

impl PrivateChassis {
    /// Build empty slices and buffers.
    pub fn new(cfg: SystemConfig) -> Self {
        PrivateChassis {
            slices: (0..cfg.num_cores)
                .map(|_| SetAssocCache::new(cfg.l2_slice))
                .collect(),
            wbs: (0..cfg.num_cores)
                .map(|_| WriteBuffer::new(cfg.write_buffer_entries))
                .collect(),
            cfg,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.slices.len()
    }

    /// Opportunistically drain write buffers while the DRAM channel is
    /// free in the past of `now`. Called at the top of every access.
    pub fn drain_write_buffers(&mut self, now: u64, res: &mut ChipResources<'_>) {
        // Common case: every buffer is empty — skip the DRAM-port query
        // and the round-robin scan entirely.
        if self.wbs.iter().all(|w| w.is_empty()) {
            return;
        }
        // Round-robin so no core's buffer starves.
        let n = self.num_cores();
        let mut progressed = true;
        while progressed && res.dram.next_free() <= now {
            progressed = false;
            for c in 0..n {
                if res.dram.next_free() > now {
                    break;
                }
                if let Some(_block) = self.wbs[c].drain_one() {
                    res.dram.write(now);
                    progressed = true;
                }
            }
        }
    }

    /// Push a dirty victim into core `c`'s write buffer, force-draining
    /// the oldest entry first if full.
    pub fn push_writeback(
        &mut self,
        c: usize,
        block: BlockAddr,
        now: u64,
        res: &mut ChipResources<'_>,
    ) {
        match self.wbs[c].push(block) {
            PushOutcome::Stored | PushOutcome::Merged => {}
            PushOutcome::Full => {
                if self.wbs[c].drain_one().is_some() {
                    res.dram.write(now);
                }
                let second = self.wbs[c].push(block);
                debug_assert!(!matches!(second, PushOutcome::Full));
            }
        }
    }

    /// Local-hit path: probe core `c`'s home set; on hit touch LRU and
    /// update the dirty bit. Returns whether the hit line was a CC line.
    pub fn local_access(&mut self, c: usize, block: BlockAddr, is_write: bool) -> Option<bool> {
        let slice = &mut self.slices[c];
        let set = slice.home_set(block);
        let way = slice.probe_in_set(set, block)?;
        let (_, was_cc) = slice.touch_way_in_set(set, way, is_write);
        let st = slice.stats_mut();
        st.hits += 1;
        if was_cc {
            st.cc_hits += 1;
        }
        Some(was_cc)
    }

    /// Direct read from core `c`'s write buffer: if the block is
    /// buffered, remove it and re-install it (dirty) into the home set.
    /// The displaced victim is returned for scheme-specific handling.
    pub fn write_buffer_read(
        &mut self,
        c: usize,
        block: BlockAddr,
        is_write: bool,
    ) -> Option<Option<Evicted>> {
        if !self.wbs[c].direct_read(block) {
            return None;
        }
        self.wbs[c].remove(block);
        self.slices[c].stats_mut().write_buffer_hits += 1;
        let set = self.slices[c].home_set(block);
        let _ = is_write; // the refill is dirty regardless: the buffered copy was dirty
        let ev = self.slices[c].fill_in_set(set, block, LineFlags::owned(true));
        Some(ev)
    }

    /// Fill `block` into core `c`'s home set as an owned line. Returns
    /// the displaced victim for scheme-specific handling.
    pub fn fill_local(&mut self, c: usize, block: BlockAddr, dirty: bool) -> Option<Evicted> {
        let set = self.slices[c].home_set(block);
        self.slices[c].fill_in_set(set, block, LineFlags::owned(dirty))
    }

    /// Dispose of a victim that will *not* be spilled: dirty owned lines
    /// go to the write buffer, everything else is dropped.
    pub fn retire_victim(&mut self, c: usize, ev: Evicted, now: u64, res: &mut ChipResources<'_>) {
        if ev.flags.dirty && !ev.flags.cc {
            self.push_writeback(c, ev.block, now, res);
        }
    }

    /// Latency of a peer hit: snoop address phase, peer array lookup,
    /// data transfer back — floored at `remote_flat`.
    pub fn peer_hit_latency(&self, now: u64, remote_flat: u64, res: &mut ChipResources<'_>) -> u64 {
        let addr = res.bus.address_transaction(now);
        let lookup_done = addr.done_at + self.cfg.l2_local_latency;
        let data = res
            .bus
            .data_transaction(lookup_done, self.cfg.l2_slice.block_bytes);
        (data.done_at - now).max(remote_flat)
    }

    /// Latency of an off-chip fill. The memory request launches in
    /// parallel with the snoop broadcast (standard speculative fetch);
    /// the fill completes when both the DRAM data and the snoop result
    /// are in.
    pub fn dram_fill_latency(&self, now: u64, res: &mut ChipResources<'_>) -> u64 {
        let addr = res.bus.address_transaction(now);
        let done = res.dram.read(now).max(addr.done_at);
        done - now
    }

    /// Charge the bus for a spill transfer (the core does not wait).
    pub fn charge_spill_transfer(&self, now: u64, res: &mut ChipResources<'_>) {
        let _ = res.bus.data_transaction(now, self.cfg.l2_slice.block_bytes);
    }

    /// Insert a spilled block into `peer`'s `set` as a received line.
    /// Handles the receiving set's victim: a dirty owned victim goes to
    /// the *peer's* write buffer; clean or CC victims are dropped
    /// (one-chance forwarding). Updates spill counters.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the bus transaction's fields"
    )]
    pub fn receive_spill(
        &mut self,
        from: usize,
        peer: usize,
        set: usize,
        block: BlockAddr,
        flipped: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) {
        debug_assert_ne!(from, peer);
        let ev = self.slices[peer].fill_in_set(set, block, LineFlags::received(flipped));
        self.slices[from].stats_mut().spills_out += 1;
        self.slices[peer].stats_mut().spills_in += 1;
        if let Some(ev) = ev {
            self.retire_victim(peer, ev, now, res);
        }
    }

    /// Probe one peer's set for a *cooperatively cached* copy of
    /// `block`. Owned lines never match: with multiprogrammed workloads
    /// a peer's own line is a different program's data, and retrieval
    /// semantics (forward + invalidate) only apply to CC lines.
    pub fn probe_cc_in_set(&self, peer: usize, set: usize, block: BlockAddr) -> bool {
        // A slice with no CC lines at all cannot answer a retrieval
        // snoop; skip the tag probe (the common case whenever spills are
        // rare — homogeneous workloads group poorly, and Stage I refuses
        // spills entirely).
        if self.slices[peer].cc_lines() == 0 {
            return false;
        }
        self.slices[peer]
            .probe_in_set(set, block)
            .map(|way| self.slices[peer].set(set).line(way).flags.cc)
            .unwrap_or(false)
    }

    /// Forward a block found at `hit` to its owner: invalidate the peer
    /// copy and bump counters. The caller fills the owner's slice.
    pub fn forward_from_peer(&mut self, owner: usize, hit: PeerHit, block: BlockAddr) {
        let removed = self.slices[hit.peer].invalidate_in_set(hit.set, block);
        debug_assert!(removed.is_some(), "forwarded block must be resident");
        debug_assert!(
            removed.map(|f| f.cc).unwrap_or(false),
            "forwarded line must be CC"
        );
        self.slices[hit.peer].stats_mut().forwards += 1;
        self.slices[owner].stats_mut().retrieved_from_peer += 1;
    }

    /// Invalidate any cooperatively cached copies of `block` held
    /// anywhere on behalf of `owner` (coherence sweep used on L1
    /// writebacks and on refetch-after-unreachable; the snoop broadcast
    /// sees matching tags even when the G/T vector forbids forwarding).
    pub fn invalidate_cc_copies(&mut self, owner: usize, block: BlockAddr) -> usize {
        self.invalidate_cc_copies_wide(owner, block, 1)
    }

    /// Like [`PrivateChassis::invalidate_cc_copies`], sweeping all
    /// `flip_width`-neighbourhood sets (for wide-flipping SNUG variants).
    pub fn invalidate_cc_copies_wide(
        &mut self,
        owner: usize,
        block: BlockAddr,
        flip_width: u32,
    ) -> usize {
        let mut removed = 0;
        let home = self.cfg.l2_slice.set_index(block);
        for peer in 0..self.num_cores() {
            if peer == owner || self.slices[peer].cc_lines() == 0 {
                continue;
            }
            for mask in 0..(1usize << flip_width) {
                let s = home ^ mask;
                if s >= self.cfg.l2_slice.num_sets as usize {
                    continue;
                }
                if let Some(way) = self.slices[peer].probe_in_set(s, block) {
                    if self.slices[peer].set(s).line(way).flags.cc {
                        self.slices[peer].set_mut(s).invalidate_way(way);
                        removed += 1;
                    }
                }
            }
        }
        removed
    }

    /// Handle an L1 dirty writeback: mark the local copy dirty if
    /// resident; otherwise invalidate any stale CC copies and buffer the
    /// data for DRAM.
    pub fn l1_writeback(
        &mut self,
        c: usize,
        block: BlockAddr,
        now: u64,
        res: &mut ChipResources<'_>,
    ) {
        let set = self.slices[c].home_set(block);
        if self.slices[c].touch_in_set(set, block, true).is_some() {
            return;
        }
        if self.invalidate_cc_copies(c, block) > 0 {
            let _ = res.bus.address_transaction(now);
        }
        self.push_writeback(c, block, now, res);
    }

    /// Reset all statistics (warm-up boundary).
    pub fn reset_stats(&mut self) {
        for s in &mut self.slices {
            s.reset_stats();
        }
        for w in &mut self.wbs {
            w.reset_stats();
        }
    }

    /// Check the chip-wide single-copy invariant for diagnostics/tests:
    /// no block address appears in more than one slice (own or CC copy).
    pub fn single_copy_invariant(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        for slice in &self.slices {
            for set in 0..slice.geometry().num_sets as usize {
                for line in slice.set(set).valid_lines() {
                    if !seen.insert(line.block) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig};
    use sim_mem::{Dram, DramConfig};

    fn setup() -> (PrivateChassis, Bus, Dram) {
        let cfg = SystemConfig::tiny_test();
        (
            PrivateChassis::new(cfg),
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    fn blk(set: u64, tag: u64) -> BlockAddr {
        BlockAddr((tag << 4) | set) // tiny_test L2 has 16 sets
    }

    #[test]
    fn local_access_hits_after_fill() {
        let (mut ch, _, _) = setup();
        let b = blk(3, 9);
        assert!(ch.local_access(0, b, false).is_none());
        ch.fill_local(0, b, false);
        assert_eq!(ch.local_access(0, b, false), Some(false));
        assert_eq!(ch.slices[0].stats().hits, 1);
    }

    #[test]
    fn write_buffer_direct_read_reinstalls_dirty() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = blk(1, 2);
        ch.push_writeback(0, b, 0, &mut res);
        let got = ch.write_buffer_read(0, b, false);
        assert!(got.is_some());
        let (s, w) = ch.slices[0].probe(b).expect("reinstalled");
        assert!(ch.slices[0].set(s).line(w).flags.dirty);
        assert_eq!(ch.wbs[0].len(), 0, "entry consumed");
    }

    #[test]
    fn peer_hit_latency_floored_at_flat_remote() {
        let (ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let lat = ch.peer_hit_latency(1000, 30, &mut res);
        assert!(lat >= 30, "flat floor, got {lat}");
        assert!(lat <= 60, "uncontended should be near the floor, got {lat}");
    }

    #[test]
    fn dram_fill_overlaps_snoop_with_memory() {
        let (ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let lat = ch.dram_fill_latency(0, &mut res);
        assert_eq!(lat, 300, "speculative fetch: snoop hidden under DRAM");
        assert_eq!(
            res.bus.stats().address_transactions,
            1,
            "snoop still issued"
        );
    }

    #[test]
    fn receive_spill_and_forward_round_trip() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = blk(5, 77);
        ch.receive_spill(0, 2, 5, b, false, 0, &mut res);
        assert_eq!(ch.slices[2].cc_lines(), 1);
        assert_eq!(ch.slices[0].stats().spills_out, 1);
        assert_eq!(ch.slices[2].stats().spills_in, 1);
        ch.forward_from_peer(0, PeerHit { peer: 2, set: 5 }, b);
        assert_eq!(ch.slices[2].cc_lines(), 0);
        assert_eq!(ch.slices[2].stats().forwards, 1);
        assert_eq!(ch.slices[0].stats().retrieved_from_peer, 1);
    }

    #[test]
    fn receive_spill_dirty_victim_goes_to_peer_wb() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        // Fill peer 1 set 5 with dirty owned lines.
        for t in 0..4 {
            let ev = ch.slices[1].fill_in_set(5, blk(5, t), LineFlags::owned(true));
            assert!(ev.is_none());
        }
        ch.receive_spill(0, 1, 5, blk(5, 100), false, 0, &mut res);
        assert_eq!(ch.wbs[1].len(), 1, "displaced dirty owned line buffered");
    }

    #[test]
    fn l1_writeback_marks_dirty_when_resident() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = blk(2, 3);
        ch.fill_local(0, b, false);
        ch.l1_writeback(0, b, 0, &mut res);
        let (s, w) = ch.slices[0].probe(b).unwrap();
        assert!(ch.slices[0].set(s).line(w).flags.dirty);
        assert_eq!(ch.wbs[0].len(), 0);
    }

    #[test]
    fn l1_writeback_invalidates_stale_cc_copy() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = blk(2, 3);
        // Peer 3 holds a stale CC copy at the flipped index.
        ch.slices[3].fill_in_set(3, b, LineFlags::received(true));
        ch.l1_writeback(0, b, 0, &mut res);
        assert_eq!(ch.slices[3].cc_lines(), 0, "stale copy invalidated");
        assert_eq!(ch.wbs[0].len(), 1, "data buffered for DRAM");
    }

    #[test]
    fn drain_empties_buffers_when_channel_free() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        ch.push_writeback(0, blk(0, 1), 0, &mut res);
        ch.push_writeback(1, blk(1, 1), 0, &mut res);
        ch.drain_write_buffers(10_000, &mut res);
        assert_eq!(ch.wbs[0].len() + ch.wbs[1].len(), 0);
        assert_eq!(res.dram.stats().writes, 2);
    }

    #[test]
    fn single_copy_invariant_detects_duplicates() {
        let (mut ch, _, _) = setup();
        let b = blk(1, 1);
        ch.fill_local(0, b, false);
        assert!(ch.single_copy_invariant());
        ch.slices[1].fill_in_set(1, b, LineFlags::received(false));
        assert!(!ch.single_copy_invariant());
    }
}
