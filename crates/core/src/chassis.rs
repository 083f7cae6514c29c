//! Shared machinery for the private-L2 organisations (L2P, CC, DSR,
//! SNUG): per-core slices, write-back buffers, latency composition,
//! victim handling, and the one access path they all run.
//!
//! The four organisations differ only around an L2 miss, so
//! [`Private<P>`] runs the access sequence once and a
//! [`PrivatePolicy`] supplies each scheme's hooks:
//!
//! 1. drain the write buffers (after [`PrivatePolicy::advance`]);
//! 2. look up the home set — a hit returns here
//!    ([`PrivatePolicy::on_hit`]);
//! 3. count the miss ([`PrivatePolicy::on_miss`]);
//! 4. read from the write buffer;
//! 5. retrieve from a peer ([`PrivatePolicy::probe_peers`],
//!    [`PrivatePolicy::remote_latency`]);
//! 6. fill from DRAM ([`PrivatePolicy::before_dram_fill`],
//!    [`PrivatePolicy::DRAM_SNOOP`]);
//! 7. dispose of the victim ([`PrivatePolicy::on_owned_eviction`],
//!    [`PrivatePolicy::spill_target`]).
//!
//! Latency model (uncontended values recover the paper's §4.1 numbers;
//! bus/DRAM queuing adds on top):
//!
//! * local hit — `l2_local_latency` (10 cycles);
//! * write-buffer direct read — local latency;
//! * peer hit — snoop address transaction → peer lookup → data
//!   transaction, floored at the configured flat remote latency
//!   (30 cycles; 40 for SNUG);
//! * off-chip — snoop address transaction → DRAM (300 cycles); the
//!   private baseline skips the snoop.

use sim_cache::{CacheStats, Evicted, LineFlags, PushOutcome, SetAssocCache, WriteBuffer};
use sim_cmp::{ChipResources, L2Fill, L2Org, L2Outcome, SchemeEvent, SystemConfig};
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

/// Where a retrieval found the block, or where a spill places it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerHit {
    /// Which peer cache.
    pub peer: usize,
    /// Which set of that cache (may be the flipped index).
    pub set: usize,
}

impl PrivateChassis {
    /// Build empty slices and buffers.
    pub(crate) fn new(cfg: SystemConfig) -> Self {
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
    pub(crate) fn num_cores(&self) -> usize {
        self.slices.len()
    }

    /// Opportunistically drain write buffers while the DRAM channel is
    /// free in the past of `now`. Called at the top of every access.
    fn drain_write_buffers(&mut self, now: u64, res: &mut ChipResources<'_>) {
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
    fn push_writeback(
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

    /// Local-hit path: probe core `c`'s home set; on hit touch LRU,
    /// update the dirty bit and count the hit.
    fn local_access(&mut self, c: usize, block: BlockAddr, is_write: bool) -> bool {
        let slice = &mut self.slices[c];
        let set = slice.home_set(block);
        let Some(way) = slice.probe_in_set(set, block) else {
            return false;
        };
        let (_, was_cc) = slice.touch_way_in_set(set, way, is_write);
        let st = slice.stats_mut();
        st.hits += 1;
        if was_cc {
            st.cc_hits += 1;
        }
        true
    }

    /// Direct read from core `c`'s write buffer: if the block is
    /// buffered, take it out and count the hit. The caller re-installs
    /// it (dirty: the buffered copy was dirty) into the home set.
    fn write_buffer_read(&mut self, c: usize, block: BlockAddr) -> bool {
        if !self.wbs[c].direct_read(block) {
            return false;
        }
        self.wbs[c].remove(block);
        self.slices[c].stats_mut().write_buffer_hits += 1;
        true
    }

    /// Fill `block` into core `c`'s home set as an owned line. Returns
    /// the displaced victim for scheme-specific handling.
    fn fill_local(&mut self, c: usize, block: BlockAddr, dirty: bool) -> Option<Evicted> {
        let set = self.slices[c].home_set(block);
        self.slices[c].fill_in_set(set, block, LineFlags::owned(dirty))
    }

    /// Latency of a peer hit: snoop address phase, peer array lookup,
    /// data transfer back — floored at `remote_flat`.
    fn peer_hit_latency(&self, now: u64, remote_flat: u64, res: &mut ChipResources<'_>) -> u64 {
        let addr = res.bus.address_transaction(now);
        let lookup_done = addr.done_at + self.cfg.l2_local_latency;
        let data = res
            .bus
            .data_transaction(lookup_done, self.cfg.l2_slice.block_bytes);
        (data.done_at - now).max(remote_flat)
    }

    /// Latency of an off-chip fill. With `snoop`, the memory request
    /// launches in parallel with the snoop broadcast (standard
    /// speculative fetch) and the fill completes when both the DRAM data
    /// and the snoop result are in; without, it goes straight to DRAM.
    fn dram_fill_latency(&self, now: u64, snoop: bool, res: &mut ChipResources<'_>) -> u64 {
        let snoop_done = if snoop {
            res.bus.address_transaction(now).done_at
        } else {
            now
        };
        res.dram.read(now).max(snoop_done) - now
    }

    /// Spill `block` from `from`'s slice into `to`: charge the bus for
    /// the transfer (the core does not wait) and insert it as a received
    /// line, flagged as flipped when `to.set` is not its home index.
    /// The receiving set's victim: a dirty owned one goes to the
    /// *peer's* write buffer; clean or CC victims are dropped (one-chance
    /// forwarding). Updates spill counters.
    fn receive_spill(
        &mut self,
        from: usize,
        to: PeerHit,
        block: BlockAddr,
        now: u64,
        res: &mut ChipResources<'_>,
    ) {
        debug_assert_ne!(from, to.peer);
        let _ = res.bus.data_transaction(now, self.cfg.l2_slice.block_bytes);
        let flipped = to.set != self.cfg.l2_slice.set_index(block);
        let ev = self.slices[to.peer].fill_in_set(to.set, block, LineFlags::received(flipped));
        self.slices[from].stats_mut().spills_out += 1;
        self.slices[to.peer].stats_mut().spills_in += 1;
        if let Some(ev) = ev {
            if ev.flags.dirty && !ev.flags.cc {
                self.push_writeback(to.peer, ev.block, now, res);
            }
        }
    }

    /// Probe one peer's set for a *cooperatively cached* copy of
    /// `block`. Owned lines never match: with multiprogrammed workloads
    /// a peer's own line is a different program's data, and retrieval
    /// semantics (forward + invalidate) only apply to CC lines.
    pub(crate) fn probe_cc_in_set(&self, peer: usize, set: usize, block: BlockAddr) -> bool {
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

    /// The first peer, in core order, whose same-index set holds a CC
    /// copy of `block` (CC's and DSR's retrieval probe).
    pub(crate) fn probe_same_index(&self, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        let set = self.cfg.l2_slice.set_index(block);
        (0..self.num_cores())
            .filter(|&j| j != owner)
            .find(|&j| self.probe_cc_in_set(j, set, block))
            .map(|peer| PeerHit { peer, set })
    }

    /// Forward a block found at `hit` to its owner: invalidate the peer
    /// copy and bump counters. The caller fills the owner's slice.
    fn forward_from_peer(&mut self, owner: usize, hit: PeerHit, block: BlockAddr) {
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
    /// anywhere on behalf of `owner`, in its home set and the home set's
    /// flip partner (coherence sweep used on L1 writebacks and on
    /// refetch-after-unreachable; the snoop broadcast sees matching tags
    /// even when the G/T vector forbids forwarding).
    pub(crate) fn invalidate_cc_copies(&mut self, owner: usize, block: BlockAddr) -> usize {
        let mut removed = 0;
        let home = self.cfg.l2_slice.set_index(block);
        let num_sets = self.cfg.l2_slice.num_sets as usize;
        for peer in 0..self.num_cores() {
            if peer == owner || self.slices[peer].cc_lines() == 0 {
                continue;
            }
            for s in [home, home ^ 1].into_iter().filter(|&s| s < num_sets) {
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
    /// resident; otherwise invalidate any stale CC copies in the home
    /// set and its flip partner and buffer the data for DRAM.
    fn l1_writeback(&mut self, c: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
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
    fn reset_stats(&mut self) {
        for s in &mut self.slices {
            s.reset_stats();
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

/// What one private-slice organisation adds to the shared access path
/// of [`Private`]. Every hook but the name has a no-op default, which
/// is the private baseline's behaviour.
pub trait PrivatePolicy: Clone + 'static {
    /// Scheme name for reports ("L2P", "CC", "DSR", "SNUG").
    const NAME: &'static str;

    /// Whether an off-chip fill broadcasts a snoop on the bus. Only the
    /// private baseline, which holds no peer copies, goes straight to
    /// DRAM.
    const DRAM_SNOOP: bool = true;

    /// The flat floor of a peer hit's latency.
    fn remote_latency(cfg: &SystemConfig) -> u64 {
        cfg.l2_remote_latency
    }

    /// Advance time-driven policy state to `now` (SNUG's period clock).
    /// Runs first on every access.
    fn advance(&mut self, _now: u64) {}

    /// A hit in `core`'s home set `set`.
    fn on_hit(&mut self, _core: usize, _set: usize) {}

    /// A home-set miss for `block`, counted, before the write buffer is
    /// read (SNUG's shadow-tag lookup).
    fn on_miss(&mut self, _ch: &mut PrivateChassis, _core: usize, _set: usize, _block: BlockAddr) {}

    /// Find a peer's cooperatively cached copy of `block`.
    fn probe_peers(
        &self,
        _ch: &PrivateChassis,
        _owner: usize,
        _block: BlockAddr,
    ) -> Option<PeerHit> {
        None
    }

    /// Runs when no peer had the block, before the DRAM fill (DSR's duel
    /// tally, SNUG's stranded-copy sweep).
    fn before_dram_fill(
        &mut self,
        _ch: &mut PrivateChassis,
        _core: usize,
        _set: usize,
        _block: BlockAddr,
    ) {
    }

    /// An owned line of `core`'s `set` was evicted, dirty or clean.
    fn on_owned_eviction(&mut self, _core: usize, _set: usize, _block: BlockAddr) {}

    /// Where to spill a clean owned victim of `core`'s `set`, if
    /// anywhere.
    fn spill_target(&mut self, _ch: &PrivateChassis, _core: usize, _set: usize) -> Option<PeerHit> {
        None
    }

    /// Reset policy-side statistics at the warm-up boundary.
    fn reset_stats(&mut self) {}

    /// Drain buffered policy events (see [`L2Org::drain_events`]).
    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        Vec::new()
    }
}

/// A private-slice organisation: the shared chassis driven through one
/// access path, with policy `P` supplying the scheme's hooks.
#[derive(Clone)]
pub struct Private<P> {
    pub(crate) chassis: PrivateChassis,
    pub(crate) policy: P,
}

impl<P: PrivatePolicy> Private<P> {
    /// Build the organisation for `cfg` around `policy`.
    pub(crate) fn with_policy(cfg: SystemConfig, policy: P) -> Self {
        Private {
            chassis: PrivateChassis::new(cfg),
            policy,
        }
    }

    /// Access to the underlying chassis (tests/diagnostics).
    pub fn chassis(&self) -> &PrivateChassis {
        &self.chassis
    }

    /// Dispose of a local victim. An evicted received line is dropped
    /// (one-chance forwarding); an owned one tells the policy, then a
    /// dirty one goes to the write buffer and a clean one spills where
    /// the policy says, if anywhere.
    fn dispose(&mut self, core: usize, ev: Evicted, now: u64, res: &mut ChipResources<'_>) {
        if ev.flags.cc {
            return;
        }
        let set = self.chassis.cfg.l2_slice.set_index(ev.block);
        self.policy.on_owned_eviction(core, set, ev.block);
        if ev.flags.dirty {
            self.chassis.push_writeback(core, ev.block, now, res);
        } else if let Some(to) = self.policy.spill_target(&self.chassis, core, set) {
            self.chassis.receive_spill(core, to, ev.block, now, res);
        }
    }
}

impl<P: PrivatePolicy> L2Org for Private<P> {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        self.policy.advance(now);
        let ch = &mut self.chassis;
        ch.drain_write_buffers(now, res);
        let set = ch.cfg.l2_slice.set_index(block);
        if ch.local_access(core, block, is_write) {
            self.policy.on_hit(core, set);
            return L2Outcome {
                latency: ch.cfg.l2_local_latency,
                fill: L2Fill::LocalHit,
            };
        }
        ch.slices[core].stats_mut().misses += 1;
        self.policy.on_miss(ch, core, set, block);
        let (latency, fill, dirty) = if ch.write_buffer_read(core, block) {
            (ch.cfg.l2_local_latency, L2Fill::WriteBufferHit, true)
        } else if let Some(hit) = self.policy.probe_peers(ch, core, block) {
            let latency = ch.peer_hit_latency(now, P::remote_latency(&ch.cfg), res);
            ch.forward_from_peer(core, hit, block);
            (latency, L2Fill::RemoteHit, is_write)
        } else {
            self.policy.before_dram_fill(ch, core, set, block);
            let latency = ch.dram_fill_latency(now, P::DRAM_SNOOP, res);
            (latency, L2Fill::Dram, is_write)
        };
        if let Some(ev) = ch.fill_local(core, block, dirty) {
            self.dispose(core, ev, now, res);
        }
        L2Outcome { latency, fill }
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        self.chassis.l1_writeback(core, block, now, res);
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        self.chassis.slices[core].stats()
    }

    fn num_cores(&self) -> usize {
        self.chassis.num_cores()
    }

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn reset_stats(&mut self) {
        self.chassis.reset_stats();
        self.policy.reset_stats();
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        Box::new(self.clone())
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        self.policy.drain_events()
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
        assert!(!ch.local_access(0, b, false));
        ch.fill_local(0, b, false);
        assert!(ch.local_access(0, b, false));
        assert_eq!(ch.slices[0].stats().hits, 1);
    }

    #[test]
    fn write_buffer_direct_read_reinstalls_dirty() {
        let mut org = crate::L2p::new(SystemConfig::tiny_test());
        let mut bus = Bus::new(BusConfig::paper());
        // A busy DRAM channel keeps the buffered line from draining.
        let mut dram = Dram::new(DramConfig {
            latency: 300,
            service_interval: 1_000_000,
        });
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let _ = res.dram.read(0);
        let b = blk(1, 2);
        org.chassis.push_writeback(0, b, 0, &mut res);
        let r = org.access(0, b, false, 10, &mut res);
        assert_eq!(r.fill, L2Fill::WriteBufferHit);
        let ch = org.chassis();
        let (s, w) = ch.slices[0].probe(b).expect("reinstalled");
        assert!(ch.slices[0].set(s).line(w).flags.dirty);
        assert_eq!(ch.wbs[0].len(), 0, "entry consumed");
        assert_eq!(ch.slices[0].stats().write_buffer_hits, 1);
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
        let lat = ch.dram_fill_latency(0, true, &mut res);
        assert_eq!(lat, 300, "speculative fetch: snoop hidden under DRAM");
        assert_eq!(
            res.bus.stats().address_transactions,
            1,
            "snoop still issued"
        );
        assert_eq!(ch.dram_fill_latency(1000, false, &mut res), 300);
        assert_eq!(res.bus.stats().address_transactions, 1, "no snoop");
    }

    #[test]
    fn receive_spill_and_forward_round_trip() {
        let (mut ch, mut bus, mut dram) = setup();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = blk(5, 77);
        ch.receive_spill(0, PeerHit { peer: 2, set: 5 }, b, 0, &mut res);
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
        ch.receive_spill(0, PeerHit { peer: 1, set: 5 }, blk(5, 100), 0, &mut res);
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
