//! The per-slice L2 write-back buffer (paper Table 4: FIFO, mergeable,
//! 16 entries × 64 B, supporting direct read).
//!
//! Dirty L2 victims enter the buffer instead of stalling the cache
//! (Skadron & Clark, HPCA'97). Entries drain to DRAM in FIFO order.
//! A read that matches a buffered block is satisfied directly from the
//! buffer ("direct read"), and a new dirty victim for a buffered block
//! merges with the existing entry.

use sim_mem::BlockAddr;
use std::collections::VecDeque;

/// Outcome of pushing a victim into the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Stored in a free entry.
    Stored,
    /// Merged with an existing entry for the same block.
    Merged,
    /// Buffer full: the caller must stall until [`WriteBuffer::drain_one`]
    /// frees an entry (the returned time is when the oldest entry's drain
    /// can begin at the earliest).
    Full,
}

/// The FIFO mergeable write-back buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBuffer {
    entries: VecDeque<BlockAddr>,
    capacity: usize,
}

impl WriteBuffer {
    /// Create a buffer with `capacity` entries (paper: 16).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        WriteBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Push a dirty victim. Merges if the block is already buffered.
    pub fn push(&mut self, block: BlockAddr) -> PushOutcome {
        if self.entries.iter().any(|&b| b == block) {
            return PushOutcome::Merged;
        }
        if self.entries.len() == self.capacity {
            return PushOutcome::Full;
        }
        self.entries.push_back(block);
        PushOutcome::Stored
    }

    /// Direct-read probe: `true` if `block` is buffered. Does not remove
    /// the entry (the data is still dirty and must eventually drain; a
    /// refetch into the cache copies it).
    pub fn direct_read(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|&b| b == block)
    }

    /// Remove a buffered block (e.g. it was re-fetched into the cache
    /// dirty, superseding the buffered copy). Returns whether it existed.
    pub fn remove(&mut self, block: BlockAddr) -> bool {
        if let Some(pos) = self.entries.iter().position(|&b| b == block) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Drain the oldest entry (FIFO). Returns it, if any.
    pub fn drain_one(&mut self) -> Option<BlockAddr> {
        self.entries.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: u64) -> BlockAddr {
        BlockAddr(x)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut wb = WriteBuffer::new(4);
        wb.push(b(1));
        wb.push(b(2));
        wb.push(b(3));
        assert_eq!(wb.drain_one(), Some(b(1)));
        assert_eq!(wb.drain_one(), Some(b(2)));
        assert_eq!(wb.drain_one(), Some(b(3)));
        assert_eq!(wb.drain_one(), None);
    }

    #[test]
    fn merge_same_block() {
        let mut wb = WriteBuffer::new(2);
        assert_eq!(wb.push(b(5)), PushOutcome::Stored);
        assert_eq!(wb.push(b(5)), PushOutcome::Merged);
        assert_eq!(wb.len(), 1);
    }

    #[test]
    fn full_buffer_signals_stall() {
        let mut wb = WriteBuffer::new(2);
        wb.push(b(1));
        wb.push(b(2));
        assert_eq!(wb.push(b(3)), PushOutcome::Full);
        assert_eq!(wb.len(), 2);
        // Merging is still possible when full.
        assert_eq!(wb.push(b(2)), PushOutcome::Merged);
    }

    #[test]
    fn direct_read_hits_without_removing() {
        let mut wb = WriteBuffer::new(4);
        wb.push(b(7));
        assert!(wb.direct_read(b(7)));
        assert!(wb.direct_read(b(7)), "entry persists after direct read");
        assert!(!wb.direct_read(b(8)));
    }

    #[test]
    fn remove_deletes_entry() {
        let mut wb = WriteBuffer::new(4);
        wb.push(b(7));
        assert!(wb.remove(b(7)));
        assert!(!wb.remove(b(7)));
        assert!(wb.is_empty());
    }
}
