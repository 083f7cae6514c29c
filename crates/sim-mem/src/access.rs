//! Memory reference records and core-operation streams.
//!
//! A workload presents itself to a core as a stream of [`CoreOp`]s: a run
//! of non-memory instructions followed by one memory reference. This is
//! the standard trace-driven abstraction: the timing model charges issue
//! bandwidth for the non-memory run and sends the reference down the
//! cache hierarchy.

use crate::address::Addr;
use crate::state::{put_count, StateError, StateReader};

/// The kind of a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load. Loads can stall the core when they miss.
    Load,
    /// A data store. Stores retire through write buffers and do not stall
    /// the core unless buffering back-pressure builds up.
    Store,
    /// An instruction fetch. Modelled with a small code footprint that
    /// nearly always hits in L1I.
    IFetch,
}

impl AccessKind {
    /// Whether the reference writes the line.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// A single memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Referenced byte address.
    pub addr: Addr,
    /// Kind of reference.
    pub kind: AccessKind,
}

impl Access {
    /// Convenience constructor for a load.
    #[inline]
    pub fn load(addr: u64) -> Self {
        Access {
            addr: Addr(addr),
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store.
    #[inline]
    pub fn store(addr: u64) -> Self {
        Access {
            addr: Addr(addr),
            kind: AccessKind::Store,
        }
    }
}

/// One unit of work for a core: `gap` non-memory instructions, then one
/// memory reference. The reference itself also counts as one instruction
/// for IPC purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreOp {
    /// Number of non-memory instructions preceding the reference.
    pub gap: u32,
    /// The memory reference.
    pub access: Access,
    /// Whether following instructions depend on this load (pointer
    /// chasing): a critical load miss fully exposes its latency instead
    /// of overlapping with further work.
    pub critical: bool,
}

impl CoreOp {
    /// An independent (non-critical) op.
    pub fn new(gap: u32, access: Access) -> Self {
        CoreOp {
            gap,
            access,
            critical: false,
        }
    }

    /// A dependent (critical) op: the core serialises on its completion.
    pub fn critical(gap: u32, access: Access) -> Self {
        CoreOp {
            gap,
            access,
            critical: true,
        }
    }
}

/// A source of [`CoreOp`]s driving one core.
///
/// Implementations must be deterministic for a fixed seed so experiments
/// are reproducible; they should be infinite (the simulator decides the
/// instruction budget).
pub trait OpStream {
    /// Produce the next operation.
    fn next_op(&mut self) -> CoreOp;

    /// A short human-readable name (benchmark name) for reports.
    fn label(&self) -> &str;

    /// Re-parameterise the stream mid-run (a phase-change scenario; see
    /// [`crate::ShiftDirective`]). Returns whether the directive was understood
    /// and applied; the default implementation ignores every directive —
    /// fixed traces and replay streams have no parameters to shift.
    ///
    /// Implementations must stay deterministic: applying the same
    /// directive at the same point in the op sequence must yield the
    /// same subsequent ops.
    fn apply_shift(&mut self, _directive: &crate::shift::ShiftDirective) -> bool {
        false
    }

    /// Append everything this stream's future ops depend on to `out`,
    /// so that [`OpStream::restore_state`] on a stream built the same
    /// way continues with the identical ops. Returns whether the stream
    /// can be checkpointed; the default cannot and writes nothing.
    fn save_state(&self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Continue from a state [`OpStream::save_state`] wrote for a stream
    /// built the same way. Truncated or garbage bytes are an error,
    /// never a panic, and leave the stream unchanged.
    fn restore_state(&mut self, _state: &[u8]) -> Result<(), StateError> {
        Err(StateError::Unsupported)
    }
}

/// A replayable in-memory stream, useful in tests and for trace replay.
#[derive(Debug, Clone)]
pub struct VecStream {
    ops: Vec<CoreOp>,
    pos: usize,
    label: String,
}

impl VecStream {
    /// Create a stream that cycles through `ops` forever.
    pub fn cycle(label: impl Into<String>, ops: Vec<CoreOp>) -> Self {
        assert!(!ops.is_empty(), "VecStream requires at least one op");
        VecStream {
            ops,
            pos: 0,
            label: label.into(),
        }
    }

    /// Build a pure load stream with a fixed instruction gap.
    pub fn loads(label: impl Into<String>, addrs: impl IntoIterator<Item = u64>, gap: u32) -> Self {
        let ops = addrs
            .into_iter()
            .map(|a| CoreOp::new(gap, Access::load(a)))
            .collect::<Vec<_>>();
        Self::cycle(label, ops)
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> CoreOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        put_count(out, self.pos);
        true
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(state);
        let pos = r.count("pos")?;
        r.finish()?;
        if pos >= self.ops.len() {
            return Err(StateError::Invalid("pos"));
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_is_write() {
        assert!(AccessKind::Store.is_write());
        assert!(!AccessKind::Load.is_write());
        assert!(!AccessKind::IFetch.is_write());
    }

    #[test]
    fn vec_stream_cycles() {
        let mut s = VecStream::loads("t", [0u64, 64, 128], 0);
        let a: Vec<u64> = (0..7).map(|_| s.next_op().access.addr.0).collect();
        assert_eq!(a, vec![0, 64, 128, 0, 64, 128, 0]);
        assert_eq!(s.label(), "t");
        assert_eq!(s.ops.len(), 3);
    }

    #[test]
    fn vec_stream_checkpoints_its_position() {
        let mut s = VecStream::loads("t", [0u64, 64, 128], 0);
        s.next_op();
        let mut state = Vec::new();
        assert!(s.save_state(&mut state));
        let mut r = VecStream::loads("t", [0u64, 64, 128], 0);
        assert_eq!(r.restore_state(&state), Ok(()));
        for _ in 0..5 {
            assert_eq!(r.next_op(), s.next_op());
        }
        assert_eq!(r.restore_state(&state[..3]), Err(StateError::Truncated));
        assert_eq!(
            r.restore_state(&[9, 0, 0, 0, 0, 0, 0, 0]),
            Err(StateError::Invalid("pos"))
        );
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_stream_rejected() {
        VecStream::cycle("x", vec![]);
    }
}
