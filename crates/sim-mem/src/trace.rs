//! Trace recording, serialisation and interval segmentation.
//!
//! The characterisation methodology (paper §2.2) slices an L2 access
//! stream into 1000 sampling intervals of 100 K accesses each. This
//! module provides the interval bookkeeping plus a compact binary trace
//! format so expensive workload generation can be captured once and
//! replayed across schemes.

use crate::access::{Access, AccessKind, CoreOp};
use crate::address::Addr;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Parameters of an interval-sampled characterisation run (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Number of sampling intervals (paper: 1000).
    pub intervals: usize,
    /// L2 accesses per interval (paper: 100_000).
    pub accesses_per_interval: usize,
}

impl SamplingPlan {
    /// The paper's plan: 1000 intervals × 100 K L2 accesses.
    pub fn paper() -> Self {
        SamplingPlan {
            intervals: 1000,
            accesses_per_interval: 100_000,
        }
    }

    /// A scaled-down plan preserving the structure (for tests/benches).
    pub fn scaled(intervals: usize, accesses_per_interval: usize) -> Self {
        assert!(intervals > 0 && accesses_per_interval > 0);
        SamplingPlan {
            intervals,
            accesses_per_interval,
        }
    }

    /// Total accesses covered by the plan.
    pub fn total_accesses(&self) -> usize {
        self.intervals * self.accesses_per_interval
    }
}

/// Tracks progress through a [`SamplingPlan`]: call [`IntervalClock::tick`]
/// once per L2 access; it reports when an interval boundary is crossed.
#[derive(Debug, Clone)]
pub struct IntervalClock {
    plan: SamplingPlan,
    in_interval: usize,
    current: usize,
}

impl IntervalClock {
    /// Start a clock at interval 0 of `plan`.
    pub fn new(plan: SamplingPlan) -> Self {
        IntervalClock {
            plan,
            in_interval: 0,
            current: 0,
        }
    }

    /// Record one access. Returns `Some(finished_interval_index)` when the
    /// access completed an interval (0-based), `None` otherwise.
    pub fn tick(&mut self) -> Option<usize> {
        self.in_interval += 1;
        if self.in_interval == self.plan.accesses_per_interval {
            let done = self.current;
            self.in_interval = 0;
            self.current += 1;
            Some(done)
        } else {
            None
        }
    }

    /// Index of the interval currently being filled.
    pub fn current_interval(&self) -> usize {
        self.current
    }

    /// Whether the whole plan is complete.
    pub fn finished(&self) -> bool {
        self.current >= self.plan.intervals
    }

    /// The plan being tracked.
    pub fn plan(&self) -> SamplingPlan {
        self.plan
    }
}

/// A recorded trace of core operations, serialisable to a compact binary
/// framing (8-byte address, 4-byte gap, 1-byte kind per record).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The recorded operations in program order.
    pub ops: Vec<CoreOp>,
}

const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_IFETCH: u8 = 2;
const CRITICAL_BIT: u8 = 0x80;

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Trace { ops: Vec::new() }
    }

    /// Append one operation.
    pub fn push(&mut self, op: CoreOp) {
        self.ops.push(op);
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialise to the compact binary framing.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.ops.len() * 13);
        buf.put_u64_le(self.ops.len() as u64);
        for op in &self.ops {
            buf.put_u64_le(op.access.addr.0);
            buf.put_u32_le(op.gap);
            let kind = match op.access.kind {
                AccessKind::Load => KIND_LOAD,
                AccessKind::Store => KIND_STORE,
                AccessKind::IFetch => KIND_IFETCH,
            };
            buf.put_u8(kind | if op.critical { CRITICAL_BIT } else { 0 });
        }
        buf.freeze()
    }

    /// Deserialise from the compact binary framing.
    pub fn from_bytes(mut bytes: Bytes) -> Result<Self, TraceDecodeError> {
        if bytes.remaining() < 8 {
            return Err(TraceDecodeError::Truncated);
        }
        let n = usize::try_from(bytes.get_u64_le()).map_err(|_| TraceDecodeError::Truncated)?;
        if bytes.remaining() < n * 13 {
            return Err(TraceDecodeError::Truncated);
        }
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = Addr(bytes.get_u64_le());
            let gap = bytes.get_u32_le();
            let raw = bytes.get_u8();
            let critical = raw & CRITICAL_BIT != 0;
            let kind = match raw & !CRITICAL_BIT {
                KIND_LOAD => AccessKind::Load,
                KIND_STORE => AccessKind::Store,
                KIND_IFETCH => AccessKind::IFetch,
                k => return Err(TraceDecodeError::BadKind(k)),
            };
            ops.push(CoreOp {
                gap,
                access: Access { addr, kind },
                critical,
            });
        }
        Ok(Trace { ops })
    }

    /// Total instruction count represented by the trace.
    pub fn instructions(&self) -> u64 {
        self.ops.iter().map(|o| o.instructions()).sum()
    }
}

/// Errors from [`Trace::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The byte stream ended before the declared record count.
    Truncated,
    /// An unknown access-kind discriminant was encountered.
    BadKind(u8),
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated => write!(f, "trace bytes truncated"),
            TraceDecodeError::BadKind(k) => write!(f, "unknown access kind {k}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    #[test]
    fn paper_plan_totals() {
        let p = SamplingPlan::paper();
        assert_eq!(p.total_accesses(), 100_000_000);
    }

    #[test]
    fn interval_clock_reports_boundaries() {
        let mut c = IntervalClock::new(SamplingPlan::scaled(3, 4));
        let mut boundaries = Vec::new();
        for _ in 0..12 {
            if let Some(i) = c.tick() {
                boundaries.push(i);
            }
        }
        assert_eq!(boundaries, vec![0, 1, 2]);
        assert!(c.finished());
    }

    #[test]
    fn interval_clock_counts_partial() {
        let mut c = IntervalClock::new(SamplingPlan::scaled(2, 10));
        for _ in 0..9 {
            assert_eq!(c.tick(), None);
        }
        assert_eq!(c.current_interval(), 0);
        assert_eq!(c.tick(), Some(0));
        assert_eq!(c.current_interval(), 1);
        assert!(!c.finished());
    }

    #[test]
    fn trace_round_trips_through_bytes() {
        let mut t = Trace::new();
        t.push(CoreOp::critical(3, Access::load(0x1000)));
        t.push(CoreOp::new(0, Access::store(0x2040)));
        t.push(CoreOp::new(9, Access::ifetch(0x3080)));
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(bytes).unwrap();
        assert_eq!(back, t);
        // gap + 1 instructions per op: (3+1) + (0+1) + (9+1).
        assert_eq!(back.instructions(), 15);
    }

    #[test]
    fn truncated_trace_rejected() {
        let mut t = Trace::new();
        t.push(CoreOp::new(1, Access::load(0x40)));
        let bytes = t.to_bytes();
        let cut = bytes.slice(0..bytes.len() - 1);
        assert_eq!(Trace::from_bytes(cut), Err(TraceDecodeError::Truncated));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut t = Trace::new();
        t.push(CoreOp::new(1, Access::load(0x40)));
        let mut raw = t.to_bytes().to_vec();
        let last = raw.len() - 1;
        raw[last] = 77;
        assert_eq!(
            Trace::from_bytes(Bytes::from(raw)),
            Err(TraceDecodeError::BadKind(77))
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn trace_of(ops: Vec<(u64, u32, u8, bool)>) -> Trace {
            let mut t = Trace::new();
            for (addr, gap, kind, critical) in ops {
                let access = match kind {
                    0 => Access::load(addr),
                    1 => Access::store(addr),
                    _ => Access::ifetch(addr),
                };
                t.push(CoreOp {
                    gap,
                    access,
                    critical,
                });
            }
            t
        }

        proptest! {
            /// Encode/decode is the identity on arbitrary op streams,
            /// and the framing length matches the record layout
            /// (8-byte header + 13 bytes per op).
            #[test]
            fn encode_decode_round_trips(
                ops in proptest::collection::vec(
                    (0u64..1u64 << 48, 0u32..1024, 0u8..3, proptest::bool::ANY),
                    0..300,
                )
            ) {
                let t = trace_of(ops);
                let bytes = t.to_bytes();
                prop_assert_eq!(bytes.len(), 8 + t.len() * 13);
                let back = Trace::from_bytes(bytes).map_err(|e| {
                    TestCaseError::Fail(format!("decode failed: {e}"))
                })?;
                prop_assert_eq!(back, t);
            }

            /// Any strict prefix of a valid encoding is rejected as
            /// truncated — never mis-decoded.
            #[test]
            fn prefixes_are_rejected(
                ops in proptest::collection::vec(
                    (0u64..1u64 << 48, 0u32..64, 0u8..3, proptest::bool::ANY),
                    1..40,
                ),
                cut in 0usize..100
            ) {
                let t = trace_of(ops);
                let bytes = t.to_bytes();
                prop_assume!(cut < bytes.len());
                let r = Trace::from_bytes(bytes.slice(0..cut));
                prop_assert_eq!(r, Err(TraceDecodeError::Truncated));
            }
        }
    }
}
