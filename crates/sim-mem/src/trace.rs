//! Front-end records, their binary codec, and interval segmentation.
//!
//! The characterisation methodology (paper §2.2) slices an L2 access
//! stream into 1000 sampling intervals of 100 K accesses each. This
//! module provides the interval bookkeeping plus [`FrontOp`], one op
//! together with its private-L1 outcome, and a compact variable-length
//! codec for sequences of them, so a stream's generation and L1 can run
//! once and be replayed by every scheme simulated over it.

use crate::access::AccessKind;
use crate::address::BlockAddr;

/// Parameters of an interval-sampled characterisation run (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Number of sampling intervals (paper: 1000).
    pub intervals: usize,
    /// L2 accesses per interval (paper: 100_000).
    pub accesses_per_interval: usize,
}

impl SamplingPlan {
    /// A plan of `intervals` × `accesses_per_interval` L2 accesses; the
    /// paper's is 1000 × 100 K.
    pub fn scaled(intervals: usize, accesses_per_interval: usize) -> Self {
        assert!(intervals > 0 && accesses_per_interval > 0);
        SamplingPlan {
            intervals,
            accesses_per_interval,
        }
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

    /// Whether the whole plan is complete.
    pub fn finished(&self) -> bool {
        self.current >= self.plan.intervals
    }
}

/// What a private L1 did with one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Outcome {
    /// The block was resident, at this 1-based LRU stack distance.
    Hit {
        /// Stack distance observed by the hit.
        distance: usize,
    },
    /// The block was filled; the fill displaced `victim`, if the set was
    /// full.
    Miss {
        /// The displaced line, if any.
        victim: Option<Victim>,
    },
}

/// A line an L1 fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Block address of the displaced line.
    pub block: BlockAddr,
    /// Whether the line was dirty (it must be written back).
    pub dirty: bool,
}

/// One core operation as it leaves the core's private L1: the op (its
/// non-memory gap, reference kind, critical flag and block) plus the
/// L1's verdict on the reference. A core's private L1 sees only that
/// core's own ops, so the sequence of `FrontOp`s a stream yields does
/// not depend on timing or on the L2 organisation behind the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontOp {
    /// Non-memory instructions preceding the reference.
    pub gap: u32,
    /// Kind of reference.
    pub kind: AccessKind,
    /// Whether following instructions depend on this load.
    pub critical: bool,
    /// Referenced block.
    pub block: BlockAddr,
    /// The L1 outcome of the reference.
    pub l1: L1Outcome,
}

impl FrontOp {
    /// Total instructions represented by this op (gap + the memory op).
    #[inline]
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

/// The longest encoding of one [`FrontOp`]: two header bytes, a 4-byte
/// gap and two 8-byte fields.
pub const FRONT_RECORD_MAX: usize = 22;

// Header byte 0: bits 0-1 the access kind, bit 2 the critical flag,
// bits 3-4 the L1 outcome, bits 5-7 the gap's byte length (0-4).
// Header byte 1: bits 0-3 the block field's byte length, bits 4-7 the
// aux field's (0-8 each). The fields follow little-endian, without
// leading zero bytes: the gap, the block as a zigzag delta from the
// previous record's block, and the aux field — the hit distance, or the
// victim as a zigzag delta from the block.
const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_IFETCH: u8 = 2;
const KIND_MASK: u8 = 0b11;
/// Access kinds by their header code (a table lookup, not a branch).
const KINDS: [Option<AccessKind>; 4] = [
    Some(AccessKind::Load),
    Some(AccessKind::Store),
    Some(AccessKind::IFetch),
    None,
];
const CRITICAL_BIT: u8 = 0b100;
const OUTCOME_SHIFT: u8 = 3;
const OUTCOME_HIT: u8 = 0;
const OUTCOME_MISS: u8 = 1;
const OUTCOME_CLEAN_VICTIM: u8 = 2;
const OUTCOME_DIRTY_VICTIM: u8 = 3;
const GAP_LEN_SHIFT: u8 = 5;
const AUX_LEN_SHIFT: u8 = 4;

/// Stateful encoder of a [`FrontOp`] sequence into the compact record
/// format: two header bytes holding the kind, critical flag, L1 outcome
/// and the byte lengths of three variable-width fields — the gap, the
/// block (as a delta from the previous record's block) and the hit
/// distance or victim (as a delta from the block). Records are
/// 2–[`FRONT_RECORD_MAX`] bytes; every field length sits in the header,
/// so decoding needs no per-byte loop. A sequence decodes only with a
/// [`FrontDecoder`] started at the same record.
#[derive(Debug, Clone, Default)]
pub struct FrontEncoder {
    prev_block: u64,
}

impl FrontEncoder {
    /// An encoder at the start of a sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder continuing a sequence whose last record's block was
    /// `prev_block` (see [`FrontEncoder::prev_block`]).
    pub fn resume(prev_block: u64) -> Self {
        FrontEncoder { prev_block }
    }

    /// The block of the last record encoded (0 at the start): all the
    /// state the encoder carries from one record to the next.
    pub fn prev_block(&self) -> u64 {
        self.prev_block
    }

    /// Append the encoding of `op` to `out`.
    pub fn encode(&mut self, op: &FrontOp, out: &mut Vec<u8>) {
        let kind = match op.kind {
            AccessKind::Load => KIND_LOAD,
            AccessKind::Store => KIND_STORE,
            AccessKind::IFetch => KIND_IFETCH,
        };
        let (outcome, aux) = match op.l1 {
            L1Outcome::Hit { distance } => (OUTCOME_HIT, distance as u64),
            L1Outcome::Miss { victim: None } => (OUTCOME_MISS, 0),
            L1Outcome::Miss { victim: Some(v) } => (
                if v.dirty {
                    OUTCOME_DIRTY_VICTIM
                } else {
                    OUTCOME_CLEAN_VICTIM
                },
                zigzag(v.block.0.wrapping_sub(op.block.0)),
            ),
        };
        let gap = u64::from(op.gap);
        let block = zigzag(op.block.0.wrapping_sub(self.prev_block));
        self.prev_block = op.block.0;
        let (gap_len, block_len, aux_len) = (byte_len(gap), byte_len(block), byte_len(aux));
        // Each field goes in as a whole word, overwritten past its
        // length by the next: room for a word at the last field's start.
        let mut record = [0u8; FRONT_RECORD_MAX + 8];
        record[0] = kind
            | if op.critical { CRITICAL_BIT } else { 0 }
            | outcome << OUTCOME_SHIFT
            | gap_len << GAP_LEN_SHIFT;
        record[1] = block_len | aux_len << AUX_LEN_SHIFT;
        let mut at = 2;
        for (field, len) in [(gap, gap_len), (block, block_len), (aux, aux_len)] {
            record[at..at + 8].copy_from_slice(&field.to_le_bytes());
            at += usize::from(len);
        }
        out.extend_from_slice(&record[..at]);
    }
}

/// Stateful decoder of the [`FrontEncoder`] record format.
#[derive(Debug, Clone, Default)]
pub struct FrontDecoder {
    prev_block: u64,
}

impl FrontDecoder {
    /// A decoder at the start of a sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode the record at the start of `bytes`: the op and the number
    /// of bytes it took. On error the decoder state is unchanged.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<(FrontOp, usize), TraceDecodeError> {
        let mut padded = [0u8; FRONT_RECORD_MAX];
        let window = match bytes.first_chunk::<FRONT_RECORD_MAX>() {
            Some(window) => window,
            None => {
                padded[..bytes.len()].copy_from_slice(bytes);
                &padded
            }
        };
        self.decode_window(window, bytes.len())
    }

    /// [`FrontDecoder::decode`] over a window whose first `valid` bytes
    /// are record data (a record longer than `valid` is truncated); the
    /// rest of the window is read but ignored. This is the reader's
    /// path: one fixed-size window, no per-byte bounds checks.
    #[inline]
    pub fn decode_window(
        &mut self,
        window: &[u8; FRONT_RECORD_MAX],
        valid: usize,
    ) -> Result<(FrontOp, usize), TraceDecodeError> {
        let [h0, h1, ..] = *window;
        let kind =
            KINDS[usize::from(h0 & KIND_MASK)].ok_or(TraceDecodeError::BadKind(h0 & KIND_MASK))?;
        let outcome = (h0 >> OUTCOME_SHIFT) & 0b11;
        let gap_len = usize::from(h0 >> GAP_LEN_SHIFT);
        let block_len = usize::from(h1 & 0x0f);
        let aux_len = usize::from(h1 >> AUX_LEN_SHIFT);
        if gap_len > 4 || block_len > 8 || aux_len > 8 || (outcome == OUTCOME_MISS && aux_len > 0) {
            return Err(TraceDecodeError::Malformed);
        }
        let len = 2 + gap_len + block_len + aux_len;
        if len > valid {
            return Err(TraceDecodeError::Truncated);
        }
        let gap = field(window, 2, gap_len).to_le_bytes();
        let block = self
            .prev_block
            .wrapping_add(unzigzag(field(window, 2 + gap_len, block_len)));
        let aux = field(window, 2 + gap_len + block_len, aux_len);
        let l1 = match outcome {
            OUTCOME_HIT => L1Outcome::Hit {
                distance: usize::try_from(aux).map_err(|_| TraceDecodeError::Malformed)?,
            },
            OUTCOME_MISS => L1Outcome::Miss { victim: None },
            _ => L1Outcome::Miss {
                victim: Some(Victim {
                    block: BlockAddr(block.wrapping_add(unzigzag(aux))),
                    dirty: outcome == OUTCOME_DIRTY_VICTIM,
                }),
            },
        };
        self.prev_block = block;
        let op = FrontOp {
            gap: u32::from_le_bytes([gap[0], gap[1], gap[2], gap[3]]),
            kind,
            critical: h0 & CRITICAL_BIT != 0,
            block: BlockAddr(block),
            l1,
        };
        Ok((op, len))
    }
}

/// The `len`-byte little-endian field at `at`: one 8-byte load, masked.
/// Every header the decoder accepts keeps `at + 8` within the window.
#[inline]
fn field(window: &[u8; FRONT_RECORD_MAX], at: usize, len: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&window[at..at + 8]);
    u64::from_le_bytes(word) & LOW_BYTES[len]
}

/// `LOW_BYTES[n]` keeps the low `n` bytes of a word.
const LOW_BYTES: [u64; 9] = {
    let mut masks = [u64::MAX; 9];
    let mut n = 0;
    while n < 8 {
        masks[n] = (1 << (8 * n)) - 1;
        n += 1;
    }
    masks
};

/// Bytes needed for `x` without leading zero bytes (0 for zero).
#[inline]
fn byte_len(x: u64) -> u8 {
    let bits = 64 - x.leading_zeros();
    low_byte(u64::from(bits.div_ceil(8)))
}

#[inline]
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The low 8 bits of `x`.
#[inline]
fn low_byte(x: u64) -> u8 {
    x.to_le_bytes()[0]
}

/// Errors from [`FrontDecoder::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The bytes ended inside a record.
    Truncated,
    /// An unknown access-kind discriminant was encountered.
    BadKind(u8),
    /// A header field out of its range, or a field the outcome does
    /// not have.
    Malformed,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated => write!(f, "front-end record truncated"),
            TraceDecodeError::BadKind(k) => write!(f, "unknown access kind {k}"),
            TraceDecodeError::Malformed => write!(f, "malformed front-end record header"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "intervals > 0")]
    fn an_empty_plan_is_rejected() {
        SamplingPlan::scaled(0, 100);
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
        assert_eq!(c.current, 0);
        assert_eq!(c.tick(), Some(0));
        assert_eq!(c.current, 1);
        assert!(!c.finished());
    }

    fn encode_all(ops: &[FrontOp]) -> Vec<u8> {
        let mut enc = FrontEncoder::new();
        let mut out = Vec::new();
        for op in ops {
            enc.encode(op, &mut out);
        }
        out
    }

    fn decode_all(mut bytes: &[u8]) -> Result<Vec<FrontOp>, TraceDecodeError> {
        let mut dec = FrontDecoder::new();
        let mut ops = Vec::new();
        while !bytes.is_empty() {
            let (op, n) = dec.decode(bytes)?;
            ops.push(op);
            bytes = &bytes[n..];
        }
        Ok(ops)
    }

    fn op(gap: u32, kind: AccessKind, block: u64, l1: L1Outcome) -> FrontOp {
        FrontOp {
            gap,
            kind,
            critical: false,
            block: BlockAddr(block),
            l1,
        }
    }

    #[test]
    fn trace_round_trips_through_bytes() {
        let ops = vec![
            FrontOp {
                critical: true,
                ..op(
                    3,
                    AccessKind::Load,
                    0x1000,
                    L1Outcome::Miss { victim: None },
                )
            },
            op(0, AccessKind::Store, 0x2040, L1Outcome::Hit { distance: 2 }),
            op(
                9,
                AccessKind::IFetch,
                0x3080,
                L1Outcome::Miss {
                    victim: Some(Victim {
                        block: BlockAddr(0x40),
                        dirty: true,
                    }),
                },
            ),
            op(
                u32::MAX,
                AccessKind::Load,
                u64::MAX,
                L1Outcome::Miss {
                    victim: Some(Victim {
                        block: BlockAddr(0),
                        dirty: false,
                    }),
                },
            ),
        ];
        let bytes = encode_all(&ops);
        let back = decode_all(&bytes).unwrap();
        assert_eq!(back, ops);
        // gap + 1 instructions per op: 4 + 1 + 10.
        let total: u64 = back.iter().take(3).map(FrontOp::instructions).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn truncated_trace_rejected() {
        let bytes = encode_all(&[op(
            100,
            AccessKind::Load,
            1 << 40,
            L1Outcome::Hit { distance: 1 },
        )]);
        for cut in 0..bytes.len() {
            let mut dec = FrontDecoder::new();
            assert_eq!(
                dec.decode(&bytes[..cut]),
                Err(TraceDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = encode_all(&[op(
            1,
            AccessKind::Load,
            0x40,
            L1Outcome::Hit { distance: 1 },
        )]);
        bytes[0] |= KIND_MASK;
        assert_eq!(
            FrontDecoder::new().decode(&bytes),
            Err(TraceDecodeError::BadKind(3))
        );
    }

    #[test]
    fn out_of_range_header_fields_are_rejected() {
        let rejected = |h0: u8, h1: u8| {
            let mut bytes = vec![h0, h1];
            bytes.extend([0; 20]);
            FrontDecoder::new().decode(&bytes)
        };
        // A 5-byte gap, a 9-byte block or aux field, or aux bytes on a
        // miss without a victim.
        assert_eq!(
            rejected(5 << GAP_LEN_SHIFT, 0),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(rejected(0, 9), Err(TraceDecodeError::Malformed));
        assert_eq!(
            rejected(0, 9 << AUX_LEN_SHIFT),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(
            rejected(OUTCOME_MISS << OUTCOME_SHIFT, 1 << AUX_LEN_SHIFT),
            Err(TraceDecodeError::Malformed)
        );
        assert!(rejected(4 << GAP_LEN_SHIFT, 8 | 8 << AUX_LEN_SHIFT).is_ok());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `((block, gap, small_gap), (kind, critical), (outcome, extra))`:
        /// full-range blocks and gaps, half the gaps folded to the
        /// zero- and one-byte widths real streams mostly produce.
        type RawOp = ((u64, u32, bool), (u8, bool), (u8, u64));

        fn ops_of(raw: Vec<RawOp>) -> Vec<FrontOp> {
            raw.into_iter()
                .map(
                    |((block, gap, small), (kind, critical), (outcome, extra))| FrontOp {
                        gap: if small { gap % 8 } else { gap },
                        kind: match kind {
                            0 => AccessKind::Load,
                            1 => AccessKind::Store,
                            _ => AccessKind::IFetch,
                        },
                        critical,
                        block: BlockAddr(block),
                        l1: match outcome {
                            0 => L1Outcome::Hit {
                                distance: usize::from(low_byte(extra) % 64),
                            },
                            1 => L1Outcome::Miss { victim: None },
                            o => L1Outcome::Miss {
                                victim: Some(Victim {
                                    block: BlockAddr(extra),
                                    dirty: o == 3,
                                }),
                            },
                        },
                    },
                )
                .collect()
        }

        fn raw_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
            proptest::collection::vec(
                (
                    (0..=u64::MAX, 0..=u32::MAX, proptest::bool::ANY),
                    (0u8..3, proptest::bool::ANY),
                    (0u8..4, 0..=u64::MAX),
                ),
                len,
            )
        }

        proptest! {
            /// Encode/decode is the identity on arbitrary op sequences,
            /// and every record fits the documented size bounds.
            #[test]
            fn encode_decode_round_trips(raw in raw_ops(0..300)) {
                let ops = ops_of(raw);
                let bytes = encode_all(&ops);
                prop_assert!(bytes.len() >= 2 * ops.len());
                prop_assert!(bytes.len() <= FRONT_RECORD_MAX * ops.len());
                let back = decode_all(&bytes).map_err(|e| {
                    TestCaseError::Fail(format!("decode failed: {e}"))
                })?;
                prop_assert_eq!(back, ops);
            }

            /// Any strict prefix of a record is rejected as truncated —
            /// never mis-decoded.
            #[test]
            fn prefixes_are_rejected(raw in raw_ops(1..2), cut in 0usize..FRONT_RECORD_MAX) {
                let bytes = encode_all(&ops_of(raw));
                prop_assume!(cut < bytes.len());
                let r = FrontDecoder::new().decode(&bytes[..cut]);
                prop_assert_eq!(r, Err(TraceDecodeError::Truncated));
            }
        }
    }
}
