//! Front-end records, their binary codec, and interval segmentation.
//!
//! The characterisation methodology (paper §2.2) slices an L2 access
//! stream into 1000 sampling intervals of 100 K accesses each. This
//! module provides the interval bookkeeping plus [`FrontOp`], one op
//! together with its private-L1 outcome, and a compact variable-length
//! codec for sequences of them — one record per L1 miss, one per run of
//! L1 hits — so a stream's generation and L1 can run once and be
//! replayed by every scheme simulated over it.

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

/// L1 walk-depth buckets a hit record distinguishes: depths 1 to
/// `HIT_DEPTHS`, deeper hits sharing the last bucket.
pub const HIT_DEPTHS: usize = 8;

/// The most hits one run record holds; a longer run of hits goes on in
/// the next record.
const MAX_RUN_HITS: usize = 255;

/// The longest miss record, and the bytes a reader must hold to decode
/// any record's header: two header bytes, a 4-byte gap and two 8-byte
/// fields.
pub const FRONT_RECORD_MAX: usize = 22;

// Header byte 0: bits 0-1 the access kind, bit 2 the critical flag,
// bits 3-4 the L1 outcome, bits 5-7 a byte length. A miss record's
// outcome is 1-3 (no victim, clean victim, dirty victim) and the length
// is the gap's (0-4). Header byte 1 holds the byte lengths of the block
// field (bits 0-3) and the victim field (bits 4-7), 0-8 each. The
// fields follow little-endian, without leading zero bytes: the gap, the
// block as a zigzag delta from the previous miss record's block, and
// the victim as a zigzag delta from the block.
//
// A run record's outcome is 0. Its kind is `Load` for data hits (L1D)
// or `IFetch` for instruction hits (L1I), its critical flag is clear and
// its length is the byte width of one entry (1-5). Header byte 1 is the
// hit count (1-255). One little-endian entry per hit follows:
// `gap << 3 | (depth - 1)`, the depth clamped to `1..=HIT_DEPTHS`.
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
const OUTCOME_RUN: u8 = 0;
const OUTCOME_MISS: u8 = 1;
const OUTCOME_CLEAN_VICTIM: u8 = 2;
const OUTCOME_DIRTY_VICTIM: u8 = 3;
const LEN_SHIFT: u8 = 5;
const AUX_LEN_SHIFT: u8 = 4;
/// Bits of a run entry below the gap: the depth bucket.
const DEPTH_BITS: u8 = 3;

/// Consecutive L1 hits of one core on one L1 side: the entries of a run
/// record, or what is left of them once hits were taken off the front.
/// Entry `i` is `gap << 3 | (depth - 1)`, little-endian in
/// [`Hits::width`] bytes; its first byte holds the depth. A hit's block,
/// load/store kind and critical flag change nothing it does, so a run
/// keeps only its gap and walk depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hits<'a> {
    ifetch: bool,
    width: usize,
    entries: &'a [u8],
}

impl<'a> Hits<'a> {
    /// Hits on the L1I (`ifetch`) or L1D whose `width`-byte entries are
    /// `entries`.
    pub fn new(ifetch: bool, width: usize, entries: &'a [u8]) -> Hits<'a> {
        debug_assert!((1..=8).contains(&width) && entries.len().is_multiple_of(width));
        Hits {
            ifetch,
            width,
            entries,
        }
    }

    /// The L1 hit `op` as a run of one, its entry written to `scratch`.
    pub fn single(op: &FrontOp, scratch: &'a mut [u8; 8]) -> Hits<'a> {
        let distance = match op.l1 {
            L1Outcome::Hit { distance } => distance,
            L1Outcome::Miss { .. } => 1,
        };
        let entry = hit_entry(op.gap, distance);
        *scratch = entry.to_le_bytes();
        let width = usize::from(byte_len(entry).max(1));
        Hits::new(op.kind == AccessKind::IFetch, width, &scratch[..width])
    }

    /// Whether the hits are instruction fetches (L1I) rather than data
    /// references (L1D).
    #[inline]
    pub fn ifetch(&self) -> bool {
        self.ifetch
    }

    /// Bytes per entry.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hits.
    #[inline]
    pub fn len(&self) -> usize {
        // Most runs have 1-byte entries: no division for them.
        match self.width {
            1 => self.entries.len(),
            width => self.entries.len() / width,
        }
    }

    /// Bytes of the entries.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no hits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Feed each hit's instructions (its gap plus one) and walk-depth
    /// bucket (its depth less one, the last bucket deeper ones too) to
    /// `keep`, in order, until it returns `false`: the number of hits it
    /// kept.
    #[inline]
    pub fn scan(&self, mut keep: impl FnMut(u64, usize) -> bool) -> usize {
        if self.width == 1 {
            for (i, &entry) in self.entries.iter().enumerate() {
                if !keep(
                    u64::from(entry >> DEPTH_BITS) + 1,
                    usize::from(entry & 0b111),
                ) {
                    return i;
                }
            }
        } else {
            for (i, entry) in self.entries.chunks_exact(self.width).enumerate() {
                let bucket = usize::from(entry[0] & 0b111);
                if !keep((word(entry) >> DEPTH_BITS) + 1, bucket) {
                    return i;
                }
            }
        }
        self.len()
    }
}

/// A hit's run entry: its gap above its walk-depth bucket.
#[inline]
fn hit_entry(gap: u32, distance: usize) -> u64 {
    u64::from(gap) << DEPTH_BITS | (distance.clamp(1, HIT_DEPTHS) - 1) as u64
}

/// The little-endian word of up to 8 bytes.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// One decoded record: a miss, or a run of hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontRecord<'a> {
    /// An L1 miss, with its block and victim.
    Miss(FrontOp),
    /// Consecutive L1 hits, their entries in the decoded bytes.
    Hits(Hits<'a>),
}

/// Stateful encoder of a [`FrontOp`] sequence into the record format:
/// each miss is one record of 2–[`FRONT_RECORD_MAX`] bytes (kind,
/// critical flag, victim, and three variable-width fields — the gap, the
/// block as a delta from the previous miss's block, and the victim as a
/// delta from the block); each maximal run of hits on one L1 side is one
/// record of 2 header bytes and one 1–5-byte entry (gap and walk depth)
/// per hit, up to 255 hits. Every field length sits in a
/// header, so decoding needs no per-byte loop. A sequence decodes only
/// with a [`FrontDecoder`] started at the same record.
#[derive(Debug, Clone, Default)]
pub struct FrontEncoder {
    prev_block: u64,
    /// The open run's entries, written out when it ends.
    run: Vec<u64>,
    run_ifetch: bool,
}

impl FrontEncoder {
    /// An encoder at the start of a sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder continuing a sequence whose last miss record's block
    /// was `prev_block` (see [`FrontEncoder::prev_block`]).
    pub fn resume(prev_block: u64) -> Self {
        FrontEncoder {
            prev_block,
            ..Self::default()
        }
    }

    /// The block of the last miss encoded (0 at the start): all the
    /// state the encoder carries across a [`FrontEncoder::flush`].
    pub fn prev_block(&self) -> u64 {
        self.prev_block
    }

    /// Encode `op`, appending to `out` every record it completes: a hit
    /// joins the open run, which a miss, a full run or a hit on the
    /// other L1 side writes out first.
    pub fn encode(&mut self, op: &FrontOp, out: &mut Vec<u8>) {
        let victim = match op.l1 {
            L1Outcome::Hit { distance } => {
                let ifetch = op.kind == AccessKind::IFetch;
                if self.run.len() == MAX_RUN_HITS
                    || (!self.run.is_empty() && ifetch != self.run_ifetch)
                {
                    self.flush(out);
                }
                self.run_ifetch = ifetch;
                self.run.push(hit_entry(op.gap, distance));
                return;
            }
            L1Outcome::Miss { victim } => victim,
        };
        self.flush(out);
        let kind = match op.kind {
            AccessKind::Load => KIND_LOAD,
            AccessKind::Store => KIND_STORE,
            AccessKind::IFetch => KIND_IFETCH,
        };
        let (outcome, aux) = match victim {
            None => (OUTCOME_MISS, 0),
            Some(v) => (
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
            | gap_len << LEN_SHIFT;
        record[1] = block_len | aux_len << AUX_LEN_SHIFT;
        let mut at = 2;
        for (field, len) in [(gap, gap_len), (block, block_len), (aux, aux_len)] {
            record[at..at + 8].copy_from_slice(&field.to_le_bytes());
            at += usize::from(len);
        }
        out.extend_from_slice(&record[..at]);
    }

    /// Write out the open run, if any: records then end at an op
    /// boundary, where a decoder can stop or an encoder resume.
    pub fn flush(&mut self, out: &mut Vec<u8>) {
        let Some(&widest) = self.run.iter().max() else {
            return;
        };
        let width = byte_len(widest).max(1);
        let kind = if self.run_ifetch {
            KIND_IFETCH
        } else {
            KIND_LOAD
        };
        out.push(kind | OUTCOME_RUN << OUTCOME_SHIFT | width << LEN_SHIFT);
        out.push(low_byte(self.run.len() as u64));
        for entry in self.run.drain(..) {
            out.extend_from_slice(&entry.to_le_bytes()[..usize::from(width)]);
        }
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

    /// Decode the record at the start of `bytes`: the record and the
    /// number of bytes it took. On error the decoder state is unchanged.
    #[inline]
    pub fn decode<'a>(
        &mut self,
        bytes: &'a [u8],
    ) -> Result<(FrontRecord<'a>, usize), TraceDecodeError> {
        let mut padded = [0u8; FRONT_RECORD_MAX];
        let window = match bytes.first_chunk::<FRONT_RECORD_MAX>() {
            Some(window) => window,
            None => {
                padded[..bytes.len()].copy_from_slice(bytes);
                &padded
            }
        };
        let valid = bytes.len();
        if valid < 2 {
            return Err(TraceDecodeError::Truncated);
        }
        let [h0, h1, ..] = *window;
        let kind =
            KINDS[usize::from(h0 & KIND_MASK)].ok_or(TraceDecodeError::BadKind(h0 & KIND_MASK))?;
        let outcome = (h0 >> OUTCOME_SHIFT) & 0b11;
        let len_field = usize::from(h0 >> LEN_SHIFT);
        if outcome == OUTCOME_RUN {
            return decode_run(bytes, kind, h0, h1, len_field);
        }
        let gap_len = len_field;
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
        let victim = match outcome {
            OUTCOME_MISS => None,
            _ => Some(Victim {
                block: BlockAddr(block.wrapping_add(unzigzag(aux))),
                dirty: outcome == OUTCOME_DIRTY_VICTIM,
            }),
        };
        self.prev_block = block;
        let op = FrontOp {
            gap: u32::from_le_bytes([gap[0], gap[1], gap[2], gap[3]]),
            kind,
            critical: h0 & CRITICAL_BIT != 0,
            block: BlockAddr(block),
            l1: L1Outcome::Miss { victim },
        };
        Ok((FrontRecord::Miss(op), len))
    }
}

/// Decode the run record at the start of `bytes`, whose header bytes
/// are `h0` and `h1`.
#[inline]
fn decode_run(
    bytes: &[u8],
    kind: AccessKind,
    h0: u8,
    h1: u8,
    width: usize,
) -> Result<(FrontRecord<'_>, usize), TraceDecodeError> {
    let count = usize::from(h1);
    if kind == AccessKind::Store
        || h0 & CRITICAL_BIT != 0
        || !(1..=5).contains(&width)
        || count == 0
    {
        return Err(TraceDecodeError::Malformed);
    }
    let len = 2 + count * width;
    let entries = bytes.get(2..len).ok_or(TraceDecodeError::Truncated)?;
    // Only a 5-byte entry can hold more than a `u32` gap.
    if width == 5 && entries.chunks_exact(5).any(|e| e[4] >> DEPTH_BITS != 0) {
        return Err(TraceDecodeError::Malformed);
    }
    let hits = Hits::new(kind == AccessKind::IFetch, width, entries);
    Ok((FrontRecord::Hits(hits), len))
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
    /// A header field out of its range, or a field the record does
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
        enc.flush(&mut out);
        out
    }

    /// What a record keeps of one op: a miss whole; a hit's L1 side,
    /// instructions and clamped walk depth.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kept {
        Miss(FrontOp),
        Hit(bool, u64, usize),
    }

    fn kept(op: &FrontOp) -> Kept {
        match op.l1 {
            L1Outcome::Hit { distance } => Kept::Hit(
                op.kind == AccessKind::IFetch,
                op.instructions(),
                distance.clamp(1, HIT_DEPTHS),
            ),
            L1Outcome::Miss { .. } => Kept::Miss(*op),
        }
    }

    /// Each hit's instructions and walk depth, in order.
    fn each(hits: &Hits<'_>) -> Vec<(u64, usize)> {
        let mut seen = Vec::new();
        hits.scan(|n, bucket| {
            seen.push((n, bucket + 1));
            true
        });
        seen
    }

    fn decode_all(mut bytes: &[u8]) -> Result<Vec<Kept>, TraceDecodeError> {
        let mut dec = FrontDecoder::new();
        let mut ops = Vec::new();
        while !bytes.is_empty() {
            let (record, n) = dec.decode(bytes)?;
            match record {
                FrontRecord::Miss(op) => ops.push(Kept::Miss(op)),
                FrontRecord::Hits(hits) => {
                    let ifetch = hits.ifetch();
                    ops.extend(
                        each(&hits)
                            .into_iter()
                            .map(|(n, d)| Kept::Hit(ifetch, n, d)),
                    );
                }
            }
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

    fn hit(gap: u32, distance: usize) -> FrontOp {
        op(gap, AccessKind::Load, 0x40, L1Outcome::Hit { distance })
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
            op(7, AccessKind::Load, 0x2080, L1Outcome::Hit { distance: 12 }),
            op(
                1,
                AccessKind::IFetch,
                0x20c0,
                L1Outcome::Hit { distance: 1 },
            ),
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
                0x3080,
                L1Outcome::Hit { distance: 0 },
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
        let expected: Vec<Kept> = ops.iter().map(kept).collect();
        assert_eq!(decode_all(&bytes).unwrap(), expected);
        // A miss, a data run of two, an instruction run of one, a miss,
        // a run of one with a 5-byte entry, a miss.
        let mut dec = FrontDecoder::new();
        let mut rest = &bytes[..];
        let mut runs = Vec::new();
        while !rest.is_empty() {
            let (record, n) = dec.decode(rest).unwrap();
            if let FrontRecord::Hits(hits) = record {
                let sum: u64 = each(&hits).iter().map(|&(n, _)| n).sum();
                runs.push((hits.ifetch(), hits.len(), sum, n));
            }
            rest = &rest[n..];
        }
        let widest = u64::from(u32::MAX) + 1;
        assert_eq!(
            runs,
            [(false, 2, 1 + 8, 4), (true, 1, 2, 3), (false, 1, widest, 7)]
        );
    }

    #[test]
    fn runs_end_at_full_length_and_at_misses() {
        let miss = op(0, AccessKind::Load, 0x80, L1Outcome::Miss { victim: None });
        let mut ops: Vec<FrontOp> = (0..2 * MAX_RUN_HITS + 3)
            .map(|i| hit(u32::try_from(i % 40).unwrap(), i % 5 + 1))
            .collect();
        ops.insert(10, miss);
        let bytes = encode_all(&ops);
        let expected: Vec<Kept> = ops.iter().map(kept).collect();
        assert_eq!(decode_all(&bytes).unwrap(), expected);
        let mut dec = FrontDecoder::new();
        let mut rest = &bytes[..];
        let mut counts = Vec::new();
        while !rest.is_empty() {
            let (record, n) = dec.decode(rest).unwrap();
            counts.push(match record {
                FrontRecord::Hits(hits) => hits.len(),
                FrontRecord::Miss(_) => 0,
            });
            rest = &rest[n..];
        }
        let tail = 2 * MAX_RUN_HITS + 3 - 10 - MAX_RUN_HITS;
        assert_eq!(counts, [10, 0, MAX_RUN_HITS, tail]);
    }

    #[test]
    fn a_run_splits_at_every_position() {
        let ops: Vec<FrontOp> = (0..9).map(|i| hit(i * 37, (i as usize) % 9 + 1)).collect();
        let bytes = encode_all(&ops);
        let (record, n) = FrontDecoder::new().decode(&bytes).unwrap();
        assert_eq!(n, bytes.len());
        let FrontRecord::Hits(run) = record else {
            panic!("one run record");
        };
        let hits = each(&run);
        let expected: Vec<(u64, usize)> = ops
            .iter()
            .map(|op| match kept(op) {
                Kept::Hit(_, n, depth) => (n, depth),
                Kept::Miss(_) => (0, 0),
            })
            .collect();
        assert_eq!(hits, expected);
        let total: u64 = hits.iter().map(|&(n, _)| n).sum();
        for cut in 0..=hits.len() {
            // The scan stops at the hit its callback refuses, having
            // seen each hit's instructions and depth bucket in order.
            let mut seen = Vec::new();
            let kept = run.scan(|n, bucket| {
                seen.push((n, bucket + 1));
                seen.len() <= cut
            });
            assert_eq!(kept, cut);
            assert_eq!(seen, hits[..(cut + 1).min(hits.len())]);
        }
        let mut sum = 0;
        assert_eq!(
            run.scan(|n, _| {
                sum += n;
                true
            }),
            hits.len()
        );
        assert_eq!(sum, total);
    }

    #[test]
    fn a_single_hit_is_a_run_of_one() {
        let mut scratch = [0; 8];
        let one = op(6, AccessKind::IFetch, 0x40, L1Outcome::Hit { distance: 3 });
        let hits = Hits::single(&one, &mut scratch);
        assert!(hits.ifetch());
        assert_eq!(hits.len(), 1);
        assert_eq!(each(&hits), [(7, 3)]);
        let wide = op(
            u32::MAX,
            AccessKind::Load,
            0x40,
            L1Outcome::Hit { distance: 99 },
        );
        let hits = Hits::single(&wide, &mut scratch);
        assert_eq!((hits.width(), hits.ifetch()), (5, false));
        assert_eq!(each(&hits), [(u64::from(u32::MAX) + 1, HIT_DEPTHS)]);
    }

    #[test]
    fn truncated_trace_rejected() {
        let miss = op(
            100,
            AccessKind::Load,
            1 << 40,
            L1Outcome::Miss { victim: None },
        );
        for ops in [vec![miss], vec![hit(1 << 20, 1), hit(3, 2)]] {
            let bytes = encode_all(&ops);
            for cut in 0..bytes.len() {
                let mut dec = FrontDecoder::new();
                assert_eq!(
                    dec.decode(&bytes[..cut]),
                    Err(TraceDecodeError::Truncated),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = encode_all(&[hit(1, 1)]);
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
            bytes.extend([0; 40]);
            FrontDecoder::new().decode(&bytes).map(|(_, n)| n)
        };
        let miss = OUTCOME_MISS << OUTCOME_SHIFT;
        let run = OUTCOME_RUN << OUTCOME_SHIFT;
        // A miss with a 5-byte gap, a 9-byte block or victim field, or
        // victim bytes without a victim.
        assert_eq!(
            rejected(miss | 5 << LEN_SHIFT, 0),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(rejected(miss, 9), Err(TraceDecodeError::Malformed));
        let victim = OUTCOME_CLEAN_VICTIM << OUTCOME_SHIFT;
        assert_eq!(
            rejected(victim, 9 << AUX_LEN_SHIFT),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(
            rejected(miss, 1 << AUX_LEN_SHIFT),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(
            rejected(victim | 4 << LEN_SHIFT, 8 | 8 << AUX_LEN_SHIFT),
            Ok(FRONT_RECORD_MAX)
        );
        // A run of no hits, of 0- or 6-byte entries, of stores, or with
        // the critical flag.
        assert_eq!(
            rejected(run | 1 << LEN_SHIFT, 0),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(rejected(run, 1), Err(TraceDecodeError::Malformed));
        assert_eq!(
            rejected(run | 6 << LEN_SHIFT, 1),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(
            rejected(run | KIND_STORE | 1 << LEN_SHIFT, 1),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(
            rejected(run | CRITICAL_BIT | 1 << LEN_SHIFT, 1),
            Err(TraceDecodeError::Malformed)
        );
        assert_eq!(rejected(run | KIND_IFETCH | 5 << LEN_SHIFT, 8), Ok(42));
    }

    #[test]
    fn a_five_byte_entry_wider_than_a_gap_is_rejected() {
        let mut bytes = vec![OUTCOME_RUN << OUTCOME_SHIFT | 5 << LEN_SHIFT, 1];
        bytes.extend([0xff; 5]);
        assert_eq!(
            FrontDecoder::new().decode(&bytes),
            Err(TraceDecodeError::Malformed)
        );
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
                            // Hits twice as often as each miss form, so
                            // runs of several hits are common.
                            0 | 1 => L1Outcome::Hit {
                                distance: usize::from(low_byte(extra) % 64),
                            },
                            2 => L1Outcome::Miss { victim: None },
                            o => L1Outcome::Miss {
                                victim: Some(Victim {
                                    block: BlockAddr(extra),
                                    dirty: o == 4,
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
                    (0u8..5, 0..=u64::MAX),
                ),
                len,
            )
        }

        proptest! {
            /// Encode/decode keeps every miss whole and every hit's
            /// side, gap and depth, and every record fits the
            /// documented size bounds.
            #[test]
            fn encode_decode_round_trips(raw in raw_ops(0..300)) {
                let ops = ops_of(raw);
                let bytes = encode_all(&ops);
                let misses = ops.iter().filter(|op| matches!(op.l1, L1Outcome::Miss { .. })).count();
                prop_assert!(bytes.len() >= 2 * misses);
                prop_assert!(bytes.len() <= FRONT_RECORD_MAX * ops.len() + 2);
                let back = decode_all(&bytes).map_err(|e| {
                    TestCaseError::Fail(format!("decode failed: {e}"))
                })?;
                prop_assert_eq!(back, ops.iter().map(kept).collect::<Vec<_>>());
            }

            /// Any strict prefix of a record is rejected as truncated —
            /// never mis-decoded.
            #[test]
            fn prefixes_are_rejected(raw in raw_ops(1..8), cut in 0usize..2 + 5 * MAX_RUN_HITS) {
                let bytes = encode_all(&ops_of(raw));
                let (_, n) = FrontDecoder::new().decode(&bytes).unwrap();
                let r = FrontDecoder::new().decode(&bytes[..cut % n]);
                prop_assert_eq!(r, Err(TraceDecodeError::Truncated));
            }
        }
    }
}
