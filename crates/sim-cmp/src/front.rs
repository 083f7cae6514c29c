//! Per-core front ends: where a session's ops come from.
//!
//! A core's *front end* is its op stream plus its private L1 I/D pair.
//! A core's L1 sees only that core's own ops — no L2 organisation, bus
//! or other core reads or writes it — so the sequence of
//! [`FrontOp`]s (op plus L1 outcome) a front end yields depends only on
//! the stream and the L1 geometry, never on timing or on the scheme
//! behind the L1. A session consumes its ops from one of two sources:
//!
//! * **live** — the stream and an L1 pair owned by the session;
//! * **shared** — a [`SharedFront`]: per-core record files, generated
//!   once and read by every session over the same workload. Whichever
//!   reader runs past the end of a core's file extends it — one reader
//!   per core at a time, publishing records chunk by chunk so that the
//!   others go on meanwhile — so no op budget has to be known up front.
//!
//! A shared front end keeps no generator or L1 in memory. Each core has
//! a checkpoint file beside its record file: an extension restores the
//! generator and L1 state the last one ended at, generates a fixed
//! number of ops and saves the state it reached.
//!
//! A workload shift changes only the generator, and it lands at the
//! first op a core runs once the frontier reaches the shift cycle, so
//! until then a shifted session's ops are the shared ones. At a core's
//! first shift the session *forks* it: it restores the nearest
//! checkpoint at or before the ops it has read, regenerates the rest and
//! goes on live from exactly there. A front end created for sessions
//! with a phase schedule ([`Checkpoints::All`]) keeps a checkpoint every
//! 4 Ki ops, so a fork regenerates fewer than that; otherwise only the
//! latest is kept.
//!
//! An I/O, decode or restore error on a shared front end is a
//! [`FrontError`] naming the file: the session stops at the op it could
//! not read or the shift it could not fork at, and reports it through
//! [`crate::SimSession::front_error`]. Nothing falls back to a live
//! front end.

use sim_cache::SetAssocCache;
use sim_mem::{
    AccessKind, FrontDecoder, FrontEncoder, FrontOp, Geometry, L1Outcome, OpStream, ShiftDirective,
    StateError, StateReader, TraceDecodeError, Victim, FRONT_RECORD_MAX,
};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};

/// Ops between two checkpoints a shared core keeps under
/// [`Checkpoints::All`]: a fork regenerates fewer.
const CHECKPOINT_SPACING: u64 = 4 * 1024;

/// Ops one extension generates, ending at a checkpoint: long enough
/// that restoring and saving the state costs a few percent of
/// generating them, short enough that the ops a combo's units never
/// read cost little.
const EXTEND_OPS: u64 = 4 * CHECKPOINT_SPACING;

/// Bytes a reader buffers per core.
const READ_BUF_BYTES: usize = 8 * 1024;

/// Encoded bytes an extension buffers before writing them out.
const WRITE_CHUNK: usize = 16 * 1024;

/// Builds core `c`'s op stream from its first op.
type Generator = dyn Fn(usize) -> Box<dyn OpStream + Send> + Send + Sync;

/// A live front end: one op stream behind its own L1 I/D pair.
pub(crate) struct LiveFront<S: OpStream + ?Sized = dyn OpStream> {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    block_bytes: u64,
    stream: Box<S>,
}

impl<S: OpStream + ?Sized> LiveFront<S> {
    pub(crate) fn new(stream: Box<S>, l1: Geometry) -> Self {
        LiveFront {
            l1i: SetAssocCache::new(l1),
            l1d: SetAssocCache::new(l1),
            block_bytes: l1.block_bytes,
            stream,
        }
    }

    /// Generate the next op and run its reference through the L1.
    #[inline]
    pub(crate) fn next_op(&mut self) -> FrontOp {
        let op = self.stream.next_op();
        let block = op.access.addr.block(self.block_bytes);
        let l1 = match op.access.kind {
            AccessKind::IFetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        let r = l1.access(block, op.access.kind.is_write());
        FrontOp {
            gap: op.gap,
            kind: op.access.kind,
            critical: op.critical,
            block,
            l1: match r.distance {
                Some(distance) => L1Outcome::Hit { distance },
                None => L1Outcome::Miss {
                    victim: r.evicted.map(|ev| Victim {
                        block: ev.block,
                        dirty: ev.flags.dirty,
                    }),
                },
            },
        }
    }

    /// The checkpoint of this front end: a checksum, then the stream's
    /// state and both L1s'. `None` if the stream cannot be saved.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        // Checksum and stream-state length are patched in below.
        let mut blob = vec![0; 16];
        if !self.stream.save_state(&mut blob) {
            return None;
        }
        let len = blob.len() as u64 - 16;
        blob[8..16].copy_from_slice(&len.to_le_bytes());
        self.l1i.save_state(&mut blob);
        self.l1d.save_state(&mut blob);
        let sum = checksum(&blob[8..]);
        blob[..8].copy_from_slice(&sum.to_le_bytes());
        Some(blob)
    }

    /// Continue from a [`LiveFront::checkpoint`] of a front end built
    /// the same way.
    fn restore(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let sum = r.u64()?;
        if checksum(&blob[8..]) != sum {
            return Err(StateError::Invalid("checksum"));
        }
        let len = r.count("stream state")?;
        self.stream.restore_state(r.bytes(len)?)?;
        self.l1i.restore_state(&mut r)?;
        self.l1d.restore_state(&mut r)?;
        r.finish()
    }
}

/// A word-at-a-time multiplicative hash guarding checkpoints against
/// corruption that would still decode.
fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    words
        .iter()
        .chain(std::iter::once(&last))
        .fold(bytes.len() as u64, |h, w| {
            (h.rotate_left(5) ^ u64::from_le_bytes(*w)).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
}

/// Which checkpoints a [`SharedFront`] keeps on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkpoints {
    /// Only the latest: all an extension needs.
    Latest,
    /// One every 4 Ki ops, so that a session with a phase schedule can
    /// fork a core at any op cheaply.
    All,
}

/// One saved generator and L1 state of a shared core.
#[derive(Clone, Copy)]
struct Checkpoint {
    /// Ops in the record file before it.
    op: u64,
    /// The record encoder's state there.
    prev_block: u64,
    /// Its offset in the checkpoint file.
    at: u64,
    /// Its length in bytes.
    len: usize,
}

/// The generating side of one shared core file.
struct Producer {
    /// Ascending by op; the last one is where the last finished
    /// extension ended.
    checkpoints: Vec<Checkpoint>,
    /// Whether a reader is extending the files, with the lock released.
    extending: bool,
    /// Set when an extension failed: the files can never be extended
    /// consistently again.
    broken: Option<FrontError>,
}

/// One core's record and checkpoint files.
struct SharedCore {
    path: PathBuf,
    file: File,
    checkpoint_path: PathBuf,
    checkpoint_file: File,
    /// Bytes of complete records in the file. Written only by the
    /// extending reader, after the bytes are.
    published: AtomicU64,
    producer: Mutex<Producer>,
    /// Signalled when `published` grows or an extension ends.
    grown: Condvar,
}

/// A [`FrontError`] on `path`.
fn fail(path: &Path, message: String) -> FrontError {
    FrontError {
        path: path.to_path_buf(),
        message,
    }
}

impl SharedCore {
    /// The producer, unless an extension failed.
    fn producer(&self) -> Result<MutexGuard<'_, Producer>, FrontError> {
        self.usable(self.producer.lock())
    }

    /// `locked`, unless an extension failed: then the files and the
    /// index may disagree.
    fn usable<'a>(
        &self,
        locked: LockResult<MutexGuard<'a, Producer>>,
    ) -> Result<MutexGuard<'a, Producer>, FrontError> {
        let producer = locked.map_err(|_| self.panicked())?;
        match &producer.broken {
            Some(broken) => Err(broken.clone()),
            None => Ok(producer),
        }
    }

    fn panicked(&self) -> FrontError {
        fail(&self.path, "an earlier extension panicked".into())
    }

    /// Publish the records up to `end` and wake the readers waiting for
    /// them.
    fn publish(&self, end: u64) {
        self.published.store(end, Ordering::Release);
        // A waiter checks `published` and starts waiting under the
        // lock: taking it here means none misses this wake-up.
        drop(self.producer.lock());
        self.grown.notify_all();
    }
}

/// A reader's claim on extending one core: ends the extension when
/// dropped and wakes the readers waiting on it.
struct Extension<'a> {
    core: &'a SharedCore,
    /// What breaks the core when the claim drops: the extension's error,
    /// a panic until it returns, nothing once it has succeeded.
    failure: Option<FrontError>,
}

impl Drop for Extension<'_> {
    fn drop(&mut self) {
        let mut producer = self
            .core
            .producer
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        producer.extending = false;
        producer.broken = self.failure.take();
        drop(producer);
        self.core.grown.notify_all();
    }
}

/// One workload's front ends shared by every session simulated over it:
/// per-core record files of [`FrontOp`]s, extended on demand from
/// per-core checkpoint files (see the module docs). The files are
/// deleted when the value drops.
pub struct SharedFront {
    l1: Geometry,
    labels: Vec<String>,
    cores: Vec<SharedCore>,
    generator: Box<Generator>,
    keep: Checkpoints,
}

impl SharedFront {
    /// Create empty files `dir/{name}-core{c}.front` (records) and
    /// `dir/{name}-core{c}.ckpt` (checkpoints) for `cores` cores, whose
    /// ops `generator(c)` generates through L1s of geometry `l1`.
    /// `generator` must build the same stream every time it is called.
    /// Fails if a file already exists or a stream cannot be
    /// checkpointed ([`OpStream::save_state`]): such a workload cannot
    /// be shared.
    pub fn create(
        dir: &Path,
        name: &str,
        cores: usize,
        generator: impl Fn(usize) -> Box<dyn OpStream + Send> + Send + Sync + 'static,
        l1: Geometry,
        keep: Checkpoints,
    ) -> std::io::Result<SharedFront> {
        let mut front = SharedFront {
            l1,
            labels: Vec::with_capacity(cores),
            cores: Vec::with_capacity(cores),
            generator: Box::new(generator),
            keep,
        };
        let open = |path: PathBuf| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .map(|file| (path.clone(), file))
                .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        };
        // Files made so far are deleted by `front`'s drop on every
        // error return.
        for c in 0..cores {
            let stream = (front.generator)(c);
            if !stream.save_state(&mut Vec::new()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "core {c}'s stream `{}` cannot be checkpointed",
                        stream.label()
                    ),
                ));
            }
            let (path, file) = open(dir.join(format!("{name}-core{c}.front")))?;
            let (checkpoint_path, checkpoint_file) =
                match open(dir.join(format!("{name}-core{c}.ckpt"))) {
                    Ok(opened) => opened,
                    Err(e) => {
                        let _ = std::fs::remove_file(&path);
                        return Err(e);
                    }
                };
            front.labels.push(stream.label().to_string());
            front.cores.push(SharedCore {
                path,
                file,
                checkpoint_path,
                checkpoint_file,
                published: AtomicU64::new(0),
                producer: Mutex::new(Producer {
                    checkpoints: Vec::new(),
                    extending: false,
                    broken: None,
                }),
                grown: Condvar::new(),
            });
        }
        Ok(front)
    }

    /// Number of cores (record files).
    pub(crate) fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The L1 geometry the records were produced under.
    pub(crate) fn l1(&self) -> Geometry {
        self.l1
    }

    /// The per-core record files.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        self.cores.iter().map(|c| c.path.as_path())
    }

    /// The per-core checkpoint files.
    pub fn checkpoint_paths(&self) -> impl Iterator<Item = &Path> {
        self.cores.iter().map(|c| c.checkpoint_path.as_path())
    }

    /// Core `core`'s front end at op 0, or restored from checkpoint
    /// `ck`.
    fn resume(
        &self,
        core: usize,
        ck: Option<Checkpoint>,
    ) -> Result<LiveFront<dyn OpStream + Send>, FrontError> {
        let mut live = LiveFront::new((self.generator)(core), self.l1);
        if let Some(ck) = ck {
            let path = &self.cores[core].checkpoint_path;
            let mut blob = vec![0; ck.len];
            self.cores[core]
                .checkpoint_file
                .read_exact_at(&mut blob, ck.at)
                .map_err(|e| fail(path, format!("read failed: {e}")))?;
            live.restore(&blob)
                .map_err(|e| fail(path, format!("checkpoint at byte {}: {e}", ck.at)))?;
        }
        Ok(live)
    }

    /// Make core `core`'s file longer than `past` bytes and return its
    /// published length. Another reader may be extending it already:
    /// then wait until that one has published past `past`.
    fn extend(&self, core: usize, past: u64) -> Result<u64, FrontError> {
        let track = &self.cores[core];
        let mut producer = track.producer()?;
        loop {
            let written = track.published.load(Ordering::Acquire);
            if written > past {
                return Ok(written);
            }
            if !producer.extending {
                break;
            }
            producer = track.usable(track.grown.wait(producer))?;
        }
        producer.extending = true;
        let latest = producer.checkpoints.last().copied();
        drop(producer);
        let mut extension = Extension {
            core: track,
            failure: Some(track.panicked()),
        };
        let appended = self.append(core, latest);
        extension.failure = appended.as_ref().err().cloned();
        appended
    }

    /// Append [`EXTEND_OPS`] ops to core `core`'s record file from its
    /// latest checkpoint, without the lock: records are published chunk
    /// by chunk as they are written, so waiting readers go on before the
    /// extension ends. The last checkpoint, which may overwrite the
    /// latest one, is written and indexed under the lock.
    fn append(&self, core: usize, latest: Option<Checkpoint>) -> Result<u64, FrontError> {
        let track = &self.cores[core];
        let mut live = self.resume(core, latest)?;
        let mut encoder =
            latest.map_or_else(FrontEncoder::new, |ck| FrontEncoder::resume(ck.prev_block));
        let from = latest.map_or(0, |ck| ck.op);
        let mut at = match (self.keep, latest) {
            (Checkpoints::All, Some(ck)) => ck.at + ck.len as u64,
            _ => 0,
        };
        let mut end = track.published.load(Ordering::Acquire);
        let mut made = Vec::new();
        let mut buf = Vec::with_capacity(WRITE_CHUNK + FRONT_RECORD_MAX);
        for i in 1..=EXTEND_OPS {
            encoder.encode(&live.next_op(), &mut buf);
            let last = i == EXTEND_OPS;
            let checkpoint = last || (self.keep == Checkpoints::All && i % CHECKPOINT_SPACING == 0);
            if buf.len() < WRITE_CHUNK && !checkpoint {
                continue;
            }
            track
                .file
                .write_all_at(&buf, end)
                .map_err(|e| fail(&track.path, format!("write failed: {e}")))?;
            end += buf.len() as u64;
            buf.clear();
            if !checkpoint {
                track.publish(end);
                continue;
            }
            let path = &track.checkpoint_path;
            let blob = live
                .checkpoint()
                .ok_or_else(|| fail(path, "the stream can no longer be checkpointed".into()))?;
            let ck = Checkpoint {
                op: from + i,
                prev_block: encoder.prev_block(),
                at,
                len: blob.len(),
            };
            let producer = if last { Some(track.producer()?) } else { None };
            track
                .checkpoint_file
                .write_all_at(&blob, at)
                .map_err(|e| fail(path, format!("write failed: {e}")))?;
            at += blob.len() as u64;
            made.push(ck);
            match producer {
                Some(mut producer) => {
                    if self.keep == Checkpoints::Latest {
                        producer.checkpoints.clear();
                    }
                    producer.checkpoints.append(&mut made);
                    track.published.store(end, Ordering::Release);
                }
                None => track.publish(end),
            }
        }
        Ok(end)
    }

    /// Core `core`'s front end positioned after its first `ops` ops, as
    /// a live front end of its own: the nearest checkpoint at or before
    /// `ops` restored (op 0 if none is kept) and the rest regenerated.
    fn fork(&self, core: usize, ops: u64) -> Result<LiveFront, FrontError> {
        let (mut live, from) = {
            // Under `Checkpoints::Latest` an extension rewrites the
            // checkpoint in place: restore it under the lock.
            let producer = self.cores[core].producer()?;
            let nearest = producer.checkpoints.partition_point(|ck| ck.op <= ops);
            let ck = nearest.checked_sub(1).map(|i| producer.checkpoints[i]);
            (self.resume(core, ck)?, ck.map_or(0, |ck| ck.op))
        };
        for _ in from..ops {
            live.next_op();
        }
        let LiveFront {
            l1i,
            l1d,
            block_bytes,
            stream,
        } = live;
        Ok(LiveFront {
            l1i,
            l1d,
            block_bytes,
            stream,
        })
    }
}

/// A shared front end's record or checkpoint file could not be read,
/// written, decoded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontError {
    /// The record or checkpoint file.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared front end {}: {}",
            self.path.display(),
            self.message
        )
    }
}

impl std::error::Error for FrontError {}

impl Drop for SharedFront {
    fn drop(&mut self) {
        for core in &self.cores {
            let _ = std::fs::remove_file(&core.path);
            let _ = std::fs::remove_file(&core.checkpoint_path);
        }
    }
}

/// A session's sequential reader over one core of a [`SharedFront`].
pub(crate) struct FrontReader {
    front: Arc<SharedFront>,
    core: usize,
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// File offset of `buf[end]`.
    file_off: u64,
    decoder: FrontDecoder,
    /// Ops read so far.
    ops: u64,
}

impl FrontReader {
    pub(crate) fn new(front: Arc<SharedFront>, core: usize) -> Self {
        FrontReader {
            front,
            core,
            buf: vec![0; READ_BUF_BYTES].into_boxed_slice(),
            pos: 0,
            end: 0,
            file_off: 0,
            decoder: FrontDecoder::new(),
            ops: 0,
        }
    }

    #[inline]
    pub(crate) fn next_op(&mut self) -> Result<FrontOp, FrontError> {
        if self.end - self.pos < FRONT_RECORD_MAX {
            self.refill()?;
        }
        // Whole records end at or before `end`; the window may run past
        // it into stale bytes the decoder masks off. A refill leaves
        // `pos` at 0 whenever fewer than a window's bytes remain, so the
        // window always fits the buffer.
        let valid = self.end - self.pos;
        let decoded = match self.buf[self.pos..].first_chunk::<FRONT_RECORD_MAX>() {
            Some(window) => self.decoder.decode_window(window, valid),
            None => Err(TraceDecodeError::Truncated),
        };
        match decoded {
            Ok((op, n)) => {
                self.pos += n;
                self.ops += 1;
                Ok(op)
            }
            Err(e) => Err(FrontError {
                path: self.front.cores[self.core].path.clone(),
                message: format!("{e} at byte {}", self.file_off - valid as u64),
            }),
        }
    }

    /// Top the buffer up from the file, extending the file first when
    /// this reader has consumed all of it. Extensions append whole
    /// records, so after a refill the buffer holds at least one
    /// complete record.
    #[cold]
    fn refill(&mut self) -> Result<(), FrontError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let track = &self.front.cores[self.core];
        let mut avail = track.published.load(Ordering::Acquire);
        if avail <= self.file_off {
            avail = self.front.extend(self.core, self.file_off)?;
        }
        let room = self.buf.len() - self.end;
        let want = usize::try_from(avail - self.file_off).map_or(room, |n| n.min(room));
        let dst = &mut self.buf[self.end..self.end + want];
        track
            .file
            .read_exact_at(dst, self.file_off)
            .map_err(|e| FrontError {
                path: track.path.clone(),
                message: format!("read failed: {e}"),
            })?;
        self.end += want;
        self.file_off += want as u64;
        Ok(())
    }
}

/// A session core's front end.
#[expect(
    clippy::large_enum_variant,
    reason = "one per core, held in place for the whole run; boxing the live L1 pair would add a pointer chase per op"
)]
pub(crate) enum CoreFront {
    Live(LiveFront),
    Shared(FrontReader),
}

impl CoreFront {
    #[inline]
    pub(crate) fn next_op(&mut self) -> Result<FrontOp, FrontError> {
        match self {
            CoreFront::Live(live) => Ok(live.next_op()),
            CoreFront::Shared(reader) => reader.next_op(),
        }
    }

    pub(crate) fn label(&self) -> &str {
        match self {
            CoreFront::Live(live) => live.stream.label(),
            CoreFront::Shared(reader) => &reader.front.labels[reader.core],
        }
    }

    /// Apply a workload shift, forking a shared core into a live front
    /// end positioned after the ops it has read. Returns whether the
    /// stream understood the directive.
    pub(crate) fn apply_shift(&mut self, directive: &ShiftDirective) -> Result<bool, FrontError> {
        if let CoreFront::Shared(reader) = self {
            *self = CoreFront::Live(reader.front.fork(reader.core, reader.ops)?);
        }
        Ok(match self {
            CoreFront::Live(live) => live.stream.apply_shift(directive),
            CoreFront::Shared(_) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::VecStream;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sim-cmp-front-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stream(core: usize) -> VecStream {
        // More blocks than the tiny L1 holds, with stores, so the
        // records carry hits, misses and dirty victims.
        let ops: Vec<_> = (0..97u64)
            .map(|i| {
                let addr = (core as u64 * 10_000 + (i * 7) % 97) * 64;
                if i % 3 == 0 {
                    sim_mem::CoreOp::new((i % 11) as u32, sim_mem::Access::store(addr))
                } else {
                    sim_mem::CoreOp::critical((i % 5) as u32, sim_mem::Access::load(addr))
                }
            })
            .collect();
        VecStream::cycle(format!("s{core}"), ops)
    }

    fn geo() -> Geometry {
        crate::SystemConfig::tiny_test().l1
    }

    fn front(dir: &Path, cores: usize, keep: Checkpoints) -> std::io::Result<SharedFront> {
        SharedFront::create(dir, "t", cores, |c| Box::new(stream(c)), geo(), keep)
    }

    fn live(core: usize) -> LiveFront {
        LiveFront::new(Box::new(stream(core)) as Box<dyn OpStream>, geo())
    }

    #[test]
    fn readers_see_the_live_sequence_and_drop_deletes_the_files() {
        let dir = scratch("seq");
        let front = Arc::new(front(&dir, 2, Checkpoints::Latest).unwrap());
        assert_eq!(front.labels, ["s0", "s1"]);
        let mut live: Vec<LiveFront> = (0..2).map(live).collect();
        // Two readers per core at different paces: the second starts
        // after the first has already extended the file several times.
        let mut first: Vec<FrontReader> =
            (0..2).map(|c| FrontReader::new(front.clone(), c)).collect();
        let mut expected: Vec<Vec<FrontOp>> = vec![Vec::new(); 2];
        for _ in 0..3 * EXTEND_OPS + 5 {
            for c in 0..2 {
                let op = live[c].next_op();
                assert_eq!(first[c].next_op(), Ok(op));
                expected[c].push(op);
            }
        }
        for core in &front.cores {
            let producer = core.producer.lock().unwrap();
            assert_eq!(producer.checkpoints.len(), 1, "only the latest is kept");
            assert_eq!(producer.checkpoints[0].op, 4 * EXTEND_OPS);
        }
        for (c, ops) in expected.iter().enumerate() {
            let mut late = FrontReader::new(front.clone(), c);
            for op in ops {
                assert_eq!(late.next_op(), Ok(*op));
            }
        }
        let paths: Vec<PathBuf> = front
            .paths()
            .chain(front.checkpoint_paths())
            .map(Path::to_path_buf)
            .collect();
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.exists()));
        drop(first);
        drop(front);
        assert!(paths.iter().all(|p| !p.exists()), "files deleted on drop");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_racing_to_extend_one_core_all_see_the_live_sequence() {
        let dir = scratch("race");
        let front = Arc::new(front(&dir, 1, Checkpoints::All).unwrap());
        let expected: Vec<FrontOp> = {
            let mut reference = live(0);
            (0..3 * EXTEND_OPS).map(|_| reference.next_op()).collect()
        };
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut reader = FrontReader::new(front.clone(), 0);
                    start.wait();
                    for (i, op) in expected.iter().enumerate() {
                        assert_eq!(reader.next_op().as_ref(), Ok(op), "op {i}");
                    }
                });
            }
        });
        let producer = front.cores[0].producer().unwrap();
        assert!(!producer.extending);
        let ops: Vec<u64> = producer.checkpoints.iter().map(|ck| ck.op).collect();
        let spaced: Vec<u64> = (1..=ops.len() as u64)
            .map(|k| k * CHECKPOINT_SPACING)
            .collect();
        assert_eq!(ops, spaced, "one checkpoint per spacing, in order");
        drop(producer);
        drop(front);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fork_continues_exactly_where_its_reader_stopped() {
        let dir = scratch("fork");
        for keep in [Checkpoints::All, Checkpoints::Latest] {
            let front = Arc::new(front(&dir, 1, keep).unwrap());
            // Another reader runs far ahead, so the latest checkpoint
            // lies past every fork below.
            let mut ahead = FrontReader::new(front.clone(), 0);
            for _ in 0..2 * EXTEND_OPS + 1 {
                ahead.next_op().unwrap();
            }
            let (s, e) = (CHECKPOINT_SPACING, EXTEND_OPS);
            for ops in [0, 1, s - 1, s, s + 1, 2 * s + 777, e, e + s + 3, 3 * e - 1] {
                let mut reader = FrontReader::new(front.clone(), 0);
                let mut reference = live(0);
                for _ in 0..ops {
                    assert_eq!(reader.next_op(), Ok(reference.next_op()));
                }
                let mut fork = front.fork(0, reader.ops).unwrap();
                for i in 0..3_000 {
                    assert_eq!(fork.next_op(), reference.next_op(), "{keep:?} {ops}+{i}");
                }
            }
            let kept = front.cores[0].producer.lock().unwrap().checkpoints.len();
            // Reading up to the third extension's end (less a few short
            // records the reader refills early for) made a fourth.
            let all = usize::try_from(4 * EXTEND_OPS / CHECKPOINT_SPACING).unwrap();
            assert_eq!(kept, if keep == Checkpoints::All { all } else { 1 });
            drop((ahead, front));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_files_and_cleans_up() {
        let dir = scratch("exists");
        std::fs::write(dir.join("t-core1.ckpt"), b"x").unwrap();
        let err = front(&dir, 2, Checkpoints::All)
            .err()
            .expect("core 1's checkpoint file exists");
        assert!(err.to_string().contains("t-core1.ckpt"), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "everything but the stray file rolled back");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_streams_without_checkpoints() {
        let dir = scratch("opaque");
        struct Opaque(VecStream);
        impl OpStream for Opaque {
            fn next_op(&mut self) -> sim_mem::CoreOp {
                self.0.next_op()
            }
            fn label(&self) -> &str {
                self.0.label()
            }
        }
        let err = SharedFront::create(
            &dir,
            "o",
            1,
            |c| Box::new(Opaque(stream(c))),
            geo(),
            Checkpoints::Latest,
        )
        .err()
        .expect("an opaque stream cannot be shared");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("`s0` cannot be checkpointed"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_record_fails_naming_the_file() {
        let dir = scratch("corrupt");
        let front = Arc::new(front(&dir, 1, Checkpoints::Latest).unwrap());
        let mut reader = FrontReader::new(front.clone(), 0);
        reader.next_op().unwrap();
        // Overwrite the file with an unknown access kind in every byte.
        let path = front.paths().next().unwrap().to_path_buf();
        let len = usize::try_from(front.cores[0].published.load(Ordering::Acquire)).unwrap();
        front.cores[0]
            .file
            .write_all_at(&vec![0xff; len], 0)
            .unwrap();
        let mut fresh = FrontReader::new(front.clone(), 0);
        let err = fresh.next_op().expect_err("garbage must not decode");
        assert_eq!(err.path, path);
        assert_eq!(err.message, "unknown access kind 3 at byte 0");
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        drop((reader, fresh, front));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_checkpoint_fails_extensions_and_forks_naming_the_file() {
        let dir = scratch("ckpt");
        let front = Arc::new(front(&dir, 1, Checkpoints::All).unwrap());
        let mut reader = FrontReader::new(front.clone(), 0);
        for _ in 0..EXTEND_OPS + 1 {
            reader.next_op().unwrap();
        }
        // Two extensions' checkpoints, all the same length: flip one bit
        // in the stream state of the one a fork here restores and of the
        // latest, which the next extension restores.
        let path = front.checkpoint_paths().next().unwrap().to_path_buf();
        let mut blobs = std::fs::read(&path).unwrap();
        let kept = usize::try_from(2 * EXTEND_OPS / CHECKPOINT_SPACING).unwrap();
        let len = blobs.len() / kept;
        let (forked, latest) = (len * (kept / 2 - 1), len * (kept - 1));
        blobs[forked + 17] ^= 1;
        blobs[latest + 17] ^= 1;
        std::fs::write(&path, &blobs).unwrap();
        let expected = format!(
            "checkpoint at byte {forked}: {}",
            StateError::Invalid("checksum")
        );
        let err = front.fork(0, reader.ops).err().expect("fork restores it");
        assert_eq!((&err.path, &err.message), (&path, &expected));
        let err = loop {
            match reader.next_op() {
                Ok(_) => assert!(reader.ops <= 2 * EXTEND_OPS),
                Err(e) => break e,
            }
        };
        let expected_latest = format!(
            "checkpoint at byte {latest}: {}",
            StateError::Invalid("checksum")
        );
        assert_eq!((&err.path, &err.message), (&path, &expected_latest));
        // A reader refills while it still holds a few short records.
        assert!(reader.ops > 2 * EXTEND_OPS - FRONT_RECORD_MAX as u64);
        // A failed extension breaks the core: later forks and
        // extensions fail with its error, even before any checkpoint.
        let err = front.fork(0, 1).err().expect("the core is broken");
        assert_eq!((&err.path, &err.message), (&path, &expected_latest));
        let mut late = FrontReader::new(front.clone(), 0);
        assert_eq!(
            late.next_op().map(|_| ()),
            Ok(()),
            "published records stay readable"
        );
        drop((reader, front));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
