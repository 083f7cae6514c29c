//! Per-core front ends: where a session's ops come from.
//!
//! A core's *front end* is its op stream plus its private L1 I/D pair.
//! A core's L1 sees only that core's own ops — no L2 organisation, bus
//! or other core reads or writes it — so the sequence of
//! [`FrontOp`]s (op plus L1 outcome) a front end yields depends only on
//! the stream and the L1 geometry, never on timing or on the scheme
//! behind the L1. A session consumes its ops from one of two sources:
//!
//! * **live** — the stream and an L1 pair owned by the session, the
//!   only source that can apply mid-run workload shifts;
//! * **shared** — a [`SharedFront`]: per-core record files, generated
//!   once and read by every session over the same workload. Whichever
//!   reader runs past the end of a core's file extends it from the
//!   front end's own live generator, under that core's lock, so no op
//!   budget has to be known up front.
//!
//! An I/O or decode error on a shared front end is a [`FrontError`]
//! naming the file: the session stops at the op it could not read and
//! reports it through [`crate::SimSession::front_error`]. Nothing falls
//! back to a live front end.

use sim_cache::SetAssocCache;
use sim_mem::{
    AccessKind, FrontDecoder, FrontEncoder, FrontOp, Geometry, L1Outcome, OpStream, ShiftDirective,
    TraceDecodeError, Victim, FRONT_RECORD_MAX,
};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bytes a reader buffers per core.
const READ_BUF_BYTES: usize = 8 * 1024;

/// Encoded bytes one extension of a shared core file appends (at
/// least; the last record may run past it).
const EXTEND_BYTES: usize = 16 * 1024;

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
}

/// The generating side of one shared core file.
struct Producer {
    live: LiveFront<dyn OpStream + Send>,
    encoder: FrontEncoder,
    /// Set when an extension failed after advancing the generator: the
    /// file can never be extended consistently again.
    broken: Option<String>,
}

/// One core's record file.
struct SharedCore {
    path: PathBuf,
    file: File,
    /// Bytes of complete records in the file. Written only under
    /// `producer`'s lock, after the bytes are.
    published: AtomicU64,
    producer: Mutex<Producer>,
}

/// One workload's front ends shared by every session simulated over it:
/// per-core record files of [`FrontOp`]s, extended on demand. The files
/// are deleted when the value drops.
pub struct SharedFront {
    l1: Geometry,
    labels: Vec<String>,
    cores: Vec<SharedCore>,
    /// The one encode buffer, borrowed by whichever core extends.
    encode_buf: Mutex<Vec<u8>>,
}

impl SharedFront {
    /// Create empty record files `dir/{name}-core{c}.front`, one per
    /// stream, fed by `streams` through L1s of geometry `l1`. Fails if
    /// a file already exists.
    pub fn create(
        dir: &Path,
        name: &str,
        streams: Vec<Box<dyn OpStream + Send>>,
        l1: Geometry,
    ) -> std::io::Result<SharedFront> {
        let labels = streams.iter().map(|s| s.label().to_string()).collect();
        let mut cores: Vec<SharedCore> = Vec::with_capacity(streams.len());
        for (c, stream) in streams.into_iter().enumerate() {
            let path = dir.join(format!("{name}-core{c}.front"));
            let file = match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => file,
                Err(e) => {
                    for made in &cores {
                        let _ = std::fs::remove_file(&made.path);
                    }
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("{}: {e}", path.display()),
                    ));
                }
            };
            cores.push(SharedCore {
                path,
                file,
                published: AtomicU64::new(0),
                producer: Mutex::new(Producer {
                    live: LiveFront::new(stream, l1),
                    encoder: FrontEncoder::new(),
                    broken: None,
                }),
            });
        }
        Ok(SharedFront {
            l1,
            labels,
            cores,
            encode_buf: Mutex::new(Vec::with_capacity(EXTEND_BYTES + FRONT_RECORD_MAX)),
        })
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

    /// Make core `core`'s file longer than `past` bytes (another reader
    /// may already have) and return its published length.
    fn extend(&self, core: usize, past: u64) -> Result<u64, FrontError> {
        let track = &self.cores[core];
        let fail = |message: String| FrontError {
            path: track.path.clone(),
            message,
        };
        // A poisoned lock means an extension panicked half-way, so the
        // file and the generator may disagree: fail rather than go on.
        let mut producer = track
            .producer
            .lock()
            .map_err(|_| fail("an earlier extension panicked".into()))?;
        if let Some(broken) = &producer.broken {
            return Err(fail(broken.clone()));
        }
        let written = track.published.load(Ordering::Acquire);
        if written > past {
            return Ok(written);
        }
        // Cleared before every use, so a poisoned buffer is as good as
        // a fresh one.
        let mut buf = self
            .encode_buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        buf.clear();
        let Producer {
            live,
            encoder,
            broken,
        } = &mut *producer;
        while buf.len() < EXTEND_BYTES {
            encoder.encode(&live.next_op(), &mut buf);
        }
        if let Err(e) = track.file.write_all_at(&buf, written) {
            let message = format!("write failed: {e}");
            *broken = Some(message.clone());
            return Err(fail(message));
        }
        let now = written + buf.len() as u64;
        track.published.store(now, Ordering::Release);
        Ok(now)
    }
}

/// A shared front end's record file could not be read, written or
/// decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontError {
    /// The record file.
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
    /// records of at least [`EXTEND_BYTES`], so after a refill the
    /// buffer holds at least one complete record.
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

    /// Apply a workload shift to a live stream. Shared front ends never
    /// shift: the session builder refuses a phase schedule over them.
    pub(crate) fn apply_shift(&mut self, directive: &ShiftDirective) -> bool {
        match self {
            CoreFront::Live(live) => live.stream.apply_shift(directive),
            CoreFront::Shared(_) => false,
        }
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

    fn stream(core: u64) -> VecStream {
        // More blocks than the tiny L1 holds, with stores, so the
        // records carry hits, misses and dirty victims.
        let ops: Vec<_> = (0..97u64)
            .map(|i| {
                let addr = (core * 10_000 + (i * 7) % 97) * 64;
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

    #[test]
    fn readers_see_the_live_sequence_and_drop_deletes_the_files() {
        let dir = scratch("seq");
        let streams: Vec<Box<dyn OpStream + Send>> =
            (0..2).map(|c| Box::new(stream(c)) as _).collect();
        let front = Arc::new(SharedFront::create(&dir, "t", streams, geo()).unwrap());
        assert_eq!(front.labels, ["s0", "s1"]);
        let mut live: Vec<LiveFront> = (0..2)
            .map(|c| LiveFront::new(Box::new(stream(c)) as Box<dyn OpStream>, geo()))
            .collect();
        // Two readers per core at different paces: the second starts
        // after the first has already extended the file several times.
        let mut first: Vec<FrontReader> =
            (0..2).map(|c| FrontReader::new(front.clone(), c)).collect();
        let mut expected: Vec<Vec<FrontOp>> = vec![Vec::new(); 2];
        for _ in 0..20_000 {
            for c in 0..2 {
                let op = live[c].next_op();
                assert_eq!(first[c].next_op(), Ok(op));
                expected[c].push(op);
            }
        }
        for core in &front.cores {
            assert!(core.published.load(Ordering::Acquire) > 2 * EXTEND_BYTES as u64);
        }
        for (c, ops) in expected.iter().enumerate() {
            let mut late = FrontReader::new(front.clone(), c);
            for op in ops {
                assert_eq!(late.next_op(), Ok(*op));
            }
        }
        let paths: Vec<PathBuf> = front.paths().map(Path::to_path_buf).collect();
        assert!(paths.iter().all(|p| p.exists()));
        drop(first);
        drop(front);
        assert!(paths.iter().all(|p| !p.exists()), "files deleted on drop");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_files_and_cleans_up() {
        let dir = scratch("exists");
        std::fs::write(dir.join("t-core1.front"), b"x").unwrap();
        let streams: Vec<Box<dyn OpStream + Send>> =
            (0..2).map(|c| Box::new(stream(c)) as _).collect();
        let err = SharedFront::create(&dir, "t", streams, geo())
            .err()
            .expect("core 1's file exists");
        assert!(err.to_string().contains("t-core1.front"), "{err}");
        assert!(!dir.join("t-core0.front").exists(), "core 0 rolled back");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_record_fails_naming_the_file() {
        let dir = scratch("corrupt");
        let streams: Vec<Box<dyn OpStream + Send>> = vec![Box::new(stream(0))];
        let front = Arc::new(SharedFront::create(&dir, "t", streams, geo()).unwrap());
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
}
