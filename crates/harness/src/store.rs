//! The content-addressed result store.
//!
//! Results persist as JSONL under a directory (default `results/`): one
//! line per completed unit job, keyed by the job's content hash
//! ([`crate::spec::unit_key`]). Loading tolerates a missing file (empty
//! store) and rejects corrupt lines loudly rather than serving bad data.
//! Appends go straight to disk, so an interrupted sweep keeps everything
//! it finished.
//!
//! ## Files
//!
//! * [`STORE_FILE`] (`store.jsonl`) — the deterministic truth: unit
//!   and series entries. Byte-identical for `--jobs 1` and
//!   `--jobs N` sweeps, because sweeps merge results into it in job
//!   order at sweep end.
//! * `SPANS_FILE` (`spans.jsonl`) — wall-clock execution telemetry
//!   ([`UnitSpan`]), kept out of `store.jsonl` precisely because wall
//!   time is *not* deterministic. Span entries found in a legacy
//!   `store.jsonl` still decode; [`ResultStore::compact`] migrates them
//!   to the sidecar.
//! * [`SHARDS_DIR`]`/worker-N.jsonl` — per-worker append-only shards a
//!   running sweep writes for crash durability; merged into the main
//!   store and deleted at sweep end. Leftover shards (a killed sweep)
//!   are recovered through `ResultStore::recover_shards` under the
//!   usual merge semantics.
//! * `FRONTS_DIR/front{N}-core{C}.front` — shared front-end record
//!   files of an in-flight sweep (see [`crate::run_sweep`]): created on the
//!   first unit that reads them, deleted when the last one finishes,
//!   and the directory removed before the sweep returns. A leftover
//!   directory (a killed sweep) is cleared when the next sweep starts.
//!
//! ## Key schema
//!
//! Keys are [`crate::spec::SCHEMA_VERSION`] (v2) content hashes: one
//! line per *(combo, scheme point)* simulation, value a
//! [`snug_experiments::SchemeRun`] under the `"unit"` field. A key is a
//! 128-bit [`ContentKey`], written as 32 lowercase hex digits; a line
//! whose `key` is spelled any other way is corrupt. A v1 line (a whole
//! five-scheme comparison under a `"result"` field) is rejected as
//! corrupt: the v1 schema is no longer read.

use crate::codec::JsonCodec;
use crate::hash::ContentKey;
use crate::json::{self, JsonError, JsonReader, JsonWriter};
use crate::sweep::UnitSpan;
use snug_experiments::{SchemeRun, TraceSeries};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// File name of the JSONL store inside the results directory.
pub const STORE_FILE: &str = "store.jsonl";

/// File name of the execution-telemetry sidecar inside the results
/// directory. Spans live here so `store.jsonl` stays byte-deterministic
/// across worker counts and re-runs.
pub(crate) const SPANS_FILE: &str = "spans.jsonl";

/// Directory (inside the results directory) holding the per-worker
/// shard files of an in-flight sweep.
pub const SHARDS_DIR: &str = "shards";

/// Directory (inside the results directory) holding the shared
/// front-end record files of an in-flight sweep.
pub(crate) const FRONTS_DIR: &str = "fronts";

/// What a store entry holds: one unit simulation, a recorded probe time
/// series, or the execution telemetry of one sweep piece.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredResult {
    /// One (combo, scheme point) simulation.
    Unit(SchemeRun),
    /// A recorded per-period time series (`snug trace`).
    Series(TraceSeries),
    /// Wall-clock telemetry for one executed sweep piece.
    Span(UnitSpan),
}

/// One stored line: the key and the full result.
///
/// Lines written before the store stopped recording inputs also carry
/// an `inputs` field, a debug rendering of what was hashed into the key;
/// it is not a function of the key (the plan's spelling changed between
/// releases), so decoding ignores it and rewriting drops it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreEntry {
    /// Content key of the producing job.
    pub key: ContentKey,
    /// The cached result.
    pub result: StoredResult,
}

impl StoreEntry {
    /// Decode one JSONL line straight into an entry, building no
    /// value tree. A line that is not JSON at all — what a torn
    /// append leaves — is a [`LineError::Syntax`]; JSON of the wrong
    /// shape is a [`LineError::Schema`].
    fn decode_line(text: &str) -> Result<Self, LineError> {
        Self::read_line(text).map_err(|e| match json::check(text) {
            Err(syntax) => LineError::Syntax(syntax),
            Ok(()) => LineError::Schema(e),
        })
    }

    /// Read one line's members into an entry. Of several payload
    /// members, as of any repeated member, the last wins.
    fn read_line(text: &str) -> Result<Self, JsonError> {
        let mut r = JsonReader::new(text);
        let (mut key, mut result) = (None, None);
        r.object(|r, name| {
            match name {
                "key" => key = Some(r.str()?.parse().map_err(JsonError)?),
                "unit" => result = Some(StoredResult::Unit(SchemeRun::read_json(r)?)),
                "series" => result = Some(StoredResult::Series(TraceSeries::read_json(r)?)),
                "span" => result = Some(StoredResult::Span(UnitSpan::read_json(r)?)),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.finish()?;
        let result = result.ok_or_else(|| {
            JsonError(
                "entry has no `unit`, `series` or `span` payload (a `result` payload is a \
                 whole-combo entry of the removed v1 store schema)"
                    .into(),
            )
        })?;
        let key = key.ok_or_else(|| JsonError("missing field `key`".into()))?;
        Ok(StoreEntry { key, result })
    }

    /// The entry rendered as one JSONL line ([`render_line`]).
    pub(crate) fn render_line(&self) -> Result<String, StoreError> {
        render_line(&self.key, &self.result)
    }
}

/// An entry rendered as one JSONL line (no trailing newline) — the
/// exact bytes `insert` appends, shared with the shard writers so a
/// shard line and a store line for the same result are identical.
fn render_line(key: &ContentKey, result: &StoredResult) -> Result<String, StoreError> {
    let mut w = JsonWriter::default();
    w.object(|o| {
        o.member("key", |w| w.str(&key.to_string()))?;
        match result {
            StoredResult::Series(series) => o.member("series", |w| series.write_json(w)),
            StoredResult::Span(span) => o.member("span", |w| span.write_json(w)),
            StoredResult::Unit(run) => o.member("unit", |w| run.write_json(w)),
        }
    })
    .map_err(|e| StoreError::Encode(key.to_string(), e.0))?;
    Ok(w.finish())
}

/// Load one JSONL file of store entries into `entries`, returning the
/// number of intact data lines. A partial trailing line (crash or full
/// disk during append) is dropped and truncated, and a whole last line
/// without its `\n` (a hand edit) is terminated, so the next append
/// starts on a clean line; corruption anywhere else stays fatal. A
/// missing file is an empty store.
fn load_jsonl(
    path: &Path,
    entries: &mut BTreeMap<ContentKey, StoredResult>,
) -> Result<usize, StoreError> {
    let file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(StoreError::io(path, e)),
    };
    let mut file_lines = 0usize;
    let tail = read_entries(path, file, |entry| {
        entries.insert(entry.key, entry.result);
        file_lines += 1;
        Ok(())
    })?;
    let mended = match tail {
        Tail::Clean => Ok(()),
        Tail::Torn(line_start) => fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(line_start)),
        Tail::Unterminated => fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(b"\n")),
    };
    mended.map_err(|e| StoreError::io(path, e))?;
    Ok(file_lines)
}

/// How a store file ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// With a `\n`, or empty.
    Clean,
    /// With a last line that is whole but has no `\n`.
    Unterminated,
    /// With a torn line, which starts at this byte offset.
    Torn(u64),
}

/// Decode the data lines of a JSONL store file in order, handing each
/// entry to `visit`. Each line is checked for UTF-8 and decoded in
/// place in the read buffer, straight into its entry; only a line that
/// straddles a refill is copied, so the file is never held whole next
/// to the entries decoded from it. A line that is not JSON (or not
/// UTF-8) is fatal, unless it is the file's last: that is the torn tail
/// of an interrupted append, and its byte offset is returned for the
/// caller to truncate at or skip. A line that is JSON but not an entry
/// is fatal wherever it sits — a torn append is never complete JSON,
/// so dropping it would discard a whole entry.
fn read_entries(
    path: &Path,
    file: fs::File,
    mut visit: impl FnMut(StoreEntry) -> Result<(), StoreError>,
) -> Result<Tail, StoreError> {
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut straddle = Vec::new();
    let mut offset = 0u64;
    let mut lineno = 0usize;
    loop {
        let next = next_line(
            &mut reader,
            &mut straddle,
            |line| match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => None,
                Ok(text) => Some(StoreEntry::decode_line(text)),
                Err(_) => Some(Err(LineError::Syntax(JsonError("invalid UTF-8".into())))),
            },
        )
        .map_err(|e| StoreError::io(path, e))?;
        let Some((decoded, read, terminated)) = next else {
            return Ok(Tail::Clean);
        };
        let line_start = offset;
        offset += read as u64;
        lineno += 1;
        match decoded {
            None => {}
            Some(Ok(entry)) => visit(entry)?,
            Some(Err(LineError::Syntax(_)))
                if reader
                    .fill_buf()
                    .map_err(|e| StoreError::io(path, e))?
                    .is_empty() =>
            {
                return Ok(Tail::Torn(line_start))
            }
            Some(Err(LineError::Syntax(e) | LineError::Schema(e))) => {
                return Err(StoreError::corrupt(path, lineno, e))
            }
        }
        if !terminated {
            return Ok(Tail::Unterminated);
        }
    }
}

/// Hand the reader's next line, without its `\n`, to `decode`: in place
/// in the read buffer when the line lies whole in it, or gathered into
/// `straddle` when it crosses a refill. Returns what `decode` made of
/// it, the line's length in the file (its `\n` included) and whether it
/// has a `\n`, or `None` at the end of the file.
fn next_line<R>(
    reader: &mut BufReader<fs::File>,
    straddle: &mut Vec<u8>,
    decode: impl FnOnce(&[u8]) -> R,
) -> std::io::Result<Option<(R, usize, bool)>> {
    straddle.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // The last line, with no `\n` after it.
            return Ok((!straddle.is_empty()).then(|| (decode(straddle), straddle.len(), false)));
        }
        if let Some(end) = json::find_byte(buf, |b| b == b'\n') {
            let decoded = if straddle.is_empty() {
                decode(&buf[..end])
            } else {
                straddle.extend_from_slice(&buf[..end]);
                decode(straddle)
            };
            let read = straddle.len().max(end) + 1;
            reader.consume(end + 1);
            return Ok(Some((decoded, read, true)));
        }
        let filled = buf.len();
        straddle.extend_from_slice(buf);
        reader.consume(filled);
    }
}

/// Why a store line did not decode.
#[derive(Debug, Clone, PartialEq)]
enum LineError {
    /// Not one JSON document: fatal, unless it is a file's torn last
    /// line.
    Syntax(JsonError),
    /// JSON, but not an entry (a missing, mistyped or unknown-valued
    /// field): fatal wherever it sits.
    Schema(JsonError),
}

/// A per-worker append-only shard file under `results/shards/`. Workers
/// write each completed unit entry here as it finishes (the crash-
/// durability path); the sweep merges the results into the main store
/// in deterministic job order at sweep end and deletes the shards. The
/// file is created lazily, so idle workers leave nothing behind.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    path: PathBuf,
    file: Option<fs::File>,
}

impl ShardWriter {
    /// A writer for the shard at `path` (nothing touches the
    /// filesystem until the first append).
    pub(crate) fn new(path: PathBuf) -> Self {
        ShardWriter { path, file: None }
    }

    /// Whether any entry has been appended (i.e. the file exists).
    pub(crate) fn written(&self) -> bool {
        self.file.is_some()
    }

    /// The shard file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Append one entry as a JSONL line and flush it to disk.
    pub(crate) fn append(&mut self, entry: &StoreEntry) -> Result<(), StoreError> {
        let line = entry.render_line()?;
        self.append_line(&line)
    }

    /// Append one entry already rendered by [`StoreEntry::render_line`].
    pub(crate) fn append_line(&mut self, line: &str) -> Result<(), StoreError> {
        let file = match self.file.as_mut() {
            Some(file) => file,
            None => {
                if let Some(parent) = self.path.parent() {
                    fs::create_dir_all(parent).map_err(|e| StoreError::io(parent, e))?;
                }
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .map_err(|e| StoreError::io(&self.path, e))?;
                self.file.insert(file)
            }
        };
        // The line and its `\n` in one write: a crash between two could
        // leave the line whole but unterminated, for the next append to
        // glue onto.
        file.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| StoreError::io(&self.path, e))
    }
}

/// The persistent, content-addressed result cache.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    entries: BTreeMap<ContentKey, StoredResult>,
    /// Data lines currently in the JSONL file (blank lines excluded).
    /// Exceeds `entries.len()` when duplicate keys have accumulated —
    /// what [`ResultStore::compact`] reclaims.
    file_lines: usize,
}

impl ResultStore {
    /// Open (or create) the store under `dir`: the main `store.jsonl`
    /// plus the `spans.jsonl` telemetry sidecar.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let mut entries = BTreeMap::new();
        let mut file_lines = 0usize;
        for file in [STORE_FILE, SPANS_FILE] {
            file_lines += load_jsonl(&dir.join(file), &mut entries)?;
        }
        Ok(ResultStore {
            dir,
            entries,
            file_lines,
        })
    }

    /// The directory this store persists under.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no cached results.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a cached result by content key.
    pub fn get(&self, key: &ContentKey) -> Option<&StoredResult> {
        self.entries.get(key)
    }

    /// Look up a v2 unit result by content key.
    pub fn get_unit(&self, key: &ContentKey) -> Option<&SchemeRun> {
        match self.get(key) {
            Some(StoredResult::Unit(run)) => Some(run),
            _ => None,
        }
    }

    /// Look up a recorded time series by content key.
    pub fn get_series(&self, key: &ContentKey) -> Option<&TraceSeries> {
        match self.get(key) {
            Some(StoredResult::Series(series)) => Some(series),
            _ => None,
        }
    }

    /// Every stored execution span, in key order.
    pub fn spans(&self) -> Vec<&UnitSpan> {
        self.entries
            .values()
            .filter_map(|result| match result {
                StoredResult::Span(span) => Some(span),
                _ => None,
            })
            .collect()
    }

    /// Data lines currently in the JSONL file. Exceeds
    /// [`ResultStore::len`] when superseded duplicates have accumulated
    /// (schema bumps, re-runs) — [`ResultStore::compact`] reclaims them.
    pub fn file_lines(&self) -> usize {
        self.file_lines
    }

    /// Rewrite the JSONL files keeping only the newest entry per key
    /// (`snug store gc`). The in-memory map already holds exactly those
    /// — on load, later lines supersede earlier ones — so compaction
    /// writes it back in key order through a temporary file and an
    /// atomic rename. Span entries are written to the `spans.jsonl`
    /// sidecar (migrating any that a legacy `store.jsonl` still holds
    /// inline). Idempotent: a second pass drops nothing. Returns
    /// `(kept, dropped)` line counts.
    pub fn compact(&mut self) -> Result<(usize, usize), StoreError> {
        let kept = self.entries.len();
        let dropped = self.file_lines.saturating_sub(kept);
        let store_path = self.dir.join(STORE_FILE);
        let spans_path = self.dir.join(SPANS_FILE);
        if self.entries.is_empty() && !store_path.exists() && !spans_path.exists() {
            return Ok((0, 0));
        }
        fs::create_dir_all(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        let mut store_text = String::new();
        let mut spans_text = String::new();
        for (key, result) in &self.entries {
            let text = match result {
                StoredResult::Span(_) => &mut spans_text,
                _ => &mut store_text,
            };
            text.push_str(&render_line(key, result)?);
            text.push('\n');
        }
        let tmp = self.dir.join(format!("{STORE_FILE}.tmp"));
        fs::write(&tmp, &store_text).map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, &store_path).map_err(|e| StoreError::io(&store_path, e))?;
        if spans_text.is_empty() {
            if spans_path.exists() {
                fs::remove_file(&spans_path).map_err(|e| StoreError::io(&spans_path, e))?;
            }
        } else {
            let tmp = self.dir.join(format!("{SPANS_FILE}.tmp"));
            fs::write(&tmp, &spans_text).map_err(|e| StoreError::io(&tmp, e))?;
            fs::rename(&tmp, &spans_path).map_err(|e| StoreError::io(&spans_path, e))?;
        }
        self.file_lines = kept;
        Ok((kept, dropped))
    }

    /// Number of v2 unit entries.
    pub fn unit_count(&self) -> usize {
        self.entries
            .values()
            .filter(|result| matches!(result, StoredResult::Unit(_)))
            .count()
    }

    /// Insert a fresh unit result and append it to the JSONL file.
    pub(crate) fn insert_unit(
        &mut self,
        key: ContentKey,
        run: SchemeRun,
    ) -> Result<(), StoreError> {
        self.insert(key, StoredResult::Unit(run))
    }

    /// Insert a fresh result and append it to the backing JSONL file —
    /// `spans.jsonl` for telemetry spans, `store.jsonl` for everything
    /// else.
    pub fn insert(&mut self, key: ContentKey, result: StoredResult) -> Result<(), StoreError> {
        let file = match result {
            StoredResult::Span(_) => SPANS_FILE,
            _ => STORE_FILE,
        };
        let line = render_line(&key, &result)?;
        fs::create_dir_all(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        let path = self.dir.join(file);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        // One write, as in `ShardWriter::append_line`.
        file.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| StoreError::io(&path, e))?;
        self.entries.insert(key, result);
        self.file_lines += 1;
        Ok(())
    }

    /// Insert an execution span.
    pub(crate) fn insert_span(
        &mut self,
        key: ContentKey,
        span: UnitSpan,
    ) -> Result<(), StoreError> {
        self.insert(key, StoredResult::Span(span))
    }

    /// Insert a recorded time series.
    pub fn insert_series(
        &mut self,
        key: ContentKey,
        series: TraceSeries,
    ) -> Result<(), StoreError> {
        self.insert(key, StoredResult::Series(series))
    }

    /// Merge a sharded store file (another store's `store.jsonl`, e.g.
    /// from a multi-machine sweep) into this store, reusing gc's
    /// newest-entry-per-key rule: shard entries supersede existing
    /// entries under the same key — exactly as if the shard's lines had
    /// been appended and the store compacted. Entries identical to what
    /// the store already holds are skipped, so re-merging the same
    /// shard is a no-op and `merge ∘ gc` is idempotent. A partial
    /// trailing line in the shard (interrupted run) is ignored;
    /// corruption anywhere else is fatal. Run
    /// [`ResultStore::compact`] afterwards to drop the superseded
    /// duplicates from disk.
    pub fn merge_file(&mut self, path: &Path) -> Result<MergeStats, StoreError> {
        let file = fs::File::open(path).map_err(|e| StoreError::io(path, e))?;
        let mut stats = MergeStats::default();
        // A partial trailing line is the expected artifact of an
        // interrupted shard; the shard is read-only, so it is skipped
        // rather than truncated.
        read_entries(path, file, |entry| {
            stats.read += 1;
            match self.entries.get(&entry.key) {
                Some(existing) if *existing == entry.result => {
                    stats.unchanged += 1;
                    return Ok(());
                }
                Some(_) => stats.superseded += 1,
                None => stats.added += 1,
            }
            self.insert(entry.key, entry.result)
        })?;
        Ok(stats)
    }

    /// Recover leftover per-worker shards from a killed sweep: merge
    /// every `shards/worker-*.jsonl` file (in name order) under the
    /// usual [`ResultStore::merge_file`] semantics, then delete the
    /// shards. A partial trailing shard line (the unit mid-append when
    /// the sweep died) is skipped; its unit simply re-runs. Returns the
    /// total merge stats, all zero when there is nothing to recover.
    pub(crate) fn recover_shards(&mut self) -> Result<MergeStats, StoreError> {
        let shards_dir = self.dir.join(SHARDS_DIR);
        let read_dir = match fs::read_dir(&shards_dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(MergeStats::default()),
            Err(e) => return Err(StoreError::io(&shards_dir, e)),
        };
        let mut shard_paths: Vec<PathBuf> = Vec::new();
        for dirent in read_dir {
            let path = dirent.map_err(|e| StoreError::io(&shards_dir, e))?.path();
            if path.extension().is_some_and(|ext| ext == "jsonl") {
                shard_paths.push(path);
            }
        }
        shard_paths.sort();
        let mut total = MergeStats::default();
        for path in &shard_paths {
            let stats = self.merge_file(path)?;
            total.read += stats.read;
            total.added += stats.added;
            total.superseded += stats.superseded;
            total.unchanged += stats.unchanged;
            fs::remove_file(path).map_err(|e| StoreError::io(path, e))?;
        }
        // Best-effort: the directory may legitimately hold other files.
        let _ = fs::remove_dir(&shards_dir);
        Ok(total)
    }
}

/// Per-shard outcome of [`ResultStore::merge_file`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Intact entries read from the shard.
    pub read: usize,
    /// Entries new to the store.
    pub added: usize,
    /// Entries that superseded an existing (different) value.
    pub superseded: usize,
    /// Entries identical to what the store already held (skipped).
    pub unchanged: usize,
}

/// Errors from opening or appending to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O failure (path, message).
    Io(String, String),
    /// A line that does not parse or decode (path, 1-based line,
    /// message).
    Corrupt(String, usize, String),
    /// An entry that cannot be encoded (key, message) — a non-finite
    /// number in its result.
    Encode(String, String),
}

impl StoreError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        StoreError::Io(path.display().to_string(), e.to_string())
    }

    /// A corrupt line, at its 1-based line number.
    fn corrupt(path: &Path, line: usize, e: JsonError) -> Self {
        StoreError::Corrupt(path.display().to_string(), line, e.0)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(path, msg) => write!(f, "result store I/O error at {path}: {msg}"),
            StoreError::Corrupt(path, line, msg) => {
                write!(f, "corrupt result store {path}:{line}: {msg}")
            }
            StoreError::Encode(key, msg) => {
                write!(f, "cannot store entry {key}: {msg}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test entry's key: the content key of its name.
    fn key(name: &str) -> ContentKey {
        crate::hash::content_key(name)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snug-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fake(label: &str, tp: f64) -> StoredResult {
        StoredResult::Unit(SchemeRun {
            scheme: label.into(),
            ipcs: vec![1.0, 0.5, tp],
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        })
    }

    #[test]
    fn fresh_store_is_empty_and_dir_not_created_until_insert() {
        let dir = tmp_dir("fresh");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(!dir.exists(), "open alone must not touch the filesystem");
    }

    #[test]
    fn inserts_persist_across_reopen() {
        let dir = tmp_dir("persist");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("a+b", 1.25)).unwrap();
        store.insert(key("k2"), fake("c+d", 0.75)).unwrap();
        drop(store);

        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(&key("k1")).unwrap(), &fake("a+b", 1.25));
        assert_eq!(back.get(&key("k2")).unwrap(), &fake("c+d", 0.75));
        assert!(back.get(&key("k3")).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_lines_are_rejected_with_location() {
        let dir = tmp_dir("corrupt");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k"), fake("x+y", 1.0)).unwrap();
        let path = dir.join(STORE_FILE);
        let good_line = fs::read_to_string(&path).unwrap();
        // A v1 whole-combo entry is complete JSON the current schema no
        // longer reads: rejected with its location even as the last
        // line, where a torn append would be dropped.
        let v1 = format!(
            "{{\"key\":\"{}\",\"inputs\":\"combo-inputs\",\"result\":{{\"label\":\"a+b\",\
             \"class\":\"C3\",\"baseline_ipcs\":[1,0.5],\"schemes\":[],\"cc_sweep\":[[0,1]]}}}}\n",
            key("c1")
        );
        let v1 = v1.as_str();
        for (bad, text) in [
            ("{\"key\": \"k2\", nope\n", None),
            (v1, None),
            (v1, Some(format!("{good_line}{v1}"))),
        ] {
            // Default: the bad line first, so it is interior.
            let text = text.unwrap_or_else(|| format!("{bad}{good_line}"));
            let line = text.lines().position(|l| l == bad.trim_end()).unwrap() + 1;
            fs::write(&path, &text).unwrap();
            match ResultStore::open(&dir) {
                Err(StoreError::Corrupt(file, at, msg)) => {
                    assert_eq!((file, at), (path.display().to_string(), line), "{msg}");
                    if bad == v1 {
                        assert!(msg.contains("v1"), "{msg}");
                    }
                }
                other => panic!("expected corrupt error, got {other:?}"),
            }
            assert_eq!(fs::read_to_string(&path).unwrap(), text, "nothing dropped");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A whole last line without its `\n` is terminated on open, so
    /// the next append starts a line of its own and both entries
    /// survive a reopen.
    #[test]
    fn an_unterminated_last_line_is_terminated_not_glued_onto() {
        let dir = tmp_dir("unterminated");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("x+y", 1.0)).unwrap();
        let path = dir.join(STORE_FILE);
        let line = fs::read_to_string(&path).unwrap();
        fs::write(&path, line.trim_end()).unwrap();

        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let run = SchemeRun {
            scheme: "a+b".into(),
            ipcs: vec![2.0],
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        };
        store.insert_unit(key("k2"), run.clone()).unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2, "both entries survive");
        assert_eq!(reopened.get_unit(&key("k2")), Some(&run));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().next(), Some(line.trim_end()));
        assert_eq!(text.lines().count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_trailing_line_is_dropped_and_truncated() {
        let dir = tmp_dir("partial-tail");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("x+y", 1.0)).unwrap();
        let path = dir.join(STORE_FILE);
        let clean_len = fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: a partial, newline-less record.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"k2\",\"inp");
        fs::write(&path, &text).unwrap();

        // Open tolerates it, keeps the intact entry, truncates the tail.
        let mut recovered = ResultStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.get(&key("k1")).is_some());
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            clean_len,
            "tail truncated"
        );

        // Appends after recovery land on a clean line.
        recovered.insert(key("k3"), fake("a+b", 1.5)).unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tail_torn_inside_a_character_is_truncated_not_fatal() {
        let dir = tmp_dir("torn-utf8");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("x+y", 1.0)).unwrap();
        let path = dir.join(STORE_FILE);
        let clean = fs::read(&path).unwrap();
        // An append cut off halfway through a two-byte character.
        let mut bytes = clean.clone();
        bytes.extend_from_slice(b"{\"key\":\"k2\",\"inputs\":\"\xc3");
        fs::write(&path, &bytes).unwrap();
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 1);
        assert_eq!(fs::read(&path).unwrap(), clean, "tail truncated");

        // The same bytes before an intact line are corruption, located.
        let mut bytes = b"{\"key\":\"k2\",\"inputs\":\"\xc3\n".to_vec();
        bytes.extend_from_slice(&clean);
        fs::write(&path, &bytes).unwrap();
        match ResultStore::open(&dir) {
            Err(StoreError::Corrupt(_, line, _)) => assert_eq!(line, 1),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A whole committed line whose skipped `inputs` string holds a
    /// byte that is not UTF-8 is a syntax error, wherever in the string
    /// the byte sits: as the file's last line it is dropped and
    /// truncated like a torn append, anywhere else it is fatal and
    /// located. Lines longer than the read buffer, which straddle a
    /// refill, sort the same way.
    #[test]
    fn invalid_utf8_in_a_skipped_string_is_a_syntax_error() {
        let bad: [&[u8]; 4] = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"];
        bad_string_bytes_are_syntax_errors("bad-utf8", &bad, "UTF-8");
    }

    /// A raw control byte in a string, which JSON admits only escaped,
    /// sorts the same way as a byte that is not UTF-8.
    #[test]
    fn a_raw_control_byte_in_a_string_is_a_syntax_error() {
        let bad: [&[u8]; 4] = [b"\x00", b"\t", b"\r", b"\x1f"];
        bad_string_bytes_are_syntax_errors("raw-control", &bad, "control byte");
    }

    /// Splice each of `bads` into the `inputs` string of a whole line,
    /// at its start, 500 bytes in and 70 KB into a line that straddles
    /// a refill: the line must be truncated as the file's last line and
    /// fatal at line 2, with an error naming `why`, before another.
    fn bad_string_bytes_are_syntax_errors(name: &str, bads: &[&[u8]], why: &str) {
        let dir = tmp_dir(name);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STORE_FILE);
        let good = format!("{}\n", sample_lines()[0]);
        let inputs = good.find("\"inputs\":\"").unwrap() + 10;
        let long = good.replacen(
            "\"inputs\":\"",
            &format!("\"inputs\":\"{}", "x".repeat(70_000)),
            1,
        );
        for (line, at) in [
            (&good, inputs),
            (&good, inputs + 500),
            (&long, inputs + 69_999),
        ] {
            for bad in bads {
                let mut bytes = line.as_bytes().to_vec();
                bytes.splice(at..at + 1, bad.iter().copied());
                let lossy = String::from_utf8_lossy(&bytes[..bytes.len() - 1]);
                assert!(
                    StoreEntry::decode_line(&lossy.replace(char::is_control, "?")).is_ok(),
                    "the line is whole but for its bytes"
                );

                // The last line: dropped and truncated.
                let text = [good.as_bytes(), &bytes].concat();
                fs::write(&path, &text).unwrap();
                let store = ResultStore::open(&dir).unwrap();
                assert_eq!(store.file_lines(), 1, "{bad:x?} at {at}");
                assert_eq!(
                    fs::read(&path).unwrap(),
                    good.as_bytes(),
                    "{bad:x?} at {at}"
                );

                // Anywhere else: fatal, located, nothing dropped.
                let text = [good.as_bytes(), &bytes, good.as_bytes()].concat();
                fs::write(&path, &text).unwrap();
                match ResultStore::open(&dir) {
                    Err(StoreError::Corrupt(_, line, msg)) => {
                        assert_eq!(line, 2, "{bad:x?} at {at}: {msg}");
                        assert!(msg.contains(why), "{msg}");
                    }
                    other => panic!("{bad:x?} at {at}: expected corrupt line 2, got {other:?}"),
                }
                assert_eq!(fs::read(&path).unwrap(), text);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn series_entries_round_trip_and_are_typed() {
        let dir = tmp_dir("series");
        let mut store = ResultStore::open(&dir).unwrap();
        let series = snug_experiments::TraceSeries {
            scheme: "snug".into(),
            stride: 50_000,
            warmup_cycles: 150_000,
            samples: vec![sim_cmp::PeriodSample {
                cycle: 50_000,
                during_warmup: true,
                instructions: vec![10, 20],
                cycles: vec![50_000, 50_000],
                l2: sim_cache::CacheStats {
                    hits: 7,
                    misses: 3,
                    ..Default::default()
                },
                events: vec![sim_cmp::SchemeEvent {
                    cycle: 10_000,
                    kind: sim_cmp::SchemeEventKind::GroupedBegin,
                    takers: vec![1, 2],
                }],
                shifts: vec![sim_mem::StreamShift {
                    at_cycle: 30_000,
                    cores: vec![0, 1],
                    directive: sim_mem::ShiftDirective::DemandScale { percent: 200 },
                }],
                counters: None,
            }],
        };
        store.insert_series(key("t1"), series.clone()).unwrap();
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.get_series(&key("t1")).unwrap(), &series);
        assert_eq!(back.len(), 1);
        assert!(
            back.get_unit(&key("t1")).is_none(),
            "typed lookup rejects kind"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn span_entries_round_trip_and_are_typed() {
        let dir = tmp_dir("span");
        let mut store = ResultStore::open(&dir).unwrap();
        let span = UnitSpan {
            label: "ammp+ammp+ammp+ammp | snug".into(),
            queue_nanos: 1_234,
            wall_nanos: 987_654_321,
            sim_cycles: 1_350_000,
            instructions: 1_458_748,
            worker: 3,
            shard: "worker-3.jsonl".into(),
        };
        store.insert_span(key("s1"), span.clone()).unwrap();
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(
            back.get(&key("s1")),
            Some(&StoredResult::Span(span.clone()))
        );
        assert_eq!(back.spans().len(), 1);
        assert_eq!(back.spans(), vec![&span]);
        assert!(
            back.get_unit(&key("s1")).is_none(),
            "typed lookup rejects kind"
        );
        assert!(back.get(&key("missing")).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_land_in_the_sidecar_not_the_deterministic_store() {
        let dir = tmp_dir("span-sidecar");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("u1"), fake("x+y", 1.0)).unwrap();
        let store_bytes = fs::read(dir.join(STORE_FILE)).unwrap();
        store.insert_span(key("s1"), UnitSpan::default()).unwrap();
        assert_eq!(
            fs::read(dir.join(STORE_FILE)).unwrap(),
            store_bytes,
            "span inserts must not touch store.jsonl"
        );
        assert!(dir.join(SPANS_FILE).exists());
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.spans().len(), 1);
        assert_eq!(back.unit_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_migrates_legacy_inline_spans_to_the_sidecar() {
        let dir = tmp_dir("span-migrate");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("u1"), fake("x+y", 1.0)).unwrap();
        // Fake a legacy store with the span inline in store.jsonl.
        let span_entry = StoreEntry {
            key: key("s1"),
            result: StoredResult::Span(UnitSpan::default()),
        };
        let path = dir.join(STORE_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&span_entry.render_line().unwrap());
        text.push('\n');
        fs::write(&path, text).unwrap();

        let mut back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.spans().len(), 1, "legacy inline span still decodes");
        back.compact().unwrap();
        let store_text = fs::read_to_string(&path).unwrap();
        assert!(
            !store_text.contains("\"span\""),
            "compact moves spans out of store.jsonl"
        );
        let spans_text = fs::read_to_string(dir.join(SPANS_FILE)).unwrap();
        assert!(spans_text.contains("\"span\""));
        assert_eq!(ResultStore::open(&dir).unwrap().spans().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_shards_merges_and_deletes_skipping_partial_tails() {
        let dir = tmp_dir("recover");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("x+y", 1.0)).unwrap();

        // Shard 0: one duplicate of k1 plus a fresh k2.
        let mut shard0 = ShardWriter::new(dir.join(SHARDS_DIR).join("worker-0.jsonl"));
        shard0
            .append(&StoreEntry {
                key: key("k1"),
                result: fake("x+y", 1.0),
            })
            .unwrap();
        shard0
            .append(&StoreEntry {
                key: key("k2"),
                result: fake("a+b", 2.0),
            })
            .unwrap();
        assert!(shard0.written());
        // Shard 1: a fresh k3 followed by a crash-truncated partial line.
        let mut shard1 = ShardWriter::new(dir.join(SHARDS_DIR).join("worker-1.jsonl"));
        shard1
            .append(&StoreEntry {
                key: key("k3"),
                result: fake("c+d", 3.0),
            })
            .unwrap();
        let shard1_path = shard1.path().to_path_buf();
        drop(shard1);
        let mut text = fs::read_to_string(&shard1_path).unwrap();
        text.push_str("{\"key\":\"k4\",\"inp");
        fs::write(&shard1_path, text).unwrap();

        let stats = store.recover_shards().unwrap();
        assert_eq!(stats.read, 3, "partial k4 line skipped");
        assert_eq!(stats.added, 2);
        assert_eq!(stats.unchanged, 1);
        assert!(!dir.join(SHARDS_DIR).exists(), "shards consumed");
        assert_eq!(store.len(), 3);
        assert!(store.get(&key("k4")).is_none());

        // Nothing left: a second recovery is a no-op.
        assert_eq!(store.recover_shards().unwrap(), MergeStats::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_superseded_duplicates_and_is_idempotent() {
        let dir = tmp_dir("compact");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k1"), fake("x+y", 1.0)).unwrap();
        store.insert(key("k2"), fake("a+b", 2.0)).unwrap();
        // Supersede k1 (as a schema bump or re-run would).
        store.insert(key("k1"), fake("x+y", 3.0)).unwrap();
        assert_eq!(store.file_lines(), 3);
        assert_eq!(store.len(), 2);

        let (kept, dropped) = store.compact().unwrap();
        assert_eq!((kept, dropped), (2, 1));
        assert_eq!(store.file_lines(), 2);

        // The newest value per key survived, on disk too.
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.file_lines(), 2);
        assert_eq!(back.get(&key("k1")).unwrap(), &fake("x+y", 3.0));
        assert_eq!(back.get(&key("k2")).unwrap(), &fake("a+b", 2.0));

        // Idempotent: nothing more to drop, bytes unchanged.
        let bytes = fs::read(dir.join(STORE_FILE)).unwrap();
        let mut again = ResultStore::open(&dir).unwrap();
        assert_eq!(again.compact().unwrap(), (2, 0));
        assert_eq!(fs::read(dir.join(STORE_FILE)).unwrap(), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_on_missing_store_is_a_noop() {
        let dir = tmp_dir("compact-empty");
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.compact().unwrap(), (0, 0));
        assert!(!dir.exists(), "no file materialised");
    }

    /// The committed results directory.
    fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    /// The committed `store.jsonl`, read once per test binary.
    fn committed_store() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| fs::read_to_string(committed_dir().join(STORE_FILE)).unwrap())
    }

    /// The first committed line, and the first carrying every optional
    /// unit field (`measured_cycles`, `stop_reason`, `plateaus`).
    fn sample_lines() -> [&'static str; 2] {
        let mut lines = committed_store().lines();
        let first = lines.next().unwrap();
        let richest = committed_store()
            .lines()
            .find(|l| l.contains("\"measured_cycles\"") && l.contains("\"plateaus\""))
            .unwrap();
        [first, richest]
    }

    /// A committed line without its leading `inputs` member, which
    /// decoding ignores (the committed lines spell no `"` inside it).
    fn without_inputs(line: &str) -> String {
        let rest = line.strip_prefix("{\"inputs\":\"").unwrap();
        let end = rest.find('"').unwrap();
        format!("{{{}", &rest[end + 2..])
    }

    /// Every line of both committed stores — the main one and the
    /// ablations' — decodes and re-encodes to the same bytes, less the
    /// ignored `inputs` member. The ablation store's 49 ablation lines
    /// carry it; its 1,666 calibration lines, written by today's
    /// encoder, do not.
    #[test]
    fn committed_store_re_renders_byte_for_byte() {
        let ablations = committed_dir().join("..").join(crate::ABLATIONS_DIR);
        for (dir, lines) in [(committed_dir(), 756), (ablations, 49 + 1666)] {
            let store = ResultStore::open(&dir).unwrap();
            let text = fs::read_to_string(dir.join(STORE_FILE)).unwrap();
            let mut rendered = String::with_capacity(text.len());
            let mut expected = String::with_capacity(text.len());
            for line in text.lines() {
                let key = StoreEntry::decode_line(line).unwrap().key;
                rendered.push_str(&render_line(&key, &store.entries[&key]).unwrap());
                rendered.push('\n');
                if line.starts_with("{\"inputs\":") {
                    expected.push_str(&without_inputs(line));
                } else {
                    expected.push_str(line);
                }
                expected.push('\n');
            }
            assert_eq!(text.lines().count(), lines, "{}", dir.display());
            assert_eq!(store.unit_count(), lines, "{}", dir.display());
            assert!(
                rendered == expected,
                "decode → encode changed the committed store {}",
                dir.display()
            );
        }
    }

    /// A store mixing a line written with `inputs` and one written
    /// without serves both; compaction drops the field, and a shard line
    /// that differs only in it merges as unchanged.
    #[test]
    fn lines_with_and_without_inputs_serve_alike() {
        let dir = tmp_dir("inputs");
        let old = committed_store().lines().next().unwrap();
        let old_key = StoreEntry::decode_line(old).unwrap().key;
        let new = StoreEntry {
            key: key("k2"),
            result: fake("a+b", 2.0),
        };
        let new = new.render_line().unwrap();
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(STORE_FILE), format!("{old}\n{new}\n")).unwrap();
        let mut store = ResultStore::open(&dir).unwrap();
        assert!(store.get_unit(&old_key).is_some());
        assert_eq!(store.get(&key("k2")), Some(&fake("a+b", 2.0)));

        store.compact().unwrap();
        let compacted = fs::read_to_string(dir.join(STORE_FILE)).unwrap();
        assert_eq!(compacted.lines().count(), 2);
        assert!(!compacted.contains("\"inputs\""), "{compacted}");

        let shard = dir.join("shard.jsonl");
        fs::write(&shard, format!("{old}\n")).unwrap();
        let stats = store.merge_file(&shard).unwrap();
        assert_eq!((stats.read, stats.unchanged), (1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_of_a_committed_line_is_an_error() {
        for line in sample_lines() {
            for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
                assert!(json::check(&line[..cut]).is_err(), "json prefix {cut}");
                assert!(
                    matches!(
                        StoreEntry::decode_line(&line[..cut]),
                        Err(LineError::Syntax(_))
                    ),
                    "entry prefix {cut}"
                );
            }
        }
    }

    /// Every single-byte mutation of a committed line — to each byte
    /// the grammar treats differently: structure, quotes, escapes,
    /// number and literal characters, control, DEL and non-ASCII —
    /// either fails to decode or decodes to an entry that round-trips;
    /// none panics.
    #[test]
    fn every_byte_mutation_of_a_committed_line_decodes_or_errs() {
        const REPLACEMENTS: &[u8] = b"\x00\x1f \"',-.+0159:eE[\\]aflnrstu{}/\x7f\x80\xc3\xff";
        for line in sample_lines() {
            let mut bytes = line.as_bytes().to_vec();
            for pos in 0..bytes.len() {
                let original = bytes[pos];
                for &b in REPLACEMENTS {
                    bytes[pos] = b;
                    let text = String::from_utf8_lossy(&bytes);
                    if let Ok(entry) = StoreEntry::decode_line(&text) {
                        let again = StoreEntry::decode_line(&entry.render_line().unwrap());
                        assert_eq!(again.as_ref(), Ok(&entry), "byte {pos} = {b:#04x}");
                    }
                }
                bytes[pos] = original;
            }
        }
    }

    /// One rendered line of each payload kind, every optional field set.
    fn sample_entries() -> [StoreEntry; 3] {
        let (run, span, series) = crate::codec::tests::samples();
        [
            StoreEntry {
                key: key("u1"),
                result: StoredResult::Unit(run),
            },
            StoreEntry {
                key: key("t1"),
                result: StoredResult::Series(series),
            },
            StoreEntry {
                key: key("s1"),
                result: StoredResult::Span(span),
            },
        ]
    }

    /// The lines of [`sample_entries`] as literal text: every member
    /// name, order and number spelling of the stored types that no
    /// committed line holds (a converged run with plateaus, a series of
    /// samples with events, shifts, L2 statistics and counters, a span).
    const PINNED_LINES: [&str; 3] = [
        concat!(
            r#"{"key":"08c47b07b56747f307f84f07b4b996cb","#,
            r#""unit":{"ipcs":[0.30000000000000004,0.3333333333333333],"measured_cycles":1234567.0,"#,
            r#""plateaus":[2.1,0.7],"scheme":"cc@25%","stop_reason":"converged"}}"#,
        ),
        concat!(
            r#"{"key":"08c7ff07b56a5e1607f84e07b4b99518","series":{"samples":[{"cycle":50000.0,"#,
            r#""cycles":[50000.0,50000.0],"during_warmup":true,"events":[{"cycle":10000.0,"#,
            r#""kind":"grouped","takers":[1.0,2.0]}],"instructions":[10.0,20.0],"l2":{"cc_hits":0.0,"#,
            r#""evictions":0.0,"forwards":0.0,"hits":7.0,"misses":3.0,"retrieved_from_peer":0.0,"#,
            r#""shadow_hits":0.0,"spills_in":0.0,"spills_out":0.0,"write_buffer_hits":0.0,"#,
            r#""writebacks":0.0},"#,
            r#""shifts":["30000:demand=200@0,1"]},{"counters":{"bus_address_transactions":0.0,"#,
            r#""bus_data_transactions":0.0,"bus_queue_cycles":0.0,"core_dep_stall_cycles":0.0,"#,
            r#""core_mshr_stall_cycles":0.0,"core_rob_stall_cycles":0.0,"dram_queue_cycles":0.0,"#,
            r#""dram_reads":0.0,"dram_writes":0.0,"forwards":0.0,"identifies":0.0,"#,
            r#""l1_walk_depths":[5.0,5.0,5.0,5.0,5.0,5.0,5.0,5.0],"l1d_hits":0.0,"l1d_misses":0.0,"#,
            r#""l1i_hits":0.0,"l1i_misses":0.0,"l2_cc_hits":0.0,"l2_evictions":0.0,"l2_hits":0.0,"#,
            r#""l2_misses":0.0,"l2_writebacks":0.0,"org_accesses":0.0,"org_writebacks":0.0,"#,
            r#""relatches":0.0,"retired_ops":99.0,"retrieved_from_peer":0.0,"shadow_hits":0.0,"#,
            r#""spills_in":0.0,"spills_out":0.0,"write_buffer_hits":0.0},"cycle":100000.0,"#,
            r#""cycles":[100000.0,100000.0],"during_warmup":false,"events":[{"cycle":10000.0,"#,
            r#""kind":"grouped","takers":[1.0,2.0]}],"instructions":[10.0,20.0],"l2":{"cc_hits":0.0,"#,
            r#""evictions":0.0,"forwards":0.0,"hits":7.0,"misses":3.0,"retrieved_from_peer":0.0,"#,
            r#""shadow_hits":0.0,"spills_in":0.0,"spills_out":0.0,"write_buffer_hits":0.0,"#,
            r#""writebacks":0.0},"shifts":["30000:demand=200@0,1"]}],"scheme":"snug","stride":50000.0,"#,
            r#""warmup_cycles":50000.0}}"#,
        ),
        concat!(
            r#"{"key":"08d8ff07b578d14907f85507b4b9a0fd","span":{"instructions":14.0,"#,
            r#""label":"ammp+ammp+ammp+ammp [snug]","queue_nanos":11.0,"shard":"worker-3.jsonl","#,
            r#""sim_cycles":13.0,"wall_nanos":12.0,"worker":3.0}}"#,
        ),
    ];

    #[test]
    fn sample_entries_encode_to_pinned_text() {
        for (entry, pinned) in sample_entries().iter().zip(PINNED_LINES) {
            assert_eq!(entry.render_line().unwrap(), pinned, "{}", entry.key);
            assert_eq!(StoreEntry::decode_line(pinned).as_ref(), Ok(entry));
        }
    }

    /// Write `lines` as a store file and open it.
    fn open_lines(dir: &Path, lines: &str) -> Result<ResultStore, StoreError> {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join(STORE_FILE), lines).unwrap();
        ResultStore::open(dir)
    }

    /// For every payload kind, each strict prefix of a line is a syntax
    /// error: as a file's last line it is the torn tail of an append,
    /// dropped and truncated, while the intact line before it serves.
    #[test]
    fn every_prefix_of_every_payload_kind_is_a_torn_tail() {
        let dir = tmp_dir("prefixes");
        let good = format!("{}\n", sample_entries()[2].render_line().unwrap());
        for entry in sample_entries() {
            let line = entry.render_line().unwrap();
            for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
                let prefix = &line[..cut];
                assert!(
                    matches!(StoreEntry::decode_line(prefix), Err(LineError::Syntax(_))),
                    "{}: prefix {cut}",
                    entry.key
                );
                let store = open_lines(&dir, &format!("{good}{prefix}")).unwrap();
                assert_eq!(store.file_lines(), 1, "{}: prefix {cut}", entry.key);
                assert_eq!(fs::read_to_string(dir.join(STORE_FILE)).unwrap(), good);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// For every payload kind, a line that is valid JSON with any field
    /// of the wrong kind, or any required field missing, is a schema
    /// error naming the field — fatal even as the file's last line,
    /// which is left as it was.
    #[test]
    fn a_missing_or_mistyped_field_is_fatal_wherever_it_sits() {
        use crate::codec::tests::{nodes, replaced, without};
        const OPTIONAL: &[&str] = &[
            "measured_cycles",
            "stop_reason",
            "plateaus",
            "shifts",
            "counters",
            "worker",
            "shard",
        ];
        let dir = tmp_dir("schema");
        let good = format!("{}\n", sample_entries()[0].render_line().unwrap());
        let mut cases = 0;
        for entry in sample_entries() {
            let line = entry.render_line().unwrap();
            for node in nodes(&line) {
                let mistyped = replaced(&line, &node, if node.number { "\"7\"" } else { "7.0" });
                let mut bad = vec![(mistyped, format!(".{}", node.name))];
                if node.member && !OPTIONAL.contains(&node.name.as_str()) {
                    bad.push((without(&line, &node), format!("`{}`", node.name)));
                }
                for (line, names) in bad {
                    match StoreEntry::decode_line(&line) {
                        Err(LineError::Schema(e)) => {
                            assert!(e.0.contains(&names), "{:?}: {e}", node.path)
                        }
                        other => panic!("{:?}: expected a schema error, got {other:?}", node.path),
                    }
                    let text = format!("{good}{line}");
                    match open_lines(&dir, &text) {
                        Err(StoreError::Corrupt(_, 2, msg)) => assert!(msg.contains(&names)),
                        other => panic!("{:?}: expected corrupt line 2, got {other:?}", node.path),
                    }
                    assert_eq!(fs::read_to_string(dir.join(STORE_FILE)).unwrap(), text);
                    cases += 1;
                }
            }
        }
        assert!(cases > 150, "{cases}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_last_of_a_repeated_member_wins() {
        let (a, b) = (key("a"), key("b"));
        let line = format!(
            r#"{{"key":"{a}","unit":{{"scheme":"x","ipcs":[1],"scheme":"y"}},"key":"{b}"}}"#
        );
        let entry = StoreEntry::decode_line(&line).unwrap();
        assert_eq!(entry.key, b);
        assert_eq!(entry.result, fake_run("y", &[1.0]));
        let line = format!(
            r#"{{"unit":{{"scheme":"x","ipcs":[1]}},"key":"{}","unit":{{"scheme":"z","ipcs":[2]}}}}"#,
            key("k")
        );
        assert_eq!(
            StoreEntry::decode_line(&line).unwrap().result,
            fake_run("z", &[2.0])
        );
    }

    /// A `key` that is not exactly 32 lowercase hex digits is a schema
    /// error naming the file, the line and `.key` — fatal even as the
    /// file's last line, which is left as it was.
    #[test]
    fn a_key_spelled_any_other_way_is_fatal_and_named() {
        let dir = tmp_dir("bad-key");
        let good = format!("{}\n", sample_entries()[0].render_line().unwrap());
        let hex = key("u1").to_string();
        for bad in [
            "k1".to_string(),
            hex.to_uppercase(),
            hex[..31].to_string(),
            format!("{hex}0"),
            hex.replacen(|c: char| c.is_ascii_digit(), "g", 1),
        ] {
            let line = good.replacen(&hex, &bad, 1);
            assert_ne!(line, good);
            match StoreEntry::decode_line(line.trim_end()) {
                Err(LineError::Schema(e)) => assert!(e.0.starts_with(".key: "), "{bad}: {e}"),
                other => panic!("{bad}: expected a schema error, got {other:?}"),
            }
            for (text, at) in [(format!("{good}{line}"), 2), (format!("{line}{good}"), 1)] {
                match open_lines(&dir, &text) {
                    Err(StoreError::Corrupt(file, line, msg)) => {
                        assert_eq!(file, dir.join(STORE_FILE).display().to_string());
                        assert_eq!(line, at, "{bad}");
                        assert!(msg.starts_with(".key: "), "{bad}: {msg}");
                        assert!(msg.contains("32 lowercase hex digits"), "{bad}: {msg}");
                    }
                    other => panic!("{bad}: expected corrupt line {at}, got {other:?}"),
                }
                assert_eq!(fs::read_to_string(dir.join(STORE_FILE)).unwrap(), text);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    fn fake_run(scheme: &str, ipcs: &[f64]) -> StoredResult {
        StoredResult::Unit(SchemeRun {
            scheme: scheme.into(),
            ipcs: ipcs.to_vec(),
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        })
    }

    /// The reader's next value, a document as the writer spells it (no
    /// whitespace), copied with every object's members in an order
    /// drawn from `next`.
    fn shuffled(r: &mut JsonReader<'_>, text: &str, next: &mut impl FnMut() -> u64) -> String {
        let start = r.offset();
        let mut items = Vec::new();
        let (open, close) = match text.as_bytes()[start] {
            b'{' => {
                r.object(|r, name| {
                    let mut w = JsonWriter::default();
                    w.str(name)?;
                    items.push(format!("{}:{}", w.finish(), shuffled(r, text, next)));
                    Ok(())
                })
                .unwrap();
                for i in (1..items.len()).rev() {
                    items.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                ('{', '}')
            }
            b'[' => {
                r.array(|r| {
                    items.push(shuffled(r, text, next));
                    Ok(())
                })
                .unwrap();
                ('[', ']')
            }
            _ => {
                r.skip().unwrap();
                return text[start..r.offset()].to_string();
            }
        };
        format!("{open}{}{close}", items.join(","))
    }

    /// Bytes JSON's grammar reacts to, for near-miss mutations.
    const SOUP: &[u8] = b"{}[]\",:\\ \t0123456789.eE+-tfnrulsa\x00\x1f\x7f\xc3\xff";

    use proptest::prelude::*;

    proptest! {
        /// A line with its members in any order at every level, and
        /// carrying an `inputs` member anywhere, decodes to the same
        /// entry, for every payload kind.
        #[test]
        fn reordered_members_and_inputs_decode_alike(
            words in proptest::collection::vec(0u64..=u64::MAX, 64..65)
        ) {
            let mut words = words.into_iter().cycle();
            let mut next = || words.next().unwrap_or(0);
            for entry in sample_entries() {
                let mut line = entry.render_line().unwrap();
                if next() % 2 == 0 {
                    line = line.replacen('{', r#"{"inputs":"Combo { class: C1 } | l2p","#, 1);
                }
                let line = shuffled(&mut JsonReader::new(&line), &line, &mut next);
                prop_assert_eq!(StoreEntry::decode_line(&line), Ok(entry));
            }
        }

        /// Arbitrary bytes never panic the line decoder, and it sorts
        /// every line as JSON's grammar does: a syntax error exactly
        /// when the line is not one JSON document.
        #[test]
        fn arbitrary_bytes_never_panic_the_line_decoder(
            bytes in proptest::collection::vec(0u8..=255, 0..256)
        ) {
            let text = String::from_utf8_lossy(&bytes);
            let decoded = StoreEntry::decode_line(&text);
            prop_assert_eq!(
                matches!(decoded, Err(LineError::Syntax(_))),
                json::check(&text).is_err()
            );
        }

        /// Lines a few grammar bytes away from a valid line of each
        /// payload kind never panic the decoder, sort as JSON's grammar
        /// does, and whatever they decode to round-trips.
        #[test]
        fn grammar_near_misses_never_panic_the_line_decoder(
            edits in proptest::collection::vec((0usize..4096, 0usize..SOUP.len()), 1..4),
            kind in 0usize..3
        ) {
            let entry = &sample_entries()[kind];
            let mut bytes = entry.render_line().unwrap().into_bytes();
            for &(at, b) in &edits {
                let at = at % bytes.len();
                bytes[at] = SOUP[b];
            }
            let text = String::from_utf8_lossy(&bytes);
            let decoded = StoreEntry::decode_line(&text);
            prop_assert_eq!(
                matches!(decoded, Err(LineError::Syntax(_))),
                json::check(&text).is_err()
            );
            if let Ok(entry) = decoded {
                let again = StoreEntry::decode_line(&entry.render_line().unwrap());
                prop_assert_eq!(again, Ok(entry));
            }
        }
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let dir = tmp_dir("blank");
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert(key("k"), fake("x+y", 1.0)).unwrap();
        let path = dir.join(STORE_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push('\n');
        fs::write(&path, text).unwrap();
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
