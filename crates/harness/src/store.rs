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
//! * [`SPANS_FILE`] (`spans.jsonl`) — wall-clock execution telemetry
//!   ([`UnitSpan`]), kept out of `store.jsonl` precisely because wall
//!   time is *not* deterministic. Span entries found in a legacy
//!   `store.jsonl` still decode; [`ResultStore::compact`] migrates them
//!   to the sidecar.
//! * [`SHARDS_DIR`]`/worker-N.jsonl` — per-worker append-only shards a
//!   running sweep writes for crash durability; merged into the main
//!   store and deleted at sweep end. Leftover shards (a killed sweep)
//!   are recovered through [`ResultStore::recover_shards`] under the
//!   usual merge semantics.
//!
//! ## Key schema
//!
//! Keys are [`crate::spec::SCHEMA_VERSION`] (v2) content hashes: one
//! line per *(combo, scheme point)* simulation, value a
//! [`snug_experiments::SchemeRun`] under the `"unit"` field. A v1 line
//! (a whole five-scheme comparison under a `"result"` field) is
//! rejected as corrupt: the v1 schema is no longer read.

use crate::codec::JsonCodec;
use crate::json::{parse, JsonError, Value};
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
pub const SPANS_FILE: &str = "spans.jsonl";

/// Directory (inside the results directory) holding the per-worker
/// shard files of an in-flight sweep.
pub const SHARDS_DIR: &str = "shards";

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

/// One stored line: the key, a little human-readable context, and the
/// full result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Content key of the producing job.
    pub key: String,
    /// The input description that was hashed into the key (debug form,
    /// for humans auditing the store).
    pub inputs: String,
    /// The cached result.
    pub result: StoredResult,
}

impl StoreEntry {
    fn to_json(&self) -> Value {
        let StoreEntry {
            key,
            inputs,
            result,
        } = self;
        let payload = match result {
            StoredResult::Unit(run) => ("unit", run.to_json()),
            StoredResult::Series(series) => ("series", series.to_json()),
            StoredResult::Span(span) => ("span", span.to_json()),
        };
        Value::obj(vec![
            ("key", Value::str(key)),
            ("inputs", Value::str(inputs)),
            payload,
        ])
    }

    /// Decode a parsed line, moving `key` and `inputs` out of the tree
    /// rather than copying them.
    fn from_json(mut v: Value) -> Result<Self, JsonError> {
        let result = if let Ok(unit) = v.get("unit") {
            StoredResult::Unit(SchemeRun::from_json(unit)?)
        } else if let Ok(series) = v.get("series") {
            StoredResult::Series(TraceSeries::from_json(series)?)
        } else if let Ok(span) = v.get("span") {
            StoredResult::Span(UnitSpan::from_json(span)?)
        } else {
            return Err(JsonError(
                "entry has no `unit`, `series` or `span` payload (a `result` payload is a \
                 whole-combo entry of the removed v1 store schema)"
                    .into(),
            ));
        };
        Ok(StoreEntry {
            key: v.take_str("key")?,
            inputs: v.take_str("inputs")?,
            result,
        })
    }

    /// Parse and decode one JSONL line.
    #[cfg(test)]
    fn parse_line(line: &str) -> Result<Self, JsonError> {
        parse(line).and_then(StoreEntry::from_json)
    }

    /// The entry rendered as one JSONL line (no trailing newline) — the
    /// exact bytes `insert` appends, shared with the shard writers so a
    /// shard line and a store line for the same result are identical.
    pub(crate) fn render_line(&self) -> String {
        self.to_json().render()
    }
}

/// Load one JSONL file of store entries into `entries`, returning the
/// number of intact data lines. A partial trailing line (crash or full
/// disk during append) is dropped and truncated so the next append
/// starts on a clean line; corruption anywhere else stays fatal. A
/// missing file is an empty store.
fn load_jsonl(
    path: &Path,
    entries: &mut BTreeMap<String, StoreEntry>,
) -> Result<usize, StoreError> {
    let file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(StoreError::io(path, e)),
    };
    let mut file_lines = 0usize;
    let torn = read_entries(path, file, |entry| {
        entries.insert(entry.key.clone(), entry);
        file_lines += 1;
        Ok(())
    })?;
    if let Some(line_start) = torn {
        fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(line_start))
            .map_err(|e| StoreError::io(path, e))?;
    }
    Ok(file_lines)
}

/// Decode the data lines of a JSONL store file in order, handing each
/// entry to `visit`. The file streams through one reused line buffer, so
/// it is never held whole next to the entries decoded from it. A line
/// that does not parse is fatal, unless it is the file's last: that is
/// the torn tail of an interrupted append, and its byte offset is
/// returned for the caller to truncate at or skip. A line that parses
/// but does not decode is fatal wherever it sits — a torn append is
/// never complete JSON, so dropping it would discard a whole entry.
fn read_entries(
    path: &Path,
    file: fs::File,
    mut visit: impl FnMut(StoreEntry) -> Result<(), StoreError>,
) -> Result<Option<u64>, StoreError> {
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut line = Vec::new();
    let mut offset = 0u64;
    let mut lineno = 0usize;
    loop {
        line.clear();
        let read = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| StoreError::io(path, e))?;
        if read == 0 {
            return Ok(None);
        }
        let line_start = offset;
        offset += read as u64;
        lineno += 1;
        let parsed = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse(text),
            Err(_) => Err(JsonError("invalid UTF-8".into())),
        };
        match parsed {
            Ok(value) => visit(
                StoreEntry::from_json(value).map_err(|e| StoreError::corrupt(path, lineno, e))?,
            )?,
            Err(_)
                if reader
                    .fill_buf()
                    .map_err(|e| StoreError::io(path, e))?
                    .is_empty() =>
            {
                return Ok(Some(line_start))
            }
            Err(e) => return Err(StoreError::corrupt(path, lineno, e)),
        }
    }
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
        writeln!(file, "{}", entry.render_line()).map_err(|e| StoreError::io(&self.path, e))
    }
}

/// The persistent, content-addressed result cache.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    entries: BTreeMap<String, StoreEntry>,
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
    pub fn dir(&self) -> &Path {
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
    pub fn get(&self, key: &str) -> Option<&StoredResult> {
        self.entries.get(key).map(|e| &e.result)
    }

    /// Look up a v2 unit result by content key.
    pub fn get_unit(&self, key: &str) -> Option<&SchemeRun> {
        match self.get(key) {
            Some(StoredResult::Unit(run)) => Some(run),
            _ => None,
        }
    }

    /// Look up a recorded time series by content key.
    pub fn get_series(&self, key: &str) -> Option<&TraceSeries> {
        match self.get(key) {
            Some(StoredResult::Series(series)) => Some(series),
            _ => None,
        }
    }

    /// Look up an execution span by content key.
    pub fn get_span(&self, key: &str) -> Option<&UnitSpan> {
        match self.get(key) {
            Some(StoredResult::Span(span)) => Some(span),
            _ => None,
        }
    }

    /// Every stored execution span, in key order.
    pub fn spans(&self) -> Vec<&UnitSpan> {
        self.entries
            .values()
            .filter_map(|e| match &e.result {
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
        for entry in self.entries.values() {
            let text = match entry.result {
                StoredResult::Span(_) => &mut spans_text,
                _ => &mut store_text,
            };
            text.push_str(&entry.render_line());
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
            .filter(|e| matches!(e.result, StoredResult::Unit(_)))
            .count()
    }

    /// Number of recorded time-series entries.
    pub fn series_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e.result, StoredResult::Series(_)))
            .count()
    }

    /// Number of execution-span entries.
    pub fn span_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e.result, StoredResult::Span(_)))
            .count()
    }

    /// Insert a fresh unit result and append it to the JSONL file.
    pub fn insert_unit(
        &mut self,
        key: String,
        inputs: String,
        run: SchemeRun,
    ) -> Result<(), StoreError> {
        self.insert(key, inputs, StoredResult::Unit(run))
    }

    /// Insert a fresh result and append it to the backing JSONL file —
    /// `spans.jsonl` for telemetry spans, `store.jsonl` for everything
    /// else.
    pub fn insert(
        &mut self,
        key: String,
        inputs: String,
        result: StoredResult,
    ) -> Result<(), StoreError> {
        let file = match result {
            StoredResult::Span(_) => SPANS_FILE,
            _ => STORE_FILE,
        };
        let entry = StoreEntry {
            key: key.clone(),
            inputs,
            result,
        };
        let line = entry.render_line();
        fs::create_dir_all(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        let path = self.dir.join(file);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        writeln!(file, "{line}").map_err(|e| StoreError::io(&path, e))?;
        self.entries.insert(key, entry);
        self.file_lines += 1;
        Ok(())
    }

    /// Insert an execution span.
    pub fn insert_span(
        &mut self,
        key: String,
        inputs: String,
        span: UnitSpan,
    ) -> Result<(), StoreError> {
        self.insert(key, inputs, StoredResult::Span(span))
    }

    /// Insert a recorded time series.
    pub fn insert_series(
        &mut self,
        key: String,
        inputs: String,
        series: TraceSeries,
    ) -> Result<(), StoreError> {
        self.insert(key, inputs, StoredResult::Series(series))
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
                Some(existing) if *existing == entry => {
                    stats.unchanged += 1;
                    return Ok(());
                }
                Some(_) => stats.superseded += 1,
                None => stats.added += 1,
            }
            self.insert(entry.key.clone(), entry.inputs, entry.result)
        })?;
        Ok(stats)
    }

    /// Recover leftover per-worker shards from a killed sweep: merge
    /// every `shards/worker-*.jsonl` file (in name order) under the
    /// usual [`ResultStore::merge_file`] semantics, then delete the
    /// shards. A partial trailing shard line (the unit mid-append when
    /// the sweep died) is skipped; its unit simply re-runs. Returns the
    /// total merge stats, all zero when there is nothing to recover.
    pub fn recover_shards(&mut self) -> Result<MergeStats, StoreError> {
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
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

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
        store
            .insert("k1".into(), "inputs-1".into(), fake("a+b", 1.25))
            .unwrap();
        store
            .insert("k2".into(), "inputs-2".into(), fake("c+d", 0.75))
            .unwrap();
        drop(store);

        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("k1").unwrap(), &fake("a+b", 1.25));
        assert_eq!(back.get("k2").unwrap(), &fake("c+d", 0.75));
        assert!(back.get("k3").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_lines_are_rejected_with_location() {
        let dir = tmp_dir("corrupt");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
        let path = dir.join(STORE_FILE);
        let good_line = fs::read_to_string(&path).unwrap();
        // A v1 whole-combo entry is complete JSON the current schema no
        // longer reads: rejected with its location even as the last
        // line, where a torn append would be dropped.
        let v1 = "{\"key\":\"c1\",\"inputs\":\"combo-inputs\",\"result\":{\"label\":\"a+b\",\
                  \"class\":\"C3\",\"baseline_ipcs\":[1,0.5],\"schemes\":[],\"cc_sweep\":[[0,1]]}}\n";
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

    #[test]
    fn partial_trailing_line_is_dropped_and_truncated() {
        let dir = tmp_dir("partial-tail");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k1".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
        let path = dir.join(STORE_FILE);
        let clean_len = fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: a partial, newline-less record.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"k2\",\"inp");
        fs::write(&path, &text).unwrap();

        // Open tolerates it, keeps the intact entry, truncates the tail.
        let mut recovered = ResultStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.get("k1").is_some());
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            clean_len,
            "tail truncated"
        );

        // Appends after recovery land on a clean line.
        recovered
            .insert("k3".into(), "i".into(), fake("a+b", 1.5))
            .unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tail_torn_inside_a_character_is_truncated_not_fatal() {
        let dir = tmp_dir("torn-utf8");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k1".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
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
        store
            .insert_series("t1".into(), "trace-inputs".into(), series.clone())
            .unwrap();
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.get_series("t1").unwrap(), &series);
        assert_eq!(back.series_count(), 1);
        assert!(back.get_unit("t1").is_none(), "typed lookup rejects kind");
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
        store
            .insert_span("s1".into(), "span | inputs".into(), span.clone())
            .unwrap();
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.get_span("s1").unwrap(), &span);
        assert_eq!(back.span_count(), 1);
        assert_eq!(back.spans(), vec![&span]);
        assert!(back.get_unit("s1").is_none(), "typed lookup rejects kind");
        assert!(back.get_span("missing").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_land_in_the_sidecar_not_the_deterministic_store() {
        let dir = tmp_dir("span-sidecar");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("u1".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
        let store_bytes = fs::read(dir.join(STORE_FILE)).unwrap();
        store
            .insert_span("s1".into(), "span".into(), UnitSpan::default())
            .unwrap();
        assert_eq!(
            fs::read(dir.join(STORE_FILE)).unwrap(),
            store_bytes,
            "span inserts must not touch store.jsonl"
        );
        assert!(dir.join(SPANS_FILE).exists());
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.span_count(), 1);
        assert_eq!(back.unit_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_migrates_legacy_inline_spans_to_the_sidecar() {
        let dir = tmp_dir("span-migrate");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("u1".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
        // Fake a legacy store with the span inline in store.jsonl.
        let span_entry = StoreEntry {
            key: "s1".into(),
            inputs: "span".into(),
            result: StoredResult::Span(UnitSpan::default()),
        };
        let path = dir.join(STORE_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&span_entry.render_line());
        text.push('\n');
        fs::write(&path, text).unwrap();

        let mut back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.span_count(), 1, "legacy inline span still decodes");
        back.compact().unwrap();
        let store_text = fs::read_to_string(&path).unwrap();
        assert!(
            !store_text.contains("\"span\""),
            "compact moves spans out of store.jsonl"
        );
        let spans_text = fs::read_to_string(dir.join(SPANS_FILE)).unwrap();
        assert!(spans_text.contains("\"span\""));
        assert_eq!(ResultStore::open(&dir).unwrap().span_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_shards_merges_and_deletes_skipping_partial_tails() {
        let dir = tmp_dir("recover");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k1".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();

        // Shard 0: one duplicate of k1 plus a fresh k2.
        let mut shard0 = ShardWriter::new(dir.join(SHARDS_DIR).join("worker-0.jsonl"));
        shard0
            .append(&StoreEntry {
                key: "k1".into(),
                inputs: "i".into(),
                result: fake("x+y", 1.0),
            })
            .unwrap();
        shard0
            .append(&StoreEntry {
                key: "k2".into(),
                inputs: "i".into(),
                result: fake("a+b", 2.0),
            })
            .unwrap();
        assert!(shard0.written());
        // Shard 1: a fresh k3 followed by a crash-truncated partial line.
        let mut shard1 = ShardWriter::new(dir.join(SHARDS_DIR).join("worker-1.jsonl"));
        shard1
            .append(&StoreEntry {
                key: "k3".into(),
                inputs: "i".into(),
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
        assert!(store.get("k4").is_none());

        // Nothing left: a second recovery is a no-op.
        assert_eq!(store.recover_shards().unwrap(), MergeStats::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_superseded_duplicates_and_is_idempotent() {
        let dir = tmp_dir("compact");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k1".into(), "old".into(), fake("x+y", 1.0))
            .unwrap();
        store
            .insert("k2".into(), "i".into(), fake("a+b", 2.0))
            .unwrap();
        // Supersede k1 (as a schema bump or re-run would).
        store
            .insert("k1".into(), "new".into(), fake("x+y", 3.0))
            .unwrap();
        assert_eq!(store.file_lines(), 3);
        assert_eq!(store.len(), 2);

        let (kept, dropped) = store.compact().unwrap();
        assert_eq!((kept, dropped), (2, 1));
        assert_eq!(store.file_lines(), 2);

        // The newest value per key survived, on disk too.
        let back = ResultStore::open(&dir).unwrap();
        assert_eq!(back.file_lines(), 2);
        assert_eq!(back.get("k1").unwrap(), &fake("x+y", 3.0));
        assert_eq!(back.get("k2").unwrap(), &fake("a+b", 2.0));

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

    #[test]
    fn committed_store_re_renders_byte_for_byte() {
        let store = ResultStore::open(committed_dir()).unwrap();
        let text = committed_store();
        let mut rendered = String::with_capacity(text.len());
        for line in text.lines() {
            let key = parse(line).unwrap().take_str("key").unwrap();
            rendered.push_str(&store.entries[&key].render_line());
            rendered.push('\n');
        }
        assert_eq!(text.lines().count(), 756);
        assert_eq!(store.unit_count(), 756);
        assert!(
            rendered == text,
            "decode → encode changed the committed store"
        );
    }

    #[test]
    fn every_truncation_of_a_committed_line_is_an_error() {
        for line in sample_lines() {
            for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
                assert!(parse(&line[..cut]).is_err(), "json prefix {cut}");
                assert!(
                    StoreEntry::parse_line(&line[..cut]).is_err(),
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
                    if let Ok(entry) = StoreEntry::parse_line(&text) {
                        let again = StoreEntry::parse_line(&entry.render_line());
                        assert_eq!(again.as_ref(), Ok(&entry), "byte {pos} = {b:#04x}");
                    }
                }
                bytes[pos] = original;
            }
        }
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let dir = tmp_dir("blank");
        let mut store = ResultStore::open(&dir).unwrap();
        store
            .insert("k".into(), "i".into(), fake("x+y", 1.0))
            .unwrap();
        let path = dir.join(STORE_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push('\n');
        fs::write(&path, text).unwrap();
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
