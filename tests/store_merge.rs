//! `snug store merge`: folding sharded stores from multi-machine sweeps
//! into one store under gc's newest-entry-per-key rule, and the
//! idempotence contract — merging the same shard again (and gc'ing)
//! changes nothing.

use snug_experiments::SchemeRun;
use snug_harness::content_key;
use snug_harness::{ContentKey, MergeStats, ResultStore, StoredResult};
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snug-merge-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A test entry's key: the content key of its name.
fn key(name: &str) -> ContentKey {
    content_key(name)
}

fn unit(scheme: &str, tp: f64) -> StoredResult {
    StoredResult::Unit(SchemeRun {
        scheme: scheme.into(),
        ipcs: vec![1.0, 0.5, tp],
        measured_cycles: None,
        stop_reason: None,
        plateaus: Vec::new(),
    })
}

/// Build a store under `dir` with the given (key, throughput) units and
/// return the path of its JSONL file.
fn build_store(dir: &PathBuf, entries: &[(&str, f64)]) -> PathBuf {
    let mut store = ResultStore::open(dir).unwrap();
    for (name, tp) in entries {
        store.insert(key(name), unit(name, *tp)).unwrap();
    }
    dir.join("store.jsonl")
}

#[test]
fn merge_folds_shards_newest_entry_per_key() {
    let main_dir = tmp_dir("main");
    let shard_dir = tmp_dir("shard");
    build_store(&main_dir, &[("k1", 1.0), ("k2", 1.0)]);
    // The shard agrees on k1, disagrees on k2, and brings k3.
    let shard = build_store(&shard_dir, &[("k1", 1.0), ("k2", 2.0), ("k3", 3.0)]);

    let mut store = ResultStore::open(&main_dir).unwrap();
    let stats = store.merge_file(&shard).unwrap();
    assert_eq!(
        stats,
        MergeStats {
            read: 3,
            added: 1,
            superseded: 1,
            unchanged: 1,
        }
    );
    assert_eq!(store.len(), 3);
    // Shard entries win on collision — the same rule gc applies to
    // later lines of one file.
    assert_eq!(store.get(&key("k2")).unwrap(), &unit("k2", 2.0));
    assert_eq!(store.get(&key("k3")).unwrap(), &unit("k3", 3.0));
    store.compact().unwrap();

    // Everything survives a reopen from disk.
    let back = ResultStore::open(&main_dir).unwrap();
    assert_eq!(back.len(), 3);
    assert_eq!(back.get(&key("k2")).unwrap(), &unit("k2", 2.0));

    fs::remove_dir_all(&main_dir).unwrap();
    fs::remove_dir_all(&shard_dir).unwrap();
}

#[test]
fn merge_then_gc_is_idempotent() {
    let main_dir = tmp_dir("idem-main");
    let shard_dir = tmp_dir("idem-shard");
    build_store(&main_dir, &[("a", 1.0)]);
    let shard = build_store(&shard_dir, &[("a", 1.5), ("b", 2.0)]);

    // First merge ∘ gc reaches the fixed point...
    let mut store = ResultStore::open(&main_dir).unwrap();
    store.merge_file(&shard).unwrap();
    store.compact().unwrap();
    let bytes = fs::read(main_dir.join("store.jsonl")).unwrap();

    // ...and a second merge ∘ gc of the same shard changes nothing:
    // every shard entry is already present and identical, so nothing is
    // re-appended and gc drops nothing.
    let mut again = ResultStore::open(&main_dir).unwrap();
    let stats = again.merge_file(&shard).unwrap();
    assert_eq!(stats.added + stats.superseded, 0, "all unchanged");
    assert_eq!(stats.unchanged, 2);
    assert_eq!(again.compact().unwrap(), (2, 0));
    assert_eq!(
        fs::read(main_dir.join("store.jsonl")).unwrap(),
        bytes,
        "merge ∘ gc is idempotent byte-for-byte"
    );

    fs::remove_dir_all(&main_dir).unwrap();
    fs::remove_dir_all(&shard_dir).unwrap();
}

#[test]
fn merge_tolerates_a_partial_trailing_shard_line_and_rejects_interior_corruption() {
    let main_dir = tmp_dir("tail-main");
    let shard_dir = tmp_dir("tail-shard");
    build_store(&main_dir, &[]);
    let shard = build_store(&shard_dir, &[("x", 1.0)]);

    // An interrupted shard append leaves a partial last line: merged
    // minus the tail.
    let mut text = fs::read_to_string(&shard).unwrap();
    text.push_str("{\"key\":\"y\",\"inp");
    fs::write(&shard, &text).unwrap();
    let mut store = ResultStore::open(&main_dir).unwrap();
    let stats = store.merge_file(&shard).unwrap();
    assert_eq!((stats.read, stats.added), (1, 1));
    assert!(store.get(&key("x")).is_some());

    // Corruption anywhere else stays fatal.
    let good_line = fs::read_to_string(&shard)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    fs::write(&shard, format!("{{nope\n{good_line}\n")).unwrap();
    assert!(store.merge_file(&shard).is_err());

    fs::remove_dir_all(&main_dir).unwrap();
    fs::remove_dir_all(&shard_dir).unwrap();
}
