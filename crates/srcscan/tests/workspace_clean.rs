//! The real workspace: every first-party member opts into the
//! workspace lint tables, so `unsafe_code = "forbid"` and the clippy
//! settings reach all of them. (The key-fragment registry is
//! reconciled with the real harness sources by
//! `key_fragments_match_the_registry` in
//! `crates/harness/tests/key_pinning.rs`, which has `SCHEMA_VERSION`.)

use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let missing = snug_srcscan::members_without_workspace_lints(&root).unwrap();
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true`: {missing:?}"
    );
}
