//! Every first-party package (the root and each `crates/*` member) opts
//! into the workspace lint tables with `[lints]` followed by
//! `workspace = true`, so the settings in the root `Cargo.toml` reach
//! all of them: `unsafe_code = "forbid"`, `unreachable_pub = "warn"`
//! (a `pub` item its crate root does not re-export is flagged, so each
//! crate's API is its `lib.rs` `pub use` list) and the clippy table
//! (`allow_attributes`, `allow_attributes_without_reason`). The
//! vendored shims under `vendor/` are exempt.

use std::fs;
use std::path::PathBuf;

/// The two consecutive manifest lines, trimmed, that opt a package in.
const OPT_IN: [&str; 2] = ["[lints]", "workspace = true"];

#[test]
fn every_first_party_package_opts_into_workspace_lints() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.clone()];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(entry.unwrap().path());
    }
    for dir in dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let lines: Vec<&str> = manifest.lines().map(str::trim).collect();
        let opted_in = lines.windows(2).any(|w| w == OPT_IN);
        assert!(opted_in, "{} lacks [lints] workspace = true", dir.display());
    }
}
