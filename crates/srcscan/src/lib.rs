//! `snug-srcscan`: the two workspace guarantees no rustc or clippy
//! lint expresses, checked by scanning sources and manifests.
//!
//! * **Registered content-key fragments.** Every `|frag` / `|frag=`
//!   fragment a harness key-building module writes re-keys the result
//!   store, so each must be listed in `key_fragments.registry`, every
//!   entry must still be written (or be parked with a `reserved:`
//!   note), and the registry's `# schema:` header must name
//!   `SCHEMA_VERSION`. [`key_fragments`] reads fragments from the
//!   string literals of non-test code with a comment-, string- and
//!   raw-string-aware [`lexer`]; [`registry_findings`] reconciles them
//!   with the registry. The check on the real sources is
//!   `key_fragments_match_the_registry` in harness's
//!   `tests/key_pinning.rs`.
//! * **Workspace lints reach every member.** `unsafe_code = "forbid"`
//!   and the clippy settings in `[workspace.lints]` apply only to a
//!   member whose manifest says `[lints] workspace = true`; a new
//!   crate that forgets the opt-in compiles with none of them.
//!   [`members_without_workspace_lints`] finds such members with the
//!   [`manifest`] reader; `tests/workspace_clean.rs` runs it on the
//!   real workspace.
//!
//! The crate has no dependencies and is only a dev-dependency.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod lexer;
pub mod manifest;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use lexer::TokKind;
use manifest::Manifest;

/// Every `|frag` / `|frag=` content-key fragment written by a string
/// literal (plain, byte or raw) in the non-test code of `source`, in
/// source order. Comments, char literals and test-only items
/// (`#[cfg(test)]`, `#[test]`, `#[cfg(all(test, …))]`) contribute
/// nothing.
pub fn key_fragments(source: &str) -> Vec<String> {
    let toks = lexer::lex(source);
    let mask = lexer::test_mask(&toks);
    toks.iter()
        .zip(mask)
        .filter(|(t, in_test)| !in_test && matches!(t.kind, TokKind::Str | TokKind::RawStr))
        .flat_map(|(t, _)| fragments(t.str_content()))
        .collect()
}

/// `|frag` / `|frag=` fragments in a literal: a `|` followed by a
/// letter, then letters, digits, `_` or `-`, and an optional `=`.
fn fragments(literal: &str) -> Vec<String> {
    let b = literal.as_bytes();
    let mut out = Vec::new();
    for (k, _) in literal.match_indices('|') {
        if !b.get(k + 1).is_some_and(u8::is_ascii_alphabetic) {
            continue;
        }
        let len = b[k + 1..]
            .iter()
            .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_' || **c == b'-')
            .count();
        let mut end = k + 1 + len;
        if b.get(end) == Some(&b'=') {
            end += 1;
        }
        out.push(literal[k + 1..end].to_string());
    }
    out
}

/// Reconcile a key-fragment registry with the key-building modules
/// (`(name, source)` pairs) and the current `schema_version`.
///
/// The registry holds one `fragment<whitespace>note` entry per line,
/// `#` comments, and a `# schema: <version>` header. Returns one
/// message per disagreement, empty when they agree:
/// a fragment written but not registered; an entry without a note; an
/// entry no module writes any more, unless its note starts with
/// `reserved:`; a header that is missing or names another version.
pub fn registry_findings(
    modules: &[(&str, &str)],
    registry: &str,
    schema_version: &str,
) -> Vec<String> {
    let mut written: BTreeMap<String, &str> = BTreeMap::new();
    for (name, source) in modules {
        for frag in key_fragments(source) {
            written.entry(frag).or_insert(name);
        }
    }

    let mut findings = Vec::new();
    let mut schema = None;
    let mut registered: BTreeMap<&str, &str> = BTreeMap::new();
    for line in registry.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(v) = comment.trim().strip_prefix("schema:") {
                schema = Some(v.trim());
            }
            continue;
        }
        let (frag, note) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let note = note.trim();
        if note.is_empty() {
            findings.push(format!(
                "registry entry `{frag}` needs a schema-version note"
            ));
        }
        registered.insert(frag, note);
    }

    match schema {
        Some(v) if v == schema_version => {}
        Some(v) => findings.push(format!(
            "registry header `# schema: {v}` does not name SCHEMA_VERSION `{schema_version}`"
        )),
        None => findings.push(format!(
            "registry has no `# schema:` header naming SCHEMA_VERSION `{schema_version}`"
        )),
    }
    for (frag, module) in &written {
        if !registered.contains_key(frag.as_str()) {
            findings.push(format!(
                "content-key fragment `|{frag}` in {module} is not in the registry"
            ));
        }
    }
    for (frag, note) in &registered {
        if !written.contains_key(*frag) && !note.starts_with("reserved:") {
            findings.push(format!(
                "registry entry `{frag}` has no remaining literal in the key modules; delete \
                 it, or mark its note `reserved: <why>`"
            ));
        }
    }
    findings
}

/// First-party members of the workspace rooted at `root` whose
/// manifest does not opt into the workspace lint tables with
/// `[lints] workspace = true`, as root-relative directories (`.` for
/// the root package), sorted.
///
/// First-party means the root package plus the `[workspace] members`
/// under `crates/` (a trailing `/*` glob is expanded to the
/// subdirectories holding a `Cargo.toml`). Other members, such as the
/// `vendor/*` stand-ins for external dependencies, are exempt.
pub fn members_without_workspace_lints(root: &Path) -> Result<Vec<String>, String> {
    let read = |dir: &str| -> Result<Manifest, String> {
        let path = root.join(dir).join("Cargo.toml");
        fs::read_to_string(&path)
            .map(|text| Manifest::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let workspace = read(".")?;
    let mut members = Vec::new();
    if workspace.package_name().is_some() {
        members.push(".".to_string());
    }
    for member in workspace.string_array("workspace", "members") {
        if !member.starts_with("crates") {
            continue;
        }
        let Some(prefix) = member.strip_suffix("/*") else {
            members.push(member);
            continue;
        };
        let base = root.join(prefix);
        let entries = fs::read_dir(&base).map_err(|e| format!("{}: {e}", base.display()))?;
        for entry in entries.flatten() {
            if entry.path().join("Cargo.toml").is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    members.push(format!("{prefix}/{name}"));
                }
            }
        }
    }
    members.sort();

    let mut missing = Vec::new();
    for dir in members {
        if read(&dir)?.get("lints", "workspace") != Some("true") {
            missing.push(dir);
        }
    }
    Ok(missing)
}
