//! The scanners against seeded violations: registry drift in both
//! directions, source traps that must not yield a fragment, and a
//! throwaway workspace in which some members skip the workspace-lints
//! opt-in.

use std::fs;
use std::path::PathBuf;

use snug_srcscan::{key_fragments, members_without_workspace_lints, registry_findings};

/// A key module with one registered fragment, one unregistered
/// fragment, a bare marker and a fragment that only a test writes.
const SPEC: &str = r#"
/// The fixture schema version; the registry header says v8.
pub const SCHEMA_VERSION: &str = "fixture/v9";

pub fn good_key(x: u32) -> String {
    format!("{SCHEMA_VERSION}|okfrag={x}")
}

pub fn drifting_key(x: u32) -> String {
    format!("{SCHEMA_VERSION}|badfrag={x}")
}

pub fn marker_key() -> String {
    format!("{SCHEMA_VERSION}|okmarker|tail")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_strings_are_exempt() {
        assert!("x|testonly=1".contains("|testonly="));
    }
}
"#;

/// A registry whose header lags `SPEC`, with a stale entry, a
/// note-less entry and a deliberately parked one.
const REGISTRY: &str = "\
# schema: fixture/v8
#
# fragment\tnote
okfrag=\tv8: the registered fragment
okmarker\tv8: the registered bare marker
tail\tv8: trailing marker after okmarker
stale=\tv8: no longer appears in any key module
noteless
parked=\treserved: held for the fixture/v10 schema migration, no code site yet
";

#[test]
fn key_fragment_registry_catches_drift_both_ways() {
    let hits = registry_findings(&[("src/spec.rs", SPEC)], REGISTRY, "fixture/v9");
    let has = |needle: &str| hits.iter().any(|h| h.contains(needle));
    // Unregistered fragment in source, named with its module.
    assert!(has("`|badfrag=` in src/spec.rs"), "{hits:#?}");
    // Stale registry entry.
    assert!(has("`stale=` has no remaining literal"), "{hits:#?}");
    // Note-less entry.
    assert!(has("`noteless` needs a schema-version note"), "{hits:#?}");
    // Schema header lags SCHEMA_VERSION.
    assert!(
        hits.iter()
            .any(|h| h.contains("fixture/v8") && h.contains("fixture/v9")),
        "{hits:#?}"
    );
    // Registered, reserved and test-only fragments stay silent.
    for quiet in ["okfrag", "okmarker", "tail", "parked", "testonly"] {
        assert!(!has(quiet), "{quiet}: {hits:#?}");
    }
    // Four disagreements, plus `noteless` being unwritten as well.
    assert_eq!(hits.len(), 5, "{hits:#?}");

    // With the header current and both drifts repaired, nothing fires.
    let spec = SPEC.replace("|badfrag=", "|okfrag=");
    let registry = REGISTRY
        .replace("fixture/v8\n", "fixture/v9\n")
        .replace("stale=\tv8: no longer appears in any key module\n", "")
        .replace("noteless\n", "");
    let clean = registry_findings(&[("src/spec.rs", &spec)], &registry, "fixture/v9");
    assert!(clean.is_empty(), "{clean:#?}");
}

/// Every place a naive scanner mistakes for a key literal, around the
/// three fragments that really are written: `real`, `raw=` and `after`.
const TRAPS: &str = r####"
//! Module docs quoting a key: "|doc".

/* outer /* nested "|nested" */ still a comment "|block" */
// format!("{v}|comment")
/// Doc comment: "|doccomment".
fn lifetimes<'a>(x: &'a str) -> &'a str {
    x
}

pub fn keys(v: u32) -> [String; 3] {
    let q = '"';
    let real = format!("{v}{q}|real");
    let raw = format!(r##"say "hi"# |raw={v}"##);
    let slashes = "not // a comment";
    [real, raw, format!("{slashes}|after")]
}

mod inner {
    #[cfg(test)]
    mod tests {
        const INDENTED: &str = "|indentedtest";
    }
}

#[test]
fn test_fn() {
    let _ = "|testfn";
}

#[cfg(all(test, feature = "obs"))]
mod obs_tests {
    const GATED: &str = "|gatedtest";
}
"####;

#[test]
fn lexer_traps_stay_silent() {
    assert_eq!(key_fragments(TRAPS), ["real", "raw=", "after"]);
    let registry = "# schema: traps/v1\nreal\tv1\nraw=\tv1\nafter\tv1\n";
    let hits = registry_findings(&[("src/traps.rs", TRAPS)], registry, "traps/v1");
    assert!(hits.is_empty(), "{hits:#?}");
}

/// `unsafe_code = "forbid"` reaches a member only through
/// `[lints] workspace = true`; a member without the opt-in, or with
/// its own lint table instead, compiles without it.
#[test]
fn forbid_unsafe_fires_only_where_missing() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lints-opt-in");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let manifests = [
        (
            ".",
            "[workspace]\nmembers = [\n    \"crates/*\",\n    \"vendor/*\", # offline shims\n]\n\n\
             [workspace.lints.rust]\nunsafe_code = \"forbid\"\n\n\
             [package]\nname = \"fixture\"\n\n[lints]\nworkspace = true\n",
        ),
        (
            "crates/good",
            "[package]\nname = \"good\"\n\n[lints]\nworkspace = true # inherits forbid\n",
        ),
        (
            "crates/own",
            "[package]\nname = \"own\"\n\n[lints.rust]\nunsafe_code = \"warn\"\n",
        ),
        ("crates/bare", "[package]\nname = \"bare\"\n"),
        ("vendor/shim", "[package]\nname = \"shim\"\n"),
    ];
    for (dir, manifest) in manifests {
        fs::create_dir_all(root.join(dir)).unwrap();
        fs::write(root.join(dir).join("Cargo.toml"), manifest).unwrap();
    }
    // A directory without a manifest is not a member.
    fs::create_dir_all(root.join("crates/notes")).unwrap();

    assert_eq!(
        members_without_workspace_lints(&root).unwrap(),
        ["crates/bare", "crates/own"]
    );
}
