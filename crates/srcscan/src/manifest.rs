//! A minimal Cargo manifest reader — just enough TOML to enumerate
//! workspace members and read their tables: section headers,
//! `key = value` pairs (string, inline table, and possibly multi-line
//! array values), comment stripping outside strings. No external parser crates, matching the repo's hand-rolled
//! JSON codec discipline.

use std::collections::BTreeMap;

/// A parsed manifest: section name → ordered `(key, raw value)`
/// pairs. Dotted headers like `[workspace.dependencies]` keep their
/// full dotted name as the section key.
#[derive(Debug, Default)]
pub struct Manifest {
    sections: BTreeMap<String, Vec<(String, String)>>,
}

impl Manifest {
    /// Parse manifest text. Unknown or oddly-shaped lines are skipped
    /// rather than rejected — rustc/cargo own real validation.
    pub fn parse(src: &str) -> Manifest {
        let mut m = Manifest::default();
        let mut section = String::new();
        let mut lines = src.lines();
        while let Some(raw) = lines.next() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                if let Some(name) = rest.strip_suffix(']') {
                    // `[[bin]]` array-of-tables headers come through as
                    // `[bin]`-like after trimming one bracket layer.
                    section = name
                        .trim_matches(|c| c == '[' || c == ']')
                        .trim()
                        .to_string();
                    m.sections.entry(section.clone()).or_default();
                }
                continue;
            }
            if let Some(eq) = line.find('=') {
                let key = line[..eq].trim().trim_matches('"').to_string();
                let mut value = line[eq + 1..].trim().to_string();
                // Multi-line array values: keep consuming lines until
                // brackets balance.
                while bracket_depth(&value) > 0 {
                    match lines.next() {
                        Some(next) => {
                            value.push(' ');
                            value.push_str(strip_comment(next).trim());
                        }
                        None => break,
                    }
                }
                m.sections
                    .entry(section.clone())
                    .or_default()
                    .push((key, value));
            }
        }
        m
    }

    /// Raw value for `key` in `section`, if present.
    pub fn get(&self, section: &str, key: &str) -> Option<&str> {
        self.sections
            .get(section)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All keys declared in `section` (empty if the section is absent).
    pub fn keys(&self, section: &str) -> Vec<&str> {
        self.sections
            .get(section)
            .map(|kv| kv.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default()
    }

    /// The `[package] name` value, unquoted.
    pub fn package_name(&self) -> Option<&str> {
        self.get("package", "name").map(unquote)
    }

    /// String elements of an array value like `["a", "b"]`.
    pub fn string_array(&self, section: &str, key: &str) -> Vec<String> {
        let Some(v) = self.get(section, key) else {
            return Vec::new();
        };
        parse_string_array(v)
    }
}

/// Strip a `#` comment, respecting basic double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn bracket_depth(value: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in value.chars() {
        match c {
            '\\' if in_str => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth
}

fn unquote(s: &str) -> &str {
    s.trim().trim_matches('"')
}

fn parse_string_array(v: &str) -> Vec<String> {
    let inner = v.trim().trim_start_matches('[').trim_end_matches(']');
    inner
        .split(',')
        .map(|s| unquote(s).to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "snug-harness" # the orchestration crate
version.workspace = true

[features]
default = ["obs"]
obs = ["sim-cache/obs", "sim-cmp/obs"]

[workspace.dependencies]
sim-cache = { path = "crates/sim-cache", default-features = false }
snug-metrics = { path = "crates/metrics" }

[workspace]
members = [
    "crates/*",
    "vendor/*", # offline shims
]
"#;

    #[test]
    fn package_name_unquoted_with_trailing_comment() {
        let m = Manifest::parse(SAMPLE);
        assert_eq!(m.package_name(), Some("snug-harness"));
    }

    #[test]
    fn feature_keys() {
        let m = Manifest::parse(SAMPLE);
        assert_eq!(m.keys("features"), vec!["default", "obs"]);
    }

    #[test]
    fn workspace_dep_values() {
        let m = Manifest::parse(SAMPLE);
        let v = m.get("workspace.dependencies", "sim-cache").expect("dep");
        assert!(v.contains("default-features = false"));
        let v = m
            .get("workspace.dependencies", "snug-metrics")
            .expect("dep");
        assert!(!v.contains("default-features"));
    }

    #[test]
    fn multiline_member_array() {
        let m = Manifest::parse(SAMPLE);
        assert_eq!(
            m.string_array("workspace", "members"),
            vec!["crates/*", "vendor/*"]
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let m = Manifest::parse("[package]\nname = \"has#hash\"\n");
        assert_eq!(m.package_name(), Some("has#hash"));
    }
}
