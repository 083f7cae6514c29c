//! A reader that closes `snug`'s stdout early (`snug report | head`)
//! ends the command quietly with success: no panic, no backtrace.

use std::path::Path;
use std::process::{Command, Stdio};

/// `snug help` and a report on the committed store, with a stdout whose
/// reader is already gone, exit 0 with nothing on stderr.
#[test]
fn a_closed_stdout_ends_snug_quietly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for args in [&["help"][..], &["report", "--mid", "--class", "C3"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_snug"))
            .args(args)
            .current_dir(&root)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "snug {args:?}: {stderr}");
        assert!(out.status.success(), "snug {args:?}: {:?}", out.status);
        assert_eq!(stderr, "", "snug {args:?}");
    }
}
