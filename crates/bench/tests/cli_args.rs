//! Malformed `--scale` and `--reps` values are rejected while the command
//! line is parsed: `repro` exits 2 with a one-line error, before it runs a
//! cell, panics or writes a result file.

use std::path::PathBuf;
use std::process::Command;

const MALFORMED: &[&[&str]] = &[
    &["fig3", "--scale", "-1"],
    &["table7", "--scale", "nan"],
    &["table7", "--reps", "0"],
    &["overload", "--scale", "inf"],
    &["chaos", "--scale", "-1"],
    &["chaos", "--scale", "0"],
    &["chaos", "--scale", "nan"],
];

#[test]
fn malformed_scale_and_reps_exit_2_without_panicking() {
    for (i, args) in MALFORMED.iter().enumerate() {
        let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_args_{i}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!out_dir.exists(), "{args:?} wrote {}", out_dir.display());
    }
}
