//! `a4-repro` command-line front door: usage errors exit with status 2
//! and a one-line diagnosis before any cell is simulated.

use std::process::{Command, Output};

/// Runs `a4-repro` with `args` in a scratch directory, so a run that
/// wrongly proceeds cannot touch a real `out/.cache`.
fn a4_repro(args: &[&str]) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("a4-repro-cli");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_a4-repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("a4-repro starts")
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    for (args, flag) in [
        (&["--list", "--quik", "--no-cahce"][..], "--quik"),
        (&["fig4", "--quik"][..], "--quik"),
        (&["fig4", "--quick", "--no-cahce"][..], "--no-cahce"),
    ] {
        let out = a4_repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag:?}")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
