//! `a4-repro` command-line front door: usage errors exit with status 2
//! and a one-line diagnosis before any cell is simulated.

use std::process::{Command, Output, Stdio};

/// An `a4-repro` command with `args`, run in a scratch directory, so a
/// run that wrongly proceeds cannot touch a real `out/.cache`.
fn command(args: &[&str]) -> Command {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("a4-repro-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_a4-repro"));
    cmd.args(args).current_dir(&dir);
    cmd
}

fn a4_repro(args: &[&str]) -> Output {
    command(args).output().expect("a4-repro starts")
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

#[test]
fn a_repeated_flag_exits_2_and_names_the_flag() {
    let out = a4_repro(&["--list", "--threads", "1", "--threads", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("flag \"--threads\" given twice"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a repeated flag printed the list");
}

/// `a4-repro --list | head -1`: a reader that goes away must end the
/// run quietly, not with a panic backtrace.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    let mut child = command(&["--list", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("a4-repro starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("a4-repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
