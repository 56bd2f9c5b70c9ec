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

/// `a4-repro --spec <file> --no-cache` in the scratch directory, with
/// `json` written to `name` there first.
fn run_spec_file(name: &str, json: &str) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("a4-repro-cli");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), json).unwrap();
    a4_repro(&["--spec", name, "--no-cache"])
}

/// Exit 2 with exactly one stderr line, containing `needle`.
fn assert_one_line_exit_2(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(out.stdout.is_empty(), "a table was printed");
}

/// A hostile spec file that nests 200,000 levels deep is refused at the
/// parser's depth bound, not by a stack overflow.
#[test]
fn a_deeply_nested_spec_file_exits_2_with_one_line() {
    let depth = 200_000;
    let json = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let out = run_spec_file("deep.specs.json", &json);
    assert_one_line_exit_2(&out, "nesting deeper than 128 levels at byte 128");
}

/// A system override the simulator cannot build fails validation with
/// one line, instead of panicking in the cell.
#[test]
fn an_unbuildable_system_override_exits_2_with_one_line() {
    use a4_experiments::{RunOpts, ScenarioSpec, WorkloadSpec};
    for cores in [33, 1 << 40] {
        let mut spec = ScenarioSpec::new("many-cores", RunOpts::quick()).with_workload(
            "xmem",
            WorkloadSpec::XMem { instance: 1 },
            &[0],
            a4_model::Priority::High,
        );
        spec.system.cores = Some(cores);
        let json = serde_json::to_string(&[spec]).unwrap();
        let out = run_spec_file("cores.specs.json", &json);
        assert_one_line_exit_2(&out, "cores must be in 1..=32");
    }
}
