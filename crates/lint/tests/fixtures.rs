//! Fixture-based self-tests: every rule fires on a bad snippet at the
//! expected line, stays quiet on good/waived snippets, and the
//! workspace-level guarantees (clean run, fio-regression catch) hold
//! against the real source tree.

use a4_lint::{
    lint_source, lint_workspace, rules_for, workspace_files, RuleId, SERVICE_RULES, SIM_RULES,
    STORE_RULES,
};
use std::path::{Path, PathBuf};

/// Lints `src` with `rules` and returns `(rule, line)` pairs.
fn fire(src: &str, rules: &[RuleId]) -> Vec<(RuleId, u32)> {
    lint_source("fixture.rs", src, rules)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

/// A fixture row: source snippet, rules to apply, expected findings.
type Case = (&'static str, &'static [RuleId], &'static [(RuleId, u32)]);

/// Each bad snippet must produce exactly the expected `(rule, line)`
/// findings; each good snippet must be clean.
#[test]
fn bad_snippets_fire_at_the_expected_line() {
    let cases: &[Case] = &[
        (
            "fn f(t: u64) -> u64 {\n    t.wrapping_add(1)\n}\n",
            SIM_RULES,
            &[(RuleId::CounterSafety, 2)],
        ),
        (
            "fn f(t: u64) -> u64 {\n    t.wrapping_sub(1)\n}\n",
            SIM_RULES,
            &[(RuleId::CounterSafety, 2)],
        ),
        (
            "fn f(t: u64) -> u64 {\n    t.wrapping_mul(3)\n}\n",
            SIM_RULES,
            &[(RuleId::CounterSafety, 2)],
        ),
        (
            "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n}\n",
            SIM_RULES,
            &[(RuleId::WallClock, 1), (RuleId::WallClock, 3)],
        ),
        (
            "fn f() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n",
            SIM_RULES,
            &[(RuleId::WallClock, 1), (RuleId::WallClock, 2)],
        ),
        (
            "fn f() {\n    let v = std::env::var(\"A4_DBG\");\n}\n",
            SIM_RULES,
            &[(RuleId::EnvRead, 2)],
        ),
        (
            "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n",
            SIM_RULES,
            &[
                (RuleId::HashCollections, 1),
                (RuleId::HashCollections, 3),
                (RuleId::HashCollections, 3),
            ],
        ),
        (
            "fn f() {\n    let mut rng = thread_rng();\n}\n",
            SIM_RULES,
            &[(RuleId::Entropy, 2)],
        ),
        (
            "fn f() {\n    let s = OsRng.next_u64();\n}\n",
            SIM_RULES,
            &[(RuleId::Entropy, 2)],
        ),
        (
            "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
            SERVICE_RULES,
            &[(RuleId::PanicUnwrap, 2)],
        ),
        (
            "fn f(o: Option<u32>) -> u32 {\n    o.expect(\"present\")\n}\n",
            SERVICE_RULES,
            &[(RuleId::PanicUnwrap, 2)],
        ),
        (
            "fn f() {\n    let _ = std::fs::write(\"x\", \"y\");\n}\n",
            SERVICE_RULES,
            &[(RuleId::SilentIo, 2)],
        ),
        (
            "fn f(file: &std::fs::File) {\n    let _ = file.set_modified(t);\n}\n",
            SERVICE_RULES,
            &[(RuleId::SilentIo, 2)],
        ),
        // A store-tier filesystem mutation bypassing the Fs seam.
        (
            "fn f() {\n    std::fs::rename(\"a\", \"b\").ok();\n}\n",
            STORE_RULES,
            &[(RuleId::FsSeam, 2)],
        ),
        // Even an import of std::fs items is a seam bypass in disguise.
        (
            "use std::fs::write;\nfn f() {\n    write(\"a\", \"b\").ok();\n}\n",
            STORE_RULES,
            &[(RuleId::FsSeam, 1)],
        ),
    ];
    for (src, rules, expected) in cases {
        assert_eq!(&fire(src, rules), expected, "snippet:\n{src}");
    }
}

#[test]
fn good_snippets_are_clean() {
    let cases: &[(&str, &[RuleId])] = &[
        // The sanctioned counter idiom: checked arithmetic.
        (
            "fn f(t: u64) -> u64 {\n    t.checked_sub(1).unwrap_or(0)\n}\n",
            SIM_RULES,
        ),
        // Saturating arithmetic is fine too.
        ("fn f(t: u64) -> u64 {\n    t.saturating_add(1)\n}\n", SIM_RULES),
        // `env!` (compile-time) is not an env *read*.
        (
            "const V: &str = concat!(\"a4/\", env!(\"CARGO_PKG_VERSION\"));\n",
            SIM_RULES,
        ),
        // Deterministic collections.
        (
            "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> {\n    BTreeMap::new()\n}\n",
            SIM_RULES,
        ),
        // Identifiers inside strings and comments never fire.
        (
            "// HashMap, Instant::now, wrapping_add, thread_rng\nfn f() -> &'static str {\n    \"SystemTime::now() .unwrap()\"\n}\n",
            SIM_RULES,
        ),
        // unwrap_or / unwrap_or_else are the *fix* for panic-unwrap.
        (
            "fn f(o: Option<u32>) -> u32 {\n    o.unwrap_or_else(|| 7)\n}\n",
            SERVICE_RULES,
        ),
        // A bound `let r =` on I/O is visible, not silent.
        (
            "fn f() {\n    if let Err(e) = std::fs::write(\"x\", \"y\") {\n        eprintln!(\"{e}\");\n    }\n}\n",
            SERVICE_RULES,
        ),
        // `let _ =` on a non-I/O expression is allowed.
        (
            "fn f(v: Vec<u32>) {\n    let _ = v.binary_search(&3);\n}\n",
            SERVICE_RULES,
        ),
        // Test-only items are exempt in any tier.
        (
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() {\n        None::<u32>.unwrap();\n    }\n}\n",
            SIM_RULES,
        ),
        // Going through the injected Fs handle is the seam, not a bypass.
        (
            "fn f(s: &Store) {\n    s.fs.rename(&a, &b).ok();\n}\n",
            STORE_RULES,
        ),
        // The service tier (fault.rs, bins) may own bare std::fs calls.
        (
            "fn f() -> std::io::Result<()> {\n    std::fs::write(\"x\", \"y\")\n}\n",
            SERVICE_RULES,
        ),
    ];
    for (src, rules) in cases {
        assert_eq!(fire(src, rules), vec![], "snippet:\n{src}");
    }
}

#[test]
fn waived_snippets_are_clean_and_waivers_must_be_earned() {
    // A reasoned line waiver silences exactly its line...
    let src = "fn f(c: u64) -> u64 {\n    // a4-lint: allow(counter-safety) -- hash mixing step\n    c.wrapping_mul(3)\n}\n";
    assert_eq!(fire(src, SIM_RULES), vec![]);

    // ...a trailing waiver silences its own line...
    let src =
        "fn f(c: u64) -> u64 {\n    c.wrapping_mul(3) // a4-lint: allow(counter-safety) -- hash mixing step\n}\n";
    assert_eq!(fire(src, SIM_RULES), vec![]);

    // ...an fn waiver covers the whole function but nothing after it...
    let src = "// a4-lint: allow-fn(counter-safety) -- FNV body\nfn fnv(mut h: u64) -> u64 {\n    h = h.wrapping_mul(3);\n    h.wrapping_add(1)\n}\nfn counter(c: u64) -> u64 {\n    c.wrapping_sub(1)\n}\n";
    assert_eq!(fire(src, SIM_RULES), vec![(RuleId::CounterSafety, 7)]);

    // ...and a file waiver covers everything.
    let src = "// a4-lint: allow-file(counter-safety) -- this file is the hash module\nfn a(x: u64) -> u64 {\n    x.wrapping_mul(3)\n}\nfn b(x: u64) -> u64 {\n    x.wrapping_add(1)\n}\n";
    assert_eq!(fire(src, SIM_RULES), vec![]);

    // A waiver for rule A does not silence rule B on the same line.
    let src = "fn f(c: u64) -> u64 {\n    // a4-lint: allow(wall-clock) -- wrong rule\n    c.wrapping_mul(3)\n}\n";
    assert_eq!(
        fire(src, SIM_RULES),
        vec![(RuleId::UnusedWaiver, 2), (RuleId::CounterSafety, 3)]
    );
}

#[test]
fn waiver_syntax_is_strictly_policed() {
    // Missing reason: the waiver is rejected AND does not suppress.
    let src =
        "fn f(c: u64) -> u64 {\n    // a4-lint: allow(counter-safety)\n    c.wrapping_mul(3)\n}\n";
    let findings = fire(src, SIM_RULES);
    assert!(
        findings.contains(&(RuleId::WaiverSyntax, 2)),
        "{findings:?}"
    );
    assert!(
        findings.contains(&(RuleId::CounterSafety, 3)),
        "rejected waiver must not suppress: {findings:?}"
    );

    // Empty reason is as bad as none.
    let src = "// a4-lint: allow(counter-safety) --   \nfn f() {}\n";
    assert_eq!(fire(src, SIM_RULES), vec![(RuleId::WaiverSyntax, 1)]);

    // Unknown rule name.
    let src = "// a4-lint: allow(no-such-rule) -- because\nfn f() {}\n";
    assert_eq!(fire(src, SIM_RULES), vec![(RuleId::WaiverSyntax, 1)]);

    // Mangled marker (missing colon) fails closed.
    let src = "fn f(c: u64) -> u64 {\n    // a4-lint allow(counter-safety) -- typo\n    c.wrapping_mul(3)\n}\n";
    let findings = fire(src, SIM_RULES);
    assert!(
        findings.contains(&(RuleId::WaiverSyntax, 2)),
        "{findings:?}"
    );
    assert!(
        findings.contains(&(RuleId::CounterSafety, 3)),
        "{findings:?}"
    );

    // The meta rules themselves are not waivable.
    assert!(RuleId::parse("waiver-syntax").is_none());
    assert!(RuleId::parse("unused-waiver").is_none());

    // Unused waivers are flagged so stale exemptions cannot linger.
    let src = "// a4-lint: allow(counter-safety) -- stale excuse\nfn f() {}\n";
    assert_eq!(fire(src, SIM_RULES), vec![(RuleId::UnusedWaiver, 1)]);
}

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

/// The acceptance bar: the whole workspace lints clean — every
/// remaining wrap/unwrap/IO site carries a reasoned waiver.
#[test]
fn workspace_lints_clean() {
    let findings = lint_workspace(&repo_root()).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace must lint clean; run `cargo run -p a4-lint -- --workspace`:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The other acceptance bar: re-introducing PR 5's double-reap bug —
/// `wrapping_sub` on `Fio::outstanding` instead of `checked_sub` — is
/// caught by counter-safety in the fio tier.
#[test]
fn reintroducing_the_fio_wrapping_sub_is_caught() {
    let rel = "crates/workloads/src/fio.rs";
    let src = std::fs::read_to_string(repo_root().join(rel)).expect("fio.rs readable");
    assert!(
        src.contains("checked_sub"),
        "fio reap path should use checked_sub (the PR 5 fix)"
    );
    let rules = rules_for(rel);
    assert!(rules.contains(&RuleId::CounterSafety), "fio is sim tier");
    assert!(
        lint_source(rel, &src, rules).is_empty(),
        "pristine fio.rs lints clean"
    );

    let regressed = src.replace("checked_sub", "wrapping_sub");
    let findings = lint_source(rel, &regressed, rules);
    assert!(
        findings.iter().any(|f| f.rule == RuleId::CounterSafety),
        "the double-reap regression must trip counter-safety: {findings:?}"
    );
}

/// The scanner sees the files the contract is about and skips the ones
/// it exempts.
#[test]
fn workspace_walk_covers_the_right_files() {
    let files = workspace_files(&repo_root()).expect("workspace walk");
    for must in [
        "crates/cache/src/lru.rs",
        "crates/workloads/src/fio.rs",
        "crates/experiments/src/queue.rs",
        "crates/experiments/src/bin/a4_repro.rs",
        "crates/lint/src/rules.rs",
        "src/lib.rs",
    ] {
        assert!(files.iter().any(|f| f == must), "walk must include {must}");
    }
    assert!(
        !files.iter().any(|f| f.starts_with("crates/compat/")),
        "compat crates are exempt"
    );
}
