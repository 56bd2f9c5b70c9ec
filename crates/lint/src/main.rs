//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p a4-lint -- --workspace        # whole workspace (CI mode)
//! cargo run -p a4-lint -- FILE...            # tiers inferred from path
//! cargo run -p a4-lint -- --tier sim FILE... # force a tier for loose files
//! cargo run -p a4-lint -- --list-rules       # every rule and what it guards
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/I/O error.

use a4_lint::{
    find_workspace_root, lint_source, lint_workspace, rules_for, Finding, RuleId, TIERS,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut tier: Option<&'static [RuleId]> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!("{:<17} {}", r.name(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--tier" => {
                let Some(name) = it.next() else {
                    return usage("--tier needs a value (sim | service | counter)");
                };
                let Some(&(_, rules)) = TIERS.iter().find(|(n, _)| n == name) else {
                    return usage(&format!(
                        "unknown tier {name:?} (expected sim | service | counter)"
                    ));
                };
                tier = Some(rules);
            }
            "--help" | "-h" => {
                println!(
                    "usage: a4-lint --workspace | [--tier sim|service|counter] FILE...\n\
                     \n\
                     Lints Rust sources against the A4 determinism and counter-safety\n\
                     contracts. With --workspace, walks up to the workspace root and\n\
                     lints every shipped source file against its tier. Waive a finding\n\
                     with `// a4-lint: allow(<rule>) -- <reason>` (see EXPERIMENTS.md,\n\
                     \"Static guarantees\")."
                );
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    let findings = if workspace {
        if !files.is_empty() || tier.is_some() {
            return usage("--workspace takes no files or --tier");
        }
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => return fail(&format!("cannot read current dir: {e}")),
        };
        let Some(root) = find_workspace_root(&cwd) else {
            return fail("no workspace root found (no Cargo.toml with [workspace] above cwd)");
        };
        match lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => return fail(&format!("workspace walk failed: {e}")),
        }
    } else {
        if files.is_empty() {
            return usage("nothing to lint: pass --workspace or FILE...");
        }
        let mut out: Vec<Finding> = Vec::new();
        for f in &files {
            let src = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot read {f}: {e}")),
            };
            let rel = f.trim_start_matches("./");
            let rules = tier.unwrap_or_else(|| rules_for(rel));
            out.extend(lint_source(f, &src, rules));
        }
        out
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "a4-lint: {} finding(s); waive with `// a4-lint: allow(<rule>) -- <reason>` \
             only where the construct is the point",
            findings.len()
        );
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("a4-lint: {msg}\nusage: a4-lint --workspace | [--tier sim|service|counter] FILE...");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("a4-lint: {msg}");
    ExitCode::from(2)
}
