//! Which rules apply where: the per-crate tier map and the
//! workspace-wide driver.
//!
//! Four tiers:
//!
//! * **sim-deterministic** — the crates whose output must replay
//!   bit-for-bit (`cache`, `sim`, `pcie`, `workloads`, `mem`, `model`,
//!   `core`): all determinism rules plus counter-safety;
//! * **service** — the experiments service/fault/worker paths that run
//!   unattended fleets: panic and silent-I/O rules plus counter-safety;
//! * **store** — the store and queue (the crash-consistent state on
//!   disk): the service rules plus fs-seam, because a filesystem
//!   mutation that bypasses the `Fs` seam escapes fault injection and
//!   the crash-consistency proptests;
//! * **counter** — everything else we ship (remaining experiments
//!   code, the facade, this linter): counter-safety only.
//!
//! `crates/compat/**` is exempt: it vendors third-party code whose
//! style we deliberately do not own. Test and example trees are not
//! scanned — they do not ship in the replayed sim or the fleet worker
//! (and `#[cfg(test)]` modules inside scanned files are skipped by the
//! engine itself).

use crate::rules::{lint_source, Finding, RuleId};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rules for the sim-deterministic tier.
pub const SIM_RULES: &[RuleId] = &[
    RuleId::WallClock,
    RuleId::EnvRead,
    RuleId::HashCollections,
    RuleId::Entropy,
    RuleId::CounterSafety,
];

/// Rules for the service tier.
pub const SERVICE_RULES: &[RuleId] =
    &[RuleId::PanicUnwrap, RuleId::SilentIo, RuleId::CounterSafety];

/// Rules for the store tier: the service rules plus the `Fs`-seam
/// requirement on the files that own on-disk state.
pub const STORE_RULES: &[RuleId] = &[
    RuleId::PanicUnwrap,
    RuleId::SilentIo,
    RuleId::CounterSafety,
    RuleId::FsSeam,
];

/// Rules for everything else that ships.
pub const COUNTER_RULES: &[RuleId] = &[RuleId::CounterSafety];

/// Named tiers accepted by `--tier`.
pub const TIERS: &[(&str, &[RuleId])] = &[
    ("sim", SIM_RULES),
    ("service", SERVICE_RULES),
    ("store", STORE_RULES),
    ("counter", COUNTER_RULES),
];

const SIM_CRATES: &[&str] = &["cache", "sim", "pcie", "workloads", "mem", "model", "core"];

/// Experiments-crate files on the service tier: the sweep service, the
/// fault-injection seam (whose `RealFs` legitimately owns the bare
/// `std::fs` calls), and every worker binary.
const SERVICE_FILES: &[&str] = &[
    "crates/experiments/src/service.rs",
    "crates/experiments/src/fault.rs",
];

/// Experiments-crate files on the store tier: the result cache and the
/// job queue, whose every filesystem mutation must go through the `Fs`
/// seam.
const STORE_FILES: &[&str] = &[
    "crates/experiments/src/queue.rs",
    "crates/experiments/src/cache.rs",
];

/// The rule set for a file, keyed by its path relative to the
/// workspace root (with `/` separators).
pub fn rules_for(rel: &str) -> &'static [RuleId] {
    if rel.starts_with("crates/compat/") {
        return &[];
    }
    for c in SIM_CRATES {
        if rel.starts_with(&format!("crates/{c}/src/")) {
            return SIM_RULES;
        }
    }
    if STORE_FILES.contains(&rel) {
        return STORE_RULES;
    }
    if SERVICE_FILES.contains(&rel) || rel.starts_with("crates/experiments/src/bin/") {
        return SERVICE_RULES;
    }
    COUNTER_RULES
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file the lint scans, as workspace-relative `/`-separated
/// paths, sorted — so findings and CI logs are stable across machines.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), root, &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            if dir.file_name().is_some_and(|n| n == "compat") {
                continue;
            }
            collect_rs(&dir.join("src"), root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: every scanned file
/// against its tier's rules.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        findings.extend(lint_source(&rel, &src, rules_for(&rel)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_mapping_matches_the_contract() {
        assert_eq!(rules_for("crates/cache/src/lru.rs"), SIM_RULES);
        assert_eq!(rules_for("crates/workloads/src/fio.rs"), SIM_RULES);
        assert_eq!(rules_for("crates/experiments/src/queue.rs"), STORE_RULES);
        assert_eq!(rules_for("crates/experiments/src/cache.rs"), STORE_RULES);
        assert_eq!(rules_for("crates/experiments/src/fault.rs"), SERVICE_RULES);
        assert_eq!(
            rules_for("crates/experiments/src/service.rs"),
            SERVICE_RULES
        );
        assert_eq!(
            rules_for("crates/experiments/src/bin/a4_repro.rs"),
            SERVICE_RULES
        );
        assert_eq!(rules_for("crates/experiments/src/runner.rs"), COUNTER_RULES);
        assert_eq!(rules_for("src/lib.rs"), COUNTER_RULES);
        assert!(rules_for("crates/compat/serde/src/lib.rs").is_empty());
    }

    #[test]
    fn sim_tier_has_no_service_rules_and_vice_versa() {
        assert!(!SIM_RULES.contains(&RuleId::PanicUnwrap));
        assert!(!SERVICE_RULES.contains(&RuleId::WallClock));
        assert!(SIM_RULES.contains(&RuleId::CounterSafety));
        assert!(SERVICE_RULES.contains(&RuleId::CounterSafety));
        // The store tier is the service tier plus the seam requirement;
        // the seam's own implementation file must NOT carry it.
        assert!(STORE_RULES.contains(&RuleId::FsSeam));
        assert!(!SERVICE_RULES.contains(&RuleId::FsSeam));
        for r in SERVICE_RULES {
            assert!(STORE_RULES.contains(r), "store tier supersets service");
        }
    }
}
