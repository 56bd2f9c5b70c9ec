//! `a4-lint`: the workspace's static-analysis pass.
//!
//! The simulator's headline guarantees — golden bit-identity, shard and
//! queue invariance, the CODE_SALT-keyed result store — all rest on
//! contracts the compiler cannot check: sim crates must be pure
//! functions of their spec, counters must never wrap, fleet workers
//! must never panic on bad input. This crate turns those contracts from
//! prose in EXPERIMENTS.md into a mechanical, CI-gating pass.
//!
//! The pipeline: a hand-rolled, dependency-free lexer ([`lexer`])
//! produces comment-and-string-aware tokens; [`waiver`] extracts
//! `// a4-lint: allow(<rule>) -- <reason>` exemptions (reason
//! mandatory, typos fail closed); [`rules`] runs token-pattern checks
//! per file with `#[cfg(test)]` items excluded; [`config`] maps workspace
//! paths to rule tiers and drives the whole-workspace run.
//!
//! Field coverage is not a lint concern: the functions that must name
//! every field of a struct (the counter algebra, the checkpoint pairs)
//! destructure it or build it by literal without `..`, so the compiler
//! rejects a forgotten field.
//!
//! Run it with `cargo run -p a4-lint -- --workspace`.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use config::{
    find_workspace_root, lint_workspace, rules_for, workspace_files, COUNTER_RULES, SERVICE_RULES,
    SIM_RULES, STORE_RULES, TIERS,
};
pub use rules::{lint_source, Finding, RuleId};
pub use waiver::{parse_waivers, Scope, Waiver, WaiverError};
