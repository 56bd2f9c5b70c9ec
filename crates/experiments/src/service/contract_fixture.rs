//! The contract fixture for the fleet paths: one violation of each lint
//! the service, store and CLI modules deny, plus the three malformed
//! exemptions, each marked `//~` with the lint clippy must report on its
//! line. Compiled only under `--cfg a4_contract_fixture` (see
//! `crates/model/src/contract_fixture.rs`).

#![expect(dead_code, reason = "the fixture is compiled, never called")]

use std::io;

fn fallible() -> io::Result<u8> {
    Ok(0)
}

// panic-unwrap, silent-io and fs-seam.
fn fleet_paths() -> io::Result<u8> {
    let a = fallible().unwrap(); //~ clippy::unwrap_used
    let b = fallible().expect("fixture"); //~ clippy::expect_used
    let _ = fallible(); //~ clippy::let_underscore_must_use, clippy::let_underscore_untyped
    let c = std::fs::read("a")?; //~ clippy::disallowed_methods
    Ok(a + b + c.len() as u8)
}

// Exemptions: a plain allow, an expect without a reason, and an expect
// that nothing fulfils.
#[allow(clippy::disallowed_methods, reason = "fixture")] //~ clippy::allow_attributes
fn allowed() -> io::Result<Vec<u8>> {
    std::fs::read("a")
}

#[expect(clippy::disallowed_methods)] //~ clippy::allow_attributes_without_reason
fn reasonless() -> io::Result<Vec<u8>> {
    std::fs::read("a")
}

#[expect(clippy::disallowed_methods, reason = "fixture")] //~ unfulfilled_lint_expectations
fn stale() {}
