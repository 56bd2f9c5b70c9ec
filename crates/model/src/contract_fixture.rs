//! The contract fixture: one use of every item the root `clippy.toml`
//! bans, each line marked `//~` with the lint clippy must report there.
//! Compiled only under `--cfg a4_contract_fixture`, by the CI step that
//! runs `.github/check_contract_fixture.py`; a mistyped or stale ban
//! path leaves its line unreported and fails that step.

#![expect(dead_code, reason = "the fixture is compiled, never called")]

use std::fs::{File, OpenOptions, Permissions};

#[rustfmt::skip] // one line per integer type, covering its three methods
fn bans(perms: Permissions) {
    // wall-clock, hash-collections, entropy
    let _ = std::time::Instant::now(); //~ clippy::disallowed_types
    let _ = std::time::SystemTime::now(); //~ clippy::disallowed_types
    let _: std::collections::HashMap<u8, u8> = Default::default(); //~ clippy::disallowed_types
    let _: std::collections::HashSet<u8> = Default::default(); //~ clippy::disallowed_types
    let _ = std::hash::RandomState::new(); //~ clippy::disallowed_types

    // env-read
    let _ = std::env::var("A4"); //~ clippy::disallowed_methods
    let _ = std::env::var_os("A4"); //~ clippy::disallowed_methods
    let _ = std::env::vars(); //~ clippy::disallowed_methods
    let _ = std::env::vars_os(); //~ clippy::disallowed_methods
    let _ = std::env::args(); //~ clippy::disallowed_methods
    let _ = std::env::args_os(); //~ clippy::disallowed_methods
    let _ = std::env::current_dir(); //~ clippy::disallowed_methods
    let _ = std::env::temp_dir(); //~ clippy::disallowed_methods

    // counter-safety
    let _ = (1u8.wrapping_add(1), 1u8.wrapping_sub(1), 1u8.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1u16.wrapping_add(1), 1u16.wrapping_sub(1), 1u16.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1u32.wrapping_add(1), 1u32.wrapping_sub(1), 1u32.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1u64.wrapping_add(1), 1u64.wrapping_sub(1), 1u64.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1u128.wrapping_add(1), 1u128.wrapping_sub(1), 1u128.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1usize.wrapping_add(1), 1usize.wrapping_sub(1), 1usize.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1i8.wrapping_add(1), 1i8.wrapping_sub(1), 1i8.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1i16.wrapping_add(1), 1i16.wrapping_sub(1), 1i16.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1i32.wrapping_add(1), 1i32.wrapping_sub(1), 1i32.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1i64.wrapping_add(1), 1i64.wrapping_sub(1), 1i64.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1i128.wrapping_add(1), 1i128.wrapping_sub(1), 1i128.wrapping_mul(1)); //~ clippy::disallowed_methods
    let _ = (1isize.wrapping_add(1), 1isize.wrapping_sub(1), 1isize.wrapping_mul(1)); //~ clippy::disallowed_methods

    // fs-seam
    let _ = std::fs::canonicalize("."); //~ clippy::disallowed_methods
    let _ = std::fs::copy("a", "b"); //~ clippy::disallowed_methods
    let _ = std::fs::create_dir("a"); //~ clippy::disallowed_methods
    let _ = std::fs::create_dir_all("a"); //~ clippy::disallowed_methods
    let _ = std::fs::exists("a"); //~ clippy::disallowed_methods
    let _ = std::fs::hard_link("a", "b"); //~ clippy::disallowed_methods
    let _ = std::fs::metadata("a"); //~ clippy::disallowed_methods
    let _ = std::fs::read("a"); //~ clippy::disallowed_methods
    let _ = std::fs::read_dir("a"); //~ clippy::disallowed_methods
    let _ = std::fs::read_link("a"); //~ clippy::disallowed_methods
    let _ = std::fs::read_to_string("a"); //~ clippy::disallowed_methods
    let _ = std::fs::remove_dir("a"); //~ clippy::disallowed_methods
    let _ = std::fs::remove_dir_all("a"); //~ clippy::disallowed_methods
    let _ = std::fs::remove_file("a"); //~ clippy::disallowed_methods
    let _ = std::fs::rename("a", "b"); //~ clippy::disallowed_methods
    let _ = std::fs::set_permissions("a", perms); //~ clippy::disallowed_methods
    let _ = std::fs::symlink_metadata("a"); //~ clippy::disallowed_methods
    let _ = std::fs::write("a", "b"); //~ clippy::disallowed_methods
    let _ = File::open("a"); //~ clippy::disallowed_methods
    let _ = File::create("a"); //~ clippy::disallowed_methods
    let _ = File::create_new("a"); //~ clippy::disallowed_methods
    let _ = OpenOptions::new().open("a"); //~ clippy::disallowed_methods
}
