//! Plain `cargo test` at the root runs the workspace's default members
//! only, so a crate listed in `members` but not in `default-members`
//! would silently drop out of it.

use std::collections::BTreeSet;

/// The quoted entries of the root manifest's `key = [ ... ]` array.
fn array<'a>(manifest: &'a str, key: &str) -> BTreeSet<&'a str> {
    let start = manifest
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("no `{key}` array in Cargo.toml"));
    manifest
        .lines()
        .skip(start + 1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .collect()
}

#[test]
fn every_workspace_member_is_a_default_member() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("the root manifest");
    let members = array(&manifest, "members");
    let defaults = array(&manifest, "default-members");
    assert!(members.contains("crates/seeded"), "parsed members: {members:?}");
    let missing: Vec<_> = members.difference(&defaults).collect();
    assert!(missing.is_empty(), "members outside default-members: {missing:?}");
}
