//! A public function or type that nothing names is dead code the
//! compiler does not flag: `dead_code` stops at the crate's public
//! surface. These tests read every `.rs` file under `crates/`, `src/`,
//! `examples/`, `tests/` and `benchmark/` (skipping `target` directories,
//! writing nothing) and ask, for every `pub fn NAME` — and every
//! `pub struct`, `pub enum`, `pub trait` and `pub type NAME` — declared
//! under `crates/*/src`, that `NAME` appear as a whole word on some line
//! other than its own declaration — a call, an import, a path in a doc
//! link or a test.
//!
//! What they do not catch: a name shared with another declaration
//! (`new`, `with_registry`, `get`) always passes, because the other
//! declaration is a line where the name appears. A name that only a
//! comment mentions passes too. They are a floor against forgotten
//! functions and types, not a call graph.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// The trees a caller can live in, relative to the repository root.
const ROOTS: [&str; 5] = ["crates", "src", "examples", "tests", "benchmark"];

/// Every `.rs` file under `dir`, build output excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers of one line, in order.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The `NAME` of a line declaring `pub fn NAME`, if it does.
fn declared_pub_fn(line: &str) -> Option<&str> {
    words(line.trim_start().strip_prefix("pub fn ")?).next()
}

/// The `NAME` of a line declaring `pub struct|enum|trait|type NAME`, if
/// it does.
fn declared_pub_type(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["struct ", "enum ", "trait ", "type "].iter().find_map(|k| rest.strip_prefix(k))?;
    words(rest).next()
}

/// Whether `path` (relative to the root) lies in some `crates/*/src`.
fn in_crate_src(rel: &Path) -> bool {
    let mut parts = rel.components().map(|c| c.as_os_str());
    parts.next().is_some_and(|c| c == "crates")
        && parts.next().is_some()
        && parts.next().is_some_and(|c| c == "src")
}

/// How many declarations `declared` finds under `crates/*/src`, and
/// each one whose name appears on no other line, as `file:line: decl`.
fn unnamed(declared: fn(&str) -> Option<&str>) -> (usize, Vec<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    // identifier -> every (file, line) it appears on
    let mut seen: HashMap<String, HashSet<(usize, usize)>> = HashMap::new();
    // (name, file, line) of every declaration under crates/*/src
    let mut decls = Vec::new();
    for (f, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).expect("readable source");
        let decl_site = in_crate_src(path.strip_prefix(root).expect("under the root"));
        for (l, line) in text.lines().enumerate() {
            for w in words(line) {
                seen.entry(w.to_string()).or_default().insert((f, l));
            }
            if let Some(name) = declared(line).filter(|_| decl_site) {
                decls.push((name.to_string(), f, l, line.trim().to_string()));
            }
        }
    }
    let unnamed = decls
        .iter()
        .filter(|(name, f, l, _)| seen[name].iter().all(|site| *site == (*f, *l)))
        .map(|(_, f, l, decl)| {
            let rel = files[*f].strip_prefix(root).expect("under the root");
            format!("{}:{}: {decl}", rel.display(), l + 1)
        })
        .collect();
    (decls.len(), unnamed)
}

#[test]
fn every_public_function_is_named_somewhere_else() {
    let (declared, unnamed) = unnamed(declared_pub_fn);
    assert!(declared > 100, "only {declared} `pub fn`s found: is the walk right?");
    assert!(unnamed.is_empty(), "public functions nothing names:\n{}", unnamed.join("\n"));
}

#[test]
fn every_public_type_is_named_somewhere_else() {
    let (declared, unnamed) = unnamed(declared_pub_type);
    assert!(declared > 100, "only {declared} public types found: is the walk right?");
    assert!(unnamed.is_empty(), "public types nothing names:\n{}", unnamed.join("\n"));
}

#[test]
fn the_scan_reads_declarations_and_whole_words() {
    assert_eq!(declared_pub_fn("    pub fn frob(&self) -> u8 {"), Some("frob"));
    assert_eq!(declared_pub_fn("pub fn new() -> Self"), Some("new"));
    assert_eq!(declared_pub_fn("    pub(crate) fn hidden() {"), None);
    assert_eq!(declared_pub_fn("    fn private() {"), None);
    assert_eq!(declared_pub_fn("    // pub fn in_a_comment()"), None);
    assert_eq!(declared_pub_type("pub struct Frob<T> {"), Some("Frob"));
    assert_eq!(declared_pub_type("    pub enum Probed {"), Some("Probed"));
    assert_eq!(declared_pub_type("pub trait Handle: Send {"), Some("Handle"));
    assert_eq!(declared_pub_type("pub type Key = (u32, u64);"), Some("Key"));
    assert_eq!(declared_pub_type("pub(crate) struct Hidden;"), None);
    assert_eq!(declared_pub_type("pub use forecast::TransferSpec as TransferRequest;"), None);
    assert_eq!(declared_pub_type("pub fn structure() {"), None);
    let line = "let x = a.frob_all(frob, Self::frob_one);";
    let ws: Vec<&str> = words(line).collect();
    assert_eq!(ws, ["let", "x", "a", "frob_all", "frob", "Self", "frob_one"]);
    assert!(in_crate_src(Path::new("crates/rrd/src/db.rs")));
    assert!(in_crate_src(Path::new("crates/simflow/src/platform/mod.rs")));
    assert!(!in_crate_src(Path::new("crates/rrd/tests/rrd_properties.rs")));
    assert!(!in_crate_src(Path::new("src/lib.rs")));
}
