//! The committed byte goldens, `crates/dramless/goldens.txt`, read by
//! every test that pins output bytes.

/// The manifest: `name value` rows (see the file's header).
const GOLDENS: &str = include_str!("../crates/dramless/goldens.txt");

/// A digest as the manifest writes it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Asserts that `got`, the `(name, value)` rows a test produced, are
/// exactly the manifest's rows whose names start with `prefix`. A
/// failure lists every moved row with its new value and every pinned
/// row that was not produced, not just the first.
pub fn check(prefix: &str, got: &[(String, String)]) {
    let pinned: Vec<(&str, &str)> = GOLDENS
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| l.split_once(' ').expect("rows are `name value`"))
        .collect();
    let mut moved: Vec<String> = got
        .iter()
        .filter(|(name, value)| !pinned.contains(&(name.as_str(), value.as_str())))
        .map(|(name, value)| format!("{name} {value}"))
        .collect();
    moved.extend(
        pinned
            .iter()
            .filter(|(name, _)| !got.iter().any(|(g, _)| g == name))
            .map(|(name, _)| format!("{name} (not produced)")),
    );
    moved.sort();
    assert!(
        moved.is_empty(),
        "output differs from crates/dramless/goldens.txt; moved rows:\n{}",
        moved.join("\n")
    );
}
