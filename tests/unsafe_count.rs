//! The number of `unsafe` blocks in the workspace's own sources is a
//! committed figure. A change that adds or removes one edits `EXPECTED`
//! in the same diff, and the inventory in DESIGN.md §15 with it, where
//! each block has its argument and the test that reaches it under
//! AddressSanitizer. Counted: `crates/*/src` and `src/`, outside
//! comments; the API shims under `crates/shims` are not ours to shrink.

use std::path::{Path, PathBuf};

const EXPECTED: usize = 8;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries {
        let path = e.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `path:line` of every `unsafe {` outside a `//` comment. The sources
/// use no block comments and no `//` inside a string ahead of a block;
/// either would make the count wrong, and so fail the test, not pass it.
fn blocks(path: &Path, src: &str) -> Vec<String> {
    let mut sites = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        for (at, _) in code.match_indices("unsafe {") {
            if !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                sites.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
    sites
}

#[test]
fn the_unsafe_block_count_is_the_committed_one() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("dir entry").path();
        if krate.file_name().is_some_and(|n| n != "shims") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    files.sort();
    assert!(files.len() > 50, "found only {} source files", files.len());
    let sites: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let src = std::fs::read_to_string(f).expect("read source");
            blocks(f.strip_prefix(root).unwrap_or(f), &src)
        })
        .collect();
    assert_eq!(
        sites.len(),
        EXPECTED,
        "the workspace has {} `unsafe` blocks, the committed count is {EXPECTED}; \
         update EXPECTED and DESIGN.md §15's inventory together:\n  {}",
        sites.len(),
        sites.join("\n  ")
    );
}

#[test]
fn a_block_counts_once_and_comments_not_at_all() {
    let src = "// unsafe { a }\nlet s = 1; // unsafe { b }\nf(unsafe { c() }, unsafe { d() });\n\
               unsafe fn g() {}\nnot_unsafe {}";
    assert_eq!(blocks(Path::new("x.rs"), src), ["x.rs:3", "x.rs:3"]);
}
