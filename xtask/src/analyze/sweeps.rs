//! Crate-root attribute audits: `#![forbid(unsafe_code)]` everywhere, no
//! `unsafe` tokens anywhere, `#![warn(missing_docs)]` on every crate root,
//! and the library lint policy on every library crate root. rustc and
//! clippy enforce those lints; these sweeps keep them pinned.

use std::path::{Path, PathBuf};

/// Every `.rs` file under the workspace's `crates/` and `xtask/` trees.
/// (`third_party/` holds vendored offline API stubs and is exempt.)
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "xtask", "tests"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lint policy every library crate root carries. Matched with
/// whitespace ignored, so rustfmt's layout of the attribute does not
/// matter.
const LIBRARY_POLICY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, \
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::as_conversions, \
    clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::mem_forget, \
    clippy::disallowed_types, clippy::disallowed_methods, clippy::disallowed_macros, \
    clippy::allow_attributes, clippy::allow_attributes_without_reason))]";

/// Library crates as `(package name, crate root)`: every `crates/*`
/// package except the `boxes-bench` experiment harness.
pub(crate) fn library_crates(root: &Path) -> Vec<(String, PathBuf)> {
    let mut libs = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let name = format!("boxes-{}", entry.file_name().to_string_lossy());
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() && name != "boxes-bench" {
                libs.push((name, lib));
            }
        }
    }
    libs.sort();
    libs
}

/// Crate roots that must carry the workspace-wide inner attributes.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.push(root.join("xtask/src/main.rs"));
    roots.sort();
    roots
}

/// Every crate root forbids unsafe code and no source line contains an
/// `unsafe` form outside comments.
pub(crate) fn audit_unsafe(root: &Path) -> bool {
    let mut ok = true;
    for lib in crate_roots(root) {
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            eprintln!("  {} lacks #![forbid(unsafe_code)]", lib.display());
            ok = false;
        }
    }
    // Belt and braces: no unsafe blocks/fns/impls in any source line
    // outside comments. The keyword is assembled at runtime so this
    // scanner does not flag its own source.
    let kw = concat!("un", "safe");
    let forms: Vec<String> = ["fn", "{", "impl", "trait", "extern"]
        .iter()
        .map(|f| format!("{kw} {f}"))
        .collect();
    for path in source_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if forms.iter().any(|f| code.contains(f.as_str())) {
                eprintln!("  {}:{}: {kw} code found", path.display(), i + 1);
                ok = false;
            }
        }
    }
    ok
}

/// Every crate root opts into the compiler's `missing_docs` lint, and
/// every library crate root carries [`LIBRARY_POLICY`].
pub(crate) fn audit_crate_roots(root: &Path) -> bool {
    let mut ok = true;
    for lib in crate_roots(root) {
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![warn(missing_docs)]") {
            eprintln!("  {} lacks #![warn(missing_docs)]", lib.display());
            ok = false;
        }
    }
    let policy: String = LIBRARY_POLICY.split_whitespace().collect();
    for (_, lib) in library_crates(root) {
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text
            .split_whitespace()
            .collect::<String>()
            .contains(&policy)
        {
            eprintln!(
                "  {} lacks the library lint policy {LIBRARY_POLICY}",
                lib.display()
            );
            ok = false;
        }
    }
    ok
}
