//! The token-stream rule family (BX001, BX020).
//!
//! Every rule here is a pure function over one [`SourceFile`] — no types,
//! no cross-file knowledge (the call-graph family lives in
//! [`super::graph`]). Each one is written to be precise on this
//! workspace's idioms and to err on the side of firing (a finding can be
//! baselined with a justification; a silent miss cannot).
//!
//! | ID    | Invariant                                                        |
//! |-------|------------------------------------------------------------------|
//! | BX001 | pager I/O (`read/write/alloc/free`) only in designated modules   |
//! | BX020 | raw file writes only in blessed store modules; renames fsync first |

use super::{is_ident, preceded_by_path_sep, push};
use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::report::Diagnostic;

const PAGER_METHODS: [&str; 4] = ["read", "write", "alloc", "free"];

/// Run every rule against one file.
pub fn run_all(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    bx001_pager_discipline(file, out);
    bx020_durable_file_discipline(file, out);
}

/// BX001: pager entry points (`read`/`write`/`alloc`/`free`) may only be
/// invoked from the pager crate and each scheme's designated I/O modules
/// (enforced via `allow_paths` policy in `lint.toml`). Every other call is
/// unaccounted I/O that voids the paper's block-transfer measurements.
fn bx001_pager_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for si in 0..file.slen() {
        if file.in_test[si] {
            continue;
        }
        let name = file.stext(si);
        if !PAGER_METHODS.contains(&name)
            || file.stok(si).map(|t| t.kind) != Some(TokenKind::Ident)
            || file.stext(si + 1) != "("
        {
            continue;
        }
        let via_method = si >= 2 && file.stext(si - 1) == "." && {
            let recv = si - 2;
            let recv_is_pager = |j: usize| {
                file.stok(j).is_some_and(|t| t.kind == TokenKind::Ident)
                    && file.stext(j).to_ascii_lowercase().ends_with("pager")
            };
            if recv_is_pager(recv) {
                true
            } else if file.stext(recv) == ")" {
                // `.pager().read(…)` — look at the ident before the call.
                file.open_of[recv]
                    .and_then(|open| open.checked_sub(1))
                    .is_some_and(recv_is_pager)
            } else {
                false
            }
        };
        let via_path = preceded_by_path_sep(file, si) && si >= 3 && file.stext(si - 3) == "Pager";
        if via_method || via_path {
            push(
                file,
                si,
                "BX001",
                format!(
                    "direct pager `{name}()` call outside a designated I/O module — \
                     block transfers must stay accounted"
                ),
                out,
            );
        }
    }
}

/// Raw `File` write methods that bypass the accounted store layer (BX020).
/// `std::fs::write` itself is a `disallowed-methods` entry in clippy.toml.
const RAW_WRITE_METHODS: [&str; 3] = ["write_all", "write_at", "write_all_at"];

/// Fsync spellings that make a just-written replacement file durable:
/// `File::sync_all`/`sync_data` and the `LogStore::sync` seam.
const SYNC_METHODS: [&str; 3] = ["sync_all", "sync_data", "sync"];

/// BX020: durable-file discipline, two halves of the same invariant.
///
/// *Raw writes*: `.write_all(…)` / `.write_at(…)` / `.write_all_at(…)` on a
/// file handle may only appear in the blessed store modules
/// (`FileStore`, `FileLogStore`, the fault-injection VFS — via
/// `allow_paths`). Anywhere else they are durable bytes the crash matrix
/// never tears and the fsync poisoning rules never see.
///
/// *Durable renames*: a `fs::rename` publish must be preceded by an fsync
/// (`sync_all`/`sync_data`/`sync`) somewhere earlier in the same function.
/// Renaming a file whose bytes were never synced can publish a torn or
/// empty file after power loss — the classic atomic-replace bug.
fn bx020_durable_file_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for si in 0..file.slen() {
        if file.in_test[si] {
            continue;
        }
        let name = file.stext(si);
        if file.stok(si).map(|t| t.kind) != Some(TokenKind::Ident) || file.stext(si + 1) != "(" {
            continue;
        }
        if RAW_WRITE_METHODS.contains(&name) && si >= 1 && file.stext(si - 1) == "." {
            push(
                file,
                si,
                "BX020",
                format!(
                    "raw file write `.{name}(…)` outside the blessed store modules — \
                     durable bytes must flow through `FileStore`/`LogStore` so the \
                     crash matrix and fsync semantics cover them"
                ),
                out,
            );
            continue;
        }
        if name == "rename"
            && preceded_by_path_sep(file, si)
            && si >= 3
            && is_ident(file, si - 3, "fs")
            && !rename_preceded_by_sync(file, si)
        {
            push(
                file,
                si,
                "BX020",
                "`fs::rename` with no fsync earlier in the same function — renaming \
                 an unsynced file can publish torn bytes after power loss; sync the \
                 replacement (then the directory) before the rename"
                    .to_string(),
                out,
            );
        }
    }
}

/// Scan from the enclosing `fn` keyword to the `fs::rename` call at `si`
/// for a sync call (one of [`SYNC_METHODS`] followed by `(`). No enclosing
/// `fn` (e.g. a rename in a const initializer) counts as unsynced.
fn rename_preceded_by_sync(file: &SourceFile, si: usize) -> bool {
    let Some(fn_si) = (0..si)
        .rev()
        .find(|&j| file.stext(j) == "fn" && file.item_level[j])
    else {
        return false;
    };
    (fn_si..si).any(|j| {
        SYNC_METHODS.contains(&file.stext(j))
            && file.stok(j).is_some_and(|t| t.kind == TokenKind::Ident)
            && file.stext(j + 1) == "("
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        run_all(&file, &mut out);
        out
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn bx001_fires_on_pager_receiver_only() {
        let diags = lint("fn f(p: &mut Pager) { p.pager.read(id); buf.read(x); }");
        assert_eq!(rules_of(&diags), vec!["BX001"]);
    }

    #[test]
    fn bx020_fires_on_raw_writes_and_unsynced_renames() {
        let diags = lint(
            "fn publish(f: &mut File) -> std::io::Result<()> {\n\
               f.write_all(&buf)?;\n\
               f.write_all_at(&buf, 0)?;\n\
               fs::rename(tmp, live)?;\n\
               Ok(())\n\
             }",
        );
        let bx020: Vec<_> = diags.iter().filter(|d| d.rule == "BX020").collect();
        assert_eq!(bx020.len(), 3, "{diags:?}");
        assert!(bx020[0].message.contains("write_all"));
        assert!(bx020[2].message.contains("fs::rename"));
    }

    #[test]
    fn bx020_skips_synced_renames_and_store_reads() {
        // The durable-replace idiom: sync the replacement, then rename.
        let diags = lint(
            "fn publish(tmp_file: &File) -> std::io::Result<()> {\n\
               tmp_file.sync_all()?;\n\
               fs::rename(tmp, live)?;\n\
               Ok(())\n\
             }\n\
             fn log_publish(store: &dyn LogStore) -> Result<(), StoreError> {\n\
               store.sync()?;\n\
               fs::rename(a, b)?;\n\
               Ok(())\n\
             }",
        );
        let bx020: Vec<_> = diags.iter().filter(|d| d.rule == "BX020").collect();
        assert!(bx020.is_empty(), "{bx020:?}");
        // A sync in a *previous* function does not bless this rename.
        let diags = lint(
            "fn a(f: &File) { f.sync_all(); }\n\
             fn b() { fs::rename(x, y); }",
        );
        assert!(
            diags.iter().any(|d| d.rule == "BX020"),
            "sync in another fn must not carry over: {diags:?}"
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(p: &Pager) { p.pager.read(id); let _ = p.pager.write(id, &b); }\n}";
        assert!(lint(src).is_empty());
    }
}
