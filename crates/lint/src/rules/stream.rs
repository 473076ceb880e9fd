//! The token-stream rule family (BX001).
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

use super::{preceded_by_path_sep, push};
use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::report::Diagnostic;

const PAGER_METHODS: [&str; 4] = ["read", "write", "alloc", "free"];

/// Run every rule against one file.
pub fn run_all(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    bx001_pager_discipline(file, out);
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
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(p: &Pager) { p.pager.read(id); let _ = p.pager.write(id, &b); }\n}";
        assert!(lint(src).is_empty());
    }
}
