//! The lock-discipline rule family (BX015, BX017, BX019).
//!
//! BX015 and BX017 run over the workspace [`LockAnalysis`][crate::locks] —
//! per-function lock-set summaries solved to fixpoint over the call graph:
//!
//! * **BX015** — lock-order cycles: an edge `A → B` is recorded whenever
//!   some path acquires `B` while a guard of `A` is live; any cycle in that
//!   graph is a potential ABBA deadlock. The full graph (with witnesses) is
//!   exported to `target/lock-order.json`.
//! * **BX017** — same-lock re-acquisition on a path: `std` locks are not
//!   reentrant, so overlapping acquisitions of one lock self-deadlock the
//!   moment the code runs under a real second thread.
//!
//! BX019 is a site rule: a bare relaxed atomic ordering. The workspace
//! standardizes on `SeqCst`; a weaker ordering needs a justified
//! `[[allow]]`.

use super::{is_ident, preceded_by_path_sep, push};
use crate::locks::LockAnalysis;
use crate::report::Diagnostic;
use crate::Analysis;

/// Run every lock-discipline rule.
pub fn run_all(a: &Analysis, la: &LockAnalysis, out: &mut Vec<Diagnostic>) {
    bx015(a, la, out);
    bx017(a, la, out);
    bx019(a, out);
}

/// BX015: cycles in the lock-order graph.
fn bx015(_a: &Analysis, la: &LockAnalysis, out: &mut Vec<Diagnostic>) {
    for cycle in la.cycles() {
        let mut rendered = cycle.join(" -> ");
        if let Some(first) = cycle.first() {
            rendered.push_str(" -> ");
            rendered.push_str(first);
        }
        // Anchor the diagnostic at a witness for the cycle's first edge so
        // the finding points at real code, not thin air.
        let anchor = cycle
            .first()
            .zip(cycle.get(1).or(cycle.first()))
            .and_then(|(from, to)| la.witnesses.iter().find(|w| &w.from == from && &w.to == to));
        let (path, line) = match anchor {
            Some(w) => (w.path.clone(), w.line),
            None => (String::from("<workspace>"), 0),
        };
        out.push(Diagnostic {
            rule: "BX015",
            path,
            line,
            col: 1,
            message: format!(
                "lock-order cycle: {rendered} — two threads taking these locks in \
                 opposing orders deadlock; pick one global order (witnesses in \
                 target/lock-order.json)"
            ),
            snippet: rendered.clone(),
        });
    }
}

/// BX017: same lock acquired again while the first guard is live.
fn bx017(a: &Analysis, la: &LockAnalysis, out: &mut Vec<Diagnostic>) {
    for r in &la.reacquires {
        let f = &a.graph.fns[r.fn_id];
        let file = &a.files[f.file_idx];
        let via = match &r.via {
            Some(v) => format!(" (inside `{v}`)"),
            None => String::new(),
        };
        push(
            file,
            r.si,
            "BX017",
            format!(
                "`{}` re-acquired{via} while the guard taken at line {} is still \
                 live — std locks are not reentrant; this self-deadlocks under a \
                 real mutex",
                r.lock, r.first_line
            ),
            out,
        );
    }
}

/// BX019: bare relaxed atomic ordering outside tests.
fn bx019(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for file in &a.files {
        if !file.path.starts_with("crates/") {
            continue;
        }
        for si in 0..file.slen() {
            if file.in_test[si]
                || !is_ident(file, si, "Relaxed")
                || !preceded_by_path_sep(file, si)
                || si < 3
                || file.stext(si - 3) != "Ordering"
            {
                continue;
            }
            push(
                file,
                si,
                "BX019",
                "relaxed atomic ordering — the workspace standardizes on SeqCst; \
                 a weaker ordering needs a measured win and a justified [[allow]]"
                    .to_string(),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn analyze(srcs: &[(&str, &str)]) -> Analysis {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(*p, *s))
            .collect();
        Analysis::build(files)
    }

    fn rules_of(out: &[Diagnostic], rule: &str) -> Vec<String> {
        out.iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.message.clone())
            .collect()
    }

    #[test]
    fn bx015_fires_on_two_lock_cycle() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { pub fn ab(&self) { let g = self.a.lock(); self.b.lock(); }\n\
             pub fn ba(&self) { let g = self.b.lock(); self.a.lock(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        let b = rules_of(&out, "BX015");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(
            b[0].contains("boxes-x::S.a -> boxes-x::S.b -> boxes-x::S.a"),
            "{b:?}"
        );
    }

    #[test]
    fn bx015_silent_on_consistent_order() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { pub fn ab(&self) { let g = self.a.lock(); self.b.lock(); }\n\
             pub fn ab2(&self) { let g = self.a.lock(); self.b.lock(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        assert!(rules_of(&out, "BX015").is_empty());
    }

    #[test]
    fn bx017_fires_on_overlap() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct S { n: Mutex<u8> }\n\
             impl S { pub fn twice(&self) { let g = self.n.lock(); self.n.lock(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        let b = rules_of(&out, "BX017");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("not reentrant"), "{b:?}");
    }

    #[test]
    fn bx017_names_the_helper_that_re_acquires() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct S { n: Mutex<u8> }\n\
             impl S { fn bump(&self) { let g = self.n.lock(); }\n\
             pub fn outer(&self) { let g = self.n.lock(); self.bump(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        let b = rules_of(&out, "BX017");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("(inside `boxes-x::S::bump`)"), "{b:?}");
    }

    #[test]
    fn bx017_silent_after_drop() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct S { n: Mutex<u8> }\n\
             impl S { pub fn twice(&self) { let g = self.n.lock(); drop(g); self.n.lock(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        assert!(rules_of(&out, "BX017").is_empty(), "{out:?}");
    }

    #[test]
    fn bx019_fires_outside_tests_only() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub fn f(n: &AtomicU64) { n.load(Ordering::Relaxed); }\n\
             #[cfg(test)] mod tests { pub fn t(n: &AtomicU64) { \
             n.load(Ordering::Relaxed); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        let b = rules_of(&out, "BX019");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("SeqCst"), "{b:?}");
    }
}
