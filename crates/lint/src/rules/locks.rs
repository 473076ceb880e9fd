//! The lock-discipline rule family (BX015–BX017, BX019).
//!
//! BX015–BX017 run over the workspace [`LockAnalysis`][crate::locks] —
//! per-function lock-set summaries solved to fixpoint over the call graph:
//!
//! * **BX015** — lock-order cycles: an edge `A → B` is recorded whenever
//!   some path acquires `B` while a guard of `A` is live; any cycle in that
//!   graph is a potential ABBA deadlock. The full graph (with witnesses) is
//!   exported to `target/lock-order.json`.
//! * **BX016** — guard held across disk I/O: a live guard window must not
//!   contain a call that (transitively, over resolved edges) reaches the
//!   raw store surface. Holding a hot lock across a disk round-trip
//!   serializes every other thread behind the I/O latency.
//! * **BX017** — same-lock re-acquisition on a path: `std` locks are not
//!   reentrant, so overlapping acquisitions of one lock self-deadlock the
//!   moment the code runs under a real second thread.
//!
//! BX019 is a site rule: a bare relaxed atomic ordering. The workspace
//! standardizes on `SeqCst`; a weaker ordering needs a justified
//! `[[allow]]`.

use std::collections::BTreeSet;

use super::{graph::RAW_STORE_TYPES, is_ident, preceded_by_path_sep, push};
use crate::callgraph::{EdgeKind, FnId};
use crate::locks::LockAnalysis;
use crate::report::Diagnostic;
use crate::Analysis;

/// Run every lock-discipline rule.
pub fn run_all(a: &Analysis, la: &LockAnalysis, out: &mut Vec<Diagnostic>) {
    bx015(a, la, out);
    bx016(a, la, out);
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

/// BX016: a live guard window contains a call reaching the raw disk surface.
fn bx016(a: &Analysis, la: &LockAnalysis, out: &mut Vec<Diagnostic>) {
    let g = &a.graph;
    let sinks: BTreeSet<FnId> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.self_ty
                .as_deref()
                .is_some_and(|t| RAW_STORE_TYPES.contains(&t))
        })
        .map(|(id, _)| id)
        .collect();
    if sinks.is_empty() {
        return;
    }
    // Everything that can reach a sink over resolved edges: calling any of
    // these inside a guard window holds the lock across disk I/O.
    let io_fns = g.reaching(&sinks, |e| e.kind != EdgeKind::Unknown, |_| true);
    for (id, f) in g.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let file = &a.files[f.file_idx];
        let events = &la.fn_locks[id].acquires;
        let event_sis: BTreeSet<usize> = events.iter().map(|e| e.si).collect();
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        for e in events {
            for c in &g.edges[id] {
                if c.kind == EdgeKind::Unknown
                    || c.call_si <= e.si
                    || c.call_si >= e.live_end
                    || event_sis.contains(&c.call_si)
                    || !io_fns.contains(&c.to)
                    || !flagged.insert(c.call_si)
                {
                    continue;
                }
                let callee = g.fns[c.to].qual();
                push(
                    file,
                    c.call_si,
                    "BX016",
                    format!(
                        "guard of `{}` (taken line {}) held across `{}`, which reaches \
                         the raw disk surface — drop the guard before I/O or every \
                         thread queues behind the disk",
                        e.lock, e.line, callee
                    ),
                    out,
                );
            }
        }
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
    fn bx016_fires_on_guard_across_io_direct_and_transitive() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct FileStore;\n\
             impl FileStore { pub fn read_block(&self) {} }\n\
             pub struct Cache { map: Mutex<u8>, store: FileStore }\n\
             impl Cache { fn journaled(&self) { self.store.read_block(); }\n\
             pub fn hot(&self) { let g = self.map.lock(); self.journaled(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        let b = rules_of(&out, "BX016");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("journaled"), "{b:?}");
    }

    #[test]
    fn bx016_silent_after_drop() {
        let a = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct FileStore;\n\
             impl FileStore { pub fn read_block(&self) {} }\n\
             pub struct Cache { map: Mutex<u8>, store: FileStore }\n\
             impl Cache { pub fn cool(&self) { let g = self.map.lock(); drop(g); \
             self.store.read_block(); } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &LockAnalysis::build(&a), &mut out);
        assert!(rules_of(&out, "BX016").is_empty(), "{out:?}");
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
