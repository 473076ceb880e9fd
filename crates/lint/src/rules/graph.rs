//! The call-graph/dataflow rule family (BX010, BX012, BX014).
//!
//! These rules run once over the whole-workspace [`Analysis`] — call graph
//! plus per-function dataflow summaries — instead of file-by-file:
//!
//! * **BX010** — transitive pager-I/O discipline: no call path from
//!   non-pager code to the raw store surface (`FileStore`/`DiskImage`/
//!   `DiskBlock` methods) that bypasses the blessed `Pager` API. Uses
//!   reverse reachability over *all* edges, unknown edges included, so a
//!   helper chain cannot hide a leak (sound-by-default).
//! * **BX012** — transitive error swallowing: a `Result` carrying
//!   `PagerError`/`WalError` (directly or by `?`-propagation, per the
//!   summary fixpoint) must not be `let _ =`-dropped, bare-`;`-discarded,
//!   `.ok()`-silenced, or matched with an ignoring `Err(_)` arm. Only
//!   resolved edges fire — unknown edges would spam (caveat in DESIGN.md).
//! * **BX014** — span balance: `OpSpan::op` must open before any `?`/
//!   `return` in its function body, or early-return paths run unattributed.

use std::collections::BTreeSet;

use super::{chain_start, push};
use crate::callgraph::{EdgeKind, FnId};
use crate::dataflow;
use crate::report::Diagnostic;
use crate::Analysis;

/// Raw disk-surface types whose methods are BX010 sinks.
pub(crate) const RAW_STORE_TYPES: [&str; 3] = ["FileStore", "DiskImage", "DiskBlock"];

/// The blessed I/O surface: reaching a sink *through* these types' methods
/// is the accounted path.
const BLESSED_TYPES: [&str; 1] = ["Pager"];

/// Individually blessed functions (by qualified name): entry points that
/// consume the raw disk surface *by design*. `boxes-wal::recover` rebuilds a
/// `DiskImage` during crash recovery, below the pager — no pager exists yet
/// on that path.
const BLESSED_FNS: [&str; 1] = ["boxes-wal::recover"];

/// Run every graph rule.
pub fn run_all(a: &Analysis, out: &mut Vec<Diagnostic>) {
    bx010(a, out);
    bx012(a, out);
    bx014(a, out);
}

fn is_blessed(a: &Analysis, n: FnId) -> bool {
    let f = &a.graph.fns[n];
    f.self_ty
        .as_deref()
        .is_some_and(|t| BLESSED_TYPES.contains(&t))
        || BLESSED_FNS.contains(&f.qual().as_str())
}

/// BX010: reverse-reachability from the raw store surface, blocked at the
/// blessed `Pager` methods. Anything left outside the pager crate reaches
/// disk blocks on an unaccounted path.
///
/// Unknown edges are followed only when *every* candidate of the call site
/// is a sink (the name+arity is unique to the raw store surface). An
/// ambiguous call that might be the blessed `Pager` API is attributed to
/// it — the caveat is documented in DESIGN.md: a raw call hidden behind a
/// name the workspace also uses elsewhere needs a typed receiver to fire.
fn bx010(a: &Analysis, out: &mut Vec<Diagnostic>) {
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
    // Effective adjacency under the unknown-edge rule.
    let mut eff: Vec<Vec<FnId>> = vec![Vec::new(); g.fns.len()];
    for (from, edges) in g.edges.iter().enumerate() {
        for e in edges {
            let counts = match e.kind {
                EdgeKind::Static | EdgeKind::Method => true,
                EdgeKind::Unknown => edges
                    .iter()
                    .filter(|o| o.call_si == e.call_si)
                    .all(|o| sinks.contains(&o.to)),
            };
            if counts {
                eff[from].push(e.to);
            }
        }
    }
    // Reverse BFS from the sinks, never expanding backwards through a
    // blessed node (paths through `Pager` are the accounted ones).
    let mut reach: BTreeSet<FnId> = sinks.clone();
    let mut queue: Vec<FnId> = sinks.iter().copied().collect();
    while let Some(n) = queue.pop() {
        for (from, outs) in eff.iter().enumerate() {
            if !reach.contains(&from) && !is_blessed(a, from) && outs.contains(&n) {
                reach.insert(from);
                queue.push(from);
            }
        }
    }
    for (id, f) in g.fns.iter().enumerate() {
        if !reach.contains(&id)
            || sinks.contains(&id)
            || f.in_test
            || f.path.starts_with("crates/pager/src")
        {
            continue;
        }
        let chain = chain_to_sink(g, &eff, id, &sinks, |n| is_blessed(a, n));
        push(
            &a.files[f.file_idx],
            f.fn_si,
            "BX010",
            format!(
                "`{}` reaches the raw disk surface bypassing `Pager`: {} — block \
                 transfers on this path escape I/O accounting",
                f.qual(),
                chain.join(" -> ")
            ),
            out,
        );
    }
}

/// Shortest chain of quals from `from` to any sink over the effective
/// adjacency, never passing through blessed nodes.
fn chain_to_sink(
    g: &crate::callgraph::CallGraph,
    eff: &[Vec<FnId>],
    from: FnId,
    sinks: &BTreeSet<FnId>,
    blessed: impl Fn(FnId) -> bool,
) -> Vec<String> {
    use std::collections::{BTreeMap, VecDeque};
    let mut prev: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut hit = None;
    'bfs: while let Some(n) = queue.pop_front() {
        if n != from && (blessed(n) || sinks.contains(&n)) {
            continue;
        }
        for &to in &eff[n] {
            if to == from || prev.contains_key(&to) || blessed(to) {
                continue;
            }
            prev.insert(to, n);
            if sinks.contains(&to) {
                hit = Some(to);
                break 'bfs;
            }
            queue.push_back(to);
        }
    }
    let Some(mut cur) = hit else {
        return vec![g.fns[from].qual()];
    };
    let mut path = vec![g.fns[cur].qual()];
    while let Some(&p) = prev.get(&cur) {
        path.push(g.fns[p].qual());
        cur = p;
        if cur == from {
            break;
        }
    }
    path.reverse();
    path
}

/// BX012: swallowed I/O-error `Result`s, transitively over the summary
/// fixpoint. Resolved edges only.
fn bx012(a: &Analysis, out: &mut Vec<Diagnostic>) {
    let g = &a.graph;
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let file = &a.files[f.file_idx];
        for e in &g.edges[id] {
            if e.kind == EdgeKind::Unknown || !a.summaries[e.to].io_result {
                continue;
            }
            let callee = &g.fns[e.to];
            if !seen.insert((f.file_idx, e.call_si)) {
                continue;
            }
            let c = dataflow::classify_consumption(file, e.call_si, chain_start);
            if c.is_swallowed() {
                push(
                    file,
                    e.call_si,
                    "BX012",
                    format!(
                        "I/O-error `Result` from `{}` is {} — a disk fault vanishes \
                         here; propagate with `?` or handle both arms",
                        callee.qual(),
                        c.label()
                    ),
                    out,
                );
            }
        }
    }
}

/// BX014: `OpSpan::op` constructed after fallible work in the same body.
fn bx014(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for f in &a.graph.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let file = &a.files[f.file_idx];
        for s in dataflow::spans_after_early_return(file, open, close) {
            push(
                file,
                s.si,
                "BX014",
                format!(
                    "`OpSpan::op` opens after a `{}` at line {} — early-return paths \
                     (including fault-service retries) run with no attribution window",
                    s.reason, s.early_line
                ),
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

    fn rules_of(diags: &[Diagnostic], rule: &str) -> Vec<String> {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.message.clone())
            .collect()
    }

    const STORE: &str = "pub struct FileStore;\n\
                         impl FileStore { pub fn read(&self) {} }\n\
                         pub struct Pager;\n\
                         impl Pager { pub fn read(&self, s: &FileStore) { s.read(); } }";

    #[test]
    fn bx010_flags_bypass_and_blesses_pager() {
        let a = analyze(&[
            ("crates/pager/src/lib.rs", STORE),
            (
                "crates/core/src/lib.rs",
                "fn helper(s: &FileStore) { s.read(); }\n\
                 pub fn entry(s: &FileStore) { helper(s); }\n\
                 pub fn fine(p: &Pager, s: &FileStore) { p.read(s); }",
            ),
        ]);
        let mut out = Vec::new();
        run_all(&a, &mut out);
        let b = rules_of(&out, "BX010");
        assert!(b.iter().any(|m| m.contains("boxes-core::helper")), "{b:?}");
        assert!(b.iter().any(|m| m.contains("boxes-core::entry")), "{b:?}");
        assert!(!b.iter().any(|m| m.contains("boxes-core::fine")), "{b:?}");
    }

    #[test]
    fn bx012_transitive_swallow_fires_and_propagation_passes() {
        let a = analyze(&[(
            "crates/wal/src/lib.rs",
            "fn raw() -> Result<(), WalError> { Ok(()) }\n\
             fn wraps() -> Result<(), WalError> { raw()?; Ok(()) }\n\
             pub fn bad() { let _ = wraps(); }\n\
             pub fn good() -> Result<(), WalError> { wraps()?; Ok(()) }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &mut out);
        let b = rules_of(&out, "BX012");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("boxes-wal::wraps"));
        assert!(b[0].contains("`let _ =`-dropped"));
    }

    #[test]
    fn bx014_fires_on_a_late_op_span() {
        let a = analyze(&[(
            "crates/trace/src/lib.rs",
            "pub struct T;\n\
             impl T { pub fn late(&self) -> Result<(), E> { self.gate()?; \
             let _s = OpSpan::op(\"w\", \"i\"); Ok(()) } \
             fn gate(&self) -> Result<(), E> { Ok(()) } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &mut out);
        assert_eq!(rules_of(&out, "BX014").len(), 1);
    }
}
