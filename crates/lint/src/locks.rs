//! Lock-set dataflow: which `Mutex`/`RwLock` fields each function acquires,
//! how long each guard stays live, and the resulting workspace lock-order
//! graph.
//!
//! The BX015–BX017 rules and the `target/lock-order.json` artifact all run
//! over one [`LockAnalysis`]:
//!
//! * **Lock identities** are struct fields whose declared base type is
//!   `Mutex` or `RwLock`, keyed `crate::Container.field` (e.g.
//!   `boxes-pager::Pager.inner`). Static and local locks are not modeled —
//!   the caveat is documented in DESIGN.md under "lock-set soundness".
//! * **Acquisition events** come from three syntactic shapes: a zero-arg
//!   `.lock()`/`.read()`/`.write()` on a `base.field` receiver whose base
//!   resolves to a known container (`self`, a typed parameter, or a typed
//!   local), a `lock_unpoisoned(&base.field)` call (the workspace's blessed
//!   poison-recovering helper), and a resolved call edge to a
//!   *guard-returning helper* — a function whose return type names a guard
//!   and whose body acquires exactly one lock (`Pager::lock`).
//! * **Guard liveness** reuses the borrow-liveness walk from
//!   [`crate::dataflow`]: a guard bound with `let g = …` lives to its
//!   enclosing block close or an explicit `drop(g)`; a temporary lives to
//!   its statement's `;`. This over-approximates guards that die inside an
//!   `if` condition — the analysis errs toward reporting, like every rule
//!   in the catalog.
//! * **`may_acquire` summaries** close the per-function lock sets over
//!   the call graph's resolved edges to fixpoint. A call with no recoverable
//!   receiver type has no edge, so trait-object calls (`dyn Journal`) are
//!   invisible to the order graph, which is the price of zero false cycles
//!   (caveat in DESIGN.md).
//!
//! A lock-order edge `A → B` is recorded whenever a function acquires `B`
//! (directly or via a callee's `may_acquire`) while a guard of `A` is live.
//! Any cycle among those edges is a potential deadlock (BX015); an `A → A`
//! overlap is a self-deadlock with non-reentrant `std` locks (BX017).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{collect_local_types, FnId};
use crate::dataflow::borrow_live_end;
use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::parser::{crate_of, FnItem};
use crate::Analysis;

/// Field base types that declare a lock.
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Zero-arg guard-returning methods on lock fields.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Return-type idents that mark a guard-returning helper.
const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Free helpers that acquire the lock passed as `&base.field`.
/// `lock_unpoisoned` is the workspace's canonical poison-recovering
/// acquisition (exported by `boxes-pager`).
const ACQUIRE_HELPERS: [&str; 1] = ["lock_unpoisoned"];

/// One lock acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Lock identity, `crate::Container.field`.
    pub lock: String,
    /// Sig-index of the acquiring token (method name or helper call).
    pub si: usize,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Guard liveness window end (exclusive sig-index).
    pub live_end: usize,
    /// `Some(callee qual)` when acquired through a guard-returning helper.
    pub via: Option<String>,
}

/// Per-function lock summary.
#[derive(Clone, Debug, Default)]
pub struct FnLocks {
    /// Acquisition events in source order (direct shapes plus calls to
    /// guard-returning helpers).
    pub acquires: Vec<Acquire>,
    /// Locks this function may acquire, transitively over the call graph
    /// (fixpoint).
    pub may_acquire: BTreeSet<String>,
    /// `Some(lock)` when the function returns a guard for exactly one lock
    /// (e.g. `Pager::lock`), making each call site an acquisition site.
    pub returns_guard: Option<String>,
}

/// One witness for a lock-order edge: `holder_fn` acquired `to` while a
/// guard of `from` was live.
#[derive(Clone, Debug)]
pub struct OrderWitness {
    /// Lock held when the inner acquisition happened.
    pub from: String,
    /// Lock acquired inside the held window.
    pub to: String,
    /// Qualified name of the function holding the guard.
    pub holder: String,
    /// Workspace-relative path of the witness site.
    pub path: String,
    /// 1-based line of the inner acquisition (or the call carrying it).
    pub line: usize,
    /// `Some(callee qual)` when the inner lock is taken inside a callee.
    pub via: Option<String>,
}

/// A same-lock re-acquisition while the first guard is still live (BX017).
#[derive(Clone, Debug)]
pub struct Reacquire {
    /// Function the overlap occurs in.
    pub fn_id: FnId,
    /// Sig-index of the second acquisition (or the call carrying it).
    pub si: usize,
    /// 1-based line of the second acquisition.
    pub line: usize,
    /// The lock acquired twice.
    pub lock: String,
    /// 1-based line of the still-live first acquisition.
    pub first_line: usize,
    /// `Some(callee qual)` when the re-acquisition is inside a callee.
    pub via: Option<String>,
}

/// The whole-workspace lock analysis.
pub struct LockAnalysis {
    /// Every modeled lock identity, sorted.
    pub locks: Vec<String>,
    /// Per-function summaries, parallel to `Analysis::graph.fns`.
    pub fn_locks: Vec<FnLocks>,
    /// All lock-order edge witnesses (may repeat an edge; deduplicated per
    /// `(from, to)` in the JSON export).
    pub witnesses: Vec<OrderWitness>,
    /// Same-lock overlaps, for BX017.
    pub reacquires: Vec<Reacquire>,
}

impl LockAnalysis {
    /// Build the lock analysis over a finished workspace [`Analysis`].
    pub fn build(a: &Analysis) -> LockAnalysis {
        // Lock identity table: (container, field) -> "crate::Container.field"
        // for every field declared as Mutex<…>/RwLock<…>.
        let mut field_locks: BTreeMap<(String, String), String> = BTreeMap::new();
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for (i, p) in a.parsed.iter().enumerate() {
            let krate = crate_of(&a.files[i].path);
            for (container, field, base) in &p.fields {
                if LOCK_TYPES.contains(&base.as_str()) {
                    let key = format!("{krate}::{container}.{field}");
                    field_locks.insert((container.clone(), field.clone()), key.clone());
                    locks.insert(key);
                }
            }
        }
        // Container aliases (`SharedPager` -> [Arc, Pager]) so aliased
        // receivers still resolve their lock fields.
        let mut aliases: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for p in &a.parsed {
            for (name, rhs) in &p.aliases {
                aliases.entry(name.clone()).or_default().extend(rhs.clone());
            }
        }

        let g = &a.graph;
        let mut fn_locks: Vec<FnLocks> = g
            .fns
            .iter()
            .map(|f| {
                let mut fl = FnLocks::default();
                if let Some((open, close)) = f.body {
                    let file = &a.files[f.file_idx];
                    fl.acquires = direct_acquires(file, f, open, close, &field_locks, &aliases);
                }
                fl
            })
            .collect();

        // Guard-returning helpers: guard in the return type + exactly one
        // distinct direct lock.
        for (id, f) in g.fns.iter().enumerate() {
            let returns_guard = f
                .ret_tokens
                .iter()
                .any(|t| GUARD_TYPES.contains(&t.as_str()));
            if !returns_guard {
                continue;
            }
            let distinct: BTreeSet<&str> = fn_locks[id]
                .acquires
                .iter()
                .map(|e| e.lock.as_str())
                .collect();
            if distinct.len() == 1 {
                fn_locks[id].returns_guard = distinct.iter().next().map(|s| (*s).to_string());
            }
        }

        // Calls to guard-returning helpers are acquisition sites too.
        for id in 0..g.fns.len() {
            let f = &g.fns[id];
            let Some((open, close)) = f.body else {
                continue;
            };
            let file = &a.files[f.file_idx];
            let mut used: BTreeSet<usize> = fn_locks[id].acquires.iter().map(|e| e.si).collect();
            let mut extra: Vec<Acquire> = Vec::new();
            for e in &g.edges[id] {
                if used.contains(&e.call_si) {
                    continue;
                }
                let Some(lock) = fn_locks[e.to].returns_guard.clone() else {
                    continue;
                };
                used.insert(e.call_si);
                extra.push(Acquire {
                    lock,
                    si: e.call_si,
                    line: e.line,
                    live_end: borrow_live_end(file, open, close, e.call_si),
                    via: Some(g.fns[e.to].qual()),
                });
            }
            fn_locks[id].acquires.extend(extra);
            fn_locks[id].acquires.sort_by_key(|e| e.si);
        }

        // may_acquire fixpoint over resolved edges.
        for fl in &mut fn_locks {
            fl.may_acquire = fl.acquires.iter().map(|e| e.lock.clone()).collect();
        }
        loop {
            let mut changed = false;
            for id in 0..g.fns.len() {
                let mut add: Vec<String> = Vec::new();
                for e in &g.edges[id] {
                    for l in &fn_locks[e.to].may_acquire {
                        if !fn_locks[id].may_acquire.contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    fn_locks[id].may_acquire.extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Window scan: for each live guard, other acquisitions and resolved
        // callee lock sets inside its window become order edges (distinct
        // locks) or re-acquisitions (same lock).
        let mut witnesses: Vec<OrderWitness> = Vec::new();
        let mut reacquires: Vec<Reacquire> = Vec::new();
        let mut seen_w: BTreeSet<(String, String, String, usize)> = BTreeSet::new();
        let mut seen_r: BTreeSet<(FnId, usize, String)> = BTreeSet::new();
        for (id, f) in g.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let events = &fn_locks[id].acquires;
            let event_sis: BTreeSet<usize> = events.iter().map(|e| e.si).collect();
            for e in events {
                for e2 in events {
                    if e2.si <= e.si || e2.si >= e.live_end {
                        continue;
                    }
                    if e2.lock == e.lock {
                        if seen_r.insert((id, e2.si, e2.lock.clone())) {
                            reacquires.push(Reacquire {
                                fn_id: id,
                                si: e2.si,
                                line: e2.line,
                                lock: e2.lock.clone(),
                                first_line: e.line,
                                via: e2.via.clone(),
                            });
                        }
                    } else if seen_w.insert((e.lock.clone(), e2.lock.clone(), f.qual(), e2.line)) {
                        witnesses.push(OrderWitness {
                            from: e.lock.clone(),
                            to: e2.lock.clone(),
                            holder: f.qual(),
                            path: f.path.clone(),
                            line: e2.line,
                            via: e2.via.clone(),
                        });
                    }
                }
                for c in &g.edges[id] {
                    if c.call_si <= e.si
                        || c.call_si >= e.live_end
                        || event_sis.contains(&c.call_si)
                    {
                        continue;
                    }
                    let callee = g.fns[c.to].qual();
                    for l in &fn_locks[c.to].may_acquire {
                        if *l == e.lock {
                            if seen_r.insert((id, c.call_si, l.clone())) {
                                reacquires.push(Reacquire {
                                    fn_id: id,
                                    si: c.call_si,
                                    line: c.line,
                                    lock: l.clone(),
                                    first_line: e.line,
                                    via: Some(callee.clone()),
                                });
                            }
                        } else if seen_w.insert((e.lock.clone(), l.clone(), f.qual(), c.line)) {
                            witnesses.push(OrderWitness {
                                from: e.lock.clone(),
                                to: l.clone(),
                                holder: f.qual(),
                                path: f.path.clone(),
                                line: c.line,
                                via: Some(callee.clone()),
                            });
                        }
                    }
                }
            }
        }

        LockAnalysis {
            locks: locks.into_iter().collect(),
            fn_locks,
            witnesses,
            reacquires,
        }
    }

    /// Cycles in the lock-order graph, each as an ordered node list
    /// (`[A, B, C]` means `A → B → C → A`). Deterministic: nodes are walked
    /// in sorted order. Self-loops cannot occur (same-lock overlaps are
    /// [`Reacquire`]s, not edges).
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for w in &self.witnesses {
            adj.entry(w.from.as_str())
                .or_default()
                .insert(w.to.as_str());
        }
        let nodes: BTreeSet<&str> = adj
            .iter()
            .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
            .collect();
        // Transitive closure per node — lock graphs are tiny (a handful of
        // nodes), so the quadratic walk is fine.
        let reach = |start: &str| -> BTreeSet<&str> {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                for &m in adj.get(n).into_iter().flatten() {
                    if seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
            seen
        };
        let reaches: BTreeMap<&str, BTreeSet<&str>> =
            nodes.iter().map(|&n| (n, reach(n))).collect();
        let mut groups: Vec<Vec<String>> = Vec::new();
        let mut assigned: BTreeSet<&str> = BTreeSet::new();
        for &n in &nodes {
            if assigned.contains(n) || !reaches[n].contains(n) {
                continue;
            }
            // The strongly connected component of n: mutual reachability.
            let grp: Vec<&str> = nodes
                .iter()
                .copied()
                .filter(|&m| reaches[n].contains(m) && reaches[m].contains(n))
                .collect();
            assigned.extend(grp.iter().copied());
            groups.push(order_cycle(&grp, &adj));
        }
        groups
    }

    /// Render the lock-order graph as pretty JSON for
    /// `target/lock-order.json`: all modeled locks, the deduplicated edge
    /// set with every witness, and any cycles.
    pub fn to_json(&self) -> String {
        let js = crate::report::json_string;
        // Group witnesses per (from, to).
        let mut edges: BTreeMap<(&str, &str), Vec<&OrderWitness>> = BTreeMap::new();
        for w in &self.witnesses {
            edges
                .entry((w.from.as_str(), w.to.as_str()))
                .or_default()
                .push(w);
        }
        let mut out = String::from("{\n");
        out.push_str("  \"locks\": [");
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&js(l));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"edge_count\": {},\n", edges.len()));
        out.push_str("  \"edges\": [\n");
        for (i, ((from, to), ws)) in edges.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"from\": {}, ", js(from)));
            out.push_str(&format!("\"to\": {}, ", js(to)));
            out.push_str("\"witnesses\": [");
            for (j, w) in ws.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"holder\": {}, \"path\": {}, \"line\": {}, \"via\": {}}}",
                    js(&w.holder),
                    js(&w.path),
                    w.line,
                    match &w.via {
                        Some(v) => js(v),
                        None => "null".to_string(),
                    }
                ));
            }
            out.push_str("]}");
            if i + 1 < edges.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        let cycles = self.cycles();
        out.push_str("  \"cycles\": [");
        for (i, cycle) in cycles.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, n) in cycle.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&js(n));
            }
            out.push(']');
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Order an SCC's nodes along one concrete cycle: greedy walk from the
/// smallest node, always taking the smallest in-component successor not yet
/// visited. Falls back to sorted members if the walk dead-ends (possible in
/// dense components; the membership is still correct).
fn order_cycle(grp: &[&str], adj: &BTreeMap<&str, BTreeSet<&str>>) -> Vec<String> {
    let inset: BTreeSet<&str> = grp.iter().copied().collect();
    let Some(&start) = grp.first() else {
        return Vec::new();
    };
    let mut path: Vec<&str> = vec![start];
    let mut cur = start;
    loop {
        let next = adj
            .get(cur)
            .into_iter()
            .flatten()
            .copied()
            .find(|m| inset.contains(m) && !path.contains(m));
        match next {
            Some(m) => {
                path.push(m);
                cur = m;
            }
            None => {
                let closes = adj.get(cur).is_some_and(|s| s.contains(start));
                if closes && path.len() == grp.len() {
                    return path.iter().map(|s| (*s).to_string()).collect();
                }
                // Dead end or partial walk: report sorted membership.
                return grp.iter().map(|s| (*s).to_string()).collect();
            }
        }
    }
}

/// Direct acquisition events in one function body: `base.field.lock()`
/// shapes and `lock_unpoisoned(&base.field)` calls.
fn direct_acquires(
    file: &SourceFile,
    f: &FnItem,
    open: usize,
    close: usize,
    field_locks: &BTreeMap<(String, String), String>,
    aliases: &BTreeMap<String, Vec<String>>,
) -> Vec<Acquire> {
    let locals = collect_local_types(file, f, open, close);
    let mut out = Vec::new();
    for si in open + 1..close {
        if file.stok(si).map(|t| t.kind) != Some(TokenKind::Ident) {
            continue;
        }
        let t = file.stext(si);
        let lock = if ACQUIRE_METHODS.contains(&t)
            && si >= 1
            && file.stext(si - 1) == "."
            && file.stext(si + 1) == "("
            && file.close_of.get(si + 1).copied().flatten() == Some(si + 2)
        {
            // `base.field.lock()` — zero-arg only, so `store.read(id)`-style
            // I/O calls never match. Deeper chains stay unresolved.
            if si < 4 || file.stext(si - 3) != "." {
                continue;
            }
            let field = file.stext(si - 2);
            let base = file.stext(si - 4);
            let base_direct = si < 5 || file.stext(si - 5) != ".";
            if !base_direct || file.stok(si - 4).map(|tk| tk.kind) != Some(TokenKind::Ident) {
                continue;
            }
            resolve_lock(f, &locals, field_locks, aliases, base, field)
        } else if ACQUIRE_HELPERS.contains(&t)
            && file.stext(si + 1) == "("
            && (si == 0 || file.stext(si - 1) != ".")
        {
            // `lock_unpoisoned(&base.field)` — the argument must be a
            // borrowed two-segment field path.
            let mut j = si + 2;
            if file.stext(j) == "&" {
                j += 1;
            }
            let base = file.stext(j);
            if file.stok(j).map(|tk| tk.kind) != Some(TokenKind::Ident)
                || file.stext(j + 1) != "."
                || file.stok(j + 2).map(|tk| tk.kind) != Some(TokenKind::Ident)
                || file.stext(j + 3) != ")"
            {
                continue;
            }
            let field = file.stext(j + 2);
            resolve_lock(f, &locals, field_locks, aliases, base, field)
        } else {
            continue;
        };
        let Some(lock) = lock else {
            continue;
        };
        out.push(Acquire {
            lock,
            si,
            line: file.stok(si).map(|tk| tk.line).unwrap_or(0),
            live_end: borrow_live_end(file, open, close, si),
            via: None,
        });
    }
    out
}

/// Resolve `base.field` to a lock identity: `self` uses the enclosing impl
/// type; anything else must be a typed parameter or local. Sees through one
/// container alias level.
fn resolve_lock(
    f: &FnItem,
    locals: &BTreeMap<String, String>,
    field_locks: &BTreeMap<(String, String), String>,
    aliases: &BTreeMap<String, Vec<String>>,
    base: &str,
    field: &str,
) -> Option<String> {
    let container = if base == "self" {
        f.self_ty.clone()
    } else {
        locals.get(base).cloned()
    }?;
    if let Some(key) = field_locks.get(&(container.clone(), field.to_string())) {
        return Some(key.clone());
    }
    for t in aliases.get(&container).into_iter().flatten() {
        if let Some(key) = field_locks.get(&(t.clone(), field.to_string())) {
            return Some(key.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(srcs: &[(&str, &str)]) -> Analysis {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(*p, *s))
            .collect();
        Analysis::build(files)
    }

    #[test]
    fn direct_method_and_helper_acquires_are_found() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: RwLock<u8> }\n\
             fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().into_inner() }\n\
             impl S { pub fn f(&self) { let g = self.a.lock(); \
             let h = lock_unpoisoned(&self.a); let r = self.b.read(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        assert_eq!(
            la.locks,
            vec!["boxes-x::S.a".to_string(), "boxes-x::S.b".to_string()]
        );
        let f = a
            .graph
            .fns
            .iter()
            .position(|f| f.name == "f")
            .expect("fn f");
        let locks: Vec<&str> = la.fn_locks[f]
            .acquires
            .iter()
            .map(|e| e.lock.as_str())
            .collect();
        assert_eq!(locks, vec!["boxes-x::S.a", "boxes-x::S.a", "boxes-x::S.b"]);
    }

    #[test]
    fn guard_returning_helper_marks_call_sites() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct P { inner: Mutex<u8> }\n\
             impl P { fn lock(&self) -> MutexGuard<'_, u8> { \
             lock_unpoisoned(&self.inner) } \
             pub fn api(&self) { let g = self.lock(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        let helper = a
            .graph
            .fns
            .iter()
            .position(|f| f.name == "lock")
            .expect("helper");
        assert_eq!(
            la.fn_locks[helper].returns_guard.as_deref(),
            Some("boxes-x::P.inner")
        );
        let api = a
            .graph
            .fns
            .iter()
            .position(|f| f.name == "api")
            .expect("api");
        assert_eq!(la.fn_locks[api].acquires.len(), 1);
        assert!(la.fn_locks[api].acquires[0].via.is_some());
        assert!(la.fn_locks[api].may_acquire.contains("boxes-x::P.inner"));
    }

    #[test]
    fn overlapping_windows_make_edges_and_drop_ends_them() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { pub fn held(&self) { let g = self.a.lock(); self.b.lock(); }\n\
             pub fn dropped(&self) { let g = self.b.lock(); drop(g); self.a.lock(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        assert_eq!(la.witnesses.len(), 1, "{:?}", la.witnesses);
        assert_eq!(la.witnesses[0].from, "boxes-x::S.a");
        assert_eq!(la.witnesses[0].to, "boxes-x::S.b");
        assert!(la.cycles().is_empty());
    }

    #[test]
    fn cycle_detected_and_ordered() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { pub fn ab(&self) { let g = self.a.lock(); self.b.lock(); }\n\
             pub fn ba(&self) { let g = self.b.lock(); self.a.lock(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        let cycles = la.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0],
            vec!["boxes-x::S.a".to_string(), "boxes-x::S.b".to_string()]
        );
        let json = la.to_json();
        assert!(json.contains("\"cycles\": [[\"boxes-x::S.a\", \"boxes-x::S.b\"]]"));
    }

    #[test]
    fn transitive_acquire_through_callee_is_an_edge() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { fn takes_b(&self) { let g = self.b.lock(); }\n\
             pub fn outer(&self) { let g = self.a.lock(); self.takes_b(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        assert_eq!(la.witnesses.len(), 1, "{:?}", la.witnesses);
        assert_eq!(la.witnesses[0].to, "boxes-x::S.b");
        assert!(la.witnesses[0]
            .via
            .as_deref()
            .is_some_and(|v| v.contains("takes_b")));
    }

    #[test]
    fn same_lock_overlap_is_a_reacquire_not_an_edge() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "pub struct S { a: Mutex<u8> }\n\
             impl S { pub fn twice(&self) { let g = self.a.lock(); self.a.lock(); } }",
        )]);
        let la = LockAnalysis::build(&a);
        assert!(la.witnesses.is_empty());
        assert_eq!(la.reacquires.len(), 1);
        assert_eq!(la.reacquires[0].lock, "boxes-x::S.a");
    }
}
