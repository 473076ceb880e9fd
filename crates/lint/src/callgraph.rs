//! The workspace call graph.
//!
//! Nodes are the [`FnItem`]s the item parser extracted; edges are call
//! sites, resolved without type information by a layered heuristic:
//!
//! 1. **Path calls** `Type::method(…)` resolve to methods of `Type` (any
//!    impl block for a type of that name, across crates).
//! 2. **Method calls** `recv.method(…)` resolve through the receiver's
//!    type when it is recoverable: `self` (the enclosing impl type), a
//!    typed parameter, or a local bound by `let x: T = …` / `let x =
//!    T::new(…)`. Type aliases are seen through (`SharedPager` → `Pager`).
//! 3. Everything else is an **explicit unknown edge**: the call links to
//!    *every* workspace method of that name with matching arity. Unknown
//!    edges make reachability queries sound-by-default — a rule that must
//!    not miss a path (BX010) includes them; a rule that must not spam
//!    (BX012's per-call-site check) restricts itself to resolved edges.
//!    The caveats live in DESIGN.md under "call-graph soundness".
//!
//! Calls that resolve to nothing in the workspace (std, vendored deps) get
//! no edge: the analysis is about workspace-internal discipline.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::parser::{FnItem, ParsedFile};

/// Index of a function node in [`CallGraph::fns`].
pub type FnId = usize;

/// How a call edge was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// `Type::method(…)` or a free-function call resolved by name.
    Static,
    /// `recv.method(…)` with a recovered receiver type.
    Method,
    /// Receiver type unknown — candidate set is every same-name,
    /// same-arity method in the workspace.
    Unknown,
}

/// One call edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Callee node.
    pub to: FnId,
    /// Resolution class.
    pub kind: EdgeKind,
    /// Sig-index of the callee name token at the call site (in the
    /// caller's file).
    pub call_si: usize,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The whole-workspace call graph.
pub struct CallGraph {
    /// All function nodes, indexed by [`FnId`].
    pub fns: Vec<FnItem>,
    /// Outgoing edges per node.
    pub edges: Vec<Vec<Edge>>,
    /// Incoming edge sources per node (deduplicated).
    pub callers: Vec<Vec<FnId>>,
}

/// A call site classification before resolution.
enum CallForm {
    /// `name(…)` — free function.
    Free,
    /// `Type::name(…)`.
    Path(String),
    /// `recv.name(…)` with recovered receiver base type.
    TypedMethod(String),
    /// `recv.name(…)`, receiver type unknown.
    UnknownMethod,
}

impl CallGraph {
    /// Build the graph over every parsed file.
    pub fn build(files: &[SourceFile], parsed: &[ParsedFile]) -> CallGraph {
        let mut fns: Vec<FnItem> = Vec::new();
        let mut aliases: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut fields: BTreeMap<(String, String), String> = BTreeMap::new();
        for p in parsed {
            fns.extend(p.fns.iter().cloned());
            for (name, rhs) in &p.aliases {
                aliases.entry(name.clone()).or_default().extend(rhs.clone());
            }
            for (container, field, ty) in &p.fields {
                fields.insert((container.clone(), field.clone()), ty.clone());
            }
        }
        // Resolution indexes.
        let mut methods: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    methods
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => free.entry(f.name.clone()).or_default().push(id),
            }
            by_name.entry(f.name.clone()).or_default().push(id);
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (id, f) in fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            let file = &files[f.file_idx];
            let locals = collect_local_types(file, f, open, close);
            let mut out = Vec::new();
            extract_calls(
                file, f, open, close, &locals, &aliases, &fields, &methods, &free, &by_name, &fns,
                &mut out,
            );
            edges[id] = out;
        }
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
        for (from, out) in edges.iter().enumerate() {
            for e in out {
                callers[e.to].push(from);
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        CallGraph {
            fns,
            edges,
            callers,
        }
    }

    /// Forward BFS from `start`, following edges accepted by `follow` and
    /// not expanding through nodes rejected by `expand`. Returns every
    /// visited node (including `start`).
    pub fn reachable(
        &self,
        start: FnId,
        follow: impl Fn(&Edge) -> bool,
        expand: impl Fn(FnId) -> bool,
    ) -> BTreeSet<FnId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            if n != start && !expand(n) {
                continue;
            }
            for e in &self.edges[n] {
                if follow(e) && seen.insert(e.to) {
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }

    /// Reverse BFS: every node that can reach a node in `sinks` through
    /// edges accepted by `follow`, without the path passing *through* a
    /// node rejected by `via` (sinks themselves are always included;
    /// rejected nodes are not expanded backwards).
    pub fn reaching(
        &self,
        sinks: &BTreeSet<FnId>,
        follow: impl Fn(&Edge) -> bool,
        via: impl Fn(FnId) -> bool,
    ) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = sinks.clone();
        let mut queue: VecDeque<FnId> = sinks.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for &from in &self.callers[n] {
                if seen.contains(&from) {
                    continue;
                }
                let has_edge = self.edges[from].iter().any(|e| e.to == n && follow(e));
                if has_edge && via(from) && seen.insert(from) {
                    queue.push_back(from);
                }
            }
        }
        seen
    }

    /// The node containing significant-token index `si` of file `file_idx`,
    /// if any function body covers it.
    pub fn fn_at(&self, file_idx: usize, si: usize) -> Option<FnId> {
        self.fns
            .iter()
            .position(|f| f.file_idx == file_idx && f.body.is_some_and(|(o, c)| si >= o && si <= c))
    }

    /// One shortest call path (as function quals) from `from` to any node in
    /// `targets`, following `follow`-accepted edges; used for diagnostics.
    pub fn path_to(
        &self,
        from: FnId,
        targets: &BTreeSet<FnId>,
        follow: impl Fn(&Edge) -> bool,
        expand: impl Fn(FnId) -> bool,
    ) -> Vec<String> {
        let mut prev: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        let mut hit = None;
        'bfs: while let Some(n) = queue.pop_front() {
            if n != from && !expand(n) {
                continue;
            }
            for e in &self.edges[n] {
                if !follow(e) || prev.contains_key(&e.to) || e.to == from {
                    continue;
                }
                prev.insert(e.to, n);
                if targets.contains(&e.to) {
                    hit = Some(e.to);
                    break 'bfs;
                }
                queue.push_back(e.to);
            }
        }
        let Some(mut cur) = hit else {
            return vec![self.fns[from].qual()];
        };
        let mut path = vec![self.fns[cur].qual()];
        while let Some(&p) = prev.get(&cur) {
            path.push(self.fns[p].qual());
            cur = p;
            if cur == from {
                break;
            }
        }
        if path.last().map(String::as_str) != Some(self.fns[from].qual().as_str()) {
            path.push(self.fns[from].qual());
        }
        path.reverse();
        path
    }
}

/// Recover local-variable base types in a function body:
/// `let x: T = …`, `let x = T::new(…)` / `T::with_…(…)` / `T { … }`, plus
/// the function's typed parameters. Shared with the lock-set analysis
/// ([`crate::locks`]), which needs the same receiver typing.
pub(crate) fn collect_local_types(
    file: &SourceFile,
    f: &FnItem,
    open: usize,
    close: usize,
) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for (name, ty) in f.param_names.iter().zip(&f.param_types) {
        if !ty.is_empty() {
            map.insert(name.clone(), ty.clone());
        }
    }
    let mut k = open + 1;
    while k < close {
        if file.stext(k) != "let" {
            k += 1;
            continue;
        }
        // `let [mut] name …`
        let mut j = k + 1;
        if file.stext(j) == "mut" {
            j += 1;
        }
        let name = file.stext(j).to_string();
        if !file.stok(j).is_some_and(|t| t.kind == TokenKind::Ident) {
            k += 1;
            continue;
        }
        j += 1;
        let mut ty = String::new();
        if file.stext(j) == ":" {
            // Explicit annotation: take the base ident up to `=`/`;`.
            let mut m = j + 1;
            while m < close && !matches!(file.stext(m), "=" | ";") {
                let t = file.stext(m);
                if t == "<" {
                    break;
                }
                if file.stok(m).is_some_and(|tk| tk.kind == TokenKind::Ident)
                    && !matches!(t, "mut" | "dyn" | "impl" | "ref")
                {
                    ty = t.to_string();
                }
                m += 1;
            }
            j = m;
        }
        if ty.is_empty() && file.stext(j) == "=" {
            // `= Type::ctor(…)` or `= Type { … }` — an uppercase path head.
            let head = file.stext(j + 1);
            let headlike = file.stok(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
                && head.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if headlike
                && (file.stext(j + 2) == "{"
                    || (file.stext(j + 2) == ":" && file.stext(j + 3) == ":"))
            {
                ty = head.to_string();
            }
        }
        if !ty.is_empty() {
            map.insert(name, ty);
        }
        k += 1;
    }
    map
}

/// Arity of a call: top-level commas in the argument group plus one (zero
/// for an empty group).
fn call_arity(file: &SourceFile, open: usize, close: usize) -> usize {
    if close == open + 1 {
        return 0;
    }
    let mut commas = 0usize;
    let mut k = open + 1;
    let mut angle = 0i32;
    while k < close {
        match file.stext(k) {
            "(" | "[" | "{" => {
                k = file.close_of.get(k).copied().flatten().unwrap_or(k) + 1;
                continue;
            }
            "<" => angle += 1,
            ">" if file.stext(k.wrapping_sub(1)) != "-" => angle -= 1,
            "," if angle <= 0 => commas += 1,
            _ => {}
        }
        k += 1;
    }
    commas + 1
}

const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "let", "fn", "move", "in", "as", "else",
    "break", "continue",
];

#[expect(
    clippy::too_many_arguments,
    reason = "the call extractor threads its file, caller and resolution tables explicitly"
)]
fn extract_calls(
    file: &SourceFile,
    caller: &FnItem,
    open: usize,
    close: usize,
    locals: &BTreeMap<String, String>,
    aliases: &BTreeMap<String, Vec<String>>,
    fields: &BTreeMap<(String, String), String>,
    methods: &BTreeMap<(String, String), Vec<FnId>>,
    free: &BTreeMap<String, Vec<FnId>>,
    by_name: &BTreeMap<String, Vec<FnId>>,
    fns: &[FnItem],
    out: &mut Vec<Edge>,
) {
    for si in open + 1..close {
        let name = file.stext(si).to_string();
        if file.stok(si).map(|t| t.kind) != Some(TokenKind::Ident)
            || file.stext(si + 1) != "("
            || KEYWORDS.contains(&name.as_str())
        {
            continue;
        }
        let Some(args_close) = file.close_of.get(si + 1).copied().flatten() else {
            continue;
        };
        let arity = call_arity(file, si + 1, args_close);
        let form = classify_call(file, caller, locals, fields, aliases, si);
        let line = file.stok(si).map(|t| t.line).unwrap_or(0);
        let mut push_edges = |ids: &[FnId], kind: EdgeKind| {
            for &id in ids {
                out.push(Edge {
                    to: id,
                    kind,
                    call_si: si,
                    line,
                });
            }
        };
        match form {
            CallForm::Path(ty) => {
                let ty = if ty == "Self" {
                    caller.self_ty.clone().unwrap_or(ty)
                } else {
                    ty
                };
                if let Some(ids) = lookup_method(&ty, &name, methods, aliases) {
                    push_edges(&ids, EdgeKind::Static);
                }
            }
            CallForm::TypedMethod(ty) => {
                match lookup_method(&ty, &name, methods, aliases) {
                    Some(ids) => push_edges(&ids, EdgeKind::Method),
                    None => {
                        // Recovered a type but no such method in the
                        // workspace — likely a std/vendored type; no edge.
                    }
                }
            }
            CallForm::UnknownMethod => {
                if let Some(ids) = by_name.get(&name) {
                    let cands: Vec<FnId> = ids
                        .iter()
                        .copied()
                        .filter(|&id| {
                            fns[id].self_ty.is_some() && fns[id].has_self && fns[id].arity == arity
                        })
                        .collect();
                    push_edges(&cands, EdgeKind::Unknown);
                }
            }
            CallForm::Free => {
                if let Some(ids) = free.get(&name) {
                    // Prefer same-crate definitions; fall back to the whole
                    // workspace only when the crate defines none.
                    let same: Vec<FnId> = ids
                        .iter()
                        .copied()
                        .filter(|&id| fns[id].crate_name == caller.crate_name)
                        .collect();
                    if same.is_empty() {
                        push_edges(ids, EdgeKind::Static);
                    } else {
                        push_edges(&same, EdgeKind::Static);
                    }
                }
            }
        }
    }
}

/// Method lookup that sees through one level of type alias
/// (`SharedPager.read` → `Pager::read`).
fn lookup_method(
    ty: &str,
    name: &str,
    methods: &BTreeMap<(String, String), Vec<FnId>>,
    aliases: &BTreeMap<String, Vec<String>>,
) -> Option<Vec<FnId>> {
    if let Some(ids) = methods.get(&(ty.to_string(), name.to_string())) {
        return Some(ids.clone());
    }
    if let Some(targets) = aliases.get(ty) {
        for t in targets {
            if let Some(ids) = methods.get(&(t.clone(), name.to_string())) {
                return Some(ids.clone());
            }
        }
    }
    None
}

/// Resolve the declared type of `container.field`, seeing through one level
/// of type alias on the container (`SharedPager.inner` → `Pager.inner`).
fn field_type(
    fields: &BTreeMap<(String, String), String>,
    aliases: &BTreeMap<String, Vec<String>>,
    container: &str,
    field: &str,
) -> Option<String> {
    if let Some(ty) = fields.get(&(container.to_string(), field.to_string())) {
        return Some(ty.clone());
    }
    for t in aliases.get(container).into_iter().flatten() {
        if let Some(ty) = fields.get(&(t.clone(), field.to_string())) {
            return Some(ty.clone());
        }
    }
    None
}

/// Classify the call whose name token sits at `si`.
fn classify_call(
    file: &SourceFile,
    caller: &FnItem,
    locals: &BTreeMap<String, String>,
    fields: &BTreeMap<(String, String), String>,
    aliases: &BTreeMap<String, Vec<String>>,
    si: usize,
) -> CallForm {
    // `Qualifier::name(…)`
    if si >= 3 && file.stext(si - 1) == ":" && file.stext(si - 2) == ":" {
        let q = file.stext(si - 3);
        if file
            .stok(si - 3)
            .is_some_and(|t| t.kind == TokenKind::Ident)
            && q.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            return CallForm::Path(q.to_string());
        }
        // `module::free_fn(…)` — resolve as a free call by name.
        return CallForm::Free;
    }
    // `recv.name(…)`
    if si >= 2 && file.stext(si - 1) == "." {
        let r = si - 2;
        let recv = file.stext(r);
        if file.stok(r).is_some_and(|t| t.kind == TokenKind::Ident) {
            let before = r.checked_sub(1).map(|b| file.stext(b)).unwrap_or("");
            if before != "." {
                // Direct receiver: `self.name(…)` / `local.name(…)`.
                if recv == "self" {
                    if let Some(ty) = &caller.self_ty {
                        return CallForm::TypedMethod(ty.clone());
                    }
                    return CallForm::UnknownMethod;
                }
                if let Some(ty) = locals.get(recv) {
                    return CallForm::TypedMethod(ty.clone());
                }
                return CallForm::UnknownMethod;
            }
            // One-level field receiver: `base.field.name(…)` where `base` is
            // `self` or a typed local and the field's declared type is known.
            if r >= 2 && file.stext(r - 1) == "." {
                let b = r - 2;
                let base = file.stext(b);
                let base_direct = b.checked_sub(1).map(|p| file.stext(p)).unwrap_or("") != ".";
                let container = if base == "self" {
                    caller.self_ty.clone()
                } else {
                    locals.get(base).cloned()
                };
                if base_direct && file.stok(b).is_some_and(|t| t.kind == TokenKind::Ident) {
                    if let Some(c) = container {
                        if let Some(ty) = field_type(fields, aliases, &c, recv) {
                            return CallForm::TypedMethod(ty);
                        }
                    }
                }
            }
            return CallForm::UnknownMethod;
        }
        return CallForm::UnknownMethod;
    }
    CallForm::Free
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph(src: &str) -> CallGraph {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let p = parse_file(&f, 0);
        CallGraph::build(std::slice::from_ref(&f), std::slice::from_ref(&p))
    }

    fn id(g: &CallGraph, name: &str) -> FnId {
        g.fns.iter().position(|f| f.name == name).expect("fn")
    }

    #[test]
    fn free_and_path_calls_resolve() {
        let g = graph(
            "fn a() { b(); Pager::open(); }\nfn b() {}\n\
             struct Pager; impl Pager { fn open() {} }",
        );
        let a = id(&g, "a");
        let tos: Vec<&str> = g.edges[a]
            .iter()
            .map(|e| g.fns[e.to].name.as_str())
            .collect();
        assert!(tos.contains(&"b"));
        assert!(tos.contains(&"open"));
        assert!(g.edges[a].iter().all(|e| e.kind == EdgeKind::Static));
    }

    #[test]
    fn receiver_types_resolve_methods() {
        let g = graph(
            "struct Store; impl Store { fn read(&self) {} }\n\
             fn a(s: &mut Store) { s.read(); }\n\
             fn b() { let s = Store::new(); s.read(); }\n\
             fn c() { let s: Store = mk(); s.read(); }",
        );
        for f in ["a", "b", "c"] {
            let e = &g.edges[id(&g, f)];
            assert!(
                e.iter()
                    .any(|e| g.fns[e.to].name == "read" && e.kind == EdgeKind::Method),
                "{f}: {e:?}"
            );
        }
    }

    #[test]
    fn unknown_receivers_get_unknown_edges_with_arity_match() {
        let g = graph(
            "struct A; impl A { fn go(&self, x: u8) {} }\n\
             struct B; impl B { fn go(&self, x: u8, y: u8) {} }\n\
             fn f(xs: &[A]) { xs[0].go(1); }",
        );
        let e = &g.edges[id(&g, "f")];
        // Arity 1 matches only A::go.
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].kind, EdgeKind::Unknown);
        assert_eq!(g.fns[e[0].to].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn aliases_are_seen_through() {
        let g = graph(
            "struct Pager; impl Pager { fn read(&self) {} }\n\
             type SharedPager = Rc<Pager>;\n\
             fn f(p: &SharedPager) { p.read(); }",
        );
        let e = &g.edges[id(&g, "f")];
        assert!(e.iter().any(|e| g.fns[e.to].name == "read"));
    }

    #[test]
    fn self_calls_resolve_to_inherent_methods() {
        let g = graph("struct T; impl T { fn outer(&self) { self.inner(); } fn inner(&self) {} }");
        let e = &g.edges[id(&g, "outer")];
        assert!(e
            .iter()
            .any(|e| g.fns[e.to].name == "inner" && e.kind == EdgeKind::Method));
    }

    #[test]
    fn reachability_and_blocking() {
        let g = graph("fn a() { b(); }\nfn b() { c(); }\nfn c() { sink(); }\nfn sink() {}");
        let (a, b, sink) = (id(&g, "a"), id(&g, "b"), id(&g, "sink"));
        let r = g.reachable(a, |_| true, |_| true);
        assert!(r.contains(&sink));
        // Blocking expansion at b cuts the path.
        let r = g.reachable(a, |_| true, |n| n != b);
        assert!(!r.contains(&sink));
        // Reverse: who reaches sink?
        let sinks: BTreeSet<FnId> = [sink].into_iter().collect();
        let up = g.reaching(&sinks, |_| true, |_| true);
        assert!(up.contains(&a) && up.contains(&b));
        let up = g.reaching(&sinks, |_| true, |n| n != b);
        assert!(!up.contains(&a));
    }

    #[test]
    fn path_to_reports_the_chain() {
        let g = graph("fn a() { b(); }\nfn b() { c(); }\nfn c() {}");
        let targets: BTreeSet<FnId> = [id(&g, "c")].into_iter().collect();
        let path = g.path_to(id(&g, "a"), &targets, |_| true, |_| true);
        assert_eq!(path.len(), 3);
        assert!(path[0].ends_with("::a") && path[2].ends_with("::c"));
    }
}
