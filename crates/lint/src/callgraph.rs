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
//!
//! A method call whose receiver type is not recoverable gets no edge, and
//! neither do calls that resolve to nothing in the workspace (std, vendored
//! deps). Every rule over the graph prefers a miss to a false finding, so
//! the graph holds resolved edges only. The caveats live in DESIGN.md
//! under "call-graph soundness".

use std::collections::BTreeMap;

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
                file, f, open, close, &locals, &aliases, &fields, &methods, &free, &fns, &mut out,
            );
            edges[id] = out;
        }
        CallGraph { fns, edges }
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
            CallForm::UnknownMethod => {}
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
    fn field_receivers_resolve_through_struct_fields() {
        let g = graph(
            "struct FileStore; impl FileStore { fn read_block(&self) {} }\n\
             struct Cache { store: FileStore }\n\
             impl Cache { fn load(&self) { self.store.read_block(); } }",
        );
        let e = &g.edges[id(&g, "load")];
        assert!(
            e.iter()
                .any(|e| g.fns[e.to].name == "read_block" && e.kind == EdgeKind::Method),
            "{e:?}"
        );
    }

    #[test]
    fn free_calls_prefer_the_callers_crate() {
        let files = [
            SourceFile::parse(
                "crates/x/src/lib.rs",
                "fn helper() {}\nfn a() { helper(); shared(); }",
            ),
            SourceFile::parse("crates/y/src/lib.rs", "fn helper() {}\nfn shared() {}"),
        ];
        let parsed: Vec<_> = files
            .iter()
            .enumerate()
            .map(|(i, f)| parse_file(f, i))
            .collect();
        let g = CallGraph::build(&files, &parsed);
        let mut tos: Vec<String> = g.edges[id(&g, "a")]
            .iter()
            .map(|e| g.fns[e.to].qual())
            .collect();
        tos.sort();
        // `helper` stays inside crate x; `shared`, defined only in y,
        // falls back to the workspace.
        assert_eq!(tos, ["boxes-x::helper", "boxes-y::shared"]);
    }

    #[test]
    fn unknown_receivers_get_no_edge() {
        let g = graph(
            "struct A; impl A { fn go(&self, x: u8) {} }\n\
             fn f(xs: &[A]) { xs[0].go(1); }",
        );
        assert!(g.edges[id(&g, "f")].is_empty());
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
}
