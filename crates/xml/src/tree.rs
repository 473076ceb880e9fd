//! Arena-based XML document model.
//!
//! An XML document is "an ordered hierarchy of properly nested tagged
//! elements" (§1). We model exactly that: a rooted ordered tree of named
//! elements. Text nodes and attributes are carried along for parser fidelity
//! but play no role in labeling (labels are assigned to element tags only).

#![expect(
    clippy::expect_used,
    reason = "root-removal/orphan-child panics are the documented XmlTree contract (see # Panics-style doc comments)"
)]

/// Index of an element in an [`XmlTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

impl std::fmt::Debug for ElementId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Arena slot of an element id. Ids are minted from the arena length behind
/// the arena-exhausted guard, so the widening always fits; the fallback can
/// only trip a bounds check, never alias a valid slot.
#[inline]
fn slot(id: ElementId) -> usize {
    usize::try_from(id.0).unwrap_or(usize::MAX)
}

#[derive(Clone, Debug)]
pub(crate) struct Element {
    /// Element name.
    pub tag: String,
    /// Parent element, `None` for the root.
    pub parent: Option<ElementId>,
    /// Child elements in document order.
    pub children: Vec<ElementId>,
    /// Attribute name/value pairs in source order.
    pub attributes: Vec<(String, String)>,
    /// Concatenated character data.
    pub text: String,
    /// Set when the element is detached by [`XmlTree::remove_subtree`].
    pub dead: bool,
}

/// An ordered tree of XML elements stored in an arena.
///
/// Element ids are stable across mutations (removal tombstones the slot).
#[derive(Clone, Debug)]
pub struct XmlTree {
    elements: Vec<Element>,
    root: ElementId,
    live: usize,
}

impl XmlTree {
    /// Create a document with a single root element.
    pub fn new(root_tag: impl Into<String>) -> Self {
        let root = Element {
            tag: root_tag.into(),
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
            text: String::new(),
            dead: false,
        };
        XmlTree {
            elements: vec![root],
            root: ElementId(0),
            live: 1,
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> ElementId {
        self.root
    }

    /// Number of live elements (the paper's N is twice this).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tree holds only a root... never true: the root always exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn elem(&self, id: ElementId) -> &Element {
        let e = &self.elements[slot(id)];
        assert!(!e.dead, "access to removed element {id:?}");
        e
    }

    #[inline]
    fn elem_mut(&mut self, id: ElementId) -> &mut Element {
        let e = &mut self.elements[slot(id)];
        assert!(!e.dead, "access to removed element {id:?}");
        e
    }

    /// Tag name of an element.
    pub fn tag(&self, id: ElementId) -> &str {
        &self.elem(id).tag
    }

    /// Parent of an element (`None` for the root).
    pub fn parent(&self, id: ElementId) -> Option<ElementId> {
        self.elem(id).parent
    }

    /// Children of an element in document order.
    pub fn children(&self, id: ElementId) -> &[ElementId] {
        &self.elem(id).children
    }

    /// Attributes of an element.
    pub fn attributes(&self, id: ElementId) -> &[(String, String)] {
        &self.elem(id).attributes
    }

    /// Concatenated text content directly under the element.
    pub fn text(&self, id: ElementId) -> &str {
        &self.elem(id).text
    }

    /// Set an attribute (parser support).
    pub fn push_attribute(&mut self, id: ElementId, name: String, value: String) {
        self.elem_mut(id).attributes.push((name, value));
    }

    /// Append text content (parser support).
    pub fn push_text(&mut self, id: ElementId, text: &str) {
        self.elem_mut(id).text.push_str(text);
    }

    fn new_element(&mut self, tag: String, parent: ElementId) -> ElementId {
        let raw = u32::try_from(self.elements.len()).unwrap_or(u32::MAX);
        assert!(raw < u32::MAX, "arena exhausted");
        let id = ElementId(raw);
        self.elements.push(Element {
            tag,
            parent: Some(parent),
            children: Vec::new(),
            attributes: Vec::new(),
            text: String::new(),
            dead: false,
        });
        self.live += 1;
        id
    }

    /// Append a new element as the last child of `parent`.
    pub fn add_child(&mut self, parent: ElementId, tag: impl Into<String>) -> ElementId {
        let id = self.new_element(tag.into(), parent);
        self.elem_mut(parent).children.push(id);
        id
    }

    /// Insert a new element as the previous sibling of `sibling`.
    ///
    /// This is the tree-level equivalent of the paper's
    /// `insert-element-before(start-lid)`.
    pub fn insert_before(&mut self, sibling: ElementId, tag: impl Into<String>) -> ElementId {
        let parent = self
            .parent(sibling)
            .expect("cannot insert a sibling of the root");
        let id = self.new_element(tag.into(), parent);
        let pos = self.child_position(parent, sibling);
        self.elem_mut(parent).children.insert(pos, id);
        id
    }

    /// Position of `child` within `parent`'s child list.
    pub fn child_position(&self, parent: ElementId, child: ElementId) -> usize {
        self.elem(parent)
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child not under parent")
    }

    /// Remove an element and its whole subtree. Returns the ids removed, in
    /// document order. The root cannot be removed.
    pub fn remove_subtree(&mut self, id: ElementId) -> Vec<ElementId> {
        let parent = self.parent(id).expect("cannot remove the root");
        let pos = self.child_position(parent, id);
        self.elem_mut(parent).children.remove(pos);
        let mut removed = Vec::new();
        let mut stack = vec![id];
        while let Some(e) = stack.pop() {
            removed.push(e);
            let elem = &mut self.elements[slot(e)];
            elem.dead = true;
            self.live -= 1;
            // Push children reversed so pop order is document order.
            for &c in elem.children.iter().rev() {
                stack.push(c);
            }
        }
        removed
    }

    /// Delete a single element, splicing its children into its parent's
    /// child list (the paper's `delete` semantics: "children of e, if any,
    /// effectively become children of e's parent").
    pub fn remove_element(&mut self, id: ElementId) {
        let parent = self.parent(id).expect("cannot remove the root");
        let pos = self.child_position(parent, id);
        let children = std::mem::take(&mut self.elem_mut(id).children);
        for &c in &children {
            self.elem_mut(c).parent = Some(parent);
        }
        let parent_children = &mut self.elem_mut(parent).children;
        parent_children.splice(pos..=pos, children);
        self.elements[slot(id)].dead = true;
        self.live -= 1;
    }

    /// Elements in document order of their start tags (pre-order).
    pub fn document_order(&self) -> Vec<ElementId> {
        let mut out = Vec::with_capacity(self.live);
        let mut stack = vec![self.root];
        while let Some(e) = stack.pop() {
            out.push(e);
            for &c in self.elem(e).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Number of elements in the subtree rooted at `id` (inclusive).
    pub fn subtree_size(&self, id: ElementId) -> usize {
        let mut n = 0;
        let mut stack = vec![id];
        while let Some(e) = stack.pop() {
            n += 1;
            stack.extend(self.elem(e).children.iter().copied());
        }
        n
    }

    /// Depth of element (root = 0).
    pub fn depth(&self, id: ElementId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum depth over all elements — the paper's D.
    pub fn max_depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((e, d)) = stack.pop() {
            max = max.max(d);
            for &c in self.elem(e).children.iter() {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// True if `anc` is a proper ancestor of `desc` — ground truth for
    /// validating label-based containment checks.
    pub fn is_ancestor(&self, anc: ElementId, desc: ElementId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Check structural invariants (parent/child agreement, no dead links).
    /// Used by tests and debug assertions.
    pub fn validate(&self) {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(e) = stack.pop() {
            seen += 1;
            let elem = self.elem(e);
            for &c in &elem.children {
                assert_eq!(self.elem(c).parent, Some(e), "parent link broken at {c:?}");
                stack.push(c);
            }
        }
        assert_eq!(seen, self.live, "live count out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (XmlTree, Vec<ElementId>) {
        // <a><b><d/><e/></b><c/></a>
        let mut t = XmlTree::new("a");
        let b = t.add_child(t.root(), "b");
        let d = t.add_child(b, "d");
        let e = t.add_child(b, "e");
        let c = t.add_child(t.root(), "c");
        (t, vec![b, d, e, c])
    }

    #[test]
    fn document_order_is_preorder() {
        let (t, ids) = sample();
        let order = t.document_order();
        assert_eq!(order, vec![t.root(), ids[0], ids[1], ids[2], ids[3]]);
        t.validate();
    }

    #[test]
    fn insert_before_places_previous_sibling() {
        let (mut t, ids) = sample();
        let x = t.insert_before(ids[2], "x"); // before <e> under <b>
        assert_eq!(t.children(ids[0]), &[ids[1], x, ids[2]]);
        t.validate();
    }

    #[test]
    fn remove_subtree_returns_document_order_and_tombstones() {
        let (mut t, ids) = sample();
        let removed = t.remove_subtree(ids[0]); // <b> subtree
        assert_eq!(removed, vec![ids[0], ids[1], ids[2]]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.children(t.root()), &[ids[3]]);
        t.validate();
    }

    #[test]
    fn remove_element_promotes_children() {
        let (mut t, ids) = sample();
        t.remove_element(ids[0]); // delete <b>: d, e become root's children
        assert_eq!(t.children(t.root()), &[ids[1], ids[2], ids[3]]);
        assert_eq!(t.parent(ids[1]), Some(t.root()));
        t.validate();
    }

    #[test]
    #[should_panic(expected = "removed element")]
    fn access_after_removal_panics() {
        let (mut t, ids) = sample();
        t.remove_subtree(ids[0]);
        t.tag(ids[1]);
    }

    #[test]
    fn ancestor_ground_truth() {
        let (t, ids) = sample();
        assert!(t.is_ancestor(t.root(), ids[1]));
        assert!(t.is_ancestor(ids[0], ids[2]));
        assert!(!t.is_ancestor(ids[0], ids[3]));
        assert!(!t.is_ancestor(ids[1], ids[0]));
        assert!(!t.is_ancestor(ids[1], ids[1]), "not a proper ancestor");
    }

    #[test]
    fn depth_and_subtree_size() {
        let (t, ids) = sample();
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(ids[1]), 2);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.subtree_size(t.root()), 5);
        assert_eq!(t.subtree_size(ids[0]), 3);
    }
}
