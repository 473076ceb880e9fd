//! Containment join over an auction document — the workload order-based
//! labels exist for (§1 of the paper: "containment join and twig
//! matching").
//!
//! ```text
//! cargo run --release --example containment_join
//! ```
//!
//! Generates an XMark-like document, then answers the join
//! `//item[.//keyword]` (every item paired with each keyword inside it)
//! three ways: by tree traversal (ground truth), with W-BOX labels, and
//! with B-BOX labels — comparing I/O.

use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::generate::xmark;
use boxes_core::xml::tree::ElementId;
use boxes_core::{BBoxScheme, ElementLabeler, WBoxScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = xmark(20_000, 7);
    let order = tree.document_order();
    let items: Vec<ElementId> = order
        .iter()
        .copied()
        .filter(|&e| tree.tag(e) == "item")
        .collect();
    let keywords: Vec<ElementId> = order
        .iter()
        .copied()
        .filter(|&e| tree.tag(e) == "keyword")
        .collect();
    println!(
        "document: {} elements, {} items, {} keywords",
        tree.len(),
        items.len(),
        keywords.len()
    );

    // Ground truth by walking the tree (what labels let us avoid).
    let mut truth = 0usize;
    for &k in &keywords {
        for &i in &items {
            if tree.is_ancestor(i, k) {
                truth += 1;
            }
        }
    }

    // W-BOX: constant-time label lookups.
    let pager = Pager::new(PagerConfig::with_block_size(8192));
    let labeler = ElementLabeler::load(
        WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(8192)),
        &tree,
    )?;
    let before = pager.stats();
    let pairs = labeler.containment_join(&items, &keywords)?;
    let wbox_io = pager.stats().since(&before);
    assert_eq!(pairs.len(), truth);
    println!(
        "W-BOX join:  {} pairs, {} ({:.2} I/Os per input element)",
        pairs.len(),
        wbox_io,
        wbox_io.total() as f64 / (items.len() + keywords.len()) as f64
    );

    // B-BOX: logarithmic lookups, still no traversal.
    let pager = Pager::new(PagerConfig::with_block_size(8192));
    let labeler = ElementLabeler::load(
        BBoxScheme::new(pager.clone(), BBoxConfig::from_block_size(8192)),
        &tree,
    )?;
    let before = pager.stats();
    let pairs = labeler.containment_join(&items, &keywords)?;
    let bbox_io = pager.stats().since(&before);
    assert_eq!(pairs.len(), truth);
    println!(
        "B-BOX join:  {} pairs, {} ({:.2} I/Os per input element)",
        pairs.len(),
        bbox_io,
        bbox_io.total() as f64 / (items.len() + keywords.len()) as f64
    );

    println!("\nboth joins agree with the tree-walk ground truth ({truth} pairs)");
    Ok(())
}
