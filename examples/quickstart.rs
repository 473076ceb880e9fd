//! Quickstart: label an XML document, query it, update it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks through the whole public API once: parse a document, bulk-load a
//! W-BOX, check ancestorship with two integer comparisons, insert and
//! delete elements, and watch the I/O meter.

use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::parse;
use boxes_core::{ElementLabeler, LabelingScheme, WBoxScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The example document of the paper's Figure 1 (abridged).
    let source = "<site>\
        <regions>\
            <africa><item/><item/></africa>\
            <asia><item/></asia>\
        </regions>\
        <people><person/><person/></people>\
    </site>";
    let mut tree = parse(source).expect("well-formed XML");
    println!("parsed {} elements", tree.len());

    // Label it with a W-BOX on a simulated 8 KB-block disk.
    let pager = Pager::new(PagerConfig::with_block_size(8192));
    let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(8192));
    let mut labeler = ElementLabeler::load(scheme, &tree)?;

    let order = tree.document_order();
    for &e in &order {
        let (s, x) = labeler.labels(e)?;
        println!("  <{}>  start={s:>3}  end={x:>3}", tree.tag(e));
    }

    // Ancestor checks are two comparisons — no tree traversal.
    let regions = order[1];
    let item = order[3];
    let person = order[8];
    assert!(labeler.is_descendant(item, regions)?);
    assert!(!labeler.is_descendant(person, regions)?);
    println!("\nitem is inside <regions>; person is not — decided from labels alone");

    // Updates keep every label consistent with document order.
    let asia = order[5];
    let new_item = tree.add_child(asia, "item");
    labeler.on_add_child(new_item, asia)?;
    assert!(labeler.is_descendant(new_item, regions)?);

    let before = pager.stats();
    let (s, x) = labeler.labels(new_item)?;
    println!(
        "new <item> labeled ({s}, {x}); the pair lookup cost {}",
        pager.stats().since(&before)
    );

    tree.remove_element(new_item);
    labeler.on_remove_element(new_item)?;
    println!(
        "after deleting it again the scheme holds {} labels on {} blocks",
        labeler.scheme.len(),
        pager.allocated_blocks()
    );
    Ok(())
}
