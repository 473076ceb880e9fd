//! Ordinal labels (§3): exact tag positions for navigation-style queries.
//!
//! ```text
//! cargo run --release --example ordinal_navigation
//! ```
//!
//! With ordinal labeling an element's labels are its tags' exact positions
//! in the document, enabling queries that plain (gapped) labels answer only
//! with extra work — the paper's example: "to see if e1 is e2's last child,
//! check l>(e1) + 1 = l>(e2)".

use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::xml::generate::xmark;
use boxes_core::{BBoxScheme, ElementLabeler, OrdinalScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut tree = xmark(5_000, 11);
    let pager = Pager::new(PagerConfig::with_block_size(8192));
    let scheme = BBoxScheme::new(
        pager.clone(),
        BBoxConfig::from_block_size(8192).with_ordinal(),
    );
    let mut labeler = ElementLabeler::load(scheme, &tree)?;
    println!("B-BOX-O over {} elements", tree.len());

    // Last-child tests across the whole document, verified against the tree.
    let order = tree.document_order();
    let mut checked = 0;
    for &parent in order.iter().step_by(37) {
        let children = tree.children(parent).to_vec();
        for (i, &c) in children.iter().enumerate() {
            let is_last = i + 1 == children.len();
            assert_eq!(
                labeler.is_last_child(c, parent)?,
                is_last,
                "mismatch under {parent:?}"
            );
            checked += 1;
        }
    }
    println!("verified {checked} last-child predicates against the tree");

    // Exact document positions survive updates.
    let site = tree.root();
    let regions = tree.children(site)[0];
    println!(
        "\n<regions> starts at tag position {}",
        labeler.ordinal_start(regions)?
    );
    let new_first = tree.insert_before(regions, "preamble");
    labeler.on_insert_before(new_first, regions)?;
    println!(
        "after inserting <preamble> before it: position {} (shifted by 2)",
        labeler.ordinal_start(regions)?
    );

    // Ordinal lookups are O(log_B N): count the I/Os.
    let before = pager.stats();
    let (start_lid, _) = labeler.lids(regions);
    let pos = labeler.scheme.ordinal_of(start_lid)?;
    println!(
        "ordinal lookup of position {pos} cost {}",
        pager.stats().since(&before)
    );
    Ok(())
}
