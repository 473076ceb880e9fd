//! A simulated editing session over a live document — the read-heavy,
//! occasionally-written workload §6 of the paper targets.
//!
//! ```text
//! cargo run --release --example versioned_editor
//! ```
//!
//! An "editor" keeps bookmarks (cached label references) into an auction
//! document while a stream of edits lands: paragraphs inserted at a hot
//! spot, elements deleted, and one big cut+paste of a subtree. With the
//! caching+logging layer of §6, most bookmark refreshes cost zero I/O.

use boxes_core::cache::CachedRef;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::{WBox, WBoxConfig};
use boxes_core::CachedWBox;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let block_size = 8192;
    let pager = Pager::new(PagerConfig::with_block_size(block_size));
    let mut wbox = WBox::new(pager.clone(), WBoxConfig::from_block_size(block_size))?;
    let lids = wbox.bulk_load(60_000)?; // a 30k-element document's tags
    println!(
        "loaded {} labels on {} blocks",
        wbox.len(),
        pager.allocated_blocks()
    );

    // The §6 layer: a 32-entry modification log.
    let mut editor = CachedWBox::new(wbox, 32);

    // Twenty bookmarks spread through the document.
    let mut bookmarks: Vec<(boxes_core::lidf::Lid, CachedRef<u64>)> = (0..20)
        .map(|i| (lids[i * 2_999], CachedRef::new()))
        .collect();
    for (lid, r) in bookmarks.iter_mut() {
        editor.lookup(*lid, r)?;
    }
    editor.stats = Default::default();

    // The editing session: 1,000 edits at a hot spot, each followed by the
    // editor refreshing every bookmark (e.g. to redraw a navigation pane).
    let hot = lids[30_000];
    let session_start = pager.stats();
    for round in 0..1_000 {
        if round % 10 == 9 {
            // Occasionally delete the most recent insertion instead.
            let doomed = editor.insert_before(hot)?;
            editor.delete(doomed)?;
        } else {
            editor.insert_element_before(hot)?;
        }
        for (lid, r) in bookmarks.iter_mut() {
            let got = editor.lookup(*lid, r)?;
            debug_assert_eq!(got, editor.wbox.lookup(*lid)?);
        }
    }
    let session_io = pager.stats().since(&session_start);

    println!("\nafter 1,000 edits with 20 bookmark refreshes each:");
    println!("  bookmark lookups: {:?}", editor.stats);
    println!(
        "  {:.1}% of lookups avoided I/O entirely (cache hit or log replay)",
        editor.stats.avoidance_rate() * 100.0
    );
    println!("  whole session: {session_io}");

    // One bulk cut + paste: move 2,000 labels from one region to another.
    let cut_from = editor.wbox.iter_lids()?;
    let (a, b) = (cut_from[10_000], cut_from[12_000]);
    let before = pager.stats();
    editor.wbox.delete_subtree(a, b)?;
    let pasted = editor.wbox.insert_subtree_before(cut_from[40_000], 2_001)?;
    println!(
        "\ncut 2,001 labels and pasted them elsewhere in bulk: {} ({} new labels)",
        pager.stats().since(&before),
        pasted.len()
    );
    editor.wbox.validate();
    println!("structure validated: all §4 invariants hold after the session");
    Ok(())
}
