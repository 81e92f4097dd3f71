//! Serving quickstart: train once, save a self-contained artifact, serve
//! it concurrently, and grow the index without blocking readers.
//!
//! ```text
//! cargo run --release --example serve_artifact
//! ```

use auto_formula::core::index::IndexOptions;
use auto_formula::core::pipeline::AutoFormula;
use auto_formula::core::{AutoFormulaConfig, TrainingOptions};
use auto_formula::corpus::organization::{OrgSpec, Scale};
use auto_formula::embed::{CellFeaturizer, FeatureMask, SbertSim};
use auto_formula::serve::ServeHandle;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // ---- offline: train + index + save (happens once, anywhere) ----
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: 40, ..AutoFormulaConfig::test_tiny() };
    let (af, _) =
        AutoFormula::train(&universe.workbooks, featurizer, cfg, TrainingOptions::default());

    let org = OrgSpec::pge(Scale::Tiny).generate();
    let members: Vec<usize> = (0..org.workbooks.len() - 1).collect();
    let index = af.build_index(&org.workbooks, &members, IndexOptions::default());
    let artifact = af.save(&index);
    println!(
        "artifact: {} sheets, {} regions → {:.1} KiB",
        index.n_sheets(),
        index.n_regions(),
        artifact.len() as f64 / 1024.0
    );
    // In production this is a file or object-store blob:
    //   std::fs::write("model.afar", &artifact)?;
    //   let artifact = std::fs::read("model.afar")?;

    // ---- online: cold-start a server from bytes (no workbooks needed) ----
    let t = Instant::now();
    let handle = ServeHandle::from_artifact(&artifact).expect("artifact loads");
    println!("cold start from artifact: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // Predictions, from any number of threads.
    let query_wb = &org.workbooks[org.workbooks.len() - 1];
    let mut queries = Vec::new();
    for sheet in &query_wb.sheets {
        for (target, _) in sheet.formulas().take(2) {
            queries.push((sheet, target));
        }
    }
    let snap = handle.snapshot();
    for &(sheet, target) in queries.iter().take(3) {
        match snap.predict(sheet, target) {
            Some(p) => println!(
                "  {}!{target} → ={}  (d={:.3}, ref {}!{})",
                sheet.name(),
                p.formula,
                p.s2_distance,
                snap.sheet_meta(p.reference_sheet_idx).map_or("?", |m| m.name.as_str()),
                p.reference_cell
            ),
            None => println!("  {}!{target} → no confident prediction", sheet.name()),
        }
    }
    drop(snap);

    // A burst of concurrent queries embeds as ONE tensor pass (micro-batch).
    let t = Instant::now();
    let batch = handle.predict_batch(&queries);
    println!(
        "micro-batched {} queries in {:.1} ms ({} answered)",
        queries.len(),
        t.elapsed().as_secs_f64() * 1e3,
        batch.iter().flatten().count()
    );

    // ---- growth: index a new workbook; readers never block ----
    let epoch = handle.add_workbook(query_wb);
    println!(
        "added workbook → epoch {epoch}, index now {} sheets / {} regions",
        handle.n_sheets(),
        handle.n_regions()
    );

    // The *current* state (including the new workbook) ships as an artifact.
    let grown = handle.to_artifact();
    println!("re-exported artifact: {:.1} KiB", grown.len() as f64 / 1024.0);
}
