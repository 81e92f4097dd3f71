//! Fuzz-style hardening of the artifact loader: truncated and bit-flipped
//! artifacts must come back as `Err(ArtifactError)` — never a panic, never
//! a runaway allocation — at every section boundary and throughout the
//! header, table, and payload.

use af_core::config::AutoFormulaConfig;
use af_core::index::IndexOptions;
use af_core::model::RepresentationModel;
use af_core::pipeline::AutoFormula;
use af_core::{Codec, StoreOptions};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use std::sync::Arc;

/// A small but fully-populated artifact (real regions, params, metadata)
/// in the given storage codec.
fn small_artifact_with(opts: StoreOptions) -> Vec<u8> {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::test_tiny();
    let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    // One workbook keeps the artifact small enough to corrupt exhaustively
    // around every interesting offset, with optional structures enabled so
    // every section feature is on the wire.
    let index = af.build_index(
        &corpus.workbooks,
        &[0],
        IndexOptions { fine_sheet_signatures: true, coarse_regions: true },
    );
    assert!(index.n_regions() > 0, "artifact must contain regions");
    af.save_with(&index, opts).expect("save").to_vec()
}

fn small_artifact() -> Vec<u8> {
    small_artifact_with(StoreOptions::default())
}

/// Every encoding worth corrupting: each codec over the one layout.
fn layout_variants() -> Vec<StoreOptions> {
    Codec::ALL.into_iter().map(|codec| StoreOptions { codec, ..StoreOptions::default() }).collect()
}

/// Parse the header the same way the loader lays it out and return every
/// structurally-interesting absolute offset: header fields, each table
/// entry, and each section's start/end in the payload.
fn interesting_offsets(artifact: &[u8]) -> Vec<usize> {
    let mut offsets: Vec<usize> = (0..12.min(artifact.len())).collect(); // magic/version/flags/count
    let n_sections = u32::from_be_bytes(artifact[8..12].try_into().unwrap()) as usize;
    let table_start = 12;
    let payload_start = table_start + n_sections * 18;
    for i in 0..n_sections {
        let entry = table_start + i * 18;
        offsets.extend([entry, entry + 2, entry + 10]); // id, offset, len fields
        let off = u64::from_be_bytes(artifact[entry + 2..entry + 10].try_into().unwrap()) as usize;
        let len = u64::from_be_bytes(artifact[entry + 10..entry + 18].try_into().unwrap()) as usize;
        // Section boundaries, and a few bytes around them.
        for d in 0..4 {
            offsets.push(payload_start + off + d);
            offsets.push((payload_start + off + len).saturating_sub(d + 1));
        }
    }
    offsets.push(artifact.len() - 1);
    offsets.retain(|&o| o < artifact.len());
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

#[test]
fn truncation_never_panics() {
    let artifact = small_artifact();
    // Every interesting boundary, plus an even sweep across the payload.
    let mut cuts = interesting_offsets(&artifact);
    let step = (artifact.len() / 97).max(1);
    cuts.extend((0..artifact.len()).step_by(step));
    cuts.sort_unstable();
    cuts.dedup();
    for &cut in &cuts {
        assert!(
            AutoFormula::load(&artifact[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be an error, not a panic",
            artifact.len()
        );
    }
    // The untouched artifact still loads (the corpus above is valid).
    assert!(AutoFormula::load(&artifact).is_ok());
}

#[test]
fn bit_flips_never_panic() {
    let artifact = small_artifact();
    let mut positions = interesting_offsets(&artifact);
    let step = (artifact.len() / 61).max(1);
    positions.extend((0..artifact.len()).step_by(step));
    positions.sort_unstable();
    positions.dedup();
    for &pos in &positions {
        for bit in [0u8, 3, 7] {
            let mut corrupt = artifact.clone();
            corrupt[pos] ^= 1 << bit;
            // A flip in raw f32 payload can still load (values differ);
            // flips in lengths, ids, tags, or dims must error. Either way:
            // no panic, and anything that loads stays internally usable.
            if let Ok((af, index)) = AutoFormula::load(&corrupt) {
                assert_eq!(index.n_sheets(), index.keys.len());
                let _ = af.cfg();
            }
        }
    }
}

#[test]
fn truncated_quantized_and_compact_artifacts_never_panic() {
    // The v2-specific payloads: quantized blocks (f16 images) and the
    // per-sheet cell tables (cell refs + stores). Truncation anywhere must error cleanly.
    for opts in layout_variants() {
        let artifact = small_artifact_with(opts);
        let mut cuts = interesting_offsets(&artifact);
        let step = (artifact.len() / 53).max(1);
        cuts.extend((0..artifact.len()).step_by(step));
        cuts.sort_unstable();
        cuts.dedup();
        for &cut in &cuts {
            assert!(
                AutoFormula::load(&artifact[..cut]).is_err(),
                "{opts:?}: truncation to {cut}/{} bytes must be an error",
                artifact.len()
            );
        }
        assert!(AutoFormula::load(&artifact).is_ok(), "{opts:?}");
    }
}

#[test]
fn bit_flips_in_quantized_and_compact_artifacts_never_panic() {
    for opts in layout_variants() {
        let artifact = small_artifact_with(opts);
        let mut positions = interesting_offsets(&artifact);
        let step = (artifact.len() / 31).max(1);
        positions.extend((0..artifact.len()).step_by(step));
        positions.sort_unstable();
        positions.dedup();
        for &pos in &positions {
            for bit in [0u8, 7] {
                let mut corrupt = artifact.clone();
                corrupt[pos] ^= 1 << bit;
                if let Ok((af, index)) = AutoFormula::load(&corrupt) {
                    assert_eq!(index.n_sheets(), index.keys.len(), "{opts:?}");
                    let _ = af.cfg();
                }
            }
        }
    }
}

/// Wire offset of the first sheet's entry in the INDEX section — `u64`
/// cell count, that many `(u32 row, u32 col)` refs, then the cell table's
/// store. Found through the constants store right before it (f32 codec
/// tag 1, dim = `fine_cell_dim`, rows = 2: a 13-byte pattern).
fn first_sheet_at(artifact: &[u8]) -> usize {
    let f8 = AutoFormulaConfig::test_tiny().fine_cell_dim as u32;
    let mut pat = vec![1u8];
    pat.extend_from_slice(&f8.to_be_bytes());
    pat.extend_from_slice(&2u64.to_be_bytes());
    let pos = artifact.windows(pat.len()).position(|w| w == pat).expect("consts store on the wire");
    let pad = artifact[pos + 13] as usize;
    pos + 14 + pad + 2 * f8 as usize * 4
}

/// Wire offset of the first sheet's cell table (its store's codec tag).
fn first_cell_table_at(artifact: &[u8]) -> usize {
    let at = first_sheet_at(artifact);
    let n_cells = u64::from_be_bytes(artifact[at..at + 8].try_into().unwrap()) as usize;
    at + 8 + n_cells * 8
}

#[test]
fn unknown_codec_tag_flip_is_rejected() {
    let artifact =
        small_artifact_with(StoreOptions { codec: Codec::F16, ..StoreOptions::default() });
    let pos = first_cell_table_at(&artifact);
    assert_eq!(artifact[pos], 2, "an f16 cell table on the wire");

    // Codec tag flipped to an unknown value → clean error.
    let mut bad_tag = artifact.clone();
    bad_tag[pos] = 99;
    assert!(AutoFormula::load(&bad_tag).is_err(), "unknown codec tag must be rejected");

    // Sanity: the untouched artifact loads.
    assert!(AutoFormula::load(&artifact).is_ok());
}

#[test]
fn compact_cache_with_unsorted_refs_is_rejected() {
    // The window gather binary-searches each sheet's cell refs; a
    // corrupted (unsorted) ref list must be rejected, not silently
    // mis-gathered. Cell refs are (u32 row, u32 col) big-endian pairs
    // right after the per-sheet count; swapping the first two refs of a
    // sheet with ≥ 2 cells breaks strict ordering.
    let artifact = small_artifact();
    let first_sheet_at = first_sheet_at(&artifact);
    let n_cells =
        u64::from_be_bytes(artifact[first_sheet_at..first_sheet_at + 8].try_into().unwrap());
    assert!(n_cells >= 2, "first sheet must store at least two cells");
    let refs_at = first_sheet_at + 8;
    let mut bad = artifact.clone();
    // Swap ref[0] and ref[1] (8 bytes each).
    let (a, b) = (refs_at, refs_at + 8);
    for i in 0..8 {
        bad.swap(a + i, b + i);
    }
    assert!(AutoFormula::load(&bad).is_err(), "unsorted cell refs must be rejected");
    assert!(AutoFormula::load(&artifact).is_ok());
}

#[test]
fn tail_garbage_and_swapped_sections_fail_cleanly() {
    let artifact = small_artifact();
    // Garbage appended after the payload is ignored (sections are offset
    // addressed), so this must still load.
    let mut padded = artifact.clone();
    padded.extend_from_slice(b"trailing junk");
    assert!(AutoFormula::load(&padded).is_ok());

    // Unknown section id in the table → the real section goes missing.
    let mut missing = artifact.clone();
    // First table entry id at offset 12 (big-endian u16).
    missing[12] = 0xFF;
    missing[13] = 0xFF;
    assert!(AutoFormula::load(&missing).is_err());

    // Zero everything after the header: lengths in the table now point at
    // zeroed payload.
    let mut zeroed = artifact.clone();
    for b in zeroed.iter_mut().skip(12) {
        *b = 0;
    }
    assert!(AutoFormula::load(&zeroed).is_err());
}
