//! Removed artifact layouts are rejected with a typed error, and a legacy
//! section that is no longer read is skipped.
//!
//! Format v1, and the v2/v3 *fat* fine layout (one stored window per
//! region and parameter), can be neither served — the index holds cells,
//! not windows — nor converted exactly, so the loader names the problem
//! instead: no panic, and no partially built index. Tables written with
//! the removed int8 (tag 3) and product-quantized (tag 4) store codecs
//! load to the same typed `BadCodec` error as any unknown tag.
//!
//! The v1 fixtures under `tests/data/` were generated **once** from the
//! PR-4 codebase (commit 4a79415, before the v2 writer landed), one per
//! ANN backend: real files a deployment could still hold.
//!
//! `artifact_v3_sharded_tiny.afar` was generated **once** at commit
//! e53c5c4, the last with hash-sharded serving: `AutoFormulaConfig::
//! test_tiny()` with `n_shards: 2` and `SbertSim::new(16)`, an index over
//! workbooks 0–2 of `OrgSpec::pge(Scale::Tiny)`, workbooks 3–5 added
//! through the 2-shard `ServeHandle`, then `ServeHandle::to_artifact`. It
//! carries a `SHARDS` section (id 5) beside its index, which the server
//! had merged back into global sheet order. af-serve's
//! `legacy_sharded_artifact_serves_like_the_library_load` checks that a
//! server answers from it exactly as the library does.

use af_core::artifact::SUPPORTED_VERSIONS;
use af_core::index::IndexOptions;
use af_core::index::SheetKey;
use af_core::model::RepresentationModel;
use af_core::pipeline::AutoFormula;
use af_core::{ArtifactError, AutoFormulaConfig, Codec, StoreOptions};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_store::StoreError;
use std::sync::Arc;

#[test]
fn v1_fixtures_are_rejected_as_an_unsupported_version() {
    assert_eq!(SUPPORTED_VERSIONS, [2, 3]);
    for name in ["artifact_v1_tiny.afar", "artifact_v1_hnsw.afar", "artifact_v1_ivf.afar"] {
        let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"));
        assert_eq!(
            AutoFormula::load(&bytes).err(),
            Some(ArtifactError::UnsupportedVersion { found: 1, supported: SUPPORTED_VERSIONS }),
            "{name}"
        );
    }
}

#[test]
fn fat_layout_flag_is_rejected_as_a_removed_layout() {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::test_tiny();
    let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    let index = af.build_index(&corpus.workbooks, &[0], IndexOptions::default());
    let artifact = af.save(&index).to_vec();
    assert!(AutoFormula::load(&artifact).is_ok());

    // The fine-layout flag is the byte before the constants store (f32
    // codec tag 1, dim = fine_cell_dim, rows = 2).
    let mut pat = vec![1u8];
    pat.extend_from_slice(&(cfg.fine_cell_dim as u32).to_be_bytes());
    pat.extend_from_slice(&2u64.to_be_bytes());
    let consts = artifact.windows(pat.len()).position(|w| w == pat).expect("constants store");
    assert_eq!(artifact[consts - 1], 1, "the cell layout's flag");
    let mut fat = artifact.clone();
    fat[consts - 1] = 0;
    match AutoFormula::load(&fat).err() {
        Some(ArtifactError::Invalid(what)) => {
            assert!(what.contains("fat fine layout"), "names the removed layout: {what}")
        }
        other => panic!("expected Invalid naming the removed layout, got {other:?}"),
    }
    // Any other flag value is plain corruption.
    fat[consts - 1] = 2;
    assert!(matches!(AutoFormula::load(&fat), Err(ArtifactError::Invalid(_))));
}

#[test]
fn removed_codec_tags_are_rejected_as_bad_codecs() {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::test_tiny();
    let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    let index = af.build_index(&corpus.workbooks, &[0], IndexOptions::default());
    let opts = StoreOptions { codec: Codec::F16, ..StoreOptions::default() };
    let artifact = af.save_with(&index, opts).expect("save").to_vec();
    assert!(AutoFormula::load(&artifact).is_ok());

    // The coarse ANN store: f16 tag 2, dim = coarse_dim, rows = sheets,
    // right after the flat index's tag (4) and two u64 scan knobs.
    let mut pat = vec![2u8];
    pat.extend_from_slice(&(cfg.coarse_dim as u32).to_be_bytes());
    pat.extend_from_slice(&(index.n_sheets() as u64).to_be_bytes());
    let coarse = (17..artifact.len() - pat.len())
        .find(|&at| artifact[at..].starts_with(&pat) && artifact[at - 17] == 4)
        .expect("coarse ANN store");
    // The first cell table: past the exact constants store (f32 tag 1,
    // dim = fine_cell_dim, rows = 2) and the first sheet's cell refs.
    let f8 = cfg.fine_cell_dim;
    let mut pat = vec![1u8];
    pat.extend_from_slice(&(f8 as u32).to_be_bytes());
    pat.extend_from_slice(&2u64.to_be_bytes());
    let consts = artifact.windows(pat.len()).position(|w| w == pat).expect("constants store");
    let sheet = consts + 14 + artifact[consts + 13] as usize + 2 * f8 * 4;
    let n_cells = u64::from_be_bytes(artifact[sheet..sheet + 8].try_into().unwrap()) as usize;
    let cells = sheet + 8 + n_cells * 8;
    assert_eq!((artifact[coarse], artifact[cells]), (2, 2), "f16 stores on the wire");

    for tag in [3u8, 4] {
        let mut bad = artifact.clone();
        bad[cells] = tag;
        assert_eq!(
            AutoFormula::load(&bad).err(),
            Some(ArtifactError::Store(StoreError::BadCodec(tag))),
            "cell table tag {tag}"
        );
        let mut bad = artifact.clone();
        bad[coarse] = tag;
        assert_eq!(
            AutoFormula::load(&bad).err(),
            Some(ArtifactError::Index(af_ann::CodecError::Store(StoreError::BadCodec(tag)))),
            "coarse ANN tag {tag}"
        );
    }
}

#[test]
fn a_legacy_shards_section_is_skipped_and_the_index_loads_in_saved_order() {
    let path = format!("{}/tests/data/artifact_v3_sharded_tiny.afar", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"));
    // The section table (after magic, version, flags and the count):
    // the four sections every save writes, then SHARDS.
    let n_sections = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let ids: Vec<u16> = (0..n_sections)
        .map(|i| u16::from_be_bytes(bytes[12 + 18 * i..14 + 18 * i].try_into().unwrap()))
        .collect();
    assert_eq!(ids, [1, 2, 3, 4, 5]);

    let (af, index) =
        AutoFormula::load_bytes_artifact(bytes::Bytes::from(bytes)).expect("the fixture loads");
    // Written and validated, never served.
    assert_eq!(af.cfg().n_shards, 2);
    // Workbooks 0-2 as built, then 3-5 as added: the saved global order.
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let expected: Vec<SheetKey> = (0..6)
        .flat_map(|wb| (0..corpus.workbooks[wb].sheets.len()).map(move |sheet| (wb, sheet)))
        .map(|(workbook, sheet)| SheetKey { workbook, sheet })
        .collect();
    assert_eq!(index.keys, expected);
    // And it saves back without the section.
    let resaved = af.save(&index);
    assert_eq!(u32::from_be_bytes(resaved[8..12].try_into().unwrap()), 4);
}
