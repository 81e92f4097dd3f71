//! Shared experiment environment: corpora, featurizers, and trained
//! systems with a disk cache so `run_all` and individual binaries train
//! each configuration once.

use af_core::index::IndexOptions;
use af_core::pipeline::AutoFormula;
use af_core::{AutoFormulaConfig, RepresentationModel, TrainingOptions};
use af_corpus::organization::{OrgCorpus, OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, GloveSim, SbertSim, TextEmbedder};
use std::sync::Arc;

/// Which content embedder backs the featurizer (Fig. 8 / Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedderKind {
    /// Corpus-trained word embeddings, 32-d, fast.
    Glove,
    /// Char-n-gram hashing, 128-d, slower (the Sentence-BERT stand-in).
    Sbert,
}

impl EmbedderKind {
    pub fn label(self) -> &'static str {
        match self {
            EmbedderKind::Glove => "GloVe",
            EmbedderKind::Sbert => "Sentence-BERT",
        }
    }
}

/// A full system specification (cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemSpec {
    pub embedder: EmbedderKind,
    pub mask: FeatureMask,
    pub coarse_da: bool,
    pub fine_da: bool,
}

impl SystemSpec {
    pub fn full(embedder: EmbedderKind) -> SystemSpec {
        SystemSpec { embedder, mask: FeatureMask::FULL, coarse_da: true, fine_da: true }
    }

    fn cache_key(&self, scale: Scale, cfg: &AutoFormulaConfig) -> String {
        format!(
            "model_{:?}_{}{}_{}{}_{}x{}_e{}_s{:x}",
            self.embedder,
            self.mask.content as u8,
            self.mask.style as u8,
            self.coarse_da as u8,
            self.fine_da as u8,
            cfg.window.rows,
            cfg.window.cols,
            cfg.episodes,
            cfg.seed ^ (scale.factor() * 1000.0) as u64,
        )
    }
}

/// The standard evaluation environment.
pub struct Scenario {
    pub scale: Scale,
    /// The training universe (160K-crawl stand-in).
    pub universe: OrgCorpus,
    /// The four holdout test organizations, in the paper's order
    /// (PGE, Cisco, TI, Enron).
    pub orgs: Vec<OrgCorpus>,
}

impl Scenario {
    /// Build the standard scenario at the `AF_SCALE` scale.
    pub fn standard() -> Scenario {
        let scale = Scale::from_env();
        Scenario {
            scale,
            universe: OrgSpec::web_crawl(scale).generate(),
            orgs: OrgSpec::test_orgs(scale).into_iter().map(|s| s.generate()).collect(),
        }
    }

    /// The default experiment config (scaled from the paper's; ARCHITECTURE.md
    /// §1.1 gives the window geometry).
    pub fn default_cfg(&self) -> AutoFormulaConfig {
        AutoFormulaConfig::default()
    }

    /// Build a featurizer for one spec (GloVe trains on universe text).
    pub fn featurizer(&self, spec: SystemSpec) -> CellFeaturizer {
        let embedder: Arc<dyn TextEmbedder> = match spec.embedder {
            EmbedderKind::Sbert => Arc::new(SbertSim::new(128)),
            EmbedderKind::Glove => {
                let mut texts: Vec<String> = Vec::new();
                for wb in &self.universe.workbooks {
                    for sheet in &wb.sheets {
                        texts.push(sheet.name().to_string());
                        for (_, cell) in sheet.iter() {
                            let d = cell.value.display();
                            if !d.is_empty() {
                                texts.push(d);
                            }
                        }
                    }
                }
                Arc::new(GloveSim::train(
                    texts.iter().map(|s| s.as_str()),
                    af_embed::glove_sim::GloveParams::default(),
                ))
            }
        };
        CellFeaturizer::new(embedder, spec.mask)
    }

    /// Train (or load from the disk cache) a system for `spec`.
    pub fn system(&self, spec: SystemSpec, cfg: AutoFormulaConfig) -> AutoFormula {
        let cfg = AutoFormulaConfig {
            coarse_augmentation: spec.coarse_da,
            fine_augmentation: spec.fine_da,
            ..cfg
        };
        let featurizer = self.featurizer(spec);
        let cache_dir = std::path::Path::new("target").join("af_cache");
        let path = cache_dir.join(format!("{}.bin", spec.cache_key(self.scale, &cfg)));
        if let Ok(bytes) = std::fs::read(&path) {
            let mut model = RepresentationModel::new(featurizer.dim(), cfg);
            if model.load_bytes(bytes::Bytes::from(bytes)).is_ok() {
                eprintln!("[scenario] loaded cached model {}", path.display());
                return AutoFormula::from_model(model, featurizer);
            }
        }
        eprintln!("[scenario] training system {:?} …", spec);
        let (af, report) = AutoFormula::train(
            &self.universe.workbooks,
            featurizer,
            cfg,
            TrainingOptions::default(),
        );
        eprintln!(
            "[scenario] trained in {:.1}s ({} coarse pairs, {} fine pairs, loss c {:.3}->{:.3} f {:.3}->{:.3})",
            report.seconds,
            report.coarse_pairs,
            report.fine_pairs,
            report.first_coarse_loss,
            report.final_coarse_loss,
            report.first_fine_loss,
            report.final_fine_loss,
        );
        let _ = std::fs::create_dir_all(&cache_dir);
        let _ = std::fs::write(&path, af.model.to_bytes());
        af
    }

    /// Default index options (plain: coarse sheets + fine regions).
    pub fn index_opts(&self) -> IndexOptions {
        IndexOptions::default()
    }
}
