//! Building the system under test, and restarting from what it saved.
//!
//! `build` trains, indexes and saves through public entry points only;
//! `restart` cold-starts a serving handle from the artifact, as a
//! restarted process would: callers drop the built index first, so the
//! two never coexist. Every workload's set-up runs both (that is what
//! `setup_s` times), and `rebuild_restart` runs both again in every round.

use crate::inputs::{Case, Inputs};
use af_core::index::IndexOptions;
use af_core::pipeline::{AutoFormula, Prediction};
use af_core::{AutoFormulaConfig, Codec, ReferenceIndex, StoreOptions, TrainingOptions};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_serve::ServeHandle;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Episodes of every training run. The benchmark measures the serving
/// funnel and the rebuild job, not model quality.
pub const TRAIN_EPISODES: usize = 32;
/// The artifact every workload serves: exact f32, per-sheet fine caches.
pub const STORE: StoreOptions = StoreOptions { codec: Codec::F32, compact_fine: true };
/// Cases a reloaded artifact must answer exactly as the system that saved it.
const RELOAD_CHECK_CASES: usize = 50;

/// How the serving handle is laid out, and how the artifact reaches it.
#[derive(Debug, Clone)]
pub struct ServeLayout {
    pub n_shards: usize,
    pub delta_max_sheets: usize,
    /// `Some`: stream the artifact to this file and serve it through
    /// `mmap`. `None`: keep it in memory and load it from bytes.
    pub path: Option<PathBuf>,
}

impl ServeLayout {
    /// The default configuration (one shard), artifact in memory.
    pub fn read_only() -> ServeLayout {
        let cfg = AutoFormulaConfig::default();
        ServeLayout { n_shards: cfg.n_shards, delta_max_sheets: cfg.delta_max_sheets, path: None }
    }

    /// Cold-start a handle: from the artifact file when the layout has
    /// one, from `artifact` otherwise.
    pub fn load(&self, artifact: &[u8]) -> Result<ServeHandle, String> {
        match &self.path {
            Some(path) => ServeHandle::from_artifact_path(path),
            None => ServeHandle::from_artifact(artifact),
        }
        .map_err(|e| format!("loading the artifact: {e}"))
    }
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What two predictions must agree on to count as the same answer.
pub type Answer = Option<(String, u32)>;

pub fn answer(p: Option<Prediction>) -> Answer {
    p.map(|p| (p.formula, p.s2_distance.to_bits()))
}

/// A freshly trained system, its index over `org4`, and the artifact it
/// saved.
pub struct Built {
    pub system: AutoFormula,
    pub index: ReferenceIndex,
    /// The artifact bytes, when the layout keeps them in memory.
    pub artifact: Vec<u8>,
    pub artifact_bytes: u64,
    pub final_fine_loss: f32,
    pub train_s: f64,
    pub build_index_s: f64,
    /// Training to saved artifact.
    pub whole_s: f64,
}

/// Train the model every run trains (default config, `SbertSim(64)`, all
/// features), index `org4` with it, and save the compact artifact.
pub fn build(inputs: &Inputs, layout: &ServeLayout) -> Result<Built, String> {
    let start = Instant::now();
    let cfg = AutoFormulaConfig {
        episodes: TRAIN_EPISODES,
        n_shards: layout.n_shards,
        delta_max_sheets: layout.delta_max_sheets,
        ..AutoFormulaConfig::default()
    };
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(64)), FeatureMask::FULL);
    let ((system, report), train_s) =
        timed(|| AutoFormula::train(&inputs.universe, featurizer, cfg, TrainingOptions::default()));
    let members: Vec<usize> = (0..inputs.reference.len()).collect();
    let (index, build_index_s) =
        timed(|| system.build_index(&inputs.reference, &members, IndexOptions::default()));

    let saved = match &layout.path {
        Some(path) => system.save_to_path_with(&index, STORE, None, path).map(|()| Vec::new()),
        None => system.save_with(&index, STORE).map(|bytes| bytes.to_vec()),
    };
    let artifact = saved.map_err(|e| format!("saving the artifact: {e}"))?;
    let whole_s = start.elapsed().as_secs_f64();
    let artifact_bytes = match &layout.path {
        Some(path) => std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        None => artifact.len() as u64,
    };
    Ok(Built {
        system,
        index,
        artifact,
        artifact_bytes,
        final_fine_loss: report.final_fine_loss,
        train_s,
        build_index_s,
        whole_s,
    })
}

impl Built {
    /// How the built system answers the first cases: what a handle
    /// restarted from its artifact has to repeat.
    pub fn reference_answers(&self, cases: &[Case]) -> Vec<Answer> {
        cases
            .iter()
            .take(RELOAD_CHECK_CASES)
            .map(|c| answer(self.system.predict(&self.index, &c.sheet, c.target)))
            .collect()
    }

    /// Drop the system and its index; keep the artifact they saved.
    pub fn into_artifact(self) -> Vec<u8> {
        self.artifact
    }
}

/// Cold-start a handle from the artifact, as a restarted process would,
/// and check that it answers the first cases exactly as the system that
/// saved the artifact did. Returns the handle and the seconds the load
/// alone took.
pub fn restart(
    layout: &ServeLayout,
    artifact: &[u8],
    cases: &[Case],
    reference: &[Answer],
) -> Result<(ServeHandle, f64), String> {
    let (handle, load_s) = timed(|| layout.load(artifact));
    let handle = handle?;
    for (i, (case, saved)) in cases.iter().zip(reference).enumerate() {
        let reloaded = answer(handle.predict(&case.sheet, case.target));
        if &reloaded != saved {
            return Err(format!(
                "case {i}: the reloaded artifact answers {reloaded:?}, its source {saved:?}"
            ));
        }
    }
    Ok((handle, load_s))
}
