//! `af-core` — the Auto-Formula system (the paper's primary contribution).
//!
//! Offline (§4.2–4.5): harvest similar-sheet/similar-region training pairs
//! by weak supervision, augment them, and train a two-branch representation
//! model with semi-hard triplet learning — a coarse-grained CNN branch
//! `M_c` for *similar-sheet* search and a fine-grained per-cell branch
//! `M_f` for *similar-region* search, sharing a per-cell dimension-
//! reduction MLP (Fig. 4).
//!
//! Online (§4.1, §4.6, Algorithm 2): given a target sheet and cell,
//! * **S1** retrieve top-K similar sheets from an ANN index of coarse
//!   embeddings;
//! * **S2** find the reference formula whose surrounding region is most
//!   similar to the target cell's region (fine embeddings);
//! * **S3** re-map each parameter cell of the reference formula into the
//!   target sheet by local similar-region search, then instantiate the
//!   formula template.

pub mod artifact;
pub mod config;
pub mod embedder;
pub mod failpoint;
pub mod features;
pub mod index;
pub mod model;
pub mod pipeline;
pub mod training;

/// Storage codec for artifact embedding tables (re-exported from
/// `af-store` so callers choosing [`StoreOptions`] need no extra dep).
pub use af_store::Codec;
pub use artifact::{ArtifactError, StoreOptions};
pub use config::{AnnBackend, AutoFormulaConfig};
pub use embedder::{SheetEmbedder, SheetEmbedding};
pub use index::{ReferenceIndex, SheetKey, SheetMeta};
pub use model::RepresentationModel;
pub use pipeline::{AutoFormula, PredictOptions, Prediction};
pub use training::{train_model, TrainReport, TrainingOptions};
