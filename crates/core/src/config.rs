//! Configuration for the Auto-Formula models and pipeline.

use af_ann::{HnswParams, IvfParams};
use af_grid::ViewWindow;

/// Which `af-ann` index serves the sheet-level searches (`Idx_c`, and the
/// fine-signature ablation index when enabled). The paper indexes with
/// Faiss (§4.6, Fig. 8); these are the equivalent layout choices:
///
/// * [`AnnBackend::Flat`] — exact scan. Sub-millisecond up to tens of
///   thousands of sheets; recall is 1.0 by construction. The default.
/// * [`AnnBackend::Hnsw`] — graph search, `O(log n)`-ish queries. Pick for
///   corpora past ~10⁵ sheets where a scan stops fitting the latency
///   budget; tune `ef_search` upward if recall on family-clustered
///   embeddings drops (near-duplicate clumps are the hard case).
/// * [`AnnBackend::Ivf`] — k-means inverted lists (IVF-Flat). Cheapest to
///   build at scale; `n_probe` trades recall for speed. The quantizer is
///   trained at build time and frozen — after heavy incremental growth,
///   rebuild to re-balance the lists.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AnnBackend {
    /// Exact linear scan (ground truth, the default).
    #[default]
    Flat,
    /// Hierarchical navigable small-world graph with these parameters.
    Hnsw(HnswParams),
    /// IVF-Flat inverted lists with these parameters.
    Ivf(IvfParams),
}

impl AnnBackend {
    /// Stable lower-case label (used in benchmark reports and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            AnnBackend::Flat => "flat",
            AnnBackend::Hnsw(_) => "hnsw",
            AnnBackend::Ivf(_) => "ivf",
        }
    }
}

/// All tunables in one place. Defaults are the laptop-scale settings (the
/// paper's full-scale values in comments); the window geometry and what it
/// costs every stage are in ARCHITECTURE.md §1.1, "The fine gather".
#[derive(Debug, Clone, Copy)]
pub struct AutoFormulaConfig {
    /// View window (paper: 100×10; scaled default 40×8).
    pub window: ViewWindow,
    /// Hidden width of the shared per-cell reduction MLP.
    pub reduce_hidden: usize,
    /// Per-cell reduced dimensionality (paper: 16).
    pub cell_dim: usize,
    /// Per-cell output of the fine branch (paper: 16 → 16000-dim regions;
    /// scaled default 8 → 2560-dim regions).
    pub fine_cell_dim: usize,
    /// Channels of the two conv layers in the coarse branch.
    pub coarse_channels: (usize, usize),
    /// Coarse embedding dimensionality (paper: 896; scaled default 64).
    pub coarse_dim: usize,
    /// Triplet margin `m` (FaceNet default 0.2).
    pub margin: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Training episodes (Algorithm 1's `T`).
    pub episodes: usize,
    /// Pairs per mini-batch.
    pub batch_size: usize,
    /// K similar sheets retrieved in S1.
    pub k_sheets: usize,
    /// Neighborhood radius `d` searched in S3.
    pub neighborhood_d: i64,
    /// Spatial prior for S3: candidates pay `lambda · (|Δrow| + |Δcol|)`
    /// on top of embedding distance, breaking near-ties toward the
    /// offset-mapped anchor (Algorithm 2 lines 24–25).
    pub s3_anchor_lambda: f32,
    /// Distance threshold θ on S2 (squared L2 over unit vectors, so in
    /// [0, 4]); predictions above it are suppressed. The PR-curve knob.
    pub theta_region: f32,
    /// Apply sheet-level data augmentation (coarse branch)?
    pub coarse_augmentation: bool,
    /// Apply region-level data augmentation (fine branch)?
    pub fine_augmentation: bool,
    /// Master RNG seed.
    pub seed: u64,
    /// Element-work size below which index scans stay single-threaded
    /// (0 = `af_ann::flat::DEFAULT_PARALLEL_THRESHOLD`).
    pub search_parallel_threshold: usize,
    /// Cap on worker threads for parallel index scans (0 = use every core
    /// `available_parallelism` reports).
    pub search_threads: usize,
    /// Cap on worker threads for batch sheet embedding at index-build time
    /// (0 = use every available core).
    pub embed_threads: usize,
    /// ANN backend serving the sheet-level indexes (see [`AnnBackend`]).
    pub ann_backend: AnnBackend,
    /// Ignored: serving keeps one partition. The field is still written
    /// to and validated in the v3 `CONFIG` section, and stays only
    /// because the benchmark (`benchmark/src/system.rs`,
    /// `benchmark/src/trace.rs`) sets it; it goes with the benchmark's
    /// next change.
    pub n_shards: usize,
    /// Sheets the serving layer's mutable delta segment may accumulate
    /// before the background compactor *seals* it: moves it, uncopied,
    /// onto the end of the list of immutable runs, then merges
    /// the last two runs while the newer has at least as many sheets as
    /// the older (a fixed size-tiered rule — each sheet is re-copied
    /// O(log n) times and the loaded base only once the additions rival
    /// it). This is also the size of the smallest run, so larger values
    /// mean fewer runs for a query to scan but a longer delta clone on
    /// every write. `0` disables delta segments entirely: every
    /// `add_workbook` grows the last run synchronously (O(corpus) per
    /// write).
    pub delta_max_sheets: usize,
    /// Write-path backpressure: when the delta reaches
    /// `delta_max_sheets * backpressure_factor` sheets — the background
    /// compactor is wedged or can't keep up — `add_workbook` seals the
    /// delta and applies the merge rule *inline*, under the writer lock,
    /// instead of letting the delta grow without bound and regress every
    /// query toward the O(corpus) scan. The
    /// stall is the cost of the merges the rule asks for at that moment,
    /// usually a few deltas' worth of sheets. `0` disables the fallback
    /// (deltas may grow unboundedly while the compactor is down). Not
    /// persisted in artifacts — a runtime serving knob.
    pub backpressure_factor: usize,
}

impl Default for AutoFormulaConfig {
    fn default() -> Self {
        AutoFormulaConfig {
            window: ViewWindow::new(40, 8),
            reduce_hidden: 32,
            cell_dim: 16,
            fine_cell_dim: 8,
            coarse_channels: (16, 32),
            coarse_dim: 64,
            margin: 0.2,
            lr: 1e-3,
            episodes: 160,
            batch_size: 12,
            k_sheets: 5,
            neighborhood_d: 3,
            s3_anchor_lambda: 0.03,
            theta_region: 0.75,
            coarse_augmentation: true,
            fine_augmentation: true,
            seed: 0xAF_00,
            search_parallel_threshold: 0,
            search_threads: 0,
            embed_threads: 0,
            ann_backend: AnnBackend::Flat,
            n_shards: 1,
            delta_max_sheets: 64,
            backpressure_factor: 4,
        }
    }
}

/// Resolve a thread-cap knob against the machine: `0` means "use every
/// core `available_parallelism` reports", any other value caps it.
pub fn resolve_threads(cap: usize) -> usize {
    let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if cap == 0 {
        avail
    } else {
        avail.min(cap)
    }
}

impl AutoFormulaConfig {
    /// A very small configuration for unit tests.
    pub fn test_tiny() -> Self {
        AutoFormulaConfig {
            window: ViewWindow::new(12, 5),
            reduce_hidden: 16,
            cell_dim: 8,
            fine_cell_dim: 4,
            coarse_channels: (8, 8),
            coarse_dim: 16,
            episodes: 30,
            batch_size: 6,
            ..Default::default()
        }
    }

    /// Cells per window.
    pub fn n_cells(&self) -> usize {
        self.window.n_cells()
    }

    /// Fine region embedding dimensionality.
    pub fn fine_dim(&self) -> usize {
        self.n_cells() * self.fine_cell_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_dims() {
        let c = AutoFormulaConfig::default();
        assert_eq!(c.n_cells(), 320);
        assert_eq!(c.fine_dim(), 2560);
        let t = AutoFormulaConfig::test_tiny();
        assert_eq!(t.n_cells(), 60);
        assert_eq!(t.fine_dim(), 240);
    }
}
