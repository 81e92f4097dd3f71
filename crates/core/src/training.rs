//! Offline training (Algorithm 1): weak supervision → augmentation →
//! semi-hard triplet learning over both branches.
//!
//! **Data-parallel execution.** Each triplet step cuts its batch into
//! fixed-size *gradient shards* (`PAIRS_PER_SHARD` = 3 pairs each). Every
//! shard owns a replica model: workers featurize and forward their shards
//! independently, the main thread mines semi-hard negatives over the full
//! batch and computes the embedding gradient, workers run the backward
//! passes, and the per-shard parameter gradients are reduced into the main
//! model **in fixed shard order**. Because the shard decomposition depends
//! only on the batch (never on the worker count), training is
//! bit-identical for any [`TrainingOptions::workers`] setting — see the
//! `parallel_determinism` integration test.
//!
//! **Worker lifetime.** The helper threads are spawned once per
//! [`train_model`] call and live until it returns: the main thread works
//! shard chunk 0 and helper `h` always works chunk `h`, so a shard's
//! pooled buffers grow and are reused on one thread for the whole
//! training. Threads spawned afresh for every phase each landed in
//! whichever malloc arena was free, so which arena a shard's buffers grew
//! in changed from step to step — and the process's peak RSS landed in
//! one of two modes at random.

use crate::config::AutoFormulaConfig;
use crate::features::{raw_window_into, WindowOrigin};
use crate::model::RepresentationModel;
use af_corpus::augment::{augment_region, augment_sheet};
use af_corpus::weak_supervision::{region_pairs, sheet_pairs, NameModel, RegionPair, SheetId};
use af_embed::CellFeaturizer;
use af_grid::{CellRef, Sheet, Workbook};
use af_nn::optim::{Adam, Optimizer};
use af_nn::tensor::l2_sq;
use af_nn::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Pairs per gradient shard. Part of the arithmetic contract: changing it
/// changes the (deterministic) gradient summation order, so it is a fixed
/// constant rather than a knob.
const PAIRS_PER_SHARD: usize = 3;

/// Weak-supervision and sampling knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrainingOptions {
    /// Hypothesis-test significance (paper: 0.05).
    pub alpha: f64,
    /// Cap on sheet pairs drawn from one name-sequence group.
    pub max_pairs_per_group: usize,
    /// Cap on coarse (sheet-level) training pairs.
    pub max_coarse_pairs: usize,
    /// Cap on fine (region-level) training pairs.
    pub max_region_pairs: usize,
    /// Probability of training a fine triple against the *shifted-region*
    /// hard negative (when available) instead of an in-batch negative.
    pub shifted_negative_rate: f64,
    /// Fraction of region pairs that get augmented (§4.3: 20%).
    pub region_augment_rate: f64,
    /// Worker threads for the data-parallel triplet steps: 0 = one per
    /// available core, N = exactly N. Any value produces bit-identical
    /// models (the gradient reduction order is fixed by the shard layout,
    /// not the thread schedule).
    pub workers: usize,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            alpha: 0.05,
            max_pairs_per_group: 6,
            max_coarse_pairs: 240,
            max_region_pairs: 480,
            shifted_negative_rate: 0.6,
            region_augment_rate: 0.2,
            workers: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub coarse_pairs: usize,
    pub fine_pairs: usize,
    pub episodes: usize,
    pub first_coarse_loss: f32,
    pub final_coarse_loss: f32,
    pub first_fine_loss: f32,
    pub final_fine_loss: f32,
    pub seconds: f64,
}

struct CoarseDesc {
    a: SheetId,
    b: SheetId,
    /// Weak-supervision group: pairs in the same group are presumed
    /// similar, so they must never serve as each other's negatives.
    group: u64,
    aug_seed: Option<u64>,
}

struct FineDesc {
    a: (SheetId, CellRef),
    b: (SheetId, CellRef),
    /// Region identity: (weak-supervision group, anchor location). Regions
    /// sharing both are the same formula slot across instances (true
    /// positives); same group at a *different* location is a legitimate
    /// hard negative.
    identity: u64,
    shifted_neg: Option<(SheetId, CellRef)>,
    aug_seed: Option<u64>,
}

/// What one batch row featurizes: a whole-sheet window (coarse) or a
/// region window centered on a cell (fine), optionally augmented with a
/// per-descriptor seed (deterministic regardless of which worker runs it).
#[derive(Clone, Copy)]
enum RowSpec {
    Sheet(SheetId, Option<u64>),
    Region(SheetId, CellRef, Option<u64>),
}

/// One training pair's rows in the step's (shard-blocked) embedding
/// matrix, plus its identity for negative mining.
#[derive(Clone, Copy)]
struct PairRows {
    anchor: usize,
    positive: usize,
    shifted: Option<usize>,
    identity: u64,
}

/// Which branch a step trains.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Branch {
    Coarse,
    Fine,
}

/// Read-only context shared by all shard workers.
struct StepCtx<'a> {
    workbooks: &'a [Workbook],
    featurizer: &'a CellFeaturizer,
    cfg: AutoFormulaConfig,
    row_dim: usize,
}

impl StepCtx<'_> {
    fn sheet_of(&self, id: SheetId) -> &Sheet {
        &self.workbooks[id.workbook].sheets[id.sheet]
    }

    /// Featurize one batch row in place.
    fn featurize_into(&self, spec: RowSpec, out: &mut [f32]) {
        let f = self.featurizer;
        let w = self.cfg.window;
        match spec {
            RowSpec::Sheet(id, None) => {
                raw_window_into(f, self.sheet_of(id), w, WindowOrigin::TopLeft, out);
            }
            RowSpec::Sheet(id, Some(seed)) => {
                let mut arng = StdRng::seed_from_u64(seed);
                let p = arng.random_range(0.0..0.10);
                let s = augment_sheet(self.sheet_of(id), p, &mut arng);
                raw_window_into(f, &s, w, WindowOrigin::TopLeft, out);
            }
            RowSpec::Region(id, cell, None) => {
                raw_window_into(f, self.sheet_of(id), w, WindowOrigin::Centered(cell), out);
            }
            RowSpec::Region(id, cell, Some(seed)) => {
                let mut arng = StdRng::seed_from_u64(seed);
                let p = arng.random_range(0.0..0.10);
                let reach = w.rows / 2;
                let (s, c) = augment_region(self.sheet_of(id), cell, p, reach, &mut arng);
                raw_window_into(f, &s, w, WindowOrigin::Centered(c), out);
            }
        }
    }
}

/// One gradient shard: a replica model plus the buffers that circulate
/// through it. Everything is reused across steps (no steady-state
/// allocation).
struct ShardSlot {
    model: RepresentationModel,
    row_specs: Vec<RowSpec>,
    /// Global row offset of this shard's block in the step embedding.
    row_off: usize,
    /// Batch input buffer (recycled from the previous backward's output).
    input: Tensor,
    /// Forward output; after mining it carries the gradient block back in.
    emb: Tensor,
    flat_grads: Vec<f32>,
}

impl ShardSlot {
    fn new(model: RepresentationModel) -> ShardSlot {
        ShardSlot {
            model,
            row_specs: Vec::new(),
            row_off: 0,
            input: Tensor::default(),
            emb: Tensor::default(),
            flat_grads: Vec::new(),
        }
    }

    /// Phase A: sync weights, featurize this shard's rows, forward.
    fn forward(&mut self, branch: Branch, ctx: &StepCtx<'_>, weights: &[f32]) {
        self.model.import_weights_from(weights);
        let mut input = std::mem::take(&mut self.input);
        input.reset_for_overwrite(&[self.row_specs.len(), ctx.row_dim]);
        for (r, spec) in self.row_specs.iter().enumerate() {
            ctx.featurize_into(*spec, input.row_mut(r));
        }
        self.emb = match branch {
            Branch::Coarse => self.model.coarse_forward(input),
            Branch::Fine => self.model.fine_forward(input),
        };
    }

    /// Phase B: load this shard's gradient block, backprop, export grads.
    fn backward(&mut self, branch: Branch, grad_all: &Tensor, dim: usize) {
        let mut g = std::mem::take(&mut self.emb);
        let lo = self.row_off * dim;
        let hi = lo + g.data.len();
        g.data.copy_from_slice(&grad_all.data[lo..hi]);
        self.model.zero_grad();
        let gx = match branch {
            Branch::Coarse => self.model.coarse_backward(g),
            Branch::Fine => self.model.fine_backward(g),
        };
        self.input = gx; // recycle as the next step's batch buffer
        self.model.export_grads_into(&mut self.flat_grads);
    }
}

/// Reused step-level buffers. The weights and the embedding gradient are
/// shared read-only with the helpers during a phase; every helper drops
/// its handle before it hands its shards back, so between phases the main
/// thread holds the only one and writes through [`Arc::get_mut`].
struct TrainScratch {
    weights: Arc<Vec<f32>>,
    emb_all: Tensor,
    grad_all: Arc<Tensor>,
    pairs: Vec<PairRows>,
    idxs: Vec<usize>,
    shifted_flags: Vec<bool>,
}

impl TrainScratch {
    fn new() -> TrainScratch {
        TrainScratch {
            weights: Arc::new(Vec::new()),
            emb_all: Tensor::default(),
            grad_all: Arc::new(Tensor::default()),
            pairs: Vec::new(),
            idxs: Vec::new(),
            shifted_flags: Vec::new(),
        }
    }
}

/// One phase of a step, as a helper receives it.
#[derive(Clone)]
enum Phase {
    /// [`ShardSlot::forward`] under these weights.
    Forward(Branch, Arc<Vec<f32>>),
    /// [`ShardSlot::backward`] from this step-global gradient of width
    /// `usize`.
    Backward(Branch, Arc<Tensor>, usize),
}

impl Phase {
    fn run(&self, slot: &mut ShardSlot, ctx: &StepCtx<'_>) {
        match self {
            Phase::Forward(branch, weights) => slot.forward(*branch, ctx, weights),
            Phase::Backward(branch, grad, dim) => slot.backward(*branch, grad, *dim),
        }
    }
}

/// A helper's work order: run `phase` over the first `n` of `slots` (its
/// chunk, lent for the phase) and send the chunk back.
struct Job {
    phase: Phase,
    slots: Vec<ShardSlot>,
    n: usize,
}

/// One long-lived helper thread's two channels.
struct Helper {
    jobs: SyncSender<Job>,
    done: Receiver<Vec<ShardSlot>>,
}

/// The gradient shards of one [`train_model`] call and the threads that
/// work them. Shard `i` belongs to chunk `i / per`; chunk 0 is the main
/// thread's and chunk `h` always goes to helper `h`. The decomposition is
/// fixed before a step and reduced in shard order, so the worker count
/// only affects scheduling, never arithmetic.
struct ShardPool {
    per: usize,
    chunks: Vec<Vec<ShardSlot>>,
    helpers: Vec<Helper>,
}

impl ShardPool {
    /// Split `slots` into `workers` chunks (at most one per shard) and
    /// spawn a helper on `scope` for every chunk but the first. The
    /// helpers exit when the pool is dropped.
    fn start<'scope, 'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        ctx: &'env StepCtx<'env>,
        mut slots: Vec<ShardSlot>,
        workers: usize,
    ) -> ShardPool {
        let per = slots.len().div_ceil(workers.clamp(1, slots.len().max(1))).max(1);
        let mut chunks = Vec::new();
        while !slots.is_empty() {
            let rest = slots.split_off(per.min(slots.len()));
            chunks.push(std::mem::replace(&mut slots, rest));
        }
        let helpers = (1..chunks.len())
            .map(|_| {
                let (jobs, inbox) = sync_channel::<Job>(1);
                let (outbox, done) = sync_channel(1);
                scope.spawn(move || {
                    while let Ok(Job { phase, mut slots, n }) = inbox.recv() {
                        for slot in &mut slots[..n] {
                            phase.run(slot, ctx);
                        }
                        drop(phase);
                        if outbox.send(slots).is_err() {
                            break;
                        }
                    }
                });
                Helper { jobs, done }
            })
            .collect();
        ShardPool { per, chunks, helpers }
    }

    fn slot(&self, i: usize) -> &ShardSlot {
        &self.chunks[i / self.per][i % self.per]
    }

    fn slot_mut(&mut self, i: usize) -> &mut ShardSlot {
        &mut self.chunks[i / self.per][i % self.per]
    }

    /// Run `phase` over shards `0..used`: each helper its chunk, the main
    /// thread chunk 0, then wait for every chunk to come back.
    fn run(&mut self, used: usize, phase: &Phase, ctx: &StepCtx<'_>) {
        let per = self.per;
        let mut lent = 0;
        for (h, helper) in self.helpers.iter().enumerate() {
            let n = used.saturating_sub((h + 1) * per).min(per);
            if n == 0 {
                break;
            }
            let slots = std::mem::take(&mut self.chunks[h + 1]);
            let job = Job { phase: phase.clone(), slots, n };
            helper.jobs.send(job).expect("training helper exited early");
            lent += 1;
        }
        for slot in &mut self.chunks[0][..used.min(per)] {
            phase.run(slot, ctx);
        }
        for (h, helper) in self.helpers.iter().enumerate().take(lent) {
            self.chunks[h + 1] = helper.done.recv().expect("training helper panicked");
        }
    }
}

/// One data-parallel triplet step over shards `0..used` (already loaded
/// with row specs). Returns the batch loss; gradients end up accumulated
/// in `main_model`, ready for the optimizer.
fn run_step(
    branch: Branch,
    main_model: &mut RepresentationModel,
    pool: &mut ShardPool,
    used: usize,
    margin: f32,
    ctx: &StepCtx<'_>,
    scratch: &mut TrainScratch,
) -> f32 {
    let TrainScratch { weights, emb_all, grad_all, pairs, .. } = scratch;
    main_model.export_weights_into(Arc::get_mut(weights).expect("helpers hold no weights"));
    pool.run(used, &Phase::Forward(branch, Arc::clone(weights)), ctx);

    // Gather shard embedding blocks into the step-global matrix.
    let dim = pool.slot(0).emb.features();
    let total_rows: usize = (0..used).map(|i| pool.slot(i).emb.batch()).sum();
    emb_all.reset_for_overwrite(&[total_rows, dim]);
    for i in 0..used {
        let s = pool.slot(i);
        let lo = s.row_off * dim;
        emb_all.data[lo..lo + s.emb.len()].copy_from_slice(&s.emb.data);
    }

    let grad = Arc::get_mut(grad_all).expect("helpers hold no gradient");
    let loss = triplet_grad_into(emb_all, pairs, margin, grad);

    pool.run(used, &Phase::Backward(branch, Arc::clone(grad_all), dim), ctx);

    // Deterministic reduction: fixed shard order, independent of workers.
    for i in 0..used {
        main_model.accumulate_grads_from(&pool.slot(i).flat_grads);
    }
    loss
}

/// Train both representation models on a workbook universe (the paper's
/// 160K-crawl stand-in).
pub fn train_model(
    workbooks: &[Workbook],
    featurizer: &CellFeaturizer,
    cfg: AutoFormulaConfig,
    opts: TrainingOptions,
) -> (RepresentationModel, TrainReport) {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);

    // ---- Weak supervision (§4.2) ----
    let name_model = NameModel::build(workbooks);
    let pairs = sheet_pairs(workbooks, &name_model, opts.alpha, opts.max_pairs_per_group, cfg.seed);
    let (region_pos, region_neg) =
        region_pairs(workbooks, &pairs, opts.max_region_pairs * 2, cfg.seed ^ 1);

    // Attach each positive region's shifted hard negative (same anchor).
    let neg_by_anchor: HashMap<(SheetId, CellRef), (SheetId, CellRef)> =
        region_neg.iter().map(|rp| (rp.a, rp.b)).collect();

    let mut coarse_descs: Vec<CoarseDesc> = pairs
        .positives
        .iter()
        .zip(&pairs.groups)
        .take(opts.max_coarse_pairs)
        .map(|(&(a, b), &g)| CoarseDesc {
            a,
            b,
            group: g as u64,
            aug_seed: cfg.coarse_augmentation.then(|| rng.random::<u64>()),
        })
        .collect();
    // Ensure both orders appear (anchors from both sides).
    if coarse_descs.len() < opts.max_coarse_pairs {
        let extra: Vec<CoarseDesc> = pairs
            .positives
            .iter()
            .zip(&pairs.groups)
            .take(opts.max_coarse_pairs - coarse_descs.len())
            .map(|(&(a, b), &g)| CoarseDesc {
                a: b,
                b: a,
                group: g as u64,
                aug_seed: cfg.coarse_augmentation.then(|| rng.random::<u64>()),
            })
            .collect();
        coarse_descs.extend(extra);
    }

    let fine_descs: Vec<FineDesc> = region_pos
        .iter()
        .take(opts.max_region_pairs)
        .map(|rp: &RegionPair| FineDesc {
            a: rp.a,
            b: rp.b,
            identity: region_identity(rp.group, rp.a.1),
            shifted_neg: neg_by_anchor.get(&rp.a).copied(),
            aug_seed: (cfg.fine_augmentation && rng.random_bool(opts.region_augment_rate))
                .then(|| rng.random::<u64>()),
        })
        .collect();

    let mut model = RepresentationModel::new(featurizer.dim(), cfg);
    let mut report = TrainReport {
        coarse_pairs: coarse_descs.len(),
        fine_pairs: fine_descs.len(),
        episodes: 0,
        first_coarse_loss: 0.0,
        final_coarse_loss: 0.0,
        first_fine_loss: 0.0,
        final_fine_loss: 0.0,
        seconds: 0.0,
    };
    if coarse_descs.is_empty() || fine_descs.is_empty() {
        // Degenerate corpus (all singletons): return the initialized model.
        report.seconds = started.elapsed().as_secs_f64();
        return (model, report);
    }

    let mut adam_reduce = Adam::new(cfg.lr);
    let mut adam_coarse = Adam::new(cfg.lr);
    let mut adam_fine = Adam::new(cfg.lr);

    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        opts.workers
    };
    let ctx = StepCtx { workbooks, featurizer, cfg, row_dim: cfg.n_cells() * featurizer.dim() };
    let n_shards_max = cfg.batch_size.div_ceil(PAIRS_PER_SHARD).max(1);
    let shard_slots: Vec<ShardSlot> = (0..n_shards_max)
        .map(|_| ShardSlot::new(RepresentationModel::new(featurizer.dim(), cfg)))
        .collect();
    let mut scratch = TrainScratch::new();

    // ---- Episodes (Algorithm 1), on workers that live for all of them ----
    std::thread::scope(|scope| {
        let mut pool = ShardPool::start(scope, &ctx, shard_slots, workers);
        for ep in 0..cfg.episodes {
            // ---------------- coarse step ----------------
            let bsz = cfg.batch_size.min(coarse_descs.len());
            scratch.idxs.clear();
            scratch.idxs.extend((0..bsz).map(|_| rng.random_range(0..coarse_descs.len())));
            scratch.idxs.dedup();
            scratch.pairs.clear();
            let mut used = 0usize;
            let mut row_off = 0usize;
            for chunk in scratch.idxs.chunks(PAIRS_PER_SHARD) {
                let shard = pool.slot_mut(used);
                shard.row_specs.clear();
                shard.row_off = row_off;
                let len = chunk.len();
                for &di in chunk {
                    shard.row_specs.push(RowSpec::Sheet(coarse_descs[di].a, None));
                }
                for &di in chunk {
                    let d = &coarse_descs[di];
                    shard.row_specs.push(RowSpec::Sheet(d.b, d.aug_seed));
                }
                for (t, &di) in chunk.iter().enumerate() {
                    scratch.pairs.push(PairRows {
                        anchor: row_off + t,
                        positive: row_off + len + t,
                        shifted: None,
                        identity: coarse_descs[di].group,
                    });
                }
                row_off += 2 * len;
                used += 1;
            }
            let step_c = af_obs::span!("train::step");
            let loss_c = run_step(
                Branch::Coarse,
                &mut model,
                &mut pool,
                used,
                cfg.margin,
                &ctx,
                &mut scratch,
            );
            step_c.end();
            adam_coarse.step(&mut model.coarse_head);
            adam_reduce.step(&mut model.reduce);

            // ---------------- fine step ----------------
            let bsz = cfg.batch_size.min(fine_descs.len());
            scratch.idxs.clear();
            scratch.idxs.extend((0..bsz).map(|_| rng.random_range(0..fine_descs.len())));
            scratch.idxs.dedup();
            // Shifted-negative decisions, in pair order (fixed RNG sequence).
            scratch.shifted_flags.clear();
            for &di in &scratch.idxs {
                let take = fine_descs[di].shifted_neg.is_some()
                    && rng.random_bool(opts.shifted_negative_rate);
                scratch.shifted_flags.push(take);
            }
            scratch.pairs.clear();
            let mut used = 0usize;
            let mut row_off = 0usize;
            let mut pair_at = 0usize;
            for chunk in scratch.idxs.chunks(PAIRS_PER_SHARD) {
                let shard = pool.slot_mut(used);
                shard.row_specs.clear();
                shard.row_off = row_off;
                let len = chunk.len();
                for &di in chunk {
                    let d = &fine_descs[di];
                    shard.row_specs.push(RowSpec::Region(d.a.0, d.a.1, None));
                }
                for &di in chunk {
                    let d = &fine_descs[di];
                    shard.row_specs.push(RowSpec::Region(d.b.0, d.b.1, d.aug_seed));
                }
                let mut n_shift = 0usize;
                for (t, &di) in chunk.iter().enumerate() {
                    let d = &fine_descs[di];
                    let shifted = if scratch.shifted_flags[pair_at + t] {
                        let neg = d.shifted_neg.expect("flag set only when present");
                        shard.row_specs.push(RowSpec::Region(neg.0, neg.1, None));
                        let row = row_off + 2 * len + n_shift;
                        n_shift += 1;
                        Some(row)
                    } else {
                        None
                    };
                    scratch.pairs.push(PairRows {
                        anchor: row_off + t,
                        positive: row_off + len + t,
                        shifted,
                        identity: d.identity,
                    });
                }
                pair_at += len;
                row_off += 2 * len + n_shift;
                used += 1;
            }
            let step_f = af_obs::span!("train::step");
            let loss_f =
                run_step(Branch::Fine, &mut model, &mut pool, used, cfg.margin, &ctx, &mut scratch);
            step_f.end();
            adam_fine.step(&mut model.fine_head);
            adam_reduce.step(&mut model.reduce);

            if ep == 0 {
                report.first_coarse_loss = loss_c;
                report.first_fine_loss = loss_f;
            }
            report.final_coarse_loss = loss_c;
            report.final_fine_loss = loss_f;
            report.episodes = ep + 1;
        }
    });
    report.seconds = started.elapsed().as_secs_f64();
    (model, report)
}

/// Stable identity for a region class: (group, anchor location).
fn region_identity(group: usize, loc: CellRef) -> u64 {
    (group as u64) << 32 ^ ((loc.row as u64) << 16) ^ loc.col as u64
}

/// Triplet loss and embedding gradient over one step. Pair `i` may carry
/// an explicit negative row (`pairs[i].shifted`); otherwise a semi-hard
/// negative is mined among the positives of the other pairs *with a
/// different identity* (same-identity rows are presumed-similar and never
/// valid negatives). The gradient (scaled by `1/n_pairs`) is written into
/// `grad`; the mean positive-triplet loss is returned.
fn triplet_grad_into(emb: &Tensor, pairs: &[PairRows], margin: f32, grad: &mut Tensor) -> f32 {
    let dim = emb.features();
    grad.reset_zeroed(&emb.shape);
    let mut total_loss = 0.0f32;
    let mut active = 0usize;
    for (i, pr) in pairs.iter().enumerate() {
        let a = emb.row(pr.anchor);
        let p = emb.row(pr.positive);
        // Pick the negative row.
        let neg_row = match pr.shifted {
            Some(r) => r,
            None => {
                // Semi-hard among other pairs' positives, skipping rows
                // that share this pair's identity.
                let dp = l2_sq(a, p);
                let mut best: Option<(usize, f32)> = None;
                let mut hardest: Option<(usize, f32)> = None;
                for (j, qr) in pairs.iter().enumerate() {
                    if j == i || qr.identity == pr.identity {
                        continue;
                    }
                    let dn = l2_sq(a, emb.row(qr.positive));
                    let loss = dp - dn + margin;
                    if loss > 0.0 && loss < margin && best.is_none_or(|(_, l)| loss > l) {
                        best = Some((qr.positive, loss));
                    }
                    if hardest.is_none_or(|(_, d)| dn < d) {
                        hardest = Some((qr.positive, dn));
                    }
                }
                match best.or(hardest) {
                    Some((r, _)) => r,
                    // No cross-identity candidate in this batch: skip the
                    // pair rather than poison training.
                    None => continue,
                }
            }
        };
        let n = emb.row(neg_row);
        let loss = l2_sq(a, p) - l2_sq(a, n) + margin;
        if loss <= 0.0 {
            continue;
        }
        total_loss += loss;
        active += 1;
        for k in 0..dim {
            let (av, pv, nv) = (a[k], p[k], n[k]);
            grad.data[pr.anchor * dim + k] += 2.0 * (nv - pv);
            grad.data[pr.positive * dim + k] += 2.0 * (pv - av);
            grad.data[neg_row * dim + k] += 2.0 * (av - nv);
        }
    }
    let b = pairs.len();
    let scale = 1.0 / b.max(1) as f32;
    for g in grad.data.iter_mut() {
        *g *= scale;
    }
    if active == 0 {
        0.0
    } else {
        total_loss / b as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_corpus::organization::{OrgSpec, Scale};
    use af_embed::{FeatureMask, SbertSim};
    use std::sync::Arc;

    fn quick_cfg() -> AutoFormulaConfig {
        AutoFormulaConfig { episodes: 25, ..AutoFormulaConfig::test_tiny() }
    }

    #[test]
    fn training_reduces_triplet_loss() {
        let corpus = OrgSpec::web_crawl(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let (model, report) =
            train_model(&corpus.workbooks, &featurizer, quick_cfg(), TrainingOptions::default());
        assert!(report.coarse_pairs > 0, "need coarse pairs");
        assert!(report.fine_pairs > 0, "need fine pairs");
        assert_eq!(report.episodes, 25);
        assert!(model.param_count() > 0);
        // Loss should not blow up; usually it shrinks. Accept a loose bound
        // (single seeds can be noisy on tiny configs).
        assert!(
            report.final_coarse_loss <= report.first_coarse_loss * 1.5 + 0.05,
            "coarse loss exploded: {} -> {}",
            report.first_coarse_loss,
            report.final_coarse_loss
        );
        assert!(report.final_fine_loss.is_finite());
    }

    #[test]
    fn trained_model_separates_similar_sheets() {
        use crate::embedder::SheetEmbedder;
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = quick_cfg();
        let (model, _) =
            train_model(&corpus.workbooks, &featurizer, cfg, TrainingOptions::default());
        let embedder = SheetEmbedder::new(&model, &featurizer);
        // Find a same-family pair and a cross-family pair.
        let mut same = None;
        let mut cross = None;
        'outer: for i in 0..corpus.workbooks.len() {
            for j in i + 1..corpus.workbooks.len() {
                if corpus.same_family(i, j) && same.is_none() {
                    same = Some((i, j));
                }
                if !corpus.same_family(i, j)
                    && cross.is_none()
                    && corpus.provenance[i].archetype != corpus.provenance[j].archetype
                {
                    cross = Some((i, j));
                }
                if same.is_some() && cross.is_some() {
                    break 'outer;
                }
            }
        }
        let (si, sj) = same.expect("same-family pair exists");
        let (ci, cj) = cross.expect("cross pair exists");
        let e = |w: usize| embedder.embed_sheet(&corpus.workbooks[w].sheets[0], false).coarse;
        let d_same = l2_sq(&e(si), &e(sj));
        let d_cross = l2_sq(&e(ci), &e(cj));
        assert!(d_same < d_cross, "same-family sheets should embed closer ({d_same} vs {d_cross})");
    }

    #[test]
    fn degenerate_corpus_returns_untrained_model() {
        // All singletons: weak supervision finds nothing.
        let spec = OrgSpec { n_families: 0, n_singletons: 6, ..OrgSpec::cisco(Scale::Tiny) };
        let corpus = spec.generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let (_, report) =
            train_model(&corpus.workbooks, &featurizer, quick_cfg(), TrainingOptions::default());
        assert_eq!(report.episodes, 0);
    }
}
