//! Inputs, generated from the workload seed.
//!
//! The program under test only ever sees what this module generates:
//! workbooks, masked query sheets and target cells.
//!
//! The corpora themselves (the training universe, the four test
//! organisations and the arrivals) come from `af-corpus` at its preset
//! seeds, so every seed serves the same 568-sheet reference corpus at
//! `Scale::Small`. The workload seed decides everything the program is
//! *asked*: which formulas of each held-out sheet become targets, in what
//! order they are queried, which cell each request edits first, and the
//! order workbooks arrive in. Regenerating the corpora per seed was sized
//! and dropped: it moved the reference corpus between 514 and 568 sheets
//! and `query_p50_ms` by 5 % from one seed to the next, which is a
//! different system per seed, not a different sample of one workload.

use af_corpus::organization::{OrgSpec, Scale};
use af_corpus::testcase::masked_sheet;
use af_formula::parse_formula;
use af_grid::{CellRef, CellValue, Sheet, Workbook};

/// Every 6th workbook of each organisation, and its last, is held out.
const HOLDOUT_EVERY: usize = 6;
/// At most this many formulas of one held-out sheet become cases (§5.1).
const MAX_CASES_PER_SHEET: usize = 10;
/// A sheet needs this many formulas to be filled down …
const BURST_MIN_FORMULAS: usize = 8;
/// … and a burst fills at most this many cells.
pub const BURST_MAX_TARGETS: usize = 16;
/// Seed of the fifth organisation, whose workbooks arrive during
/// `ingest_mixed` and are in no index before they do.
const ARRIVALS_SEED: u64 = 0xA221_7A15;

/// SplitMix64: the benchmark's own generator, so the inputs of a seed do
/// not change when the repository's vendored `rand` does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A numeric cell of a query sheet and its generated value. Before every
/// request the cell is set to `base + k` for a `k` no other request of the
/// run uses, so no two requests carry byte-identical sheets and a
/// content-hash cache cannot look good on a closed loop that cycles.
#[derive(Debug, Clone, Copy)]
pub struct Edit {
    at: CellRef,
    base: f64,
}

/// Apply request `k`'s one-cell edit.
pub fn touch(sheet: &mut Sheet, edit: Option<Edit>, k: u64) {
    if let Some(Edit { at, base }) = edit {
        if let Some(cell) = sheet.get_mut(at) {
            cell.value = CellValue::Number(base + k as f64);
        }
    }
}

fn pick_edit(sheet: &Sheet, rng: &mut Rng) -> Option<Edit> {
    let mut numeric: Vec<(CellRef, f64)> = sheet
        .iter()
        .filter(|(_, c)| c.formula.is_none())
        .filter_map(|(at, c)| match c.value {
            CellValue::Number(n) => Some((at, n)),
            _ => None,
        })
        .collect();
    numeric.sort_by_key(|&(at, _)| at);
    (!numeric.is_empty()).then(|| {
        let (at, base) = numeric[rng.below(numeric.len())];
        Edit { at, base }
    })
}

/// One formula-prediction task on a held-out sheet.
pub struct Case {
    /// Which held-out sheet the case is on.
    pub sheet_id: usize,
    pub target: CellRef,
    /// Ground-truth formula in canonical form.
    pub truth: String,
    /// The sheet as the user sees it before authoring the formula.
    pub sheet: Sheet,
    pub edit: Option<Edit>,
}

/// A fill-down: several target cells of one sheet, all still empty.
pub struct Burst {
    pub targets: Vec<CellRef>,
    pub sheet: Sheet,
    pub edit: Option<Edit>,
}

pub struct Inputs {
    /// Training universe (the web-crawl stand-in).
    pub universe: Vec<Workbook>,
    /// `org4`: the reference workbooks of the four test organisations.
    pub reference: Vec<Workbook>,
    /// In query order: cyclically, no two consecutive cases share a sheet.
    pub cases: Vec<Case>,
    /// In query order; every burst is on a sheet of its own.
    pub bursts: Vec<Burst>,
    /// Workbooks of a fifth organisation, in arrival order.
    pub arrivals: Vec<Workbook>,
}

/// Formulas of a sheet that parse, in cell order, with their canonical text.
fn parseable_formulas(sheet: &Sheet) -> Vec<(CellRef, String)> {
    let mut out: Vec<(CellRef, String)> = sheet
        .formulas()
        .filter_map(|(at, src)| parse_formula(src).ok().map(|e| (at, e.to_string())))
        .collect();
    out.sort_by_key(|&(at, _)| at);
    out
}

/// Reorder `cases` so that, read as a cycle, no two neighbours share a
/// sheet: wherever they do, swap in a case that fits both places.
fn separate_sheets(cases: &mut [Case]) -> Result<(), String> {
    let n = cases.len();
    if n < 2 {
        return Ok(());
    }
    let clash = |c: &[Case], i: usize| c[i].sheet_id == c[(i + n - 1) % n].sheet_id;
    let fits = |c: &[Case], id: usize, at: usize| {
        c[(at + n - 1) % n].sheet_id != id && c[(at + 1) % n].sheet_id != id
    };
    for i in 0..n {
        if !clash(cases, i) {
            continue;
        }
        let partner = (0..n).find(|&j| {
            let apart = (i + n - j) % n > 1 && (j + n - i) % n > 1;
            apart && fits(cases, cases[j].sheet_id, i) && fits(cases, cases[i].sheet_id, j)
        });
        match partner {
            Some(j) => cases.swap(i, j),
            None => return Err(format!("no order keeps case {i} off its neighbour's sheet")),
        }
    }
    match (0..n).find(|&i| clash(cases, i)) {
        Some(i) => Err(format!("cases {i} and its predecessor still share a sheet")),
        None => Ok(()),
    }
}

impl Inputs {
    pub fn generate(scale: Scale, seed: u64) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed);
        let universe = OrgSpec::web_crawl(scale).generate().workbooks;

        let mut reference = Vec::new();
        let mut held_out = Vec::new();
        for spec in OrgSpec::test_orgs(scale) {
            let workbooks = spec.generate().workbooks;
            let last = workbooks.len() - 1;
            for (i, wb) in workbooks.into_iter().enumerate() {
                if i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 || i == last {
                    held_out.push(wb);
                } else {
                    reference.push(wb);
                }
            }
        }

        let mut cases = Vec::new();
        let mut bursts = Vec::new();
        for (sheet_id, sheet) in held_out.iter().flat_map(|wb| &wb.sheets).enumerate() {
            let formulas = parseable_formulas(sheet);

            let mut sample = formulas.clone();
            rng.shuffle(&mut sample);
            sample.truncate(MAX_CASES_PER_SHEET);
            for (target, truth) in sample {
                let sheet = masked_sheet(sheet, target);
                let edit = pick_edit(&sheet, &mut rng);
                cases.push(Case { sheet_id, target, truth, sheet, edit });
            }

            if formulas.len() >= BURST_MIN_FORMULAS {
                let mut targets: Vec<CellRef> = formulas.iter().map(|&(at, _)| at).collect();
                rng.shuffle(&mut targets);
                targets.truncate(BURST_MAX_TARGETS);
                targets.sort();
                let sheet = targets.iter().fold(sheet.clone(), |s, &at| masked_sheet(&s, at));
                let edit = pick_edit(&sheet, &mut rng);
                bursts.push(Burst { targets, sheet, edit });
            }
        }
        rng.shuffle(&mut cases);
        separate_sheets(&mut cases)?;
        rng.shuffle(&mut bursts);

        let mut arrivals =
            OrgSpec { seed: ARRIVALS_SEED, ..OrgSpec::enron(scale) }.generate().workbooks;
        rng.shuffle(&mut arrivals);

        if cases.is_empty() || bursts.is_empty() || arrivals.is_empty() {
            return Err("generated no cases, bursts or arrivals".to_string());
        }
        Ok(Inputs { universe, reference, cases, bursts, arrivals })
    }

    /// FNV-1a over everything the seed decides, in order: the same seed
    /// must give the same digest, another seed another.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let cell = |at: CellRef| ((at.row as u64) << 32 | at.col as u64).to_le_bytes();
        let edit_cell =
            |e: Option<Edit>| cell(e.map_or(CellRef::new(u32::MAX, u32::MAX), |e| e.at));
        for c in &self.cases {
            eat(&(c.sheet_id as u64).to_le_bytes());
            eat(&cell(c.target));
            eat(c.truth.as_bytes());
            eat(&edit_cell(c.edit));
        }
        for b in &self.bursts {
            eat(b.sheet.name().as_bytes());
            b.targets.iter().for_each(|&t| eat(&cell(t)));
            eat(&edit_cell(b.edit));
        }
        for wb in &self.arrivals {
            eat(wb.name.as_bytes());
            eat(&wb.timestamp.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(Scale::Tiny, 7).unwrap();
        let b = Inputs::generate(Scale::Tiny, 7).unwrap();
        let c = Inputs::generate(Scale::Tiny, 8).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        // The corpus is the same for every seed; what is asked of it is not.
        assert_eq!(a.reference.len(), c.reference.len());
        assert_eq!(a.cases.len(), c.cases.len());
    }

    #[test]
    fn consecutive_cases_never_share_a_sheet() {
        for seed in 0..4 {
            let inputs = Inputs::generate(Scale::Tiny, seed).unwrap();
            let n = inputs.cases.len();
            assert!(n > 50);
            for i in 0..n {
                assert_ne!(inputs.cases[i].sheet_id, inputs.cases[(i + 1) % n].sheet_id);
            }
        }
    }

    #[test]
    fn targets_are_masked_and_edits_change_one_numeric_cell() {
        let mut inputs = Inputs::generate(Scale::Tiny, 1).unwrap();
        for c in &inputs.cases {
            assert!(c.sheet.get(c.target).is_none_or(|cell| cell.formula.is_none()));
        }
        for b in &inputs.bursts {
            assert!((BURST_MIN_FORMULAS.min(BURST_MAX_TARGETS)..=BURST_MAX_TARGETS)
                .contains(&b.targets.len()));
            assert!(b.targets.iter().all(|&t| b.sheet.value(t).is_empty()));
        }
        let case = inputs.cases.iter_mut().find(|c| c.edit.is_some()).expect("an editable case");
        let before = case.sheet.clone();
        touch(&mut case.sheet, case.edit, 41);
        let changed: Vec<CellRef> = before
            .iter()
            .filter(|&(at, cell)| case.sheet.get(at) != Some(cell))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(changed, vec![case.edit.unwrap().at]);
        assert_eq!(case.sheet.len(), before.len());
    }

    #[test]
    fn separation_repairs_a_clustered_order() {
        let proto = Inputs::generate(Scale::Tiny, 0).unwrap();
        let mut cases = proto.cases;
        cases.sort_by_key(|c| c.sheet_id);
        separate_sheets(&mut cases).unwrap();
        let n = cases.len();
        assert!((0..n).all(|i| cases[i].sheet_id != cases[(i + 1) % n].sheet_id));
    }
}
