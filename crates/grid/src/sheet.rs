//! A single sheet: a sparse two-dimensional grid of cells.

use crate::cell::Cell;
use crate::cellref::{CellRef, RangeRef};
use crate::fxhash::FxHashMap;
use crate::value::CellValue;

/// A sheet (one tab of a workbook). Storage is sparse — real spreadsheets
/// are mostly empty cells — and the used extent is tracked incrementally so
/// `n_rows`/`n_cols` are O(1) in the common append-only construction path.
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    name: String,
    cells: FxHashMap<CellRef, Cell>,
    /// One past the last used row/col; `None` means it must be recomputed
    /// (after a removal).
    extent: Option<(u32, u32)>,
}

impl Sheet {
    pub fn new(name: impl Into<String>) -> Self {
        Sheet { name: name.into(), cells: FxHashMap::default(), extent: Some((0, 0)) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of used rows (max used row index + 1).
    pub fn n_rows(&mut self) -> u32 {
        self.ensure_extent().0
    }

    /// Number of used columns (max used col index + 1).
    pub fn n_cols(&mut self) -> u32 {
        self.ensure_extent().1
    }

    /// Extent without requiring `&mut self`; recomputes on demand.
    pub fn dims(&self) -> (u32, u32) {
        match self.extent {
            Some(e) => e,
            None => Self::compute_extent(&self.cells),
        }
    }

    fn ensure_extent(&mut self) -> (u32, u32) {
        if self.extent.is_none() {
            self.extent = Some(Self::compute_extent(&self.cells));
        }
        self.extent.expect("just set")
    }

    fn compute_extent(cells: &FxHashMap<CellRef, Cell>) -> (u32, u32) {
        let mut rows = 0;
        let mut cols = 0;
        for r in cells.keys() {
            rows = rows.max(r.row.saturating_add(1));
            cols = cols.max(r.col.saturating_add(1));
        }
        (rows, cols)
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Store a cell. Blank cells are dropped (and remove any previous cell at
    /// that position) to keep the map sparse.
    pub fn set(&mut self, at: CellRef, cell: Cell) {
        if cell.is_blank() {
            if self.cells.remove(&at).is_some() {
                self.extent = None;
            }
            return;
        }
        if let Some((rows, cols)) = self.extent {
            // Saturating: a cell in the last row or column is storable,
            // its extent just cannot be one past it.
            self.extent =
                Some((rows.max(at.row.saturating_add(1)), cols.max(at.col.saturating_add(1))));
        }
        self.cells.insert(at, cell);
    }

    /// Convenience: set only a value at `at`, keeping default style.
    pub fn set_value(&mut self, at: CellRef, value: impl Into<CellValue>) {
        self.set(at, Cell::new(value));
    }

    /// Convenience addressed by A1 text; panics on bad references (intended
    /// for tests and examples).
    pub fn set_a1(&mut self, a1: &str, cell: Cell) {
        let at: CellRef = a1.parse().expect("valid A1 reference");
        self.set(at, cell);
    }

    pub fn get(&self, at: CellRef) -> Option<&Cell> {
        self.cells.get(&at)
    }

    pub fn get_mut(&mut self, at: CellRef) -> Option<&mut Cell> {
        self.cells.get_mut(&at)
    }

    /// The value at `at` (Empty for unused cells).
    pub fn value(&self, at: CellRef) -> CellValue {
        self.cells.get(&at).map(|c| c.value.clone()).unwrap_or(CellValue::Empty)
    }

    pub fn remove(&mut self, at: CellRef) -> Option<Cell> {
        let removed = self.cells.remove(&at);
        if removed.is_some() {
            self.extent = None;
        }
        removed
    }

    pub fn iter(&self) -> impl Iterator<Item = (CellRef, &Cell)> + '_ {
        self.cells.iter().map(|(r, c)| (*r, c))
    }

    /// All cells that contain formulas, with their locations.
    pub fn formulas(&self) -> impl Iterator<Item = (CellRef, &str)> + '_ {
        self.cells.iter().filter_map(|(r, c)| c.formula.as_deref().map(|f| (*r, f)))
    }

    pub fn formula_count(&self) -> usize {
        self.cells.values().filter(|c| c.formula.is_some()).count()
    }

    /// The tight bounding range of all used cells, if any.
    pub fn used_range(&self) -> Option<RangeRef> {
        let mut it = self.cells.keys();
        let first = *it.next()?;
        let mut min = first;
        let mut max = first;
        for r in it {
            min.row = min.row.min(r.row);
            min.col = min.col.min(r.col);
            max.row = max.row.max(r.row);
            max.col = max.col.max(r.col);
        }
        Some(RangeRef::new(min, max))
    }

    /// Remove row `row`, shifting later rows up by one. Formula *strings* are
    /// not rewritten — this operation exists for training-data augmentation
    /// (§4.3), which only consumes cell features, never re-evaluates
    /// formulas.
    pub fn remove_row(&mut self, row: u32) {
        self.edit_axis(row, |r| r.row, |r, v| r.row = v);
    }

    /// Remove column `col`, shifting later columns left by one.
    pub fn remove_col(&mut self, col: u32) {
        self.edit_axis(col, |r| r.col, |r, v| r.col = v);
    }

    fn edit_axis(
        &mut self,
        idx: u32,
        get: impl Fn(&CellRef) -> u32,
        set: impl Fn(&mut CellRef, u32),
    ) {
        let old = std::mem::take(&mut self.cells);
        let mut cells = FxHashMap::default();
        cells.reserve(old.len());
        for (mut r, c) in old {
            let v = get(&r);
            if v == idx {
                continue; // the removed line
            }
            if v > idx {
                set(&mut r, v - 1);
            }
            cells.insert(r, c);
        }
        self.cells = cells;
        self.extent = None;
    }

    /// Insert an empty row before `row`, shifting later rows down.
    pub fn insert_row(&mut self, row: u32) {
        let old = std::mem::take(&mut self.cells);
        let mut cells = FxHashMap::default();
        cells.reserve(old.len());
        for (mut r, c) in old {
            if r.row >= row {
                r.row += 1;
            }
            cells.insert(r, c);
        }
        self.cells = cells;
        self.extent = None;
    }

    /// Insert an empty column before `col`, shifting later columns right.
    pub fn insert_col(&mut self, col: u32) {
        let old = std::mem::take(&mut self.cells);
        let mut cells = FxHashMap::default();
        cells.reserve(old.len());
        for (mut r, c) in old {
            if r.col >= col {
                r.col += 1;
            }
            cells.insert(r, c);
        }
        self.cells = cells;
        self.extent = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;

    fn sample() -> Sheet {
        let mut s = Sheet::new("Data");
        s.set_a1("A1", Cell::new("Name"));
        s.set_a1("B1", Cell::new("Score"));
        s.set_a1("A2", Cell::new("Ann"));
        s.set_a1("B2", Cell::new(10.0));
        s.set_a1("A3", Cell::new("Bo"));
        s.set_a1("B3", Cell::new(20.0));
        s.set_a1("B4", Cell::new(30.0).with_formula("SUM(B2:B3)"));
        s
    }

    #[test]
    fn extent_tracks_inserts() {
        let mut s = sample();
        assert_eq!(s.n_rows(), 4);
        assert_eq!(s.n_cols(), 2);
        s.set_a1("D10", Cell::new(1.0));
        assert_eq!(s.n_rows(), 10);
        assert_eq!(s.n_cols(), 4);
    }

    #[test]
    fn extent_recomputes_after_remove() {
        let mut s = sample();
        s.set_a1("Z99", Cell::new(1.0));
        assert_eq!(s.n_rows(), 99);
        s.remove("Z99".parse().unwrap());
        assert_eq!(s.n_rows(), 4);
        assert_eq!(s.n_cols(), 2);
    }

    #[test]
    fn blank_cells_not_stored() {
        let mut s = Sheet::new("x");
        s.set_a1("A1", Cell::default());
        assert!(s.is_empty());
        s.set_a1("A1", Cell::new(5.0));
        s.set_a1("A1", Cell::default()); // overwrite with blank removes
        assert!(s.is_empty());
    }

    #[test]
    fn formulas_iterator() {
        let s = sample();
        let fs: Vec<_> = s.formulas().collect();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].0.to_string(), "B4");
        assert_eq!(fs[0].1, "SUM(B2:B3)");
        assert_eq!(s.formula_count(), 1);
    }

    #[test]
    fn remove_row_shifts_up() {
        let mut s = sample();
        s.remove_row(1); // removes "Ann" row (row index 1 = row 2)
        assert_eq!(s.value("A2".parse().unwrap()).display(), "Bo");
        assert_eq!(s.value("B3".parse().unwrap()).display(), "30");
        assert_eq!(s.n_rows(), 3);
    }

    #[test]
    fn remove_col_shifts_left() {
        let mut s = sample();
        s.remove_col(0);
        assert_eq!(s.value("A1".parse().unwrap()).display(), "Score");
        assert_eq!(s.n_cols(), 1);
    }

    #[test]
    fn insert_row_shifts_down() {
        let mut s = sample();
        s.insert_row(1);
        assert_eq!(s.value("A2".parse().unwrap()), CellValue::Empty);
        assert_eq!(s.value("A3".parse().unwrap()).display(), "Ann");
        assert_eq!(s.n_rows(), 5);
    }

    #[test]
    fn insert_col_shifts_right() {
        let mut s = sample();
        s.insert_col(1);
        assert_eq!(s.value("B1".parse().unwrap()), CellValue::Empty);
        assert_eq!(s.value("C1".parse().unwrap()).display(), "Score");
    }

    #[test]
    fn used_range_bounds() {
        let s = sample();
        assert_eq!(s.used_range().unwrap().to_string(), "A1:B4");
        assert!(Sheet::new("empty").used_range().is_none());
    }
}
