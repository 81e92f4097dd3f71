//! View windows (§4.4.1, Fig. 5).
//!
//! Spreadsheets have no explicit table boundary, so the paper represents a
//! sheet (or the region around a cell) through a fixed `n_r × n_c` window —
//! "similar to a view window that human eyes can focus on". A window either
//! starts at the top-left corner (to represent the whole sheet) or is
//! centered on a cell (to represent its surrounding region). Slots that fall
//! outside the sheet are *invalid* and featurized distinctly from in-bounds
//! empty cells.

use crate::cell::Cell;
use crate::cellref::CellRef;
use crate::sheet::Sheet;

/// A fixed-size window specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewWindow {
    pub rows: u32,
    pub cols: u32,
}

impl ViewWindow {
    pub const fn new(rows: u32, cols: u32) -> Self {
        ViewWindow { rows, cols }
    }

    pub fn n_cells(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The top-left *virtual* coordinate of the window centered at `center`.
    /// Virtual coordinates are signed: negative when the window extends past
    /// the top/left sheet edge.
    pub fn centered_origin(&self, center: CellRef) -> (i64, i64) {
        (center.row as i64 - (self.rows as i64) / 2, center.col as i64 - (self.cols as i64) / 2)
    }

    /// Enumerate the window slots centered at `center` over `sheet`, in
    /// row-major order. Every slot is reported, including invalid ones, so
    /// the output always has exactly `rows × cols` entries.
    pub fn centered<'s>(
        &self,
        sheet: &'s Sheet,
        center: CellRef,
    ) -> impl Iterator<Item = WindowSlot<'s>> + 's {
        let origin = self.centered_origin(center);
        self.slots(sheet, origin)
    }

    /// Enumerate the window anchored at the sheet's top-left corner (the
    /// representative region for the entire sheet).
    pub fn top_left<'s>(&self, sheet: &'s Sheet) -> impl Iterator<Item = WindowSlot<'s>> + 's {
        self.slots(sheet, (0, 0))
    }

    fn slots<'s>(
        &self,
        sheet: &'s Sheet,
        origin: (i64, i64),
    ) -> impl Iterator<Item = WindowSlot<'s>> + 's {
        let (rows, cols) = (self.rows as i64, self.cols as i64);
        let (or, oc) = origin;
        (0..rows).flat_map(move |dr| {
            (0..cols).map(move |dc| {
                let (r, c) = (or + dr, oc + dc);
                if r < 0 || c < 0 {
                    WindowSlot::Invalid
                } else {
                    let at = CellRef::new(r as u32, c as u32);
                    match sheet.get(at) {
                        Some(cell) => WindowSlot::Cell(at, cell),
                        None => WindowSlot::EmptyCell(at),
                    }
                }
            })
        })
    }
}

impl Default for ViewWindow {
    /// A scaled-down stand-alone default (paper §5.1 uses 100×10). The
    /// system's own window is `AutoFormulaConfig::window`, 40×8 by default
    /// — see ARCHITECTURE.md §1.1, "The fine gather".
    fn default() -> Self {
        ViewWindow::new(50, 10)
    }
}

/// One slot of a view window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSlot<'s> {
    /// In-bounds slot holding a stored cell.
    Cell(CellRef, &'s Cell),
    /// In-bounds slot with no stored cell (blank).
    EmptyCell(CellRef),
    /// Out-of-bounds slot (beyond the top/left sheet edge).
    Invalid,
}

impl WindowSlot<'_> {
    pub fn is_invalid(&self) -> bool {
        matches!(self, WindowSlot::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet() -> Sheet {
        let mut s = Sheet::new("t");
        for r in 0..5 {
            for c in 0..3 {
                s.set(CellRef::new(r, c), Cell::new((r * 3 + c) as f64));
            }
        }
        s
    }

    #[test]
    fn window_has_exact_slot_count() {
        let s = sheet();
        let w = ViewWindow::new(4, 4);
        assert_eq!(w.top_left(&s).count(), 16);
        assert_eq!(w.centered(&s, CellRef::new(2, 1)).count(), 16);
    }

    #[test]
    fn top_left_window_reads_cells() {
        let s = sheet();
        let w = ViewWindow::new(2, 2);
        let slots: Vec<_> = w.top_left(&s).collect();
        match slots[0] {
            WindowSlot::Cell(at, c) => {
                assert_eq!(at, CellRef::new(0, 0));
                assert_eq!(c.value.display(), "0");
            }
            _ => panic!("expected cell"),
        }
        match slots[3] {
            WindowSlot::Cell(at, c) => {
                assert_eq!(at, CellRef::new(1, 1));
                assert_eq!(c.value.display(), "4");
            }
            _ => panic!("expected cell"),
        }
    }

    #[test]
    fn centered_window_marks_out_of_bounds_invalid() {
        let s = sheet();
        let w = ViewWindow::new(4, 4);
        // Centered at A1: origin is (-2, -2), so the first rows/cols are
        // invalid.
        let slots: Vec<_> = w.centered(&s, CellRef::new(0, 0)).collect();
        let invalid = slots.iter().filter(|s| s.is_invalid()).count();
        // rows -2,-1 entirely invalid (8 slots) plus cols -2,-1 of rows 0,1
        // (4 slots).
        assert_eq!(invalid, 12);
    }

    #[test]
    fn in_bounds_blank_cells_are_empty_not_invalid() {
        let s = sheet();
        let w = ViewWindow::new(2, 2);
        let slots: Vec<_> = w.centered(&s, CellRef::new(10, 10)).collect();
        assert!(slots.iter().all(|sl| matches!(sl, WindowSlot::EmptyCell(_))));
    }

    #[test]
    fn centered_origin_math() {
        let w = ViewWindow::new(100, 10);
        // Paper Fig. 5: the window around A120 spans 100 rows centered on
        // row 119 (0-based).
        let (r, c) = w.centered_origin(CellRef::new(119, 0));
        assert_eq!(r, 69);
        assert_eq!(c, -5);
    }
}
