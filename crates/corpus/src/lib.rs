//! `af-corpus` — synthetic enterprise spreadsheet corpora, weak
//! supervision, data augmentation, and test-case sampling.
//!
//! The paper trains on 160K spreadsheets crawled from the web and evaluates
//! on holdout corpora from four organizations (Cisco, PGE, TI, Enron). We
//! cannot ship those corpora, so this crate *simulates* them: a seeded
//! generator produces workbooks from **template families** — multiple
//! instances of the same layout/formula logic with different data, row
//! counts, and jittered styles, exactly the
//! "similar-sheets" phenomenon (§3.1) the system exploits. Generated
//! corpora carry ground-truth **provenance** (which family produced each
//! workbook), which the paper's authors never had: it lets us *measure*
//! weak-supervision precision instead of eyeballing it.
//!
//! The weak-supervision module implements the sheet-name hypothesis test of
//! §4.2 verbatim; `augment` implements §4.3; `split`/`testcase` implement
//! the §5.1 experiment protocol (random + timestamp splits, ≤10 formulas
//! sampled per test sheet).

pub mod archetype;
pub mod augment;
pub mod family;
pub mod namegen;
pub mod organization;
pub mod split;
pub mod testcase;
pub mod vocab;
pub mod weak_supervision;

pub use archetype::Archetype;
pub use family::{Family, NameStyle, Palette};
pub use organization::{OrgCorpus, OrgSpec, Provenance, Scale};
pub use split::{Split, SplitKind};
pub use testcase::{sample_test_cases, TestCase};
pub use weak_supervision::{region_pairs, sheet_pairs, NameModel, RegionPair, SheetId, SheetPairs};
