//! `af-store` — quantized, mmap-able vector storage.
//!
//! Auto-Formula artifacts and indexes are embedding tables — per-sheet
//! cell vectors, from which every region window is gathered, and the ANN
//! vectors of the sheet-level indexes — and at the paper's intended
//! corpus size (millions of enterprise sheets — see SpreadsheetCoder's
//! scale numbers in PAPERS.md) raw-f32 storage of the ANN side is the
//! scaling wall. This crate owns how those tables are laid out,
//! compressed, and loaded:
//!
//! * **Codecs** — [`Codec::F32`] (exact, the default) and [`Codec::F16`]
//!   (IEEE binary16, 2× smaller), behind one [`VectorStore`] interface
//!   with an *asymmetric* distance kernel: the f32 query meets the f16
//!   row in the kernel, no dequantized copy is ever materialized. The
//!   kernel mirrors `af_nn::kernel`'s lane structure, so a fused f16
//!   distance is bit-identical to dequantize-then-`l2_sq` — rounding to
//!   f16 is the only error source, and `F32` keeps full bit-exactness.
//!   Wire tags 3 and 4 belonged to the removed int8 and product-quantized
//!   codecs; they now decode to [`StoreError::BadCodec`] like any other
//!   unknown tag.
//! * **Wire format** — [`put_store`]/[`get_store`]: little-endian bulk
//!   payloads, 4-byte-aligned via pad runs, adopted zero-copy on load.
//!   Decoding is hardened (bounded counts, known codec tags): corrupt
//!   input errors, never panics.
//! * **mmap** — [`map_file`] opens a file as page-on-demand [`Bytes`], so
//!   artifacts larger than RAM serve straight from the page cache.
//!
//! [`Bytes`]: bytes::Bytes
//!
//! # Examples
//!
//! ```
//! use af_store::{get_store, put_store, Codec, DenseStore, VectorStore};
//!
//! // Store three 4-d vectors as f16 (2× smaller than f32).
//! let mut store = DenseStore::new(4, Codec::F16);
//! store.push(&[0.0, 0.5, 1.0, -1.0]);
//! store.push(&[0.2, 0.1, -0.3, 0.9]);
//! store.push(&[1.0, 1.0, 1.0, 1.0]);
//!
//! // Asymmetric distance: the f32 query meets the f16 rows in the kernel.
//! let q = [0.1, 0.4, 0.9, -0.8];
//! let nearest = (0..store.rows())
//!     .min_by(|&a, &b| store.l2_sq_row(&q, a).total_cmp(&store.l2_sq_row(&q, b)))
//!     .unwrap();
//! assert_eq!(nearest, 0);
//!
//! // Wire round trip: little-endian, 4-byte aligned, zero-copy on load.
//! let mut buf = bytes::BytesMut::new();
//! put_store(&mut buf, &store);
//! let decoded = get_store(&mut buf.freeze()).unwrap();
//! assert_eq!(decoded.rows(), 3);
//! assert_eq!(decoded.codec(), Codec::F16);
//! ```
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod dense;
pub mod f16;
pub mod kernel;
pub mod mmap;
pub mod sink;

pub use dense::{
    get_store, put_store, put_store_as, Codec, DenseStore, F16Store, F32Store, StoreError,
    VectorStore,
};
pub use f16::{f16_to_f32, f32_to_f16};
pub use mmap::{advise, map_file, Advice};
pub use sink::StoreSink;
