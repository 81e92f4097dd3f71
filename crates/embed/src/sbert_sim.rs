//! `SbertSim` — the Sentence-BERT stand-in.
//!
//! The paper embeds cell text with a pre-trained Sentence-BERT so that
//! semantically similar strings ("USA" / "Canada", "Total" / "Sum of…")
//! land near each other. Running a transformer is out of scope (and out of
//! band for this reproduction); what the pipeline needs is
//! (a) a string-similarity-respecting dense embedding and (b) SBERT's cost
//! profile: higher dimensionality and more per-string work than GloVe.
//!
//! `SbertSim` hashes lowercased words plus char-2/3/4-grams into `d`
//! buckets with signed double-hashing and L2-normalizes. Shared substrings
//! ⇒ shared buckets ⇒ high cosine similarity.

use crate::hashing::{add_hashed, fnv1a, fnv1a_chars, rehash};
use crate::tokenize::{char_ngrams, words};
use crate::TextEmbedder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Character n-gram + word feature-hashing embedder (Sentence-BERT
/// stand-in). Construction is free; embedding cost scales with string
/// length. Thread-safe with an internal bounded memo cache.
pub struct SbertSim {
    dim: usize,
    cache: Mutex<HashMap<String, Arc<Vec<f32>>>>,
}

const NGRAM_SIZES: [usize; 3] = [2, 3, 4];
const CACHE_CAP: usize = 200_000;

impl SbertSim {
    pub fn new(dim: usize) -> SbertSim {
        assert!(dim >= 8);
        SbertSim { dim, cache: Mutex::new(HashMap::new()) }
    }

    fn compute(&self, text: &str, out: &mut [f32]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        if text.is_empty() {
            return;
        }
        // Word-level features carry the most semantic weight.
        for w in words(text) {
            let h = fnv1a(w.as_bytes());
            add_hashed(out, h, 1.0);
            add_hashed(out, rehash(h), 1.0);
        }
        // Character n-grams give robustness to morphology/typos and make
        // this embedder deliberately heavier than GloveSim.
        char_ngrams(text, &NGRAM_SIZES, |gram| {
            let h = fnv1a_chars(gram);
            add_hashed(out, h, 0.35);
            add_hashed(out, rehash(h), 0.35);
        });
        l2_normalize(out);
    }
}

impl TextEmbedder for SbertSim {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        if let Some(hit) = self.cache.lock().get(text) {
            out.copy_from_slice(hit);
            return;
        }
        self.compute(text, out);
        let mut cache = self.cache.lock();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(text.to_string(), Arc::new(out.to_vec()));
    }

    fn name(&self) -> &'static str {
        "sbert-sim"
    }

    /// Stateless beyond `dim`: hashing is deterministic, so rebuilding
    /// from the dimension alone reproduces identical vectors.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }
}

fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine(e: &SbertSim, a: &str, b: &str) -> f32 {
        let mut va = vec![0.0; e.dim()];
        let mut vb = vec![0.0; e.dim()];
        e.embed(a, &mut va);
        e.embed(b, &mut vb);
        va.iter().zip(&vb).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn similar_strings_are_closer_than_dissimilar() {
        let e = SbertSim::new(128);
        let near = cosine(&e, "Total Revenue", "Total Revenues");
        let far = cosine(&e, "Total Revenue", "Brown");
        assert!(near > 0.7, "near {near}");
        assert!(near > far + 0.3, "near {near} vs far {far}");
    }

    #[test]
    fn shared_word_forms_are_close() {
        let e = SbertSim::new(128);
        assert!(cosine(&e, "Q1 2023", "Q2 2023") > 0.5);
        assert!(cosine(&e, "workshop", "workshops") > 0.45);
        assert!(cosine(&e, "workshop", "workshops") > cosine(&e, "workshop", "revenue"));
    }

    #[test]
    fn outputs_unit_norm_or_zero() {
        let e = SbertSim::new(64);
        let mut v = vec![0.0; 64];
        e.embed("hello world", &mut v);
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
        e.embed("", &mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_and_cached() {
        let e = SbertSim::new(64);
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        e.embed("PGE energy usage", &mut a);
        e.embed("PGE energy usage", &mut b); // cache hit path
        assert_eq!(a, b);
    }

    #[test]
    fn different_numbers_still_share_shape() {
        let e = SbertSim::new(128);
        // Same digit-count numbers share n-grams only by accident; they
        // should still be far closer to each other than to words.
        let nn = cosine(&e, "2023-01-05", "2023-02-07");
        let nw = cosine(&e, "2023-01-05", "Brown");
        assert!(nn > nw);
    }
}
