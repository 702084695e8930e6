//! Threshold values for the use-case classifier.
//!
//! Defaults are the paper's §III-B values, which the authors tuned on their
//! 23-program evaluation set "to yield the best detection quality". All of
//! them are plain data so studies can sweep them (`repro --ablation` does).

use serde::{Deserialize, Serialize};

/// All classifier thresholds in one tunable bundle.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Thresholds {
    // --- Long-Insert -----------------------------------------------------
    /// LI: insertion phases must take more than this fraction of runtime
    /// (paper: > 30 %).
    pub li_min_phase_share: f64,
    /// LI: an insertion phase is *long* if it has at least this many
    /// consecutive access events (paper: 100).
    pub li_min_run_len: usize,

    // --- Implement-Queue ---------------------------------------------------
    /// IQ: more than this fraction of accesses must affect the two ends in
    /// sum (paper: > 60 %).
    pub iq_min_end_traffic: f64,
    /// IQ: minimum insert+delete operations before the shape is trusted
    /// (guards against classifying three events as a queue).
    pub iq_min_mutations: usize,

    // --- Sort-After-Insert -------------------------------------------------
    /// SAI: the preceding insertion phase must be at least this long
    /// (paper: > 100 consecutive access events).
    pub sai_min_insert_run: usize,
    /// SAI: insertion phases must take more than this fraction of runtime
    /// (paper: > 30 %).
    pub sai_min_phase_share: f64,

    // --- Frequent-Search ---------------------------------------------------
    /// FS: more than this many explicit search operations (paper: 1000).
    pub fs_min_search_ops: usize,
    /// FS: at least this fraction of all access events must sit in
    /// Read-Forward/Read-Backward patterns (paper: 2 %).
    pub fs_min_read_pattern_share: f64,

    // --- Frequent-Long-Read --------------------------------------------------
    /// FLR: more than this many sequential read patterns (paper: 10).
    pub flr_min_read_patterns: usize,
    /// FLR: at least this fraction of access types must be Read or Search
    /// (paper: 50 %).
    pub flr_min_read_share: f64,
    /// FLR: each qualifying pattern must read at least this fraction of the
    /// structure (paper: 50 %).
    pub flr_min_coverage: f64,

    // --- Insert/Delete-Front (sequential) -----------------------------------
    /// IDF: minimum resize events on an array.
    pub idf_min_resizes: usize,
    /// IDF: minimum insert↔delete alternations ("often occur in combination
    /// or alternate each other").
    pub idf_min_alternations: usize,

    // --- Stack-Implementation (sequential) -----------------------------------
    /// SI: minimum insert+delete operations before the common-end shape is
    /// trusted.
    pub si_min_mutations: usize,

    // --- Write-Without-Read (sequential) --------------------------------------
    /// WWR: minimum number of trailing never-read writes.
    pub wwr_min_trailing_writes: usize,

    // --- thread gating ----------------------------------------------------------
    /// Suppress the *parallel* use cases on instances that several threads
    /// already access in an interleaved fashion — the engineer has already
    /// parallelized there, and the advice would be noise. Sequential
    /// optimizations (IDF/SI/WWR) still apply.
    #[serde(default = "default_true")]
    pub skip_already_parallel: bool,
}

fn default_true() -> bool {
    true
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            li_min_phase_share: 0.30,
            li_min_run_len: 100,
            iq_min_end_traffic: 0.60,
            iq_min_mutations: 16,
            sai_min_insert_run: 100,
            sai_min_phase_share: 0.30,
            fs_min_search_ops: 1000,
            fs_min_read_pattern_share: 0.02,
            flr_min_read_patterns: 10,
            flr_min_read_share: 0.50,
            flr_min_coverage: 0.50,
            idf_min_resizes: 8,
            idf_min_alternations: 4,
            si_min_mutations: 16,
            wwr_min_trailing_writes: 5,
            skip_already_parallel: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_values() {
        let t = Thresholds::default();
        assert_eq!(t.li_min_phase_share, 0.30);
        assert_eq!(t.li_min_run_len, 100);
        assert_eq!(t.iq_min_end_traffic, 0.60);
        assert_eq!(t.fs_min_search_ops, 1000);
        assert_eq!(t.fs_min_read_pattern_share, 0.02);
        assert_eq!(t.flr_min_read_patterns, 10);
        assert_eq!(t.flr_min_read_share, 0.50);
        assert_eq!(t.flr_min_coverage, 0.50);
    }

    #[test]
    fn thresholds_serialize_roundtrip() {
        let t = Thresholds::default();
        let json = serde_json::to_string(&t).unwrap();
        let back: Thresholds = serde_json::from_str(&json).unwrap();
        assert_eq!(back.li_min_run_len, t.li_min_run_len);
        assert_eq!(back.flr_min_coverage, t.flr_min_coverage);
    }
}
