//! Victima (MICRO 2023): drastically increasing address translation reach
//! by leveraging underutilized cache resources.
//!
//! Victima repurposes L2 *data cache* blocks to store clusters of 8 TLB
//! entries, giving the processor a high-capacity, low-latency backstop
//! behind the last-level TLB without any new SRAM structures, OS changes
//! or contiguous physical allocations. This crate implements the paper's
//! contribution:
//!
//! - [`tlb_block`] — the virtually indexed set/tag math that lets the same
//!   L2 cache store PA-indexed data blocks and VA-indexed TLB blocks
//!   (Fig. 13), including the aliasing-feasibility rule of footnote 4;
//! - [`predictor`] — the PTW cost predictor (PTW-CP), a four-comparator
//!   circuit over the PTE-embedded PTW frequency/cost counters, with the
//!   L2-cache-MPKI bypass (Fig. 15/16);
//! - [`policy`] — the TLB-aware SRRIP replacement policy (Listing 1);
//! - [`flows`] — the insertion flows on L2 TLB misses and evictions, the
//!   parallel probe of the translation path (Figs. 14/17–19), and the
//!   Sec. 6 TLB maintenance operations;
//! - [`features`] / [`nn`] / [`metrics`] — the predictor design study of
//!   Table 2: per-page feature collection, from-scratch MLP training
//!   (NN-10 / NN-5 / NN-2) and the comparator's classification metrics.
//!
//! # Examples
//!
//! ```
//! use victima::predictor::PtwCostPredictor;
//!
//! let mut p = PtwCostPredictor::default();
//! // A page with repeated, DRAM-touching walks is costly-to-translate.
//! assert!(p.predict(3, 2));
//! // A page never walked is not.
//! assert!(!p.predict(0, 0));
//! ```

pub mod features;
pub mod flows;
pub mod metrics;
pub mod nn;
pub mod policy;
pub mod predictor;
pub mod tlb_block;

pub use flows::{Victima, VictimaConfig};
pub use metrics::ConfusionMatrix;
pub use predictor::PtwCostPredictor;
