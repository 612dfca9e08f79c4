//! Experiment drivers regenerating every table and figure of
//! *Architectural Issues in Java Runtime Systems* (HPCA 2000).
//!
//! Each module reproduces one of the paper's results on the `javart`
//! substrate (synthetic SPARC-like traces, SpecJVM98-analog
//! workloads):
//!
//! | module | paper result |
//! |---|---|
//! | [`fig1`] | Fig. 1 — when/whether to translate: JIT translate/execute split, the `opt` oracle, interpreter ratio |
//! | [`table1`] | Table 1 — memory footprint, interpreter vs. JIT |
//! | [`fig2`] | Fig. 2 — instruction mix per execution mode |
//! | [`table2`] | Table 2 — branch misprediction for four predictors |
//! | [`table3`] | Table 3 — L1 I/D cache references and misses |
//! | [`fig3`] | Fig. 3 — share of data misses that are writes |
//! | [`fig4`] | Fig. 4 — miss rates vs. a C-like (AOT) execution |
//! | [`fig5`] | Fig. 5 — cache misses inside the translate phase |
//! | [`fig6`] | Fig. 6 — miss-rate timeline for `db` |
//! | [`fig7`] | Fig. 7 — associativity sweep (8K, 1/2/4/8-way) |
//! | [`fig8`] | Fig. 8 — line-size sweep (8K DM, 16–128 B) |
//! | [`fig9`] | Figs. 9 & 10 — IPC and normalized time vs. issue width |
//! | [`fig11`] | Fig. 11 — synchronization cases and lock-scheme costs |
//! | [`folding`] | Section 4.4's suggestion — picoJava-style interpreter folding, implemented and measured |
//! | [`indirect`] | Table 2's recommendation — an indirect-branch-tailored predictor (target cache), implemented and measured |
//! | [`proposal`] | Section 6 — the paper's install-into-I-cache proposal, implemented and measured |
//! | [`sizes`] | Section 2 — the s1→s10 method-reuse observation |
//! | [`codecache`] | Follow-on to Table 1/Figure 1 — managed code cache: capacity/eviction sweep, shared-vs-private caches, tiered recompilation |
//! | [`serve`] | Beyond the paper — multi-tenant VM fleet: admission control, per-tenant fuel, shared-cache dedup, throughput/latency scaling |
//! | [`scale`] | Beyond the paper — out-of-core tape store: s10-class tapes streamed from disk, sharded 1→8-worker replay stitched exactly |
//! | [`gc_study`] | Beyond the paper — generational copying GC: collection counts, survival, write-barrier overhead, Gc/GcBarrier cache slices, cross-collector equivalence |
//!
//! [`report::run_all`] executes everything and renders the
//! `EXPERIMENTS.md` comparison document; its cache sections share one
//! [`caches`] pass.
//!
//! Every driver fans its `(workload, mode)` cross-product out on the
//! [`jobs`] work-queue scheduler (worker count from `JRT_JOBS` or the
//! machine) and merges results in canonical order, so reports are
//! bit-identical at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caches;
pub mod codecache;
pub mod fig1;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod folding;
pub mod gc_study;
pub mod indirect;
pub mod ir;
pub mod jobs;
pub mod proposal;
pub mod report;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod sizes;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tape;

pub use runner::Mode;
pub use table::Table;
