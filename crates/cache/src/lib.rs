//! Trace-driven cache simulation for the `javart` project.
//!
//! This crate is the stand-in for the `cachesim5` simulator the paper
//! used from the Shade suite. It provides:
//!
//! * [`Cache`]: a single set-associative, write-allocate cache with
//!   LRU replacement, configurable size / line size / associativity,
//!   miss classification (read vs. write vs. compulsory), and
//!   per-phase and per-region attribution;
//! * [`CacheConfig`]: cache geometry, with the paper's parameter
//!   points as named constructors;
//! * [`CacheSweep`] / [`SplitSweep`]: one-pass stack-distance
//!   simulation of whole configuration families (the Hill & Smith
//!   all-associativity technique), exact against [`Cache`]. One
//!   [`SplitSweep`] per trace carries every cache point of Figures 3,
//!   7 and 8, as cachesim5 did for the paper;
//! * [`SplitCaches`]: an L1 I-cache + D-cache pair of [`Cache`]s that
//!   consumes a native instruction trace event by event and returns
//!   each outcome: the paper's L1 pair in the ILP front end (Table 3
//!   and Figures 4–6 read it), Figure 6's per-access timeline, the
//!   Section 6 install-into-I-cache proposal, and caches attached to a
//!   live VM run;
//! * [`Timeline`]: windowed miss-rate sampling for the time-series
//!   study of Figure 6.
//!
//! # Examples
//!
//! ```
//! use jrt_cache::{Cache, CacheConfig};
//! use jrt_trace::{AccessKind, Phase};
//!
//! // The paper's L1 D-cache: 64 KB, 32-byte lines, 4-way.
//! let mut dcache = Cache::new(CacheConfig::paper_l1_data());
//! dcache.access(0x2000_0000, AccessKind::Read, Phase::NativeExec);
//! dcache.access(0x2000_0004, AccessKind::Read, Phase::NativeExec);
//! assert_eq!(dcache.stats().refs(), 2);
//! assert_eq!(dcache.stats().misses(), 1); // second access hits the line
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod sim;
mod split;
mod sweep;
mod timeline;

pub use config::CacheConfig;
pub use sim::{AccessOutcome, Cache, CacheStats, SlicedStats};
pub use split::SplitCaches;
pub use sweep::{CacheSweep, SplitSweep, SplitSweepShard, SweepResult, SweepShard};
pub use timeline::{Timeline, TimelineSample};
