//! Superscalar core configuration.

use jrt_trace::InstClass;

/// Configuration of the out-of-order core model.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Fetch = issue = commit width (instructions per cycle).
    pub width: u32,
    /// Reorder buffer capacity (in-flight instructions).
    pub rob_size: usize,
    /// Front-end depth in cycles (fetch→issue minimum).
    pub frontend_depth: u64,
    /// Cycles from a mispredicted branch's resolution to the first
    /// correct-path fetch.
    pub redirect_penalty: u64,
    /// Extra latency of an L1 miss (applies to loads and to
    /// instruction fetches on a missed line).
    pub miss_penalty: u64,
}

impl PipelineConfig {
    /// The configuration used for the Figure 9/10 studies: a 64-entry
    /// ROB, a 24-cycle miss penalty and a 4-cycle redirect, at the
    /// requested issue width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn paper(width: u32) -> Self {
        assert!(width >= 1, "width must be at least 1");
        PipelineConfig {
            width,
            rob_size: 64,
            frontend_depth: 3,
            redirect_penalty: 4,
            // No L2 is modelled; a miss goes to late-1990s DRAM.
            miss_penalty: 24,
        }
    }

    /// Execution latency (cycles) of one instruction class.
    pub fn latency(&self, class: InstClass) -> u64 {
        match class {
            InstClass::IntAlu | InstClass::Nop => 1,
            InstClass::IntMul => 3,
            InstClass::IntDiv => 12,
            InstClass::FpAlu => 2,
            InstClass::Load => 2, // hit latency; miss adds miss_penalty
            InstClass::Store => 1,
            InstClass::CondBranch
            | InstClass::Jump
            | InstClass::IndirectJump
            | InstClass::Call
            | InstClass::IndirectCall
            | InstClass::Ret => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_widths() {
        for w in [1, 2, 4, 8] {
            let c = PipelineConfig::paper(w);
            assert_eq!(c.width, w);
            assert_eq!(c.rob_size, 64);
        }
    }

    #[test]
    fn latencies_ordered() {
        let c = PipelineConfig::paper(4);
        assert!(c.latency(InstClass::IntDiv) > c.latency(InstClass::IntMul));
        assert!(c.latency(InstClass::IntMul) > c.latency(InstClass::IntAlu));
        assert_eq!(c.latency(InstClass::CondBranch), 1);
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn zero_width_rejected() {
        PipelineConfig::paper(0);
    }
}
