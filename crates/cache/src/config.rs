//! Cache geometry and policy configuration.

use std::fmt;

/// Configuration of one cache. Every cache allocates a line on a
/// write miss (write-allocate), the policy the paper notes is
/// predominant.
///
/// Constructed either with [`CacheConfig::new`] or one of the named
/// constructors matching the parameter points used in the paper.
///
/// # Examples
///
/// ```
/// use jrt_cache::CacheConfig;
///
/// let cfg = CacheConfig::new(8 * 1024, 32, 1); // 8K direct-mapped
/// assert_eq!(cfg.num_sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size: u64,
    /// Line (block) size in bytes. Must be a power of two.
    pub line: u32,
    /// Associativity (1 = direct mapped). Must divide `size / line`.
    pub assoc: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `line` is not a power of two, if `line`
    /// does not divide `size`, or if `assoc` does not divide the
    /// number of lines.
    pub fn new(size: u64, line: u32, assoc: u32) -> Self {
        let cfg = CacheConfig { size, line, assoc };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.size.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            self.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        let lines = self.size / u64::from(self.line);
        assert!(lines >= 1, "cache must hold at least one line");
        assert_eq!(
            lines % u64::from(self.assoc),
            0,
            "associativity must divide the number of lines"
        );
    }

    /// The paper's L1 instruction cache: 64 KB, 32-byte lines, 2-way.
    pub fn paper_l1_inst() -> Self {
        Self::new(64 * 1024, 32, 2)
    }

    /// The paper's L1 data cache: 64 KB, 32-byte lines, 4-way.
    pub fn paper_l1_data() -> Self {
        Self::new(64 * 1024, 32, 4)
    }

    /// The direct-mapped 64 KB / 32 B cache used for the write-miss
    /// study (Figure 3).
    pub fn paper_write_study() -> Self {
        Self::new(64 * 1024, 32, 1)
    }

    /// The 8 KB / 32 B cache whose associativity is swept 1–8 in
    /// Figure 7.
    pub fn paper_assoc_sweep(assoc: u32) -> Self {
        Self::new(8 * 1024, 32, assoc)
    }

    /// The 8 KB direct-mapped cache whose line size is swept
    /// 16–128 bytes in Figure 8.
    pub fn paper_line_sweep(line: u32) -> Self {
        Self::new(8 * 1024, line, 1)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size / u64::from(self.line) / u64::from(self.assoc)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> u64 {
        self.size / u64::from(self.line)
    }

    /// Maps an address to its line-aligned tag (address / line size).
    pub fn line_id(&self, addr: u64) -> u64 {
        addr / u64::from(self.line)
    }

    /// Maps an address to its set index.
    pub fn set_index(&self, addr: u64) -> u64 {
        self.line_id(addr) % self.num_sets()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}K/{}B/{}-way", self.size / 1024, self.line, self.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let cfg = CacheConfig::paper_l1_data();
        assert_eq!(cfg.num_lines(), 2048);
        assert_eq!(cfg.num_sets(), 512);
        assert_eq!(cfg.set_index(0), 0);
        assert_eq!(cfg.set_index(32), 1);
        // addresses one "way stride" apart map to the same set
        let stride = cfg.num_sets() * u64::from(cfg.line);
        assert_eq!(cfg.set_index(64), cfg.set_index(64 + stride));
    }

    #[test]
    fn named_constructors_match_paper() {
        assert_eq!(CacheConfig::paper_l1_inst().assoc, 2);
        assert_eq!(CacheConfig::paper_l1_data().assoc, 4);
        assert_eq!(CacheConfig::paper_write_study().assoc, 1);
        assert_eq!(CacheConfig::paper_assoc_sweep(8).size, 8 * 1024);
        assert_eq!(CacheConfig::paper_line_sweep(128).line, 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        CacheConfig::new(1000, 32, 1);
    }

    #[test]
    #[should_panic(expected = "associativity must divide")]
    fn rejects_bad_assoc() {
        CacheConfig::new(1024, 32, 5);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(CacheConfig::paper_l1_data().to_string(), "64K/32B/4-way");
    }
}
