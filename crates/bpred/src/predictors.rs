//! Direction predictors: 2-bit, BHT, Gshare, GAp.

use jrt_trace::Addr;

/// A conditional-branch direction predictor: one of the four Table 2
/// designs. An enum rather than a trait object, so the per-branch call
/// is a `match` the compiler can inline.
#[derive(Debug, Clone)]
pub enum DirectionPredictor {
    /// The single shared counter.
    TwoBit(TwoBit),
    /// The one-level PC-indexed table.
    Bht(Bht),
    /// Global history XORed into the PC index.
    Gshare(Gshare),
    /// Two-level, per-address pattern tables.
    GAp(GAp),
}

impl DirectionPredictor {
    /// The four paper-configured predictors, in Table 2's column order.
    pub fn paper_set() -> [DirectionPredictor; 4] {
        [
            Self::TwoBit(TwoBit::new()),
            Self::Bht(Bht::paper()),
            Self::Gshare(Gshare::paper()),
            Self::GAp(GAp::paper()),
        ]
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// predictor state with the actual `taken` outcome. Returns the
    /// prediction made *before* the update.
    #[inline]
    pub fn predict_and_update(&mut self, pc: Addr, taken: bool) -> bool {
        let (counter, history) = match self {
            Self::TwoBit(p) => (&mut p.counter, None),
            Self::Bht(p) => {
                let idx = p.index(pc);
                (&mut p.table[idx], None)
            }
            Self::Gshare(p) => {
                let idx = p.index(pc);
                (&mut p.table[idx], Some(&mut p.history))
            }
            Self::GAp(p) => {
                let idx = p.index(pc);
                (&mut p.tables[idx], Some(&mut p.history))
            }
        };
        let predicted = counter.predict();
        counter.update(taken);
        if let Some(h) = history {
            *h = (*h << 1) | u64::from(taken);
        }
        predicted
    }

    /// Human-readable predictor name, as used in Table 2 headers.
    pub fn name(&self) -> &'static str {
        match self {
            Self::TwoBit(_) => "2bit",
            Self::Bht(_) => "bht",
            Self::Gshare(_) => "gshare",
            Self::GAp(_) => "gap",
        }
    }
}

/// A 2-bit saturating counter: states 0–1 predict not-taken,
/// 2–3 predict taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter2(u8);

impl Counter2 {
    /// Creates a counter in the weakly-not-taken state — the
    /// conventional cold start, matching the forward-not-taken bias
    /// of compiled code (null/bounds checks, loop exits).
    pub fn new() -> Self {
        Counter2(1)
    }

    /// Current prediction.
    pub fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Trains toward the actual outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

impl Default for Counter2 {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's "simple 2-bit predictor": one shared 2-bit counter,
/// included for validation and consistency checking only.
#[derive(Debug, Clone, Default)]
pub struct TwoBit {
    counter: Counter2,
}

impl TwoBit {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One-level branch history table: a PC-indexed table of 2-bit
/// counters. The paper uses 2K entries.
#[derive(Debug, Clone)]
pub struct Bht {
    table: Vec<Counter2>,
}

impl Bht {
    /// Creates a BHT with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bht {
            table: vec![Counter2::new(); entries],
        }
    }

    /// The paper's 2K-entry configuration.
    pub fn paper() -> Self {
        Self::new(2048)
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }
}

/// Gshare: the global history register XORed into the PC index.
/// The paper uses 5 bits of global history and a 2K-entry table.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    history: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a Gshare predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits`
    /// exceeds 16.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 16, "history_bits must be <= 16");
        Gshare {
            table: vec![Counter2::new(); entries],
            history: 0,
            history_bits,
        }
    }

    /// The paper's configuration: 2K entries, 5 bits of history.
    pub fn paper() -> Self {
        Self::new(2048, 5)
    }

    fn index(&self, pc: Addr) -> usize {
        let h = self.history & ((1 << self.history_bits) - 1);
        (((pc >> 2) ^ h) as usize) & (self.table.len() - 1)
    }
}

/// GAp (Yeh & Patt): a global history register selecting into
/// per-address pattern tables. The paper's sizing: first level 2K
/// (per-address sets), second level 256-entry pattern tables.
#[derive(Debug, Clone)]
pub struct GAp {
    /// `sets` pattern tables of `patterns` counters each.
    tables: Vec<Counter2>,
    sets: usize,
    patterns: usize,
    history: u64,
}

impl GAp {
    /// Creates a GAp predictor with `sets` per-address pattern tables
    /// of `patterns` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `patterns` is not a power of two.
    pub fn new(sets: usize, patterns: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            patterns.is_power_of_two(),
            "patterns must be a power of two"
        );
        GAp {
            tables: vec![Counter2::new(); sets * patterns],
            sets,
            patterns,
            history: 0,
        }
    }

    /// The paper's configuration: 2K first-level entries, 256-entry
    /// second-level pattern tables.
    pub fn paper() -> Self {
        Self::new(2048, 256)
    }

    fn index(&self, pc: Addr) -> usize {
        let set = ((pc >> 2) as usize) & (self.sets - 1);
        let pat = (self.history as usize) & (self.patterns - 1);
        set * self.patterns + pat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut DirectionPredictor, pc: Addr, pattern: &[bool]) -> usize {
        pattern
            .iter()
            .filter(|&&t| p.predict_and_update(pc, t) != t)
            .count()
    }

    #[test]
    fn counter2_saturates() {
        let mut c = Counter2::new();
        for _ in 0..10 {
            c.update(true);
        }
        assert!(c.predict());
        c.update(false);
        assert!(
            c.predict(),
            "one not-taken should not flip a saturated counter"
        );
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn bht_learns_biased_branches() {
        let mut p = DirectionPredictor::Bht(Bht::paper());
        let always = vec![true; 100];
        let miss = train(&mut p, 0x4000, &always);
        assert!(
            miss <= 1,
            "biased branch should be near-perfect, got {miss}"
        );
    }

    #[test]
    fn bht_separates_pcs() {
        let mut p = DirectionPredictor::Bht(Bht::paper());
        train(&mut p, 0x4000, &[true; 50]);
        train(&mut p, 0x4004, &[false; 50]);
        // Re-test both without interference.
        assert_eq!(train(&mut p, 0x4000, &[true; 10]), 0);
        assert_eq!(train(&mut p, 0x4004, &[false; 10]), 0);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // T,N,T,N… is hopeless for a per-PC 2-bit counter but trivial
        // with history.
        let pat: Vec<bool> = (0..200).map(|k| k % 2 == 0).collect();
        let mut g = DirectionPredictor::Gshare(Gshare::paper());
        let g_miss = train(&mut g, 0x4000, &pat);
        let mut b = DirectionPredictor::Bht(Bht::paper());
        let b_miss = train(&mut b, 0x4000, &pat);
        assert!(
            g_miss < b_miss / 2,
            "gshare ({g_miss}) should beat BHT ({b_miss}) on periodic patterns"
        );
    }

    #[test]
    fn gap_learns_periodic_pattern() {
        let pat: Vec<bool> = (0..300).map(|k| k % 3 != 0).collect();
        let mut g = DirectionPredictor::GAp(GAp::paper());
        let miss = train(&mut g, 0x4000, &pat);
        assert!(miss < 30, "GAp should learn period-3 patterns, got {miss}");
    }

    #[test]
    fn twobit_is_shared_across_pcs() {
        let mut p = DirectionPredictor::TwoBit(TwoBit::new());
        train(&mut p, 0x4000, &[true; 10]);
        // A different PC sees the same (now strongly-taken) counter.
        assert!(p.predict_and_update(0x8000, true));
    }

    #[test]
    fn names() {
        let names: Vec<_> = DirectionPredictor::paper_set()
            .iter()
            .map(DirectionPredictor::name)
            .collect();
        assert_eq!(names, ["2bit", "bht", "gshare", "gap"]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bht_rejects_bad_size() {
        Bht::new(1000);
    }
}
