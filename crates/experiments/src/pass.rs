//! The report's one pass over its streams. As the paper fed one Shade
//! trace to cachesim5, its branch predictors and its superscalar model
//! while the JVM ran, [`run`] runs each `(workload, mode)` stream of
//! [`suite`] the requested sections ask anything of once, straight into
//! one sink tuple holding every consumer they ask of it; no trace is
//! stored. `ask` is the table of who asks what, by section and mode:
//! the stock interpreter and JIT streams feed most sections, the
//! folding interpreter's only the folding study, and the register-IR
//! interpreter's only the register-IR study. The pass is the only code
//! that runs a report stream into consumers, and it memoizes nothing
//! itself; each run publishes its run summary ([`tape::stream`]), so
//! the sections that read counts alone find it. The sections are views
//! of the [`Pass`]: `run_all` runs it once, before the first section,
//! for every enabled section, and a section's own `run` for itself
//! alone. Every consumer sees the whole stream whatever else shares the
//! run, so both give the same numbers.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::{codecache, fig6, fig7, fig8, fig9, folding, tape};
use jrt_bpred::{BranchEval, BranchStats, DirectionPredictor, Gshare};
use jrt_cache::{CacheConfig, CacheStats, SplitCaches, SplitSweep, SweepResult, Timeline};
use jrt_ilp::{PipelineConfig, PipelineReport, PipelineSweep};
use jrt_trace::{InstMix, Phase, PhaseFilter};
use jrt_workloads::{suite, Size};

/// The consumers one stream feeds; the default feeds none. Cache
/// points and widths are sets, kept in first-seen order.
#[derive(Debug, Default, PartialEq)]
struct Needs {
    /// I- and D-cache points of the cache sweep.
    icache: Vec<CacheConfig>,
    dcache: Vec<CacheConfig>,
    /// Figure 2's instruction mix.
    mix: bool,
    /// Table 2's four direction predictors on one BTB and return stack.
    predictors: bool,
    /// Gshare with the path-history target cache (the indirect study).
    target_cache: bool,
    /// Issue widths of the paper's pipeline, one timing core each.
    widths: Vec<u32>,
    /// The paper's L1 pair over the app phases alone: Figure 4's
    /// C-like row, with translation and class loading filtered out.
    app_phase: bool,
    /// The paper's L1 pair with the JIT installing its code straight
    /// into the I-cache (the Section 6 proposal).
    install: bool,
    /// Figure 6's miss timeline over the paper's L1 pair, with its
    /// window in instructions.
    timeline: Option<u64>,
}

fn merge<T: PartialEq + Copy>(mine: &mut Vec<T>, theirs: &[T]) {
    for x in theirs {
        if !mine.contains(x) {
            mine.push(*x);
        }
    }
}

impl Needs {
    fn sweep(&mut self, icache: &[CacheConfig], dcache: &[CacheConfig]) {
        merge(&mut self.icache, icache);
        merge(&mut self.dcache, dcache);
    }

    /// Adds what `section` asks of the `(name, mode)` stream.
    fn ask(&mut self, section: &str, size: Size, name: &str, mode: Mode) {
        let l1i = [CacheConfig::paper_l1_inst()];
        let l1d = [CacheConfig::paper_l1_data()];
        match (section, mode) {
            // Figure 9's w=8 report, stock vs folding interpreter.
            ("folding", Mode::Interp | Mode::Folding) => merge(&mut self.widths, &[folding::WIDTH]),
            // Table 3's interpreter D point, stock vs IR interpreter.
            ("regir", Mode::Interp | Mode::IrInterp) => self.sweep(&[], &l1d),
            // Every other section reads the stock streams alone.
            _ if !Mode::BOTH.contains(&mode) => {}
            ("fig2", _) => self.mix = true,
            ("table2", _) => self.predictors = true,
            ("table3", _) => self.sweep(&l1i, &l1d),
            ("fig3", _) => self.sweep(&[], &[CacheConfig::paper_write_study()]),
            ("fig4", _) => {
                self.sweep(&l1i, &l1d);
                self.app_phase |= mode == Mode::Jit;
            }
            ("fig5", Mode::Jit) => self.sweep(&l1i, &l1d),
            ("fig6", _) if name == fig6::BENCHMARK => self.timeline = Some(fig6::window(size)),
            ("fig7", _) => {
                let points = fig7::ASSOCS.map(CacheConfig::paper_assoc_sweep);
                self.sweep(&points, &points);
            }
            ("fig8", _) => {
                let points = fig8::LINES.map(CacheConfig::paper_line_sweep);
                self.sweep(&points, &points);
            }
            ("fig9", _) => merge(&mut self.widths, &fig9::WIDTHS),
            // The plain-BTB scheme is Table 2's Gshare column.
            ("indirect", _) => (self.predictors, self.target_cache) = (true, true),
            ("proposal", Mode::Jit) => {
                self.sweep(&l1i, &l1d);
                self.install = true;
            }
            // Table 3's JIT D point, for the unbounded baseline.
            ("codecache", Mode::Jit) if codecache::SWEEP.contains(&name) => self.sweep(&[], &l1d),
            _ => {}
        }
    }
}

/// One stream's results, one field per consumer: `None` where no
/// requested section asked for it on this stream.
#[derive(Debug)]
pub struct TapeResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    icache: Vec<SweepResult>,
    dcache: Vec<SweepResult>,
    ilp: Vec<(u32, PipelineReport)>,
    /// The instruction mix.
    pub mix: Option<InstMix>,
    /// Table 2's predictors, in [`DirectionPredictor::paper_set`] order.
    pub predictors: Option<[BranchStats; 4]>,
    /// Gshare with the target cache.
    pub target_cache: Option<BranchStats>,
    /// I- and D-cache statistics of the L1 pair over the app phases.
    pub app_phase: Option<[CacheStats; 2]>,
    /// I- and D-cache statistics of the install-into-I-cache L1 pair.
    pub install: Option<[CacheStats; 2]>,
    /// The miss timeline.
    pub timeline: Option<Timeline>,
}

fn ran<'a, T>(found: Option<&'a T>, what: std::fmt::Arguments) -> &'a T {
    found.unwrap_or_else(|| panic!("the pass did not run {what}"))
}

impl TapeResult {
    /// The I-cache result at `cfg`; panics if the pass did not sweep it.
    pub fn icache(&self, cfg: CacheConfig) -> &SweepResult {
        let found = self.icache.iter().find(|r| *r.config() == cfg);
        ran(found, format_args!("the I-cache point {cfg}"))
    }

    /// The D-cache result at `cfg`; panics if the pass did not sweep it.
    pub fn dcache(&self, cfg: CacheConfig) -> &SweepResult {
        let found = self.dcache.iter().find(|r| *r.config() == cfg);
        ran(found, format_args!("the D-cache point {cfg}"))
    }

    /// The pipeline at issue width `width`; panics if the pass did not
    /// run it.
    pub fn ilp(&self, width: u32) -> &PipelineReport {
        let found = self.ilp.iter().find(|(w, _)| *w == width);
        ran(found.map(|(_, r)| r), format_args!("issue width {width}"))
    }
}

/// The results of one pass.
#[derive(Debug)]
pub struct Pass {
    /// One entry per stream some requested section asked anything of:
    /// suite order, then [`MODES`] order.
    tapes: Vec<TapeResult>,
}

impl Pass {
    /// The stock interpreter and JIT tapes, in suite order, interp
    /// before jit: the rows of a section that reads every stock tape.
    pub fn stock(&self) -> impl Iterator<Item = &TapeResult> {
        self.tapes.iter().filter(|t| Mode::BOTH.contains(&t.mode))
    }

    /// The tapes of one mode, in suite order.
    pub fn mode(&self, mode: Mode) -> impl Iterator<Item = &TapeResult> {
        self.tapes.iter().filter(move |t| t.mode == mode)
    }

    /// The tape of `name` under `mode`; panics if the pass skipped it.
    pub fn tape(&self, name: &str, mode: Mode) -> &TapeResult {
        let found = self.mode(mode).find(|t| t.name == name);
        ran(found, format_args!("{name} {mode:?}"))
    }
}

/// The streams the pass can run, in the order it keeps them per
/// benchmark.
const MODES: [Mode; 4] = [Mode::Interp, Mode::Jit, Mode::Folding, Mode::IrInterp];

/// Runs the pass at `size` for `sections` (report section names; the
/// ones that read no stream ask nothing): one job per stream they ask
/// anything of, each running the VM once into every consumer they ask
/// of it. Programs are built for those jobs alone, so a pass nobody
/// asks anything of builds and runs nothing.
pub fn run(size: Size, sections: &[&str]) -> Pass {
    let mut work = Vec::new();
    for (spec, mode) in jobs::cross(&suite(), &MODES) {
        let mut needs = Needs::default();
        for section in sections {
            needs.ask(section, size, spec.name, mode);
        }
        if needs != Needs::default() {
            work.push((spec, mode, needs));
        }
    }
    let tapes = jobs::par_map(&work, |(spec, mode, needs)| {
        feed(&tape::workload(spec, size), *mode, needs)
    });
    Pass { tapes }
}

fn is_app_phase(p: Phase) -> bool {
    !matches!(p, Phase::Translate | Phase::ClassLoad)
}

/// Runs the `(w, mode)` stream once into the consumers `needs` names.
fn feed(w: &Workload, mode: Mode, needs: &Needs) -> TapeResult {
    let swept = !(needs.icache.is_empty() && needs.dcache.is_empty());
    let mut widths = Vec::new();
    widths.extend(needs.widths.iter().map(|&k| PipelineConfig::paper(k)));
    let (icfg, dcfg) = (CacheConfig::paper_l1_inst(), CacheConfig::paper_l1_data());
    let app_phase = || PhaseFilter::new(SplitSweep::new(&[icfg], &[dcfg]), is_app_phase);
    let predictors = || BranchEval::shared(DirectionPredictor::paper_set());
    let gshare = DirectionPredictor::Gshare(Gshare::paper());
    let target_cache = || BranchEval::new(gshare).with_target_cache();
    let install = || SplitCaches::paper_l1().with_install_into_icache();
    let timeline = |window| SplitCaches::paper_l1().with_timeline(window);
    let mut sinks = (
        swept.then(|| SplitSweep::new(&needs.icache, &needs.dcache)),
        needs.mix.then(InstMix::new),
        needs.predictors.then(predictors),
        needs.target_cache.then(target_cache),
        (!widths.is_empty()).then(|| PipelineSweep::new(&widths)),
        needs.app_phase.then(app_phase),
        needs.install.then(install),
        needs.timeline.map(timeline),
    );
    tape::stream(w, mode, &mut sinks);
    let (sweep, mix, predictors, target_cache, ilp, app_phase, install, timeline) = sinks;
    let reports = ilp.map_or_else(Vec::new, |s| s.reports());
    let (icache, dcache) = sweep
        .map(|s| (s.icache().results(), s.dcache().results()))
        .unwrap_or_default();
    let l1 = |i: &CacheStats, d: &CacheStats| [*i, *d];
    TapeResult {
        name: w.spec.name,
        mode,
        icache,
        dcache,
        ilp: needs.widths.iter().copied().zip(reports).collect(),
        mix,
        predictors: predictors.map(|e| *e.all_stats()),
        target_cache: target_cache.map(|e| *e.stats()),
        app_phase: app_phase.map(|f| {
            let (i, d) = (f.inner().icache().results(), f.inner().dcache().results());
            l1(i[0].stats(), d[0].stats())
        }),
        install: install.map(|c| l1(c.icache().stats(), c.dcache().stats())),
        timeline: timeline.and_then(|c| c.timeline().cloned()),
    }
}
