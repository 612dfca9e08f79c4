//! The report's one pass over the stock tapes. As the paper fed one
//! Shade trace to cachesim5, its branch predictors and its superscalar
//! model, [`run`] decodes each stock `(workload, mode)` tape of
//! [`suite`] once and fans the decode out, through one sink tuple, to
//! every consumer the requested sections ask of that tape. `ask` is
//! the table of who asks what. Nothing is memoized. The sections are
//! views of the [`Pass`]: `run_all` runs it once for every enabled
//! section, a section's own `run` for itself alone. Every consumer sees
//! the whole stream whatever else shares the decode, so both give the
//! same numbers.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::{codecache, fig6, fig7, fig8, fig9, folding, tape};
use jrt_bpred::{BranchEval, BranchStats, DirectionPredictor, Gshare};
use jrt_cache::{CacheConfig, CacheStats, SplitCaches, SplitSweep, SweepResult, Timeline};
use jrt_ilp::{PipelineConfig, PipelineReport, PipelineSweep};
use jrt_trace::{AccessBlockSink, InstMix, Phase, PhaseFilter};
use jrt_workloads::{suite, Size};

/// The consumers one stock tape feeds; the default feeds none. Cache
/// points and widths are sets, kept in first-seen order.
#[derive(Debug, Default, PartialEq)]
struct Needs {
    /// I- and D-cache points of the block-streamed cache sweep.
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

    /// Adds what `section` asks of the `(name, mode)` tape.
    fn ask(&mut self, section: &str, size: Size, name: &str, mode: Mode) {
        let jit = mode == Mode::Jit;
        let l1i = [CacheConfig::paper_l1_inst()];
        let l1d = [CacheConfig::paper_l1_data()];
        match section {
            "fig2" => self.mix = true,
            "table2" => self.predictors = true,
            "table3" => self.sweep(&l1i, &l1d),
            "fig3" => self.sweep(&[], &[CacheConfig::paper_write_study()]),
            "fig4" => {
                self.sweep(&l1i, &l1d);
                self.app_phase |= jit;
            }
            "fig5" if jit => self.sweep(&l1i, &l1d),
            "fig6" if name == fig6::BENCHMARK => self.timeline = Some(fig6::window(size)),
            "fig7" => {
                let points = fig7::ASSOCS.map(CacheConfig::paper_assoc_sweep);
                self.sweep(&points, &points);
            }
            "fig8" => {
                let points = fig8::LINES.map(CacheConfig::paper_line_sweep);
                self.sweep(&points, &points);
            }
            "fig9" => merge(&mut self.widths, &fig9::WIDTHS),
            // The plain-BTB scheme is Table 2's Gshare column.
            "indirect" => (self.predictors, self.target_cache) = (true, true),
            // Figure 9's w=8 report on the stock interpreter.
            "folding" if !jit => merge(&mut self.widths, &[folding::WIDTH]),
            "proposal" if jit => {
                self.sweep(&l1i, &l1d);
                self.install = true;
            }
            // Table 3's interpreter D point.
            "regir" if !jit => self.sweep(&[], &l1d),
            // Table 3's JIT D point, for the unbounded baseline.
            "codecache" if jit && codecache::SWEEP.contains(&name) => self.sweep(&[], &l1d),
            _ => {}
        }
    }
}

/// One stock tape's results, one field per consumer: `None` where no
/// requested section asked for it on this tape.
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
    /// One entry per tape some requested section asked anything of:
    /// suite order, interp before jit.
    pub tapes: Vec<TapeResult>,
}

impl Pass {
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

/// Runs the pass at `size` for `sections` (report section names; the
/// ones that read no stock tape ask nothing): one job per stock tape
/// they ask anything of, each decoding its tape once into every
/// consumer they ask of it.
pub fn run(size: Size, sections: &[&str]) -> Pass {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &Mode::BOTH);
    let tapes = jobs::par_map(&work, |(w, mode)| {
        let mut needs = Needs::default();
        for section in sections {
            needs.ask(section, size, w.spec.name, *mode);
        }
        (needs != Needs::default()).then(|| feed(w, *mode, &needs))
    });
    Pass {
        tapes: tapes.into_iter().flatten().collect(),
    }
}

fn is_app_phase(p: Phase) -> bool {
    !matches!(p, Phase::Translate | Phase::ClassLoad)
}

/// Decodes the `(w, mode)` tape once into the consumers `needs` names.
fn feed(w: &Workload, mode: Mode, needs: &Needs) -> TapeResult {
    let mut sweep = SplitSweep::new(&needs.icache, &needs.dcache);
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
        swept.then(|| AccessBlockSink::new(|b| sweep.consume_block(b))),
        needs.mix.then(InstMix::new),
        needs.predictors.then(predictors),
        needs.target_cache.then(target_cache),
        (!widths.is_empty()).then(|| PipelineSweep::new(&widths)),
        needs.app_phase.then(app_phase),
        needs.install.then(install),
        needs.timeline.map(timeline),
    );
    tape::recorded(w, mode).decode(&mut sinks);
    let (blocks, mix, predictors, target_cache, ilp, app_phase, install, timeline) = sinks;
    drop(blocks);
    let reports = ilp.map_or_else(Vec::new, |s| s.reports());
    let l1 = |i: &CacheStats, d: &CacheStats| [*i, *d];
    TapeResult {
        name: w.spec.name,
        mode,
        icache: sweep.icache().results(),
        dcache: sweep.dcache().results(),
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
