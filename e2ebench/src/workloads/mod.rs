//! The two named workloads. Each one is set up from the seed, then run
//! as untraced ops (the end-to-end numbers) and as traced ops (the
//! per-layer numbers). README.md in this directory says why each was
//! chosen and which layer should move which end-to-end metric.

pub mod sweep;
pub mod wmsr;

use crate::checks;
use crate::fleet::TracedRun;
use crate::timed::HandlerTimes;
use dbac_core::scenario::{Outcome, TransportSnapshot};
use dbac_core::RunError;

/// A workload's name on the command line and in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The W-MSR engine on a 256-node circulant, one crash.
    WmsrCirc256Crash,
    /// An `ExperimentPlan` of many short cells on small catalog graphs.
    SweepSmallMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WmsrCirc256Crash, Workload::SweepSmallMixed];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WmsrCirc256Crash => "wmsr-circ256-crash",
            Workload::SweepSmallMixed => "sweep-small-mixed",
        }
    }

    /// The workload with this name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether set-up and every op run on the calling thread alone, so
    /// that they may be pinned to one CPU at a time. The sweep's
    /// `Sweep::run` (and `Topology::new` in its BW cells) fans out with
    /// `par_map`, whose workers would inherit the pin.
    #[must_use]
    pub fn single_threaded(self) -> bool {
        matches!(self, Workload::WmsrCirc256Crash)
    }

    /// Builds the workload's inputs from `seed` and times the set-up.
    ///
    /// # Errors
    ///
    /// A scenario or plan the program rejects.
    pub fn setup(self, seed: u64, size: Size) -> Result<Setup, String> {
        match self {
            Workload::WmsrCirc256Crash => wmsr::setup(seed, size),
            Workload::SweepSmallMixed => sweep::setup(seed, size),
        }
    }
}

/// Full size (the benchmark) or tiny size (the benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small instances that run every check in well under a second.
    Tiny,
}

/// A set-up workload, ready to run.
pub enum Prepared {
    /// See [`wmsr`].
    Wmsr(Box<wmsr::Prepared>),
    /// See [`sweep`].
    Sweep(sweep::Prepared),
}

impl Prepared {
    /// One untraced op, through the program's public entry points.
    #[must_use]
    pub fn run(&self) -> Op {
        match self {
            Prepared::Wmsr(p) => p.run(),
            Prepared::Sweep(p) => p.run(),
        }
    }

    /// One traced op: the same work, timed layer by layer.
    #[must_use]
    pub fn traced(&self) -> TracedOp {
        match self {
            Prepared::Wmsr(p) => p.traced(),
            Prepared::Sweep(p) => p.traced(),
        }
    }

    /// An untimed pass that checks what the untraced op's results cannot
    /// show. Only the sweep needs one: its cell digests drop the
    /// per-class counters the ledger check reads.
    #[must_use]
    pub fn verify(&self) -> Option<Op> {
        match self {
            Prepared::Sweep(p) => Some(p.verify()),
            Prepared::Wmsr(_) => None,
        }
    }
}

/// One set-up: the prepared workload and the seconds it took.
pub struct Setup {
    /// The prepared workload.
    pub prepared: Prepared,
    /// Seconds of set-up, each part timed as its own call.
    pub seconds: f64,
}

/// One cell of an op: a single run, or one sweep cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// What a repeat of the cell must reproduce bit for bit.
    pub identity: Vec<u64>,
    /// The checks the cell failed.
    pub failed: Vec<&'static str>,
    /// Wall seconds of the cell.
    pub wall_s: f64,
}

impl CellResult {
    /// A cell whose run returned an error.
    #[must_use]
    pub fn error(label: &str, wall_s: f64) -> Self {
        CellResult {
            label: label.to_string(),
            identity: Vec::new(),
            failed: vec![checks::RUN_ERROR],
            wall_s,
        }
    }
}

/// One op: every cell it ran, and its wall time.
#[derive(Clone, Debug)]
pub struct Op {
    /// Wall seconds of the whole op.
    pub wall_s: f64,
    /// The cells, in a fixed order.
    pub cells: Vec<CellResult>,
    /// Messages delivered over all cells.
    pub delivered: u64,
    /// Per-class transport counters summed over all cells, when the op
    /// kept them.
    pub transport: Option<TransportSnapshot>,
}

/// One traced op: the op, plus what the layers measured.
pub struct TracedOp {
    /// The traced op's cells; they must match the untraced op's.
    pub op: Op,
    /// The layer measurements.
    pub layers: Layers,
}

/// Layer measurements of one traced op, summed over its cells.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Handler time of BW honest nodes.
    pub bw: HandlerTimes,
    /// Handler time of W-MSR honest nodes.
    pub iter: HandlerTimes,
    /// Handler time of Byzantine actors in the wrapped fleets.
    pub adversary_ns: u64,
    /// Seconds in `Topology::new`.
    pub precompute_s: f64,
    /// Paths interned by `Topology::new`.
    pub paths: u64,
    /// Seconds in `scenario::drive` for the fleets the adapter wrapped.
    pub drive_s: f64,
    /// Messages sent in the wrapped fleets' drives.
    pub wrapped_sent: u64,
    /// Messages delivered in the wrapped fleets' drives.
    pub wrapped_delivered: u64,
    /// BW Maximal-Consistency firings (registry count).
    pub mc_firings: u64,
    /// BW FIFO-Receive-All marks (registry count).
    pub fra_marks: u64,
    /// BW witness completions (registry count).
    pub witness_completions: u64,
    /// Wall seconds summed over the traced cells.
    pub cell_s: f64,
}

impl Layers {
    /// Adds one traced fleet's measurements.
    pub fn add_run(&mut self, run: &TracedRun) {
        let stats = &run.outcome.sim_stats;
        if run.outcome.protocol == "byzantine-witness" {
            self.bw.add(&run.times);
            self.mc_firings += stats.protocol.mc_firings;
            self.fra_marks += stats.protocol.fra_marks;
            self.witness_completions += stats.protocol.witness_completions;
        } else {
            self.iter.add(&run.times);
        }
        self.adversary_ns += run.adversary_ns;
        self.precompute_s += run.precompute_s;
        self.paths += run.paths as u64;
        self.drive_s += run.drive_s;
        self.wrapped_sent += stats.messages_sent();
        self.wrapped_delivered += stats.messages_delivered();
        self.cell_s += run.wall_s;
    }
}

/// Checks a single run's outcome needs beyond [`checks::Expect`].
pub type ExtraChecks = fn(&Outcome) -> Vec<&'static str>;

/// A single-scenario op from its outcome (or error).
#[must_use]
pub fn single_op(
    label: &str,
    result: Result<&Outcome, &RunError>,
    wall_s: f64,
    expect: checks::Expect,
    extra: ExtraChecks,
) -> Op {
    match result {
        Ok(out) => {
            let mut failed = checks::outcome_failures(out, expect);
            failed.extend(extra(out));
            let identity = checks::run_identity(out);
            Op {
                wall_s,
                cells: vec![CellResult { label: label.to_string(), identity, failed, wall_s }],
                delivered: out.sim_stats.messages_delivered(),
                transport: out.sim_stats.transport.measured().copied(),
            }
        }
        Err(e) => {
            eprintln!("{label}: {e}");
            Op {
                wall_s,
                cells: vec![CellResult::error(label, wall_s)],
                delivered: 0,
                transport: None,
            }
        }
    }
}

/// A single-scenario traced op from its traced run (or error).
#[must_use]
pub fn single_traced(
    label: &str,
    run: Result<TracedRun, RunError>,
    wall_s: f64,
    expect: checks::Expect,
    extra: ExtraChecks,
) -> TracedOp {
    let mut layers = Layers::default();
    if let Ok(run) = &run {
        layers.add_run(run);
    }
    let label = format!("{label}/traced");
    let op = single_op(&label, run.as_ref().map(|r| &r.outcome), wall_s, expect, extra);
    TracedOp { op, layers }
}

/// `n` inputs drawn uniformly from `[lo, hi)` by a splitmix64 stream
/// seeded with `seed` — the only way the seed reaches the program's inputs
/// besides the delivery schedule.
#[must_use]
pub fn uniform_inputs(n: usize, seed: u64, (lo, hi): (f64, f64)) -> Vec<f64> {
    let mut state = seed ^ 0x6a09_e667_f3bc_c908;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}
