//! `sweep-small-mixed`: experiment plans of many short cells on small
//! catalog graphs where each protocol's condition holds, crossed with a
//! `links` axis of clean and duplicate+reorder links. Losses are left out
//! so that every cell must succeed. Time goes to per-cell set-up, the
//! `par_map` scheduler and the chaos link layer.
//!
//! Two plans, because a plan is a full cartesian product and the
//! complete-network baselines reject `figure_1a`:
//! - BW, AAD04 and the RBC probe on K4 and K5 with a constant liar;
//! - BW and `CrashTwoReach` on `figure_1a` with a crash.

use super::{uniform_inputs, CellResult, Layers, Op, Setup, Size, TracedOp};
use crate::checks::{self, Expect};
use crate::fleet::{traced_bw, TracedRun};
use dbac_baselines::{Aad04, ReliableBroadcastProbe};
use dbac_core::scenario::sweep::{Cell, CellSummary, ExperimentPlan, InputSpec, Sweep};
use dbac_core::scenario::{
    ByzantineWitness, ClassCounters, CrashTwoReach, FaultKind, LinkFault, LinkFaultPlan, Outcome,
    TransportSnapshot,
};
use dbac_graph::par::par_map;
use dbac_graph::{generators, Digraph, NodeId};
use std::time::Instant;

const EPSILON: f64 = 0.5;
const RANGE: (f64, f64) = (0.0, 10.0);
const LIAR_VALUE: f64 = 100.0;

/// The expanded plans.
pub struct Prepared {
    sweeps: Vec<Sweep>,
}

/// What a cell's protocol guarantees. The RBC probe is a one-shot
/// trimmed-agreement probe that by design guarantees validity only.
fn expect(protocol: Option<&str>) -> Expect {
    match protocol {
        Some("bw") => Expect { agreement: true, halving: true, nonincreasing: false },
        Some("rbc") => Expect::default(),
        _ => Expect { agreement: true, halving: false, nonincreasing: false },
    }
}

/// Every edge duplicates a quarter of its messages and delays each by up
/// to 8 extra ticks.
fn dup_reorder(g: &Digraph, seed: u64) -> Option<LinkFaultPlan> {
    let mut plan = LinkFaultPlan::new(seed);
    for u in g.nodes() {
        for v in g.out_neighbors(u).iter() {
            plan = plan.fault(u, v, LinkFault::Duplicate { prob: 0.25 }).fault(
                u,
                v,
                LinkFault::Reorder { window: 8 },
            );
        }
    }
    Some(plan)
}

fn last_node(g: &Digraph) -> NodeId {
    NodeId::new(g.node_count() - 1)
}

/// Graph generation and `ExperimentPlan::build`, each timed as its own
/// call.
pub fn setup(seed: u64, size: Size) -> Result<Setup, String> {
    let seeds_per_cell: u64 = match size {
        Size::Full => 12,
        Size::Tiny => 1,
    };
    let seeds: Vec<u64> =
        (0..seeds_per_cell).map(|i| seed.wrapping_mul(1000).wrapping_add(i)).collect();
    let inputs = InputSpec::from_fn(move |g| uniform_inputs(g.node_count(), seed, RANGE))
        .with_range(RANGE.0, RANGE.1);

    let t = Instant::now();
    let cliques = match size {
        Size::Full => vec![("K4", generators::clique(4)), ("K5", generators::clique(5))],
        Size::Tiny => vec![("K4", generators::clique(4))],
    };
    let fig1a = generators::figure_1a();
    let mut seconds = t.elapsed().as_secs_f64();

    let mut liar_plan = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .protocol("aad04", Aad04)
        .protocol("rbc", ReliableBroadcastProbe)
        .fault_bound(1)
        .placement("liar", |g, _| {
            vec![(last_node(g), FaultKind::ConstantLiar { value: LIAR_VALUE })]
        })
        .inputs("seeded", inputs.clone())
        .epsilon(EPSILON)
        .link_faults("clean", |_, _| None)
        .link_faults("dup-reorder", dup_reorder)
        .seeds(seeds.iter().copied());
    for (label, g) in cliques {
        liar_plan = liar_plan.graph(label, g);
    }
    let crash_plan = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .protocol("crash", CrashTwoReach::default())
        .graph("figure-1a", fig1a)
        .fault_bound(1)
        .placement("crash", |g, _| vec![(last_node(g), FaultKind::Crash)])
        .inputs("seeded", inputs)
        .epsilon(EPSILON)
        .link_faults("clean", |_, _| None)
        .link_faults("dup-reorder", dup_reorder)
        .seeds(seeds);

    let mut sweeps = Vec::new();
    for plan in [liar_plan, crash_plan] {
        let t = Instant::now();
        sweeps.push(plan.build()?);
        seconds += t.elapsed().as_secs_f64();
    }
    Ok(Setup { prepared: super::Prepared::Sweep(Prepared { sweeps }), seconds })
}

/// Adds `b` into `a`, class by class.
fn add_transport(a: &mut TransportSnapshot, b: &TransportSnapshot) {
    for (x, y) in a.by_class.iter_mut().zip(&b.by_class) {
        let ClassCounters { sent, delivered, dropped, duplicated, corrupted, rejected } = *y;
        x.sent += sent;
        x.delivered += delivered;
        x.dropped += dropped;
        x.duplicated += duplicated;
        x.corrupted += corrupted;
        x.rejected += rejected;
    }
}

fn digest_cell(label: &str, s: &CellSummary, failed: Vec<&'static str>, wall_s: f64) -> CellResult {
    CellResult { label: label.to_string(), identity: checks::cell_identity(s), failed, wall_s }
}

impl Prepared {
    /// Both sweeps through `Sweep::run`, as a user runs them.
    pub(super) fn run(&self) -> Op {
        let t = Instant::now();
        let reports: Vec<_> = self.sweeps.iter().map(Sweep::run).collect();
        let wall_s = t.elapsed().as_secs_f64();
        let mut cells = Vec::new();
        let mut delivered = 0;
        for row in reports.iter().flat_map(|r| &r.rows) {
            let cell_s = row.wall_ns / 1e9;
            cells.push(match &row.summary {
                Ok(s) => {
                    delivered += s.messages_delivered;
                    let failed = checks::summary_failures(s, expect(row.coord("protocol")));
                    digest_cell(&row.label, s, failed, cell_s)
                }
                Err(e) => {
                    eprintln!("{}: {e}", row.label);
                    CellResult::error(&row.label, cell_s)
                }
            });
        }
        Op { wall_s, cells, delivered, transport: None }
    }

    /// Every cell through `Scenario::run`, keeping the full outcome, so
    /// the ledger is checked and the digests can be compared with the
    /// untraced op's.
    pub(super) fn verify(&self) -> Op {
        self.pass(false).op
    }

    /// Every cell once more, BW cells as traced fleets.
    pub(super) fn traced(&self) -> TracedOp {
        self.pass(true)
    }

    /// Every cell on the `par_map` scheduler, one `par_map` per sweep in
    /// plan order as `Sweep::run` is called in [`Prepared::run`], so that
    /// a traced op schedules its cells the way an untraced one does. Keeps
    /// each full outcome.
    fn pass(&self, trace: bool) -> TracedOp {
        let t = Instant::now();
        let results: Vec<PassCell> = self
            .sweeps
            .iter()
            .flat_map(|sweep| par_map(sweep.cells(), |_, cell| pass_cell(cell, trace)))
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        let mut layers = Layers::default();
        let mut total = TransportSnapshot::default();
        let mut cells = Vec::with_capacity(results.len());
        for (cell, transport, traced) in results {
            match &traced {
                Some(run) => layers.add_run(run),
                None => layers.cell_s += cell.wall_s,
            }
            if let Some(t) = transport {
                add_transport(&mut total, &t);
            }
            cells.push(cell);
        }
        let delivered = total.total().delivered;
        TracedOp { op: Op { wall_s, cells, delivered, transport: Some(total) }, layers }
    }
}

/// One cell of a pass: its result, its transport counters and, for a
/// traced BW cell, the traced run.
type PassCell = (CellResult, Option<TransportSnapshot>, Option<TracedRun>);

/// Runs one cell. With `trace`, a BW cell runs as a traced fleet; other
/// cells run through `Scenario::run` with only their wall time taken.
fn pass_cell(cell: &Cell, trace: bool) -> PassCell {
    let start = Instant::now();
    let protocol = cell.coord("protocol");
    let Some(scenario) = cell.scenario() else {
        return (CellResult::error(cell.label(), 0.0), None, None);
    };
    let ran = if trace && protocol == Some("bw") {
        traced_bw(scenario, &ByzantineWitness::default()).map(Ran::Traced)
    } else {
        scenario.run().map(Ran::Plain)
    };
    let wall_s = start.elapsed().as_secs_f64();
    match ran {
        Ok(ran) => {
            let out = ran.outcome();
            let failed = checks::outcome_failures(out, expect(protocol));
            let result = digest_cell(cell.label(), &CellSummary::digest(out), failed, wall_s);
            let transport = out.sim_stats.transport.measured().copied();
            let traced = match ran {
                Ran::Traced(run) => Some(run),
                Ran::Plain(_) => None,
            };
            (result, transport, traced)
        }
        Err(e) => {
            eprintln!("{}: {e}", cell.label());
            (CellResult::error(cell.label(), wall_s), None, None)
        }
    }
}

/// A traced cell's run: a wrapped BW fleet, or a plain scenario run.
enum Ran {
    Traced(TracedRun),
    Plain(Outcome),
}

impl Ran {
    fn outcome(&self) -> &Outcome {
        match self {
            Ran::Traced(run) => &run.outcome,
            Ran::Plain(out) => out,
        }
    }
}
