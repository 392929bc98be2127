//! `wmsr-circ256-crash`: the asynchronous W-MSR engine (Vaidya-Tseng-Liang)
//! on `circulant(256, {1,2,3,4,8,16,32,64})` with f = 1 and one crashed
//! node. Almost no precompute and cheap handlers, so the Sim event loop
//! dominates.

use super::{single_op, single_traced, uniform_inputs, Op, Setup, Size, TracedOp};
use crate::checks::{Expect, CERTIFIED};
use crate::fleet::traced_wmsr;
use dbac_baselines::IterativeTrimmedMean;
use dbac_core::scenario::{FaultKind, Outcome, Scenario, SchedulerSpec};
use dbac_graph::{generators, Digraph, NodeId};
use std::time::Instant;

const LABEL: &str = "wmsr-circ256-crash";
const EPSILON: f64 = 1e-6;
const RANGE: (f64, f64) = (0.0, 1.0);
/// The rule that certifies the circulant `(2, 2)`-robust.
const RULE: &str = "circulant-prefix";
const EXPECT: Expect = Expect { agreement: true, halving: false, nonincreasing: true };

/// The scenario and the protocol it runs.
pub struct Prepared {
    scenario: Scenario,
    protocol: IterativeTrimmedMean,
}

fn graph(size: Size) -> Digraph {
    match size {
        Size::Full => generators::circulant(256, &[1, 2, 3, 4, 8, 16, 32, 64]),
        Size::Tiny => generators::circulant(32, &[1, 2, 3, 4, 8, 16]),
    }
}

/// Rounds per run. The spread falls below ε in about 250 rounds; the rest
/// keeps one run near a second of event-loop work, long enough to time.
fn rounds(size: Size) -> usize {
    match size {
        Size::Full => 2500,
        Size::Tiny => 200,
    }
}

/// Graph generation, `ScenarioBuilder::build` and the robustness
/// certification, each timed as its own call. The engine's fleet
/// (`IterNode::new` per honest node, 82 MB of round buffers) is built by
/// `execute` and so is timed in `run_s`: timed here as well, it made
/// `setup_s` follow the host's memory speed, 2.4 ms in one ten-run set and
/// 4.1 ms in the next.
pub fn setup(seed: u64, size: Size) -> Result<Setup, String> {
    let t = Instant::now();
    let g = graph(size);
    let mut seconds = t.elapsed().as_secs_f64();
    let n = g.node_count();
    let protocol = IterativeTrimmedMean::with_rounds(rounds(size));
    let builder = Scenario::builder(g, 1)
        .inputs(uniform_inputs(n, seed, RANGE))
        .epsilon(EPSILON)
        .fault(NodeId::new(n - 1), FaultKind::Crash)
        .scheduler(SchedulerSpec::legacy_random(seed))
        .protocol(protocol);
    let t = Instant::now();
    let scenario = builder.build().map_err(|e| e.to_string())?;
    seconds += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let status = IterativeTrimmedMean::certification(&scenario);
    seconds += t.elapsed().as_secs_f64();
    if status.rule_label() != RULE {
        return Err(format!("topology not certified by {RULE}: {status}"));
    }
    Ok(Setup {
        prepared: super::Prepared::Wmsr(Box::new(Prepared { scenario, protocol })),
        seconds,
    })
}

/// The certificate check on top of the common ones.
fn certified(out: &Outcome) -> Vec<&'static str> {
    match &out.certification {
        Some(status) if status.rule_label() == RULE => Vec::new(),
        _ => vec![CERTIFIED],
    }
}

impl Prepared {
    pub(super) fn run(&self) -> Op {
        let t = Instant::now();
        let out = self.scenario.run();
        single_op(LABEL, out.as_ref(), t.elapsed().as_secs_f64(), EXPECT, certified)
    }

    pub(super) fn traced(&self) -> TracedOp {
        let t = Instant::now();
        let run = traced_wmsr(&self.scenario, &self.protocol);
        single_traced(LABEL, run, t.elapsed().as_secs_f64(), EXPECT, certified)
    }
}
