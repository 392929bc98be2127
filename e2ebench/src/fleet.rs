//! Traced fleets: the process fleets `ByzantineWitness::execute` and
//! `IterativeTrimmedMean::execute` build, rebuilt here from public
//! constructors with every honest process wrapped in [`Timed`] and run
//! through `scenario::drive`. The untraced run of the same scenario is the
//! reference these must reproduce exactly.

use crate::timed::{HandlerTimes, Timed, TimedAdversary};
use dbac_baselines::iterative::IterStrategy;
use dbac_baselines::iterengine::{IterLiar, IterMsg, IterNode};
use dbac_baselines::IterativeTrimmedMean;
use dbac_core::config::ProtocolConfig;
use dbac_core::node::HonestNode;
use dbac_core::precompute::Topology;
use dbac_core::scenario::{
    drive, Adversaries, ByzantineWitness, FaultKind, Outcome, Protocol, Scenario,
};
use dbac_core::RunError;
use dbac_graph::NodeId;
use dbac_sim::process::{Adversary, Silent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One traced execution of a scenario.
pub struct TracedRun {
    /// The outcome, assembled exactly as the protocol's `execute` does.
    pub outcome: Outcome,
    /// Handler time summed over the honest nodes.
    pub times: HandlerTimes,
    /// Handler time summed over the Byzantine actors.
    pub adversary_ns: u64,
    /// Seconds in `Topology::new` (0 for W-MSR, which has no precompute).
    pub precompute_s: f64,
    /// Paths interned by the precompute (0 for W-MSR).
    pub paths: usize,
    /// Seconds in `scenario::drive`.
    pub drive_s: f64,
    /// Seconds for the whole traced execution: check, precompute, fleet
    /// build, drive and outcome assembly.
    pub wall_s: f64,
}

fn timed_adversary<M: 'static>(
    v: NodeId,
    inner: Box<dyn Adversary<M> + Send>,
    ns: &Arc<AtomicU64>,
) -> (NodeId, Box<dyn Adversary<M> + Send>) {
    (v, Box::new(TimedAdversary::new(inner, Arc::clone(ns))))
}

/// Algorithm BW's fleet, as `ByzantineWitness::execute` builds it.
///
/// # Errors
///
/// The protocol's check, the precompute's budget, or the runtime.
pub fn traced_bw(scenario: &Scenario, protocol: &ByzantineWitness) -> Result<TracedRun, RunError> {
    let start = Instant::now();
    protocol.check(scenario)?;
    let t = Instant::now();
    let topo = Arc::new(Topology::new(
        scenario.graph().clone(),
        scenario.f(),
        protocol.flood_mode,
        protocol.budget,
    )?);
    let precompute_s = t.elapsed().as_secs_f64();
    let mut config = ProtocolConfig::new(scenario.f(), scenario.epsilon(), scenario.range())
        .with_flood_mode(protocol.flood_mode);
    if let Some(r) = scenario.rounds_override() {
        config = config.with_rounds(r);
    }
    let registry = scenario.resolve_stats();
    let honest_set = scenario.honest_set();
    let honest: Vec<(NodeId, Timed<HonestNode>)> = honest_set
        .iter()
        .map(|v| {
            let node = HonestNode::new(Arc::clone(&topo), config, v, scenario.inputs()[v.index()])
                .with_stats(registry.register());
            (v, Timed::new(node))
        })
        .collect();
    let adversary_ns = Arc::new(AtomicU64::new(0));
    let byzantine: Adversaries<_> = scenario
        .faults()
        .iter()
        .map(|(v, kind)| {
            let kind = kind.adversary_kind().expect("checked by ByzantineWitness::check");
            let inner = kind.build(Arc::clone(&topo), *v, config.rounds);
            timed_adversary(*v, inner, &adversary_ns)
        })
        .collect();
    let n = scenario.graph().node_count();
    let mut outputs = vec![None; n];
    let mut histories = vec![None; n];
    let mut times = HandlerTimes::default();
    let t = Instant::now();
    let report = drive(
        scenario,
        &registry,
        honest,
        byzantine,
        |p: &Timed<HonestNode>| p.inner.is_done(),
        &mut |v, p| {
            outputs[v.index()] = p.inner.output();
            histories[v.index()] = Some(p.inner.x_history().to_vec());
            times.add(&p.times);
        },
    )?;
    let drive_s = t.elapsed().as_secs_f64();
    let outcome = Outcome {
        protocol: protocol.name(),
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon(),
        honest_input_range: scenario.honest_input_range(),
        rounds: config.rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages: None,
        trace: report.trace,
        certification: None,
    };
    Ok(TracedRun {
        outcome,
        times,
        adversary_ns: adversary_ns.load(Ordering::Relaxed),
        precompute_s,
        paths: topo.index().len(),
        drive_s,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// The W-MSR fleet, as `IterativeTrimmedMean::execute` builds it.
///
/// # Errors
///
/// The protocol's check or the runtime.
pub fn traced_wmsr(
    scenario: &Scenario,
    protocol: &IterativeTrimmedMean,
) -> Result<TracedRun, RunError> {
    let start = Instant::now();
    protocol.check(scenario)?;
    let g = scenario.graph();
    let n = g.node_count();
    let f = scenario.f();
    let rounds = scenario.rounds_override().unwrap_or(protocol.rounds as u32);
    let honest_set = scenario.honest_set();
    let honest: Vec<(NodeId, Timed<IterNode>)> = honest_set
        .iter()
        .map(|v| (v, Timed::new(IterNode::new(v, g, f, rounds, scenario.inputs()[v.index()]))))
        .collect();
    let adversary_ns = Arc::new(AtomicU64::new(0));
    let byzantine: Adversaries<_> = scenario
        .faults()
        .iter()
        .map(|(v, kind)| {
            let inner: Box<dyn Adversary<IterMsg> + Send> = match *kind {
                FaultKind::Crash => Box::new(Silent),
                FaultKind::ConstantLiar { value } => {
                    Box::new(IterLiar::new(IterStrategy::Constant(value), rounds))
                }
                FaultKind::Ramp { base, slope } => {
                    Box::new(IterLiar::new(IterStrategy::Ramp { base, slope }, rounds))
                }
                _ => unreachable!("checked by IterativeTrimmedMean::check"),
            };
            timed_adversary(*v, inner, &adversary_ns)
        })
        .collect();
    let registry = scenario.resolve_stats();
    let gauge = registry.register();
    let mut outputs = vec![None; n];
    let mut histories = vec![None; n];
    let mut honest_messages = 0u64;
    let mut times = HandlerTimes::default();
    let t = Instant::now();
    let report = drive(
        scenario,
        &registry,
        honest,
        byzantine,
        |p: &Timed<IterNode>| p.inner.is_done(),
        &mut |v, p| {
            let node = &p.inner;
            if node.is_done() {
                outputs[v.index()] = Some(node.value());
            }
            histories[v.index()] = Some(node.history().to_vec());
            honest_messages += node.sent;
            gauge.add_rounds_fired(u64::from(node.rounds_fired()));
            times.add(&p.times);
        },
    )?;
    let drive_s = t.elapsed().as_secs_f64();
    let outcome = Outcome {
        protocol: protocol.name(),
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon(),
        honest_input_range: scenario.honest_input_range(),
        rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages: Some(honest_messages),
        trace: report.trace,
        certification: Some(IterativeTrimmedMean::certification(scenario)),
    };
    Ok(TracedRun {
        outcome,
        times,
        adversary_ns: adversary_ns.load(Ordering::Relaxed),
        precompute_s: 0.0,
        paths: 0,
        drive_s,
        wall_s: start.elapsed().as_secs_f64(),
    })
}
