//! Thread-per-node runtime over crossbeam channels.
//!
//! The discrete-event simulator is the primary, deterministic runtime;
//! this runtime runs the *same* [`Process`] state machines under genuine
//! OS-level concurrency, with reliable unbounded channels standing in for
//! the paper's reliable asynchronous links. It demonstrates that the
//! protocol logic is event-driven and insensitive to real interleavings,
//! and it backs the crate's stress tests.
//!
//! Two production-shaped properties distinguish it from a toy harness:
//!
//! * **Graceful degradation.** A node that never completes — partitioned
//!   by a link-fault plan, starved, or panicked — does not abort the run.
//!   The watchdog deadline stops the network, every surviving node's final
//!   state is extracted, and the stragglers are reported per node in
//!   [`ThreadedReport::incomplete`] with a typed [`IncompleteReason`].
//! * **Chaos parity.** Every send goes through the same send path as the
//!   simulator's: an optional [`LinkFaultPlan`] judges it under the same
//!   per-edge message index, and the run's stats registry counts it, so
//!   the fate of the k-th message on an edge is identical in both
//!   runtimes. The node loop (`node_loop`) is shared with the network
//!   runtime; only the delivery step (jitter and a channel send per
//!   copy) belongs to this one.

use crate::chaos::{LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::link::{observed, Link};
use crate::process::{Actor, Adversary, Context, Process};
use crate::stats::{StatsRegistry, StatsSnapshot};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dbac_graph::{Digraph, NodeId, NodeSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Wall-clock watchdog deadline: nodes still incomplete when it expires
    /// are reported in [`ThreadedReport::incomplete`], not errors.
    pub timeout: Duration,
    /// Upper bound (exclusive) on the random per-send delay, in
    /// microseconds; 0 disables injected jitter.
    pub jitter_micros: u64,
    /// Seed for the per-thread jitter generators.
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { timeout: Duration::from_secs(30), jitter_micros: 50, seed: 0 }
    }
}

/// Why a node failed to complete within its watchdog deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IncompleteReason {
    /// The node was still running (not yet `done`) when the deadline fired.
    Timeout,
    /// The node's thread panicked; its state is unrecoverable.
    Panicked,
    /// The node's inbox disconnected before the run was stopped, so it
    /// could no longer make progress.
    Starved,
}

impl IncompleteReason {
    /// Short display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IncompleteReason::Timeout => "timeout",
            IncompleteReason::Panicked => "panicked",
            IncompleteReason::Starved => "starved",
        }
    }
}

/// One honest node that did not complete, with its reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incomplete {
    /// The straggler.
    pub node: NodeId,
    /// Why it never finished.
    pub reason: IncompleteReason,
}

/// The outcome of a threaded or network run: per-node final states,
/// per-node stragglers, and the run's stats.
#[derive(Debug)]
pub struct ThreadedReport<P> {
    /// Final process state per node: `None` for Byzantine slots and for
    /// honest nodes whose thread panicked. Honest nodes that merely timed
    /// out still surface their partial state here.
    pub nodes: Vec<Option<P>>,
    /// Honest nodes that failed to complete, in node order.
    pub incomplete: Vec<Incomplete>,
    /// The merged snapshot of the run's stats registry, taken after every
    /// thread has stopped (its virtual time is not observable — wall-clock
    /// runs have no virtual clock).
    pub stats: StatsSnapshot,
}

/// The run-wide state node threads share with the watchdog: the stop
/// flag, the count of honest nodes that reached `done`, and `done` itself.
pub(crate) struct Watch<F> {
    pub(crate) stop: AtomicBool,
    pub(crate) done_count: AtomicUsize,
    pub(crate) done: F,
}

impl<F> Watch<F> {
    pub(crate) fn new(done: F) -> Arc<Watch<F>> {
        Arc::new(Watch { stop: AtomicBool::new(false), done_count: AtomicUsize::new(0), done })
    }
}

/// Blocks until every honest node has reported completion or the watchdog
/// deadline expires — the shared degradation clock of the threaded and
/// network runtimes.
pub(crate) fn await_completion(done_count: &AtomicUsize, honest_total: usize, deadline: Instant) {
    loop {
        if done_count.load(Ordering::SeqCst) >= honest_total {
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Joins every node thread and classifies stragglers: a missing state is
/// [`IncompleteReason::Panicked`], an unfinished one is `Starved` or
/// `Timeout` depending on whether its inbox disconnected early. Shared by
/// the threaded and network runtimes so both degrade identically.
pub(crate) fn join_and_classify<P: Process>(
    handles: Vec<std::thread::JoinHandle<(Option<P>, bool)>>,
    honest_slots: &[bool],
    done: &dyn Fn(&P) -> bool,
) -> (Vec<Option<P>>, Vec<Incomplete>) {
    let mut nodes = Vec::with_capacity(handles.len());
    let mut incomplete = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        let node = NodeId::new(i);
        match h.join() {
            Ok((state, starved)) => {
                if honest_slots[i] {
                    let finished = state.as_ref().map(done).unwrap_or(false);
                    if !finished {
                        let reason = if starved {
                            IncompleteReason::Starved
                        } else {
                            IncompleteReason::Timeout
                        };
                        incomplete.push(Incomplete { node, reason });
                    }
                }
                nodes.push(state);
            }
            Err(_) => {
                if honest_slots[i] {
                    incomplete.push(Incomplete { node, reason: IncompleteReason::Panicked });
                }
                nodes.push(None);
            }
        }
    }
    (nodes, incomplete)
}

/// One node thread of the threaded and network runtimes: starts `actor`,
/// then delivers from `inbox` until the watchdog stops the run or the
/// inbox disconnects. Every send goes through `link`; each surviving
/// message is first held back by its `Reorder` delay (once per message,
/// however many copies survive — a sleep in this node's own thread), then
/// handed to `deliver` with its decision, which moves the
/// `decision.copies` copies toward their destination. Returns the final
/// honest state (`None` for a Byzantine slot) and whether the inbox
/// disconnected before the stop — starvation.
pub(crate) fn node_loop<P, F>(
    me: NodeId,
    out: NodeSet,
    mut actor: Actor<P>,
    inbox: &Receiver<(NodeId, P::Message)>,
    mut link: Link,
    watch: &Watch<F>,
    mut deliver: impl FnMut(NodeId, P::Message, LinkDecision),
) -> (Option<P>, bool)
where
    P: Process,
    F: Fn(&P) -> bool,
{
    let mut reported_done = false;
    let mut settle = |actor: &Actor<P>, ctx: &mut Context<P::Message>, link: &mut Link| {
        for (to, msg) in ctx.take_outbox() {
            let decision = link.send(P::classify(&msg), me, to);
            if decision.copies > 0 {
                if decision.extra_delay > 0 {
                    std::thread::sleep(Duration::from_micros(decision.extra_delay));
                }
                deliver(to, msg, decision);
            }
        }
        if !reported_done && actor.honest().is_some_and(&watch.done) {
            reported_done = true;
            watch.done_count.fetch_add(1, Ordering::SeqCst);
            link.stats().mark_done(me.index());
        }
    };

    let mut ctx = Context::new(me, out);
    actor.start(&mut ctx);
    settle(&actor, &mut ctx, &mut link);

    let mut starved = false;
    while !watch.stop.load(Ordering::SeqCst) {
        match inbox.recv_timeout(Duration::from_millis(1)) {
            Ok((from, msg)) => {
                link.delivered(P::classify(&msg), me);
                let mut ctx = Context::new(me, out);
                actor.deliver(&mut ctx, from, msg);
                settle(&actor, &mut ctx, &mut link);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                starved = !watch.stop.load(Ordering::SeqCst);
                break;
            }
        }
    }
    (actor.into_honest(), starved)
}

/// A thread-per-node execution. Assign an actor to every node, then
/// [`run`](Threaded::run).
pub struct Threaded<P: Process> {
    graph: Arc<Digraph>,
    actors: Vec<Option<Actor<P>>>,
    link_faults: Option<Arc<LinkFaultPlan>>,
    registry: Arc<StatsRegistry>,
}

impl<P> Threaded<P>
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    /// Creates a threaded execution over `graph`.
    #[must_use]
    pub fn new(graph: Arc<Digraph>) -> Self {
        let n = graph.node_count();
        Threaded {
            graph,
            actors: (0..n).map(|_| None).collect(),
            link_faults: None,
            registry: observed(StatsRegistry::new(n)),
        }
    }

    /// Assigns an honest process to `v`.
    pub fn set_honest(&mut self, v: NodeId, process: P) -> &mut Self {
        self.actors[v.index()] = Some(Actor::Honest(process));
        self
    }

    /// Assigns a Byzantine adversary to `v`.
    pub fn set_byzantine(
        &mut self,
        v: NodeId,
        adversary: Box<dyn Adversary<P::Message> + Send>,
    ) -> &mut Self {
        self.actors[v.index()] = Some(Actor::Byzantine(adversary));
        self
    }

    /// Attaches a deterministic link-fault plan, interposed on every send.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) -> &mut Self {
        self.link_faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a live stats registry in place of the run's private one:
    /// every node thread registers its own shard and counts its sends and
    /// deliveries in it (per message class via [`Process::classify`]),
    /// plus the per-node queue and done gauges. Snapshots taken from
    /// other threads while the run is live are safe and monotone.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.registry = observed(registry);
        self
    }

    /// Runs every node on its own thread until each honest node satisfies
    /// `done` (nodes keep relaying after finishing, so slower nodes are
    /// never starved) or the watchdog deadline expires, then stops the
    /// network and hands back a [`ThreadedReport`].
    ///
    /// Non-completion is data, not an error: a node that times out, is
    /// starved, or panics lands in [`ThreadedReport::incomplete`] while
    /// every other node's final state is still extracted.
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor.
    pub fn run(
        mut self,
        done: impl Fn(&P) -> bool + Send + Sync + 'static,
        config: ThreadedConfig,
    ) -> Result<ThreadedReport<P>, SimError> {
        if let Some(missing) = self.actors.iter().position(Option::is_none) {
            return Err(SimError::UnassignedNode { node: missing });
        }
        let n = self.graph.node_count();
        let honest_slots: Vec<bool> =
            self.actors.iter().map(|a| matches!(a, Some(Actor::Honest(_)))).collect();
        let honest_total = honest_slots.iter().filter(|h| **h).count();

        type Envelope<M> = (NodeId, M);
        let mut senders: Vec<Sender<Envelope<P::Message>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Option<Receiver<Envelope<P::Message>>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let watch = Watch::new(done);
        let mut handles = Vec::with_capacity(n);
        for (i, rx_slot) in receivers.iter_mut().enumerate() {
            let me = NodeId::new(i);
            let actor = self.actors[i].take().expect("checked above");
            let rx = rx_slot.take().expect("taken once");
            let graph = Arc::clone(&self.graph);
            let senders = senders.clone();
            let watch = Arc::clone(&watch);
            let link = Link::new(self.link_faults.clone(), self.registry.register());
            let jitter = config.jitter_micros;
            let mut rng = SmallRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));

            handles.push(std::thread::spawn(move || {
                let deliver = |to: NodeId, msg: P::Message, decision: LinkDecision| {
                    let mut send = |msg: P::Message| {
                        if jitter > 0 {
                            std::thread::sleep(Duration::from_micros(rng.gen_range(0..jitter)));
                        }
                        // Receiver may already have shut down; ignore.
                        let _ = senders[to.index()].send((me, msg));
                    };
                    for _ in 1..decision.copies {
                        send(msg.clone());
                    }
                    send(msg);
                };
                node_loop(me, graph.out_neighbors(me), actor, &rx, link, &watch, deliver)
            }));
        }

        // Watchdog: wait for completion or the deadline, then stop the
        // network — stragglers become per-node reports, never a run error.
        await_completion(&watch.done_count, honest_total, Instant::now() + config.timeout);
        watch.stop.store(true, Ordering::SeqCst);
        drop(senders);

        let (nodes, incomplete) = join_and_classify(handles, &honest_slots, &watch.done);
        Ok(ThreadedReport { nodes, incomplete, stats: self.registry.snapshot() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkFault;
    use crate::process::Silent;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Collects one value from every in-neighbor, then is done.
    #[derive(Debug)]
    struct Collect {
        expected: usize,
        input: u64,
        heard: Vec<u64>,
    }

    impl Process for Collect {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&self.input);
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
            self.heard.push(msg);
        }
    }

    #[test]
    fn threaded_clique_gossip_completes() {
        let g = Arc::new(generators::clique(4));
        let mut t = Threaded::new(g);
        for i in 0..4 {
            t.set_honest(id(i), Collect { expected: 3, input: i as u64, heard: Vec::new() });
        }
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_secs(10), jitter_micros: 20, seed: 1 },
            )
            .unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_sent(), 12);
        assert!(report.stats.messages_delivered() >= 12, "every broadcast reaches its target");
        for p in report.nodes.iter().flatten() {
            assert!(p.heard.len() >= 3);
        }
    }

    #[test]
    fn threaded_with_byzantine_silent() {
        let g = Arc::new(generators::clique(3));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 1, input: 0, heard: Vec::new() });
        t.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        t.set_byzantine(id(2), Box::new(Silent));
        let report = t.run(|p| p.heard.len() >= p.expected, ThreadedConfig::default()).unwrap();
        assert!(report.incomplete.is_empty());
        assert!(report.nodes[0].is_some() && report.nodes[1].is_some());
        assert!(report.nodes[2].is_none(), "byzantine slot returns no process");
    }

    #[test]
    fn threaded_timeout_degrades_to_per_node_reports() {
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        for i in 0..2 {
            t.set_honest(id(i), Collect { expected: 99, input: 0, heard: Vec::new() });
        }
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_millis(50), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert_eq!(
            report.incomplete,
            vec![
                Incomplete { node: id(0), reason: IncompleteReason::Timeout },
                Incomplete { node: id(1), reason: IncompleteReason::Timeout },
            ]
        );
        for p in report.nodes.iter() {
            let p = p.as_ref().expect("partial state survives a timeout");
            assert_eq!(p.heard.len(), 1, "one exchange still happened");
        }
    }

    #[test]
    fn threaded_unassigned_node() {
        let g = Arc::new(generators::clique(2));
        let mut t: Threaded<Collect> = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 0, input: 0, heard: Vec::new() });
        let err = t.run(|_| true, ThreadedConfig::default()).unwrap_err();
        assert_eq!(err, SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn threaded_panicked_node_is_reported_not_fatal() {
        /// Panics as soon as it hears anything.
        struct Grenade;
        impl Process for Grenade {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(&1);
            }
            fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
                panic!("boom");
            }
        }
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Grenade);
        t.set_honest(id(1), Grenade);
        let report = t
            .run(
                |_| false,
                ThreadedConfig { timeout: Duration::from_millis(200), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert_eq!(report.incomplete.len(), 2);
        assert!(report.incomplete.iter().all(|inc| inc.reason == IncompleteReason::Panicked));
        assert!(report.nodes.iter().all(Option::is_none));
    }

    #[test]
    fn threaded_omit_starves_only_the_cut_edge() {
        let g = Arc::new(generators::clique(3));
        let mut t = Threaded::new(g);
        for i in 0..3 {
            t.set_honest(id(i), Collect { expected: 2, input: i as u64, heard: Vec::new() });
        }
        t.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_millis(300), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert_eq!(
            report.incomplete,
            vec![Incomplete { node: id(1), reason: IncompleteReason::Timeout }],
            "only the node behind the cut edge misses its quota"
        );
        assert_eq!(report.stats.messages_dropped(), 1);
        assert_eq!(report.stats.messages_sent(), 6);
        let starved = report.nodes[1].as_ref().unwrap();
        assert_eq!(starved.heard.len(), 1, "node 2's message still arrives");
    }

    #[test]
    fn threaded_duplicate_doubles_the_edge() {
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 1, input: 7, heard: Vec::new() });
        t.set_honest(id(1), Collect { expected: 2, input: 8, heard: Vec::new() });
        t.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_secs(5), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_duplicated(), 1);
        assert_eq!(report.nodes[1].as_ref().unwrap().heard, vec![7, 7]);
    }
}
