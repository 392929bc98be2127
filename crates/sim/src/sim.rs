//! The deterministic discrete-event simulator.

use crate::chaos::{EdgeCounters, LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::process::{Adversary, Context, Process};
use crate::queue::EventQueue;
use crate::scheduler::DeliveryPolicy;
use crate::stats::{StatsHandle, StatsRegistry};
use crate::time::VirtualTime;
use crate::trace::Trace;
use dbac_graph::{Digraph, NodeId};
use std::sync::Arc;

/// Counters describing a finished (or aborted) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the delivery queue.
    pub messages_sent: u64,
    /// Messages delivered to a recipient's handler.
    pub messages_delivered: u64,
    /// Messages still queued past the horizon when the run stopped
    /// (non-zero only with adversarial far-future delays).
    pub messages_undelivered: u64,
    /// Messages destroyed by a link-fault plan (drop, partition, omit).
    pub messages_dropped: u64,
    /// Extra copies injected by a link-fault plan's duplication faults.
    pub messages_duplicated: u64,
    /// Messages damaged in flight by a link-fault plan and discarded on
    /// receipt (counted separately from clean drops).
    pub messages_corrupted: u64,
    /// Frames that arrived over a real byte stream but failed to decode
    /// and were discarded by the receiver ([`Runtime::Net`]-only — the
    /// in-process runtimes never serialize, so this stays zero there).
    ///
    /// [`Runtime::Net`]: https://docs.rs/dbac/latest/dbac/scenario/enum.Runtime.html
    pub messages_rejected: u64,
    /// Virtual time of the last delivery.
    pub final_time: VirtualTime,
}

enum Actor<P: Process> {
    Honest(P),
    Byzantine(Box<dyn Adversary<P::Message> + Send>),
}

/// A deterministic event-driven run of one protocol instance over a fixed
/// directed network.
///
/// Construction: [`Simulation::new`], then assign an actor to **every**
/// node with [`set_honest`](Simulation::set_honest) /
/// [`set_byzantine`](Simulation::set_byzantine), then [`run`](Simulation::run).
///
/// Determinism: events are ordered by `(delivery time, enqueue sequence)`;
/// with a deterministic [`DeliveryPolicy`] the entire execution — including
/// every adversarial interleaving decision — is a pure function of the
/// configuration.
///
/// Event queue: a calendar ring of 32 per-tick FIFO buckets covering the
/// ticks from the last delivery onward, plus a binary heap for events
/// due later (long random delays, [`EdgeDelay`] overrides,
/// [`VirtualTime::FAR_FUTURE`]). A bucket is already in enqueue order,
/// so each delivery takes the smaller of the ring's earliest head and the
/// heap's minimum — the same `(delivery time, enqueue sequence)` order a
/// single heap gives, at O(1) per event for the common short delays. The
/// width covers `[1, 15]`-tick random delays plus an 8-tick reorder
/// window and keeps the bucket occupancy mask in one 32-bit word.
///
/// [`EdgeDelay`]: crate::scheduler::EdgeDelay
pub struct Simulation<P: Process> {
    graph: Arc<Digraph>,
    actors: Vec<Option<Actor<P>>>,
    policy: Box<dyn DeliveryPolicy + Send>,
    queue: EventQueue<P::Message>,
    now: VirtualTime,
    stats: SimStats,
    max_events: u64,
    horizon: VirtualTime,
    trace: Option<Trace<P::Message>>,
    chaos: Option<(LinkFaultPlan, EdgeCounters)>,
    registry: Option<(Arc<StatsRegistry>, StatsHandle)>,
}

impl<P: Process> Simulation<P> {
    /// Creates a simulation over `graph` with the given delivery policy.
    #[must_use]
    pub fn new(graph: Arc<Digraph>, policy: Box<dyn DeliveryPolicy + Send>) -> Self {
        let n = graph.node_count();
        Simulation {
            graph,
            actors: (0..n).map(|_| None).collect(),
            policy,
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            stats: SimStats::default(),
            max_events: 50_000_000,
            horizon: VirtualTime::FAR_FUTURE,
            trace: None,
            chaos: None,
            registry: None,
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

    /// Caps the number of deliveries before the run aborts with
    /// [`SimError::EventBudgetExhausted`] (default: 5·10⁷).
    pub fn set_max_events(&mut self, max_events: u64) -> &mut Self {
        self.max_events = max_events;
        self
    }

    /// Stops delivering events scheduled after `horizon`; remaining events
    /// are counted in [`SimStats::messages_undelivered`]. Models "delayed
    /// past the decision point" (Appendix B).
    pub fn set_horizon(&mut self, horizon: VirtualTime) -> &mut Self {
        self.horizon = horizon;
        self
    }

    /// Attaches a deterministic link-fault plan: every outgoing message is
    /// judged by [`LinkFaultPlan::decide`] under a per-edge message index
    /// before it reaches the delivery queue.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) -> &mut Self {
        self.chaos = Some((plan, EdgeCounters::new()));
        self
    }

    /// Attaches a live stats registry. The single-threaded event loop
    /// registers one shard and mirrors every [`SimStats`] increment into
    /// it (bucketed per message class via [`Process::classify`]), so the
    /// registry's merged snapshot agrees with the returned `SimStats`
    /// totals message-for-message.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        registry.note_transport_observed();
        registry.note_nodes_observed();
        let handle = registry.register();
        self.registry = Some((registry, handle));
        self
    }

    /// Enables trace recording of every delivery.
    pub fn record_trace(&mut self) -> &mut Self {
        self.trace = Some(Trace::new());
        self
    }

    /// The recorded trace, if [`record_trace`](Simulation::record_trace)
    /// was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace<P::Message>> {
        self.trace.as_ref()
    }

    /// The network.
    #[must_use]
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// Shared handle to the network.
    #[must_use]
    pub fn graph_arc(&self) -> Arc<Digraph> {
        Arc::clone(&self.graph)
    }

    /// Immutable access to the honest process at `v` (e.g. to read its
    /// output after the run). Returns `None` for Byzantine nodes.
    #[must_use]
    pub fn honest(&self, v: NodeId) -> Option<&P> {
        match self.actors[v.index()] {
            Some(Actor::Honest(ref p)) => Some(p),
            _ => None,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Runs `on_start` everywhere, then delivers events in order until
    /// quiescence (or the horizon / event budget).
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::EventBudgetExhausted`] if the budget runs out.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        if let Some(missing) = self.actors.iter().position(Option::is_none) {
            return Err(SimError::UnassignedNode { node: missing });
        }
        // Start phase.
        for i in 0..self.actors.len() {
            let v = NodeId::new(i);
            let mut ctx = Context::new(v, self.graph.out_neighbors(v));
            match self.actors[i].as_mut().expect("checked above") {
                Actor::Honest(p) => p.on_start(&mut ctx),
                Actor::Byzantine(a) => a.on_start(&mut ctx),
            }
            self.dispatch(v, &mut ctx);
        }
        // Delivery loop.
        while let Some(ev) = self.queue.pop_due(self.horizon) {
            if self.stats.messages_delivered >= self.max_events {
                return Err(SimError::EventBudgetExhausted {
                    delivered: self.stats.messages_delivered,
                });
            }
            self.now = ev.at;
            self.stats.messages_delivered += 1;
            self.stats.final_time = ev.at;
            if let Some((registry, handle)) = self.registry.as_ref() {
                handle.record_delivered(P::classify(&ev.msg));
                handle.record_consumed(ev.to.index());
                registry.record_virtual_time(ev.at.ticks());
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.record(ev.at, ev.from, ev.to, ev.msg.clone());
            }
            let mut ctx = Context::new(ev.to, self.graph.out_neighbors(ev.to));
            match self.actors[ev.to.index()].as_mut().expect("checked above") {
                Actor::Honest(p) => p.on_message(&mut ctx, ev.from, ev.msg),
                Actor::Byzantine(a) => a.on_message(&mut ctx, ev.from, ev.msg),
            }
            let sender = ev.to;
            self.dispatch(sender, &mut ctx);
        }
        self.stats.messages_undelivered = self.queue.len() as u64;
        Ok(self.stats)
    }

    fn dispatch(&mut self, from: NodeId, ctx: &mut Context<P::Message>) {
        for (to, msg) in ctx.take_outbox() {
            self.stats.messages_sent += 1;
            let class = P::classify(&msg);
            if let Some((_, handle)) = self.registry.as_ref() {
                handle.record_sent(class);
            }
            let decision = match self.chaos.as_mut() {
                Some((plan, counters)) => {
                    let k = counters.next(from, to);
                    plan.decide(from, to, k)
                }
                None => LinkDecision::CLEAN,
            };
            if decision.copies == 0 {
                // Destroyed messages must not advance the delivery policy's
                // RNG stream — that keeps clean edges bit-identical whether
                // or not a plan is attached.
                if decision.corrupted {
                    self.stats.messages_corrupted += 1;
                } else {
                    self.stats.messages_dropped += 1;
                }
                if let Some((_, handle)) = self.registry.as_ref() {
                    if decision.corrupted {
                        handle.record_corrupted(class);
                    } else {
                        handle.record_dropped(class);
                    }
                }
                continue;
            }
            if let Some((_, handle)) = self.registry.as_ref() {
                for _ in 0..decision.copies {
                    handle.record_enqueued(to.index());
                }
                for _ in 1..decision.copies {
                    handle.record_duplicated(class);
                }
            }
            for _ in 1..decision.copies {
                self.stats.messages_duplicated += 1;
                let at = self.arrival(from, to, decision.extra_delay);
                self.queue.push(at, from, to, msg.clone());
            }
            let at = self.arrival(from, to, decision.extra_delay);
            self.queue.push(at, from, to, msg);
        }
    }

    /// One delivery-policy draw for a surviving copy, clamped to `now` and
    /// shifted by the plan's reorder delay.
    fn arrival(&mut self, from: NodeId, to: NodeId, extra: u64) -> VirtualTime {
        let mut at = self.policy.delivery_time(self.now, from, to);
        if at < self.now {
            at = self.now;
        }
        VirtualTime::new(at.ticks().saturating_add(extra))
    }
}

impl<P: Process> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.graph.node_count())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Silent;
    use crate::scheduler::{EdgeDelay, FixedDelay, RandomDelay};
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Floods a counter value; each node remembers everything it heard.
    struct Gossip {
        input: u64,
        heard: Vec<(NodeId, u64)>,
    }

    impl Process for Gossip {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&self.input);
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, from: NodeId, msg: u64) {
            self.heard.push((from, msg));
        }
    }

    fn gossip_sim(n: usize, policy: Box<dyn DeliveryPolicy + Send>) -> Simulation<Gossip> {
        let g = Arc::new(generators::clique(n));
        let mut sim = Simulation::new(g, policy);
        for i in 0..n {
            sim.set_honest(id(i), Gossip { input: i as u64 * 10, heard: Vec::new() });
        }
        sim
    }

    #[test]
    fn delivers_every_broadcast() {
        let mut sim = gossip_sim(4, Box::new(FixedDelay::new(1)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 12);
        assert_eq!(stats.messages_delivered, 12);
        assert_eq!(stats.messages_undelivered, 0);
        for i in 0..4 {
            let p = sim.honest(id(i)).unwrap();
            assert_eq!(p.heard.len(), 3);
        }
    }

    #[test]
    fn unassigned_node_is_an_error() {
        let g = Arc::new(generators::clique(2));
        let mut sim: Simulation<Gossip> = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 0, heard: Vec::new() });
        assert_eq!(sim.run().unwrap_err(), SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn deterministic_under_random_policy() {
        let run = |seed: u64| {
            let mut sim = gossip_sim(5, Box::new(RandomDelay::new(seed, 1, 9)));
            sim.record_trace();
            sim.run().unwrap();
            sim.trace().unwrap().clone()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds give different schedules");
    }

    #[test]
    fn horizon_holds_back_far_future_messages() {
        let g = Arc::new(generators::clique(2));
        let mut policy = EdgeDelay::new(Box::new(FixedDelay::new(1)));
        policy.delay_edge(id(0), id(1), VirtualTime::FAR_FUTURE.ticks());
        let mut sim = Simulation::new(g, Box::new(policy));
        sim.set_honest(id(0), Gossip { input: 1, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 2, heard: Vec::new() });
        sim.set_horizon(VirtualTime::new(1_000));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_delivered, 1, "only 1 -> 0 arrives");
        assert_eq!(stats.messages_undelivered, 1);
        assert!(sim.honest(id(1)).unwrap().heard.is_empty());
    }

    #[test]
    fn byzantine_silent_node_sends_nothing() {
        let g = Arc::new(generators::clique(3));
        let mut sim: Simulation<Gossip> = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 0, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 1, heard: Vec::new() });
        sim.set_byzantine(id(2), Box::new(Silent));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 4, "two honest broadcasts of two messages");
        assert_eq!(sim.honest(id(0)).unwrap().heard.len(), 1);
    }

    #[test]
    fn event_budget_enforced() {
        /// Two nodes ping-pong forever.
        struct PingPong;
        impl Process for PingPong {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(&0);
            }
            fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
                ctx.broadcast(&(msg + 1));
            }
        }
        let g = Arc::new(generators::clique(2));
        let mut sim = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), PingPong);
        sim.set_honest(id(1), PingPong);
        sim.set_max_events(100);
        assert!(matches!(sim.run().unwrap_err(), SimError::EventBudgetExhausted { .. }));
    }

    #[test]
    fn trace_records_deliveries_in_order() {
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(2)));
        sim.record_trace();
        sim.run().unwrap();
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 6);
        let times: Vec<u64> = trace.events().iter().map(|e| e.at.ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn stats_final_time_matches_last_delivery() {
        let mut sim = gossip_sim(2, Box::new(FixedDelay::new(7)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.final_time, VirtualTime::new(7));
        assert_eq!(sim.now(), VirtualTime::new(7));
    }

    #[test]
    fn omitted_edge_delivers_nothing() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 6);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 5);
        assert_eq!(sim.honest(id(1)).unwrap().heard.len(), 1, "only node 2's message arrives");
    }

    #[test]
    fn duplicated_edge_delivers_twice() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_duplicated, 1);
        assert_eq!(stats.messages_delivered, 7);
        assert_eq!(sim.honest(id(1)).unwrap().heard.len(), 3);
    }

    #[test]
    fn corruption_is_counted_apart_from_drops() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(
            LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Corrupt { prob: 1.0 }).fault(
                id(1),
                id(0),
                LinkFault::Drop { prob: 1.0 },
            ),
        );
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_corrupted, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 4);
    }

    #[test]
    fn zero_probability_plan_is_bit_identical_to_no_plan() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let run = |plan: Option<LinkFaultPlan>| {
            let mut sim = gossip_sim(4, Box::new(RandomDelay::new(11, 1, 9)));
            if let Some(plan) = plan {
                sim.set_link_faults(plan);
            }
            sim.record_trace();
            let stats = sim.run().unwrap();
            (stats, sim.trace().unwrap().clone())
        };
        let zero = LinkFaultPlan::new(99)
            .fault(id(0), id(1), LinkFault::Drop { prob: 0.0 })
            .fault(id(1), id(2), LinkFault::Duplicate { prob: 0.0 })
            .fault(id(2), id(3), LinkFault::Reorder { window: 0 });
        assert_eq!(run(None), run(Some(zero)));
    }

    /// Passes each token on for `hops` deliveries, one out-neighbour at a
    /// time, so a run keeps the queue busy over many ticks and wraps the
    /// ring repeatedly (unlike [`Gossip`], which only sends at start).
    struct Relay {
        hops: u64,
    }

    impl Process for Relay {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&(ctx.me().index() as u64 * 1_000));
        }
        fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
            if msg % 1_000 < self.hops {
                let out = ctx.out_neighbors();
                let to = out.iter().nth((msg as usize + from.index()) % out.len()).unwrap();
                ctx.send(to, msg + 1);
            }
        }
    }

    /// Order-sensitive digest of a delivery trace and its run's counters.
    fn digest(trace: &Trace<u64>, stats: &SimStats) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        for e in trace.events() {
            eat(e.at.ticks());
            eat(e.from.index() as u64);
            eat(e.to.index() as u64);
            eat(e.msg);
        }
        for word in [
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_undelivered,
            stats.messages_duplicated,
            stats.final_time.ticks(),
        ] {
            eat(word);
        }
        h
    }

    fn relay_sim(n: usize, policy: Box<dyn DeliveryPolicy + Send>) -> Simulation<Relay> {
        let g = Arc::new(generators::clique(n));
        let mut sim = Simulation::new(g, policy);
        for i in 0..n {
            sim.set_honest(id(i), Relay { hops: 40 });
        }
        sim.record_trace();
        sim
    }

    /// Golden delivery order under seeded random delays (some past the
    /// ring width) with duplicated and reordered links. The digest was
    /// recorded with a plain binary heap ordered by `(at, seq)`; any
    /// change to that order changes it.
    #[test]
    fn golden_random_delay_chaos_order() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = relay_sim(8, Box::new(RandomDelay::new(2024, 1, 40)));
        let mut plan = LinkFaultPlan::new(77);
        for u in 0..8 {
            plan = plan.fault(id(u), id((u + 1) % 8), LinkFault::Duplicate { prob: 0.3 }).fault(
                id(u),
                id((u + 3) % 8),
                LinkFault::Reorder { window: 8 },
            );
        }
        sim.set_link_faults(plan);
        let stats = sim.run().unwrap();
        assert!(stats.messages_duplicated > 0);
        assert_eq!(digest(sim.trace().unwrap(), &stats), 436_872_023_783_818_403);
    }

    /// Golden delivery order with per-edge overrides: one edge delayed to
    /// `FAR_FUTURE`, one by more than the ring width, and a horizon that
    /// leaves messages undelivered.
    #[test]
    fn golden_edge_delay_horizon_order() {
        let mut policy = EdgeDelay::new(Box::new(RandomDelay::new(5, 1, 15)));
        policy.delay_edge(id(0), id(1), VirtualTime::FAR_FUTURE.ticks());
        policy.delay_edge(id(2), id(3), 100);
        let mut sim = relay_sim(6, Box::new(policy));
        sim.set_horizon(VirtualTime::new(300));
        let stats = sim.run().unwrap();
        assert!(stats.messages_undelivered > 0);
        assert_eq!(digest(sim.trace().unwrap(), &stats), 8_997_002_762_011_270_694);
    }

    #[test]
    fn reorder_shifts_arrival_times() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let g = Arc::new(generators::clique(2));
        let mut sim = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 1, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 2, heard: Vec::new() });
        sim.set_link_faults(LinkFaultPlan::new(5).fault(
            id(0),
            id(1),
            LinkFault::Reorder { window: 40 },
        ));
        sim.record_trace();
        sim.run().unwrap();
        let late = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .any(|e| e.from == id(0) && e.to == id(1) && e.at > VirtualTime::new(1));
        assert!(late, "a 40-tick window should displace the 0 -> 1 delivery");
    }
}
