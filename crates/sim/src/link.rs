//! The one send path every runtime shares.
//!
//! The paper's links are reliable, authenticated and directed; the chaos
//! layer ([`crate::chaos`]) lets a seeded plan break that on chosen edges.
//! A [`Link`] is one writer's side of the links it sends on — the
//! simulator's event loop, or one node thread of the threaded and network
//! runtimes. It owns the writer's per-edge message indices and stats
//! shard, takes the plan's verdict on each send and counts it, so every
//! runtime classifies, judges and counts a message the same way and keeps
//! only its own delivery step (the event queue, a channel, a byte stream).

use crate::chaos::{EdgeCounters, LinkDecision, LinkFaultPlan};
use crate::stats::{MsgClass, StatsHandle, StatsRegistry};
use dbac_graph::NodeId;
use std::sync::Arc;

/// Marks `registry` as fed by a runtime's transport and per-node gauges,
/// so its snapshots report them as measured.
pub(crate) fn observed(registry: Arc<StatsRegistry>) -> Arc<StatsRegistry> {
    registry.note_transport_observed();
    registry.note_nodes_observed();
    registry
}

/// One writer's send path: an optional fault plan, the per-edge message
/// indices it is judged under, and the writer's stats shard.
///
/// Each edge has exactly one sender, so a per-thread `Link` indexes the
/// messages of its edges exactly as the simulator's single `Link` does.
pub(crate) struct Link {
    plan: Option<Arc<LinkFaultPlan>>,
    edges: EdgeCounters,
    stats: StatsHandle,
}

impl Link {
    pub(crate) fn new(plan: Option<Arc<LinkFaultPlan>>, stats: StatsHandle) -> Link {
        Link { plan, edges: EdgeCounters::new(), stats }
    }

    /// Judges and counts one message of `class` on `from -> to`: records
    /// `sent`, then either `dropped`/`corrupted` when no copy survives,
    /// or `duplicated` per extra copy and one `enqueued` toward `to` per
    /// surviving copy. Without a plan no edge index is taken and the
    /// decision is [`LinkDecision::CLEAN`]. The caller delivers
    /// `copies` copies.
    #[inline]
    pub(crate) fn send(&mut self, class: MsgClass, from: NodeId, to: NodeId) -> LinkDecision {
        self.stats.record_sent(class);
        let decision = match self.plan.as_deref() {
            Some(plan) => plan.decide(from, to, self.edges.next(from, to)),
            None => LinkDecision::CLEAN,
        };
        if decision.copies == 0 {
            if decision.corrupted {
                self.stats.record_corrupted(class);
            } else {
                self.stats.record_dropped(class);
            }
            return decision;
        }
        for _ in 1..decision.copies {
            self.stats.record_duplicated(class);
        }
        for _ in 0..decision.copies {
            self.stats.record_enqueued(to.index());
        }
        decision
    }

    /// Counts one delivery of `class` consumed by `to`.
    #[inline]
    pub(crate) fn delivered(&self, class: MsgClass, to: NodeId) {
        self.stats.record_delivered(class);
        self.stats.record_consumed(to.index());
    }

    /// The writer's stats shard, for the gauges outside the send path.
    pub(crate) fn stats(&self) -> &StatsHandle {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkFault;
    use crate::stats::StatsSnapshot;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn registry(n: usize) -> Arc<StatsRegistry> {
        observed(StatsRegistry::new(n))
    }

    /// Drop, duplicate, corrupt and omit on a few edges of a 4-node net,
    /// plus one clean edge.
    fn plan() -> LinkFaultPlan {
        LinkFaultPlan::new(31)
            .fault(id(0), id(1), LinkFault::Drop { prob: 0.4 })
            .fault(id(0), id(1), LinkFault::Duplicate { prob: 0.5 })
            .fault(id(1), id(2), LinkFault::Corrupt { prob: 0.3 })
            .fault(id(1), id(2), LinkFault::Reorder { window: 6 })
            .fault(id(2), id(3), LinkFault::Omit)
            .fault(id(3), id(0), LinkFault::Duplicate { prob: 1.0 })
    }

    /// A fixed interleaving of sends over the faulted edges and a clean
    /// one, each with a class.
    fn sends() -> Vec<(MsgClass, NodeId, NodeId)> {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)];
        let classes = [MsgClass::Flood, MsgClass::Complete, MsgClass::Iter];
        (0..60)
            .map(|i| {
                let (u, v) = edges[(i * 7 + i / 5) % edges.len()];
                (classes[i % classes.len()], id(u), id(v))
            })
            .collect()
    }

    #[test]
    fn edge_indices_match_the_plan_decided_directly() {
        let plan = plan();
        let mut link = Link::new(Some(Arc::new(plan.clone())), registry(4).register());
        let mut next_k = std::collections::HashMap::new();
        for (class, from, to) in sends() {
            let k = next_k.entry((from, to)).or_insert(0u64);
            assert_eq!(link.send(class, from, to), plan.decide(from, to, *k), "{from}->{to} #{k}");
            *k += 1;
        }
    }

    #[test]
    fn counters_balance_the_ledger_and_gauge_surviving_copies() {
        let reg = registry(4);
        let mut link = Link::new(Some(Arc::new(plan())), reg.register());
        let mut copies_to = [0u64; 4];
        let mut in_flight = Vec::new();
        for (class, from, to) in sends() {
            let decision = link.send(class, from, to);
            copies_to[to.index()] += u64::from(decision.copies);
            for _ in 0..decision.copies {
                in_flight.push((class, to));
            }
        }
        // Deliver every other surviving copy; the rest stay undelivered.
        for &(class, to) in in_flight.iter().step_by(2) {
            link.delivered(class, to);
        }
        let snap: StatsSnapshot = reg.snapshot();
        let t = snap.transport.measured().expect("observed");
        let total = t.total();
        assert!(total.dropped > 0 && total.corrupted > 0 && total.duplicated > 0);
        for c in &t.by_class {
            assert_eq!(
                c.sent + c.duplicated,
                c.delivered + c.dropped + c.corrupted + c.rejected + c.undelivered()
            );
        }
        assert_eq!(total.sent, sends().len() as u64);
        assert_eq!(total.delivered, in_flight.len().div_ceil(2) as u64);
        assert_eq!(total.undelivered(), (in_flight.len() / 2) as u64);
        let nodes = snap.nodes.measured().expect("observed");
        let enqueued: Vec<u64> = nodes.iter().map(|n| n.enqueued).collect();
        assert_eq!(enqueued, copies_to, "one enqueued per surviving copy");
        assert_eq!(copies_to[3], 0, "the omitted edge enqueues nothing");
    }

    #[test]
    fn without_a_plan_every_decision_is_clean() {
        let reg = registry(4);
        let mut link = Link::new(None, reg.register());
        for (class, from, to) in sends() {
            assert_eq!(link.send(class, from, to), LinkDecision::CLEAN);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.messages_sent(), sends().len() as u64);
        assert_eq!(snap.messages_undelivered(), sends().len() as u64);
        assert_eq!(snap.messages_dropped() + snap.messages_duplicated(), 0);
    }
}
