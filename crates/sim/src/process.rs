//! Node behaviours: honest [`Process`] state machines and Byzantine
//! [`Adversary`] strategies, plus the [`Context`] through which both send.

use crate::stats::MsgClass;
use dbac_graph::{NodeId, NodeSet};

/// An event-driven honest node, matching the paper's model: nodes react to
/// message arrivals (and one initial activation) by updating local state
/// and sending messages over their outgoing edges.
pub trait Process {
    /// The wire message type.
    type Message: Clone + Send + 'static;

    /// Invoked once before any delivery (the paper's "flood your input at
    /// the start of the round").
    fn on_start(&mut self, ctx: &mut Context<Self::Message>);

    /// Invoked on each delivered message. `from` is the authenticated
    /// sender — the actual tail of the edge the message arrived on.
    fn on_message(&mut self, ctx: &mut Context<Self::Message>, from: NodeId, msg: Self::Message);

    /// Buckets a wire message for the live stats registry
    /// ([`crate::stats::StatsRegistry`]). Runtimes call this at each
    /// send/delivery so transport counters can be kept per message
    /// class. The default lumps everything into [`MsgClass::Other`];
    /// protocols override it to split their traffic.
    #[must_use]
    fn classify(_msg: &Self::Message) -> MsgClass {
        MsgClass::Other
    }
}

/// A Byzantine node. It sees exactly what an honest node would see, but may
/// send *any* well-typed messages over its own out-edges — including
/// fabricated protocol messages. It cannot forge the link a message arrives
/// on (links are authenticated) and cannot affect scheduling (delays belong
/// to the [`DeliveryPolicy`](crate::scheduler::DeliveryPolicy)).
pub trait Adversary<M> {
    /// Invoked once at start, like [`Process::on_start`].
    fn on_start(&mut self, ctx: &mut Context<M>);

    /// Invoked on each delivered message.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);
}

/// What a runtime runs at one node: an honest process or a Byzantine
/// adversary speaking the same message type.
pub(crate) enum Actor<P: Process> {
    Honest(P),
    Byzantine(Box<dyn Adversary<P::Message> + Send>),
}

impl<P: Process> Actor<P> {
    /// The initial activation.
    pub(crate) fn start(&mut self, ctx: &mut Context<P::Message>) {
        match self {
            Actor::Honest(p) => p.on_start(ctx),
            Actor::Byzantine(a) => a.on_start(ctx),
        }
    }

    /// One delivery from the authenticated sender `from`.
    pub(crate) fn deliver(&mut self, ctx: &mut Context<P::Message>, from: NodeId, msg: P::Message) {
        match self {
            Actor::Honest(p) => p.on_message(ctx, from, msg),
            Actor::Byzantine(a) => a.on_message(ctx, from, msg),
        }
    }

    /// The honest process, if this is one.
    pub(crate) fn honest(&self) -> Option<&P> {
        match self {
            Actor::Honest(p) => Some(p),
            Actor::Byzantine(_) => None,
        }
    }

    /// The final honest state; `None` for a Byzantine slot.
    pub(crate) fn into_honest(self) -> Option<P> {
        match self {
            Actor::Honest(p) => Some(p),
            Actor::Byzantine(_) => None,
        }
    }
}

/// A crashed / completely silent node — the weakest Byzantine behaviour,
/// used both as a crash-fault model and in the Appendix-B construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Silent;

impl<M> Adversary<M> for Silent {
    fn on_start(&mut self, _ctx: &mut Context<M>) {}
    fn on_message(&mut self, _ctx: &mut Context<M>, _from: NodeId, _msg: M) {}
}

/// The sending surface handed to processes and adversaries.
///
/// Sends are restricted to the node's outgoing edges; attempting to send
/// elsewhere panics — it would violate the system model, so it is treated
/// as a programming error rather than a runtime condition.
#[derive(Debug)]
pub struct Context<M> {
    me: NodeId,
    out_neighbors: NodeSet,
    outbox: Vec<(NodeId, M)>,
}

impl<M> Context<M> {
    /// Creates a context for node `me` with the given out-neighborhood.
    /// Runtimes construct one per activation.
    #[must_use]
    pub fn new(me: NodeId, out_neighbors: NodeSet) -> Self {
        Context { me, out_neighbors, outbox: Vec::new() }
    }

    /// The node this context belongs to.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The node's outgoing neighborhood `N⁺`.
    #[must_use]
    pub fn out_neighbors(&self) -> NodeSet {
        self.out_neighbors
    }

    /// Queues `msg` for delivery to the out-neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if `(me, to)` is not an edge of the network — the model only
    /// permits transmission along existing directed links.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.out_neighbors.contains(to),
            "{} attempted to send to non-neighbor {}",
            self.me,
            to
        );
        self.outbox.push((to, msg));
    }

    /// Sends a clone of `msg` to every out-neighbor (local broadcast).
    pub fn broadcast(&mut self, msg: &M)
    where
        M: Clone,
    {
        for w in self.out_neighbors.iter() {
            self.outbox.push((w, msg.clone()));
        }
    }

    /// Drains the queued sends (runtime-internal).
    pub fn take_outbox(&mut self) -> Vec<(NodeId, M)> {
        std::mem::take(&mut self.outbox)
    }

    /// Number of queued sends.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context<u32> {
        let neigh: NodeSet = [NodeId::new(1), NodeId::new(2)].into_iter().collect();
        Context::new(NodeId::new(0), neigh)
    }

    #[test]
    fn send_to_neighbor_queues() {
        let mut c = ctx();
        c.send(NodeId::new(1), 42);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.take_outbox(), vec![(NodeId::new(1), 42)]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_non_neighbor_panics() {
        let mut c = ctx();
        c.send(NodeId::new(3), 42);
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let mut c = ctx();
        c.broadcast(&7);
        let out = c.take_outbox();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&(NodeId::new(1), 7)));
        assert!(out.contains(&(NodeId::new(2), 7)));
    }

    #[test]
    fn silent_adversary_sends_nothing() {
        let mut s = Silent;
        let mut c = ctx();
        Adversary::<u32>::on_start(&mut s, &mut c);
        s.on_message(&mut c, NodeId::new(1), 3);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn accessors() {
        let c = ctx();
        assert_eq!(c.me(), NodeId::new(0));
        assert_eq!(c.out_neighbors().len(), 2);
    }
}
