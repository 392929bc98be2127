//! The timing [`Process`] adapter of the traced run.
//!
//! [`Timed`] wraps one honest process, forwards every call unchanged and
//! adds the wall time of each call to a per-node [`HandlerTimes`]. It
//! changes no message and no order, so a traced fleet must reproduce the
//! untraced run bit for bit; the workloads check that it does.
//! [`TimedAdversary`] does the same for Byzantine actors, so that their
//! handler time is not counted as event-loop time.

use dbac_graph::NodeId;
use dbac_sim::process::{Adversary, Context, Process};
use dbac_sim::stats::{MsgClass, MSG_CLASS_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Handler time and call counts of one node (or a sum over nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlerTimes {
    /// Time in `on_start`.
    pub start_ns: u64,
    /// Time in `on_message`, by the delivered message's [`MsgClass`]
    /// (FLOOD deliveries that fire an MC scan are counted in `mc_fire_*`
    /// instead).
    pub class_ns: [u64; MSG_CLASS_COUNT],
    /// Calls to `on_message`, indexed like `class_ns`.
    pub class_calls: [u64; MSG_CLASS_COUNT],
    /// Time in FLOOD deliveries whose sends include a COMPLETE: a
    /// Maximal-Consistency scan that fired, plus the gather and
    /// fingerprint of the witness payload (Algorithm 1, lines 8-12).
    pub mc_fire_ns: u64,
    /// Calls counted in `mc_fire_ns`.
    pub mc_fire_calls: u64,
    /// Time the adapter itself spends after FLOOD deliveries finding MC
    /// firings (draining and re-queuing the outbox). It is in no handler
    /// span, and is subtracted from the drive with the handler time so
    /// that it does not count as event-loop time either.
    pub adapter_ns: u64,
}

impl HandlerTimes {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &HandlerTimes) {
        self.start_ns += other.start_ns;
        for i in 0..MSG_CLASS_COUNT {
            self.class_ns[i] += other.class_ns[i];
            self.class_calls[i] += other.class_calls[i];
        }
        self.mc_fire_ns += other.mc_fire_ns;
        self.mc_fire_calls += other.mc_fire_calls;
        self.adapter_ns += other.adapter_ns;
    }

    /// Time in `on_message` for one class (FLOOD excludes MC firings).
    #[must_use]
    pub fn ns(&self, class: MsgClass) -> u64 {
        self.class_ns[class.index()]
    }

    /// `on_message` calls for one class (FLOOD excludes MC firings).
    #[must_use]
    pub fn calls(&self, class: MsgClass) -> u64 {
        self.class_calls[class.index()]
    }

    /// All handler time: start, every class, and MC firings (not the
    /// adapter's own time).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.start_ns + self.class_ns.iter().sum::<u64>() + self.mc_fire_ns
    }
}

/// A process whose calls are timed from outside.
pub struct Timed<P> {
    /// The wrapped process.
    pub inner: P,
    /// Time spent in the wrapped process's handlers.
    pub times: HandlerTimes,
}

impl<P> Timed<P> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: P) -> Self {
        Timed { inner, times: HandlerTimes::default() }
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(since: Instant) -> u64 {
    ns_between(since, Instant::now())
}

/// Whether the sends queued in `ctx` include a COMPLETE. `Context` offers
/// no peek, so the outbox is drained and re-queued in the same order.
fn sends_complete<P: Process>(ctx: &mut Context<P::Message>) -> bool {
    if ctx.pending() == 0 {
        return false;
    }
    let outbox = ctx.take_outbox();
    let fired = outbox.iter().any(|(_, m)| P::classify(m) == MsgClass::Complete);
    for (to, msg) in outbox {
        ctx.send(to, msg);
    }
    fired
}

impl<P: Process> Process for Timed<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<P::Message>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.times.start_ns += elapsed_ns(t);
    }

    fn on_message(&mut self, ctx: &mut Context<P::Message>, from: NodeId, msg: P::Message) {
        let class = P::classify(&msg);
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let done = Instant::now();
        let ns = ns_between(t, done);
        let fired = class == MsgClass::Flood && {
            let fired = sends_complete::<P>(ctx);
            self.times.adapter_ns += elapsed_ns(done);
            fired
        };
        if fired {
            self.times.mc_fire_ns += ns;
            self.times.mc_fire_calls += 1;
        } else {
            self.times.class_ns[class.index()] += ns;
            self.times.class_calls[class.index()] += 1;
        }
    }

    fn classify(msg: &P::Message) -> MsgClass {
        P::classify(msg)
    }
}

/// A Byzantine actor whose calls are timed from outside. `drive` consumes
/// adversaries and hands back only honest processes, so the time is added
/// to a shared counter instead of a field.
pub struct TimedAdversary<M> {
    inner: Box<dyn Adversary<M> + Send>,
    ns: Arc<AtomicU64>,
}

impl<M> TimedAdversary<M> {
    /// Wraps `inner`, adding its handler time to `ns`.
    pub fn new(inner: Box<dyn Adversary<M> + Send>, ns: Arc<AtomicU64>) -> Self {
        TimedAdversary { inner, ns }
    }
}

impl<M> Adversary<M> for TimedAdversary<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        // A statistic published to no other data: `Relaxed` suffices.
        self.ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
    }
}
