//! Network runtime: one event loop per node over framed byte streams.
//!
//! The third runtime of the workspace. Where [`crate::sim`] delivers
//! in-memory messages from a virtual-time queue and [`crate::threaded`]
//! clones them across crossbeam channels, this runtime **serializes every
//! message** through the length-prefixed binary codec
//! ([`codec::WireMessage`]) and moves the bytes over per-peer duplex
//! connections with a connect/accept handshake
//! ([`connection::establish`]) — loopback TCP when the sandbox allows
//! binding a socket, an in-process byte pipe otherwise. Either way the
//! codec and connection layers are byte-real: frames, size caps, decode
//! errors and handshake validation all actually run.
//!
//! Architecture per run:
//!
//! * one **duplex connection** per unordered node pair with at least one
//!   directed edge, established and handshaken sequentially before any
//!   node starts;
//! * one **reader thread** per connection end, pumping frames into the
//!   owning node's inbox; a frame that fails to decode is counted in
//!   [`StatsSnapshot::messages_rejected`](crate::stats::StatsSnapshot::messages_rejected)
//!   and skipped — a framing-level error (oversize prefix, truncation)
//!   closes that connection, and neither ever wedges the node's event
//!   loop;
//! * one **node thread** per node running the same
//!   [`Process`]/[`Adversary`] node loop as the threaded runtime, whose
//!   send path judges every message by the [`LinkFaultPlan`] under the
//!   same per-edge message index, so the fate of the k-th message on an
//!   edge is identical across all three runtimes; only the delivery step
//!   differs — encode once, write one frame per surviving copy;
//! * the **watchdog and straggler classification are shared** with the
//!   threaded runtime (`await_completion` / `join_and_classify`), so a
//!   partitioned or panicked node degrades into the same typed
//!   [`Incomplete`](crate::threaded::Incomplete) reports.

pub mod codec;
pub mod connection;

use crate::chaos::{LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::link::{observed, Link};
use crate::process::{Actor, Adversary, Process};
use crate::stats::{MsgClass, StatsHandle, StatsRegistry};
use crate::threaded::{await_completion, join_and_classify, node_loop, ThreadedReport, Watch};
use codec::{write_frame, FrameReader, WireMessage};
use connection::{establish, Duplex, TransportKind};
use crossbeam::channel::{unbounded, Receiver, Sender};
use dbac_graph::{Digraph, NodeId};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a network run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Wall-clock watchdog deadline: nodes still incomplete when it
    /// expires are reported per node, not errors.
    pub timeout: Duration,
    /// Byte transport selection (default: probe TCP, fall back to pipes).
    pub transport: TransportKind,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { timeout: Duration::from_secs(30), transport: TransportKind::Auto }
    }
}

/// A node's frame inbox: decoded messages tagged with their sender.
type Inbox<M> = Sender<(NodeId, M)>;
/// The receiving half a node thread drains.
type InboxRx<M> = Receiver<(NodeId, M)>;

/// A network execution: every node on its own thread, every message
/// through the wire codec and a framed duplex connection. Assign an actor
/// to every node, then [`run`](Net::run). The report type is shared with
/// the threaded runtime — both degrade identically.
pub struct Net<P: Process> {
    graph: Arc<Digraph>,
    actors: Vec<Option<Actor<P>>>,
    link_faults: Option<Arc<LinkFaultPlan>>,
    registry: Arc<StatsRegistry>,
}

impl<P> Net<P>
where
    P: Process + Send + 'static,
    P::Message: WireMessage + Send,
{
    /// Creates a network execution over `graph`.
    #[must_use]
    pub fn new(graph: Arc<Digraph>) -> Self {
        let n = graph.node_count();
        Net {
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

    /// Attaches a deterministic link-fault plan, interposed on every send
    /// (before serialization, through the same per-edge message-index
    /// function as the other runtimes).
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) -> &mut Self {
        self.link_faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a live stats registry in place of the run's private one:
    /// every node thread and every connection reader thread registers
    /// its own shard. Node threads count sends and deliveries (per
    /// message class via [`Process::classify`]) plus the per-node gauges;
    /// reader threads account undecodable frames as rejected.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.registry = observed(registry);
        self
    }

    /// Runs every node on its own thread until each honest node satisfies
    /// `done` or the watchdog deadline expires, then stops the network and
    /// hands back the shared per-node report.
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::Transport`] if a connection cannot be established or
    /// handshaken.
    pub fn run(
        mut self,
        done: impl Fn(&P) -> bool + Send + Sync + 'static,
        config: NetConfig,
    ) -> Result<ThreadedReport<P>, SimError> {
        if let Some(missing) = self.actors.iter().position(Option::is_none) {
            return Err(SimError::UnassignedNode { node: missing });
        }
        let n = self.graph.node_count();
        let honest_slots: Vec<bool> =
            self.actors.iter().map(|a| matches!(a, Some(Actor::Honest(_)))).collect();
        let honest_total = honest_slots.iter().filter(|h| **h).count();
        let kind = config.transport.resolve();

        let mut inbox_tx: Vec<Option<Inbox<P::Message>>> = Vec::with_capacity(n);
        let mut inbox_rx: Vec<Option<InboxRx<P::Message>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            inbox_tx.push(Some(tx));
            inbox_rx.push(Some(rx));
        }

        // Establish one handshaken duplex connection per unordered pair
        // with at least one directed edge, sequentially in this thread.
        let mut writers: Vec<Vec<Option<Box<dyn std::io::Write + Send>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut reader_specs: Vec<(NodeId, NodeId, Box<dyn Read + Send>)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `u < v` pair walk, indexing two rows at once
        for u in 0..n {
            for v in (u + 1)..n {
                let (u_id, v_id) = (NodeId::new(u), NodeId::new(v));
                if !self.graph.has_edge(u_id, v_id) && !self.graph.has_edge(v_id, u_id) {
                    continue;
                }
                let (u_end, v_end) = establish(kind, u_id, v_id)
                    .map_err(|e| SimError::Transport { detail: format!("{u_id}<->{v_id}: {e}") })?;
                let Duplex { reader: u_reader, writer: u_writer } = u_end;
                let Duplex { reader: v_reader, writer: v_writer } = v_end;
                writers[u][v] = Some(u_writer);
                writers[v][u] = Some(v_writer);
                // Node u hears v on u's end of the pair, and vice versa.
                reader_specs.push((u_id, v_id, u_reader));
                reader_specs.push((v_id, u_id, v_reader));
            }
        }

        let watch = Watch::new(done);
        let mut reader_handles = Vec::with_capacity(reader_specs.len());
        for (owner, from, reader) in reader_specs {
            let inbox = inbox_tx[owner.index()].as_ref().expect("sender alive").clone();
            let watch = Arc::clone(&watch);
            let stats = self.registry.register();
            reader_handles.push(std::thread::spawn(move || {
                pump_frames::<P::Message>(reader, from, &inbox, &watch.stop, &stats);
            }));
        }
        // Reader threads hold the only inbox senders from here on, so a
        // node whose connections all die sees Disconnected — starvation.
        drop(inbox_tx);

        let mut handles = Vec::with_capacity(n);
        for (i, rx_slot) in inbox_rx.iter_mut().enumerate() {
            let me = NodeId::new(i);
            let actor = self.actors[i].take().expect("checked above");
            let rx = rx_slot.take().expect("taken once");
            let graph = Arc::clone(&self.graph);
            let mut writers = std::mem::take(&mut writers[i]);
            let watch = Arc::clone(&watch);
            let link = Link::new(self.link_faults.clone(), self.registry.register());

            handles.push(std::thread::spawn(move || {
                let deliver = |to: NodeId, msg: P::Message, decision: LinkDecision| {
                    let body = msg.to_bytes();
                    let writer = writers[to.index()].as_mut().expect("edge has a connection");
                    for _ in 0..decision.copies {
                        // Peer may already have shut down; ignore.
                        let _ = write_frame(&mut **writer, &body);
                    }
                };
                node_loop(me, graph.out_neighbors(me), actor, &rx, link, &watch, deliver)
            }));
        }

        await_completion(&watch.done_count, honest_total, Instant::now() + config.timeout);
        watch.stop.store(true, Ordering::SeqCst);

        let (nodes, incomplete) = join_and_classify(handles, &honest_slots, &watch.done);
        // Node threads have dropped their writer halves; readers unblock
        // via their read timeout, observe the stop flag or EOF, and exit.
        for h in reader_handles {
            let _ = h.join();
        }
        Ok(ThreadedReport { nodes, incomplete, stats: self.registry.snapshot() })
    }
}

/// The per-connection reader loop: pulls frames, decodes, forwards into
/// the owner's inbox. Total by construction — an undecodable frame is
/// counted in
/// [`messages_rejected`](crate::stats::StatsSnapshot::messages_rejected)
/// and **skipped** (the loop keeps pumping), while a framing-level error
/// (oversize length prefix, mid-frame truncation) also counts once and
/// closes this connection. A Byzantine byte stream can therefore never
/// wedge the peer's event loop.
fn pump_frames<M: WireMessage>(
    reader: Box<dyn Read + Send>,
    from: NodeId,
    inbox: &Inbox<M>,
    stop: &AtomicBool,
    stats: &StatsHandle,
) {
    // Buffer socket reads so a burst of small frames costs one syscall,
    // not two per frame. `BufReader` passes the transport's `WouldBlock`
    // read timeouts straight through when its buffer is empty, so the
    // stop-flag polling in `read_frame` keeps working.
    let mut frames = FrameReader::new(std::io::BufReader::with_capacity(1 << 16, reader));
    let stopped = || stop.load(Ordering::SeqCst);
    loop {
        match frames.read_frame(&stopped) {
            Ok(Some(body)) => match M::from_bytes(&body) {
                // Owner may already have shut down; ignore.
                Ok(msg) => {
                    let _ = inbox.send((from, msg));
                }
                // A frame that fails to decode has no classifiable
                // payload; it lands in the `Other` bucket.
                Err(_) => stats.record_rejected(MsgClass::Other),
            },
            Ok(None) => break,
            Err(_) => {
                stats.record_rejected(MsgClass::Other);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkFault;
    use crate::process::{Context, Silent};
    use crate::threaded::{Incomplete, IncompleteReason};
    use codec::MAX_FRAME;
    use dbac_graph::generators;
    use std::io::Write;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn config(kind: TransportKind, timeout_ms: u64) -> NetConfig {
        NetConfig { timeout: Duration::from_millis(timeout_ms), transport: kind }
    }

    /// A one-shard registry for driving `pump_frames` directly.
    fn shard() -> (Arc<StatsRegistry>, StatsHandle) {
        let registry = observed(StatsRegistry::new(4));
        let handle = registry.register();
        (registry, handle)
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

    fn gossip_on(kind: TransportKind) {
        let g = Arc::new(generators::clique(4));
        let mut net = Net::new(g);
        for i in 0..4 {
            net.set_honest(id(i), Collect { expected: 3, input: i as u64, heard: Vec::new() });
        }
        let report = net.run(|p| p.heard.len() >= p.expected, config(kind, 10_000)).unwrap();
        assert!(report.incomplete.is_empty(), "{:?}", report.incomplete);
        assert_eq!(report.stats.messages_sent(), 12);
        assert!(report.stats.messages_delivered() >= 12);
        assert_eq!(report.stats.messages_rejected(), 0, "honest peers encode cleanly");
        for p in report.nodes.iter().flatten() {
            assert!(p.heard.len() >= 3);
        }
    }

    #[test]
    fn net_clique_gossip_completes_in_process() {
        gossip_on(TransportKind::InProcess);
    }

    #[test]
    fn net_clique_gossip_completes_auto() {
        gossip_on(TransportKind::Auto);
    }

    #[test]
    fn net_with_byzantine_silent() {
        let g = Arc::new(generators::clique(3));
        let mut net = Net::new(g);
        net.set_honest(id(0), Collect { expected: 1, input: 0, heard: Vec::new() });
        net.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        net.set_byzantine(id(2), Box::new(Silent));
        let report = net.run(|p| p.heard.len() >= p.expected, NetConfig::default()).unwrap();
        assert!(report.incomplete.is_empty());
        assert!(report.nodes[0].is_some() && report.nodes[1].is_some());
        assert!(report.nodes[2].is_none(), "byzantine slot returns no process");
    }

    #[test]
    fn net_timeout_degrades_to_per_node_reports() {
        let g = Arc::new(generators::clique(2));
        let mut net = Net::new(g);
        for i in 0..2 {
            net.set_honest(id(i), Collect { expected: 99, input: 0, heard: Vec::new() });
        }
        let report = net
            .run(|p| p.heard.len() >= p.expected, config(TransportKind::InProcess, 300))
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
    fn net_unassigned_node() {
        let g = Arc::new(generators::clique(2));
        let mut net: Net<Collect> = Net::new(g);
        net.set_honest(id(0), Collect { expected: 0, input: 0, heard: Vec::new() });
        let err = net.run(|_| true, NetConfig::default()).unwrap_err();
        assert_eq!(err, SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn net_omit_starves_only_the_cut_edge() {
        let g = Arc::new(generators::clique(3));
        let mut net = Net::new(g);
        for i in 0..3 {
            net.set_honest(id(i), Collect { expected: 2, input: i as u64, heard: Vec::new() });
        }
        net.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let report = net
            .run(|p| p.heard.len() >= p.expected, config(TransportKind::InProcess, 700))
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
    fn net_duplicate_doubles_the_edge() {
        let g = Arc::new(generators::clique(2));
        let mut net = Net::new(g);
        net.set_honest(id(0), Collect { expected: 1, input: 7, heard: Vec::new() });
        net.set_honest(id(1), Collect { expected: 2, input: 8, heard: Vec::new() });
        net.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let report = net
            .run(|p| p.heard.len() >= p.expected, config(TransportKind::InProcess, 5_000))
            .unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_duplicated(), 1);
        assert_eq!(report.nodes[1].as_ref().unwrap().heard, vec![7, 7]);
    }

    // -- adversarial byte streams never wedge the pump ---------------------

    #[test]
    fn pump_skips_undecodable_frames_and_keeps_going() {
        let (mut w, r) = connection::pipe();
        write_frame(&mut w, &7u64.to_le_bytes()).unwrap();
        write_frame(&mut w, b"garbage").unwrap(); // wrong length for u64
        write_frame(&mut w, &9u64.to_le_bytes()).unwrap();
        drop(w); // EOF ends the pump
        let (tx, rx) = unbounded();
        let stop = AtomicBool::new(false);
        let (registry, stats) = shard();
        pump_frames::<u64>(Box::new(r), id(3), &tx, &stop, &stats);
        let got: Vec<(NodeId, u64)> = rx.try_iter().collect();
        assert_eq!(got, vec![(id(3), 7), (id(3), 9)], "good frames flow past the bad one");
        assert_eq!(registry.snapshot().messages_rejected(), 1);
    }

    #[test]
    fn pump_closes_connection_on_framing_error() {
        let (mut w, r) = connection::pipe();
        write_frame(&mut w, &1u64.to_le_bytes()).unwrap();
        // A length prefix far beyond MAX_FRAME desynchronizes the stream.
        w.write_all(&(MAX_FRAME as u32 * 2).to_le_bytes()).unwrap();
        w.write_all(&2u64.to_le_bytes()).unwrap();
        let (tx, rx) = unbounded();
        let stop = AtomicBool::new(false);
        let (registry, stats) = shard();
        // The writer stays alive: the pump must exit via the framing
        // error, not EOF — that is exactly the no-wedge guarantee.
        pump_frames::<u64>(Box::new(r), id(0), &tx, &stop, &stats);
        let got: Vec<(NodeId, u64)> = rx.try_iter().collect();
        assert_eq!(got, vec![(id(0), 1)], "frames before the error were delivered");
        assert_eq!(registry.snapshot().messages_rejected(), 1);
        drop(w);
    }

    #[test]
    fn pump_survives_a_seeded_corrupt_prefix_corpus() {
        // Seeded corpus: random byte blobs framed as payloads plus raw
        // corrupt prefixes, in every case the pump terminates without
        // panicking and accounts each discarded frame.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..64 {
            let (mut w, r) = connection::pipe();
            let frames = (next() % 6) as usize;
            for _ in 0..frames {
                let len = (next() % 24) as usize;
                let body: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
                write_frame(&mut w, &body).unwrap();
            }
            // Tail: a corrupt raw prefix fragment, not a whole frame.
            let tail = (next() % 4) as usize;
            let junk: Vec<u8> = (0..tail).map(|_| (next() & 0xFF) as u8).collect();
            w.write_all(&junk).unwrap();
            drop(w);
            let (tx, rx) = unbounded();
            let stop = AtomicBool::new(false);
            let (registry, stats) = shard();
            pump_frames::<u64>(Box::new(r), id(1), &tx, &stop, &stats);
            let delivered = rx.try_iter().count() as u64;
            let rejected = registry.snapshot().messages_rejected();
            assert!(
                delivered + rejected <= frames as u64 + 1,
                "every frame is either delivered or rejected (plus at most \
                 one rejection for the corrupt tail)"
            );
        }
    }
}
