//! # dbac-sim
//!
//! Asynchronous message-passing runtimes for the `dbac` workspace.
//!
//! The paper's system model (Section 2): reliable directed links, unbounded
//! but finite message delays, event-driven nodes, up to `f` Byzantine
//! nodes. Three interchangeable runtimes realize the model:
//!
//! * [`sim::Simulation`] — a **deterministic discrete-event simulator**.
//!   Delivery times come from a pluggable [`scheduler::DeliveryPolicy`]
//!   (fixed, seeded-random, or adversarial per-edge delays — the latter is
//!   exactly what the Appendix-B impossibility construction needs). Runs
//!   are reproducible bit-for-bit from a seed, and can record a
//!   [`trace::Trace`] for the indistinguishability replay experiment.
//!   Pending deliveries sit in a calendar queue: a ring of 32 per-tick
//!   FIFO buckets for events due within 32 ticks of the last delivery,
//!   and a binary heap for everything later. Delivery follows
//!   `(delivery time, enqueue sequence)` exactly as a single heap would,
//!   at O(1) per event for delays the ring covers (`[1, 15]` random
//!   delays plus an 8-tick reorder window).
//! * [`threaded`] — a **thread-per-node runtime** over crossbeam channels,
//!   demonstrating that the protocol really is event-driven and
//!   order-insensitive under true OS-level concurrency.
//! * [`net`] — a **network runtime**: every message serialized through the
//!   length-prefixed binary codec ([`net::codec`]) and moved over framed,
//!   handshaken duplex connections ([`net::connection`]) — loopback TCP
//!   when the sandbox allows sockets, byte-real in-process pipes otherwise.
//!
//! All three honor the same optional [`chaos::LinkFaultPlan`] — a
//! seeded, per-edge fault schedule (drop / duplicate / reorder / corrupt /
//! partition / omit) whose every decision is a pure function of the plan,
//! so the fate of the k-th message on an edge is runtime-independent.
//!
//! All three drive the same [`process::Process`] state machines; Byzantine nodes
//! implement [`process::Adversary`] and may send arbitrary well-typed
//! messages over their own out-edges (links are authenticated, so a faulty
//! node cannot impersonate another sender — receivers always learn the true
//! edge a message arrived on).
//!
//! # Example
//!
//! ```
//! use dbac_graph::{generators, NodeId};
//! use dbac_sim::process::{Context, Process};
//! use dbac_sim::scheduler::FixedDelay;
//! use dbac_sim::sim::Simulation;
//!
//! // A node that floods a token once and counts what it hears.
//! struct Echo { heard: usize }
//! impl Process for Echo {
//!     type Message = u64;
//!     fn on_start(&mut self, ctx: &mut Context<u64>) {
//!         for w in ctx.out_neighbors().iter() {
//!             ctx.send(w, 7);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let g = generators::clique(3);
//! let mut sim = Simulation::new(g.into(), Box::new(FixedDelay::new(1)));
//! for v in 0..3 {
//!     sim.set_honest(NodeId::new(v), Echo { heard: 0 });
//! }
//! let stats = sim.run().expect("quiesces");
//! assert_eq!(stats.messages_delivered, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod net;
pub mod process;
mod queue;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod time;
pub mod trace;

pub use chaos::{EdgeCounters, LinkDecision, LinkFault, LinkFaultPlan};
pub use error::SimError;
pub use net::codec::{WireError, WireMessage};
pub use net::connection::TransportKind;
pub use net::{Net, NetConfig};
pub use process::{Adversary, Context, Process};
pub use scheduler::DeliveryPolicy;
pub use sim::{SimStats, Simulation};
pub use stats::{
    ClassCounters, Coverage, MsgClass, NodeCounters, ProtocolCounters, StatsHandle, StatsRegistry,
    StatsSnapshot, TransportSnapshot,
};
pub use threaded::{Incomplete, IncompleteReason, ThreadedReport};
pub use time::VirtualTime;
