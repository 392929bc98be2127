//! The `dbacd` operator daemon: run a [`Scenario`] in a background
//! thread and serve its live [`StatsRegistry`] over a tiny
//! line-delimited JSON-over-TCP RPC.
//!
//! Protocol: the client sends one command per line — `stats`, `nodes`,
//! `progress` or `shutdown` — and receives exactly one JSON line back.
//! Responses:
//!
//! ```text
//! stats    → {"registry":{"sent":123,"delivered":120,...}}
//! nodes    → {"nodes":[{"node":0,"enqueued":9,"consumed":9,"queue_depth":0,"done":true},...]}
//! progress → {"running":true,"node_count":4,"nodes_done":1,"rounds_fired":12,"sent":123,"delivered":119}
//! shutdown → {"ok":true}          (stops the RPC listener, not the run)
//! ```
//!
//! Every reply is a [`crate::json::Value`]. The `stats` payload is
//! exactly the registry-snapshot schema ([`crate::json::registry`]) that
//! [`crate::trend::parse_registry_report`] reads and the bench-trend
//! gate compares, so a `stats.json` captured from a live daemon can be
//! diffed against a stored baseline with no translation step.
//!
//! The daemon never interrupts the scenario: `shutdown` (or
//! [`Daemon::join`]) tears down the listener while the run proceeds to
//! its natural outcome, whose `sim_stats` is bit-for-bit the final
//! registry snapshot.

use crate::json::{self, Value};
use dbac_core::error::RunError;
use dbac_core::scenario::{Outcome, Scenario, StatsRegistry, StatsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running scenario plus the RPC listener observing it.
pub struct Daemon {
    registry: Arc<StatsRegistry>,
    addr: SocketAddr,
    runner: JoinHandle<Result<Outcome, RunError>>,
    server: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
}

impl Daemon {
    /// Starts `scenario` in a background thread with a fresh attached
    /// registry (any registry already attached to the scenario is
    /// honored instead) and binds the RPC listener on a loopback
    /// ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures; scenario validation errors
    /// surface later, from [`Daemon::join`].
    pub fn spawn(scenario: Scenario) -> std::io::Result<Daemon> {
        let registry = scenario.resolve_stats();
        let scenario = scenario.with_stats(Arc::clone(&registry));
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));

        let run_finished = Arc::clone(&finished);
        let runner = std::thread::spawn(move || {
            let out = scenario.run();
            run_finished.store(true, Ordering::Release);
            out
        });

        let srv_registry = Arc::clone(&registry);
        let srv_stop = Arc::clone(&stop);
        let srv_finished = Arc::clone(&finished);
        let server = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if srv_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { break };
                // One client at a time: the RPC is a few bytes per line
                // and every handler is non-blocking on the run itself.
                serve_client(stream, &srv_registry, &srv_stop, &srv_finished);
                if srv_stop.load(Ordering::Acquire) {
                    break;
                }
            }
        });

        Ok(Daemon { registry, addr, runner, server, stop, finished })
    }

    /// The listener's address (loopback, ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the running scenario writes into — the same totals
    /// the RPC serves, for in-process observers.
    #[must_use]
    pub fn registry(&self) -> &Arc<StatsRegistry> {
        &self.registry
    }

    /// Whether the scenario thread has produced its outcome.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Waits for the scenario to finish, tears down the RPC listener,
    /// and returns the outcome.
    ///
    /// # Errors
    ///
    /// The scenario's own [`RunError`], if it failed.
    ///
    /// # Panics
    ///
    /// Panics if either background thread itself panicked.
    pub fn join(self) -> Result<Outcome, RunError> {
        let outcome = self.runner.join().expect("scenario thread panicked");
        self.stop.store(true, Ordering::Release);
        // Poke the accept loop so it observes the stop flag even with no
        // client connected; the listener may already be gone if a client
        // sent `shutdown`.
        if let Ok(mut poke) = TcpStream::connect(self.addr) {
            let _ = poke.write_all(b"shutdown\n");
        }
        self.server.join().expect("rpc thread panicked");
        outcome
    }
}

fn serve_client(
    stream: TcpStream,
    registry: &StatsRegistry,
    stop: &AtomicBool,
    finished: &AtomicBool,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        let reply = match line.trim() {
            "" => continue,
            "stats" => json::registry(&registry.snapshot()),
            "nodes" => nodes(&registry.snapshot()),
            "progress" => progress(registry, finished.load(Ordering::Acquire)),
            "shutdown" => {
                stop.store(true, Ordering::Release);
                let _ = writeln!(writer, "{}", Value::object([("ok", true.into())]));
                return;
            }
            other => Value::object([("error", format!("unknown command '{other}'").into())]),
        };
        if writeln!(writer, "{reply}").is_err() {
            return;
        }
    }
}

fn nodes(snapshot: &StatsSnapshot) -> Value {
    let rows = snapshot.nodes.measured().map_or(Value::Null, |nodes| {
        let rows = nodes.iter().enumerate().map(|(i, n)| {
            Value::object([
                ("node", i.into()),
                ("enqueued", n.enqueued.into()),
                ("consumed", n.consumed.into()),
                ("queue_depth", n.queue_depth().into()),
                ("done", n.done.into()),
            ])
        });
        Value::Array(rows.collect())
    });
    Value::object([("nodes", rows)])
}

fn progress(registry: &StatsRegistry, finished: bool) -> Value {
    let snap = registry.snapshot();
    let nodes_done =
        snap.nodes.measured().map_or(0, |nodes| nodes.iter().filter(|n| n.done).count());
    Value::object([
        ("running", (!finished).into()),
        ("node_count", registry.node_count().into()),
        ("nodes_done", nodes_done.into()),
        ("rounds_fired", snap.protocol.rounds_fired.into()),
        ("sent", snap.messages_sent().into()),
        ("delivered", snap.messages_delivered().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trend::parse_registry_report;
    use dbac_core::scenario::ByzantineWitness;
    use dbac_graph::generators;

    fn smoke_scenario() -> Scenario {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.5)
            .seed(9)
            .protocol(ByzantineWitness::default())
            .build()
            .expect("smoke scenario builds")
    }

    fn rpc(addr: SocketAddr, command: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.write_all(command.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("one reply line");
        line.trim_end().to_string()
    }

    #[test]
    fn daemon_serves_stats_and_progress_then_joins() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();

        let stats = rpc(addr, "stats");
        let report = parse_registry_report(&stats).expect("stats line is valid registry JSON");
        // The run may or may not have finished by now; either way the
        // totals are well-formed and the schema round-trips.
        assert!(report.contains_key("rounds_fired"), "schema carries protocol counters");

        let progress = json::parse(&rpc(addr, "progress")).expect("progress line parses");
        assert!(matches!(progress.get("running"), Some(Value::Bool(_))), "{progress}");
        assert_eq!(progress.get("node_count"), Some(&Value::Int(4)));

        let nodes = json::parse(&rpc(addr, "nodes")).expect("nodes line parses");
        assert!(nodes.get("nodes").is_some(), "nodes replies: {nodes}");

        let bogus = json::parse(&rpc(addr, "bogus")).expect("error line parses");
        assert!(bogus.get("error").and_then(Value::as_str).unwrap().contains("unknown command"));

        let registry = Arc::clone(daemon.registry());
        let out = daemon.join().expect("smoke scenario converges");
        assert!(out.converged() && out.valid());
        assert_eq!(registry.snapshot(), out.sim_stats, "registry is the outcome's ground truth");

        // The final stats payload parses into exactly the outcome's kv.
        let final_report = parse_registry_report(&json::registry(&out.sim_stats).to_string())
            .expect("final schema");
        let expected: Vec<(String, u64)> = out.sim_stats.to_kv();
        assert_eq!(final_report.len(), expected.len());
        for (k, v) in expected {
            assert_eq!(final_report.get(&k), Some(&v), "counter {k}");
        }
    }

    #[test]
    fn client_shutdown_stops_the_listener_but_not_the_run() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();
        let ok = json::parse(&rpc(addr, "shutdown")).expect("shutdown line parses");
        assert_eq!(ok, Value::object([("ok", true.into())]));
        let out = daemon.join().expect("run still completes");
        assert!(out.converged());
    }
}
