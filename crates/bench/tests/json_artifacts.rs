//! Every JSON artifact the workspace emits parses back with
//! [`json::parse`], and the sweep reports carry the fields the
//! `bench_trend` gate and the CI artifacts rely on — checked on the
//! parsed tree, never on the text's spacing.

use dbac_bench::daemon::Daemon;
use dbac_bench::json::{self, Value};
use dbac_bench::trend;
use dbac_conditions::robustness::certify;
use dbac_core::error::RunError;
use dbac_core::scenario::sweep::ExperimentPlan;
use dbac_core::scenario::{ByzantineWitness, FaultKind, LinkFault, LinkFaultPlan, Scenario};
use dbac_graph::{generators, Digraph, NodeId};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// The fields of kernel `name` in a `{"kernels": {...}}` document.
fn kernel<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("kernels")
        .and_then(|k| k.get(name))
        .unwrap_or_else(|| panic!("kernel '{name}' missing from {doc}"))
}

/// Renders `value` and parses it back: the written text is valid JSON.
fn reparse(value: &Value) -> Value {
    json::parse(&value.to_string()).unwrap_or_else(|e| panic!("{value} does not parse: {e}"))
}

fn rpc(addr: SocketAddr, command: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(command.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("one reply line");
    json::parse(&line).unwrap_or_else(|e| panic!("'{command}' reply {line:?}: {e}"))
}

#[test]
fn sweep_runs_reduces_and_reports_bench_json() {
    let report = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("k4", generators::clique(4))
        .fault_bound(1)
        .placement("liar", |g, _| {
            vec![(NodeId::new(g.node_count() - 1), FaultKind::ConstantLiar { value: 1e6 })]
        })
        .seeds([7, 8])
        .build()
        .unwrap()
        .run();
    assert_eq!(report.rows.len(), 2);
    assert!(report.failures().is_empty());
    let row = report.get("bw/k4/f1/liar/s7").expect("labelled row");
    let summary = row.summary.as_ref().unwrap();
    assert!(summary.converged && summary.valid, "{summary:?}");
    assert!(summary.rounds_to_epsilon.is_some());
    assert!(row.wall_ns > 0.0);

    let raw = reparse(&json::sweep(&report));
    assert_eq!(kernel(&raw, "bw/k4/f1/liar/s7").get("converged"), Some(&Value::Int(1)));
    kernel(&raw, "bw/k4/f1/liar/s8");

    let reduced = report.reduce();
    assert_eq!(reduced.cells.len(), 1);
    let cell = reduced.get("bw/k4/f1/liar").expect("group key drops the seed");
    assert_eq!(cell.seeds, vec![7, 8]);
    assert_eq!((cell.runs, cell.errors), (2, 0));
    assert_eq!((cell.converged, cell.valid, cell.all_decided), (2, 2, 2));
    assert_eq!(cell.wall_ns.n, 2);
    assert!(cell.wall_ns.mean > 0.0);
    assert!(cell.spread.max < 0.5);
    let doc = reparse(&json::reduced(&reduced));
    assert!(doc.get("kernels").is_some());
    let fields = kernel(&doc, "bw/k4/f1/liar");
    assert!(fields.get("mean_ns").and_then(Value::as_f64).is_some());
    assert!(fields.get("stddev_ns").and_then(Value::as_f64).is_some());
    assert_eq!(fields.get("runs"), Some(&Value::Int(2)));
}

#[test]
fn invalid_cells_become_error_rows_without_poisoning_siblings() {
    // A placement naming a node outside K3 rejects that cell at build;
    // the K4 sibling still runs to convergence.
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("k3", generators::clique(3))
        .graph("k4", generators::clique(4))
        .faults("oob", vec![(NodeId::new(3), FaultKind::Crash)])
        .build()
        .unwrap();
    assert_eq!(sweep.cell_count(), 2);
    let bad = &sweep.cells()[0];
    assert_eq!(bad.error(), Some(&RunError::FaultOutsideGraph { node: 3, nodes: 3 }));
    assert!(bad.scenario().is_none());

    let report = sweep.run();
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].label, "bw/k3/f1/oob/s0");
    assert_eq!(
        failures[0].summary.as_ref().unwrap_err(),
        &RunError::FaultOutsideGraph { node: 3, nodes: 3 }
    );
    let ok = report.get("bw/k4/f1/oob/s0").unwrap();
    assert!(ok.summary.as_ref().unwrap().converged);

    // The raw JSON flags the error row; the reduced report counts it.
    let raw = reparse(&json::sweep(&report));
    assert_eq!(kernel(&raw, "bw/k3/f1/oob/s0").get("error"), Some(&Value::Int(1)));
    let reduced = report.reduce();
    assert_eq!(reduced.cells.len(), 2);
    let bad = reduced.get("bw/k3/f1/oob").unwrap();
    assert_eq!((bad.runs, bad.errors), (1, 1));
    assert_eq!(bad.wall_ns.n, 0);
}

#[test]
fn link_fault_axis_labels_cells_and_counts_drops() {
    let report = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("k4", generators::clique(4))
        .fault_bound(0)
        .link_faults("clean", |_, _| None)
        .link_faults("lossy", |g: &Digraph, seed| {
            let mut plan = LinkFaultPlan::new(seed);
            for (from, to) in g.edges() {
                plan = plan.fault(from, to, LinkFault::Drop { prob: 0.2 });
            }
            Some(plan)
        })
        .seeds([3, 4])
        .build()
        .unwrap()
        .run();
    assert_eq!(report.rows.len(), 4);
    assert!(report.failures().is_empty(), "{:?}", report.failures());

    let clean = report.get("bw/k4/f0/none/clean/s3").expect("clean cell labelled");
    assert_eq!(clean.coord("links"), Some("clean"));
    assert_eq!(clean.summary.as_ref().unwrap().messages_dropped, 0);

    let lossy = report.get("bw/k4/f0/none/lossy/s3").expect("lossy cell labelled");
    assert!(lossy.summary.as_ref().unwrap().messages_dropped > 0);

    // The drop counts ride both JSON schemas and the reducer.
    let raw = reparse(&json::sweep(&report));
    assert!(kernel(&raw, "bw/k4/f0/none/lossy/s3").get("dropped").is_some());
    let reduced = report.reduce();
    let group = reduced.get("bw/k4/f0/none/lossy").expect("group drops the seed");
    assert_eq!(group.dropped.n, 2);
    assert!(group.dropped.mean > 0.0);
    assert_eq!(reduced.get("bw/k4/f0/none/clean").unwrap().dropped.max, 0.0);
    let doc = reparse(&json::reduced(&reduced));
    assert!(kernel(&doc, "bw/k4/f0/none/lossy").get("dropped_mean").is_some());
}

#[test]
fn every_emitter_output_parses() {
    // Raw and reduced sweep reports, with a non-ASCII graph label that
    // must come back unchanged through the gate's reader.
    let report = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("κ4", generators::clique(4))
        .fault_bound(0)
        .seeds([1, 2])
        .build()
        .unwrap()
        .run();
    let raw = trend::parse_report(&json::sweep(&report).to_string()).expect("raw report");
    assert_eq!(raw.keys().collect::<Vec<_>>(), ["bw/κ4/f0/none/s1", "bw/κ4/f0/none/s2"]);
    let reduced = report.reduce();
    let parsed = trend::parse_report(&json::reduced(&reduced).to_string()).expect("reduced");
    assert_eq!(parsed.keys().collect::<Vec<_>>(), ["bw/κ4/f0/none"]);

    // A certificate for every parameterised rule shape.
    for (g, r, s, rule) in [
        (generators::clique(8), 2, 2, "min-in-degree"),
        (generators::circulant(16, &[1, 2, 3]), 2, 2, "circulant-prefix"),
        (generators::layered_expander(3, 4), 1, 3, "layered-expander"),
    ] {
        let cert = certify(&g, r, s).expect("certifiable");
        let doc = reparse(&json::certificate(&cert));
        assert_eq!(doc.get("rule").and_then(Value::as_str), Some(rule));
        assert_eq!(doc.get("n"), Some(&Value::from(g.node_count())));
        assert_eq!((doc.get("r"), doc.get("s")), (Some(&Value::from(r)), Some(&Value::from(s))));
        assert!(doc.get("params").and_then(Value::as_object).is_some());
        let evidence = doc.get("evidence").and_then(Value::as_array).expect("evidence array");
        assert_eq!(evidence.len(), cert.evidence.len());
    }

    // Every daemon reply line.
    let scenario = Scenario::builder(generators::clique(4), 0)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.5)
        .seed(9)
        .protocol(ByzantineWitness::default())
        .build()
        .expect("smoke scenario builds");
    let daemon = Daemon::spawn(scenario).expect("daemon binds");
    let addr = daemon.addr();
    assert!(rpc(addr, "stats").get("registry").and_then(Value::as_object).is_some());
    assert!(rpc(addr, "nodes").get("nodes").is_some());
    assert_eq!(rpc(addr, "progress").get("node_count"), Some(&Value::Int(4)));
    let unknown = rpc(addr, "bogus \"\u{1}ε");
    assert_eq!(
        unknown.get("error").and_then(Value::as_str),
        Some("unknown command 'bogus \"\u{1}ε'")
    );
    let out = daemon.join().expect("smoke scenario converges");
    let stats = json::registry(&out.sim_stats).to_string();
    let counters = trend::parse_registry_report(&stats).expect("final stats");
    assert_eq!(counters.len(), out.sim_stats.to_kv().len());
}
