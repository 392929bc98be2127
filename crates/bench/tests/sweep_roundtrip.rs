//! End-to-end: a fully-dimensional sweep — ε × scheduler family × runtime
//! × seeds — runs green, and its reduced (seed-aggregated) JSON report
//! round-trips through the `bench_trend` gate parser and comparison, the
//! exact pipeline CI's `sweep.json` artifact rides.

use dbac_bench::{json, trend};
use dbac_core::scenario::sweep::{ExperimentPlan, SchedulerFamily};
use dbac_core::scenario::{ByzantineWitness, Runtime};
use dbac_graph::generators;
use std::time::Duration;

#[test]
fn full_dimensional_sweep_round_trips_through_the_gate() {
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .fault_bound(0)
        .epsilons([1.0, 0.5])
        .scheduler("fix1", SchedulerFamily::fixed(1))
        .scheduler("rand", SchedulerFamily::random(1, 10))
        .runtime(Runtime::Sim)
        .runtime(Runtime::threaded(Duration::from_secs(60)))
        .seeds([1, 2])
        .build()
        .expect("plan expands");
    // ε × scheduler × runtime × seeds.
    assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2);

    let report = sweep.run();
    assert!(report.failures().is_empty(), "failures: {:?}", report.failures());

    let reduced = report.reduce();
    assert_eq!(reduced.cells.len(), 8, "16 cells aggregate over the 2-seed batch");
    for cell in &reduced.cells {
        assert_eq!((cell.runs, cell.errors), (2, 0), "{}", cell.group);
        assert_eq!(cell.converged, 2, "{}", cell.group);
        assert_eq!(cell.valid, 2, "{}", cell.group);
        assert!(cell.wall_ns.mean > 0.0, "{}", cell.group);
        assert!(cell.wall_ns.min <= cell.wall_ns.max, "{}", cell.group);
    }
    // Both runtimes and both schedule families appear as groups.
    assert!(reduced.get("bw/K4/f0/none/eps1/fix1/sim").is_some());
    assert!(reduced.get("bw/K4/f0/none/eps0.5/rand/threaded").is_some());

    // The reduced JSON round-trips through the gate's parser…
    let text = json::reduced(&reduced).to_string();
    let parsed = trend::parse_report(&text).expect("gate parser accepts the reduced report");
    assert_eq!(parsed.len(), 8);
    assert!(parsed.values().all(|&ns| ns > 0.0));
    for cell in &reduced.cells {
        assert_eq!(parsed[&cell.group], (cell.wall_ns.mean * 10.0).round() / 10.0);
    }
    // …and the gate comparison accepts it as its own baseline.
    assert!(trend::compare(&parsed, &parsed, 2.0).is_empty());
}

#[test]
fn raw_per_cell_report_also_parses() {
    let report = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .fault_bound(0)
        .seeds([3, 4])
        .build()
        .expect("plan expands")
        .run();
    let parsed = trend::parse_report(&json::sweep(&report).to_string()).expect("raw report parses");
    assert_eq!(parsed.len(), 2);
    assert!(parsed.contains_key("bw/K4/f0/none/s3"));
}
