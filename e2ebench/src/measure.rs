//! The measurement loop: set up several times, run untraced ops for the
//! rest of the time budget (or half of it, the other half running traced
//! ops), check every op, and reduce the samples to the named metrics.

use crate::checks::{Tally, REPEATABLE, TRACE_IDENTITY};
use crate::cpus::Cpus;
use crate::workloads::{Layers, Op, Size, Workload};
use dbac_core::scenario::MsgClass;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. They
/// always come from the untraced ops.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("msgs_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. They come
/// from the traced ops (the sweep's cell distribution and the tracing
/// overhead also read the untraced ones).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("precompute.s", "s"),
    ("precompute.paths", "count"),
    ("bw.flood_ingest.s", "s"),
    ("bw.flood_ingest.calls", "count"),
    ("bw.mc_fire.s", "s"),
    ("bw.mc_fire.calls", "count"),
    ("bw.complete.s", "s"),
    ("bw.complete.calls", "count"),
    ("bw.start.s", "s"),
    ("bw.mc_firings", "count"),
    ("bw.fra_marks", "count"),
    ("bw.witness_completions", "count"),
    ("iter.handler.s", "s"),
    ("iter.handler.calls", "count"),
    ("adversary.s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.sent_per_delivery", "ratio"),
    ("link.duplicated", "count"),
    ("link.dup_share", "ratio"),
    ("sweep.cell_ms.p50", "ms"),
    ("sweep.cell_ms.p90", "ms"),
    ("sweep.parallel_eff", "ratio"),
    ("sweep.precompute_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Set-up is repeated at least this often, and until it has taken a
/// twentieth of the time budget: a set-up of microseconds is then timed
/// warm over seconds, not in the first milliseconds of the process.
const SETUP_MIN_REPS: usize = 5;

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and the delivery schedule.
    pub seed: u64,
    /// How long set-up and ops run together; the ops get what set-up
    /// leaves, all untraced, or with `trace` half untraced and half traced.
    pub seconds: f64,
    /// Also run traced ops and report the per-layer metrics.
    pub trace: bool,
    /// Full or tiny instances.
    pub size: Size,
}

/// The result of one invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics, `(name, unit, value)`, in [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics in [`PER_LAYER`] order; empty without `trace`.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Messages per class of one op: `(class, sent, delivered, duplicated)`.
    pub messages: Vec<(&'static str, u64, u64, u64)>,
    /// Wall seconds of every untraced op, in run order.
    pub op_walls: Vec<f64>,
}

impl Report {
    /// Whether every op passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The metrics the result line carries: per-layer with `trace`,
    /// end-to-end otherwise.
    fn result_metrics(&self, trace: bool) -> &[(&'static str, &'static str, f64)] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .result_metrics(trace)
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The `q`-quantile by nearest rank.
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The mean over CPU slots of the median of the samples taken on each,
/// sample `i` having been taken on slot `i % slots`. With one slot, the
/// median.
fn slot_median(xs: &[f64], slots: usize) -> f64 {
    let per_slot: Vec<f64> = (0..slots)
        .map(|s| xs.iter().skip(s).step_by(slots).copied().collect::<Vec<f64>>())
        .filter(|on_slot| !on_slot.is_empty())
        .map(median)
        .collect();
    per_slot.iter().sum::<f64>() / per_slot.len().max(1) as f64
}

/// Runs ops until `budget` has passed (at least one), checking each
/// against `reference` (or against the first op when there is none).
/// With `cpus`, op `i` runs pinned to CPU slot `i`.
fn run_ops(
    budget: Duration,
    cpus: Option<&Cpus>,
    reference: Option<&Op>,
    check: &'static str,
    tally: &mut Tally,
    mut op: impl FnMut() -> Op,
) -> Vec<Op> {
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    loop {
        if let Some(cpus) = cpus {
            cpus.pin(ops.len());
        }
        let next = op();
        let base = reference.or(ops.first()).unwrap_or(&next);
        tally_op(tally, &next, base, check);
        ops.push(next);
        if start.elapsed() >= budget {
            return ops;
        }
    }
}

/// Counts every cell of `op` as an op, failing it on its own checks and on
/// `check` when it does not reproduce the matching cell of `reference`.
fn tally_op(tally: &mut Tally, op: &Op, reference: &Op, check: &'static str) {
    let same_shape = op.cells.len() == reference.cells.len();
    for (i, cell) in op.cells.iter().enumerate() {
        let mut failed = cell.failed.clone();
        let reproduces = same_shape && reference.cells[i].identity == cell.identity;
        if !reproduces && !failed.contains(&check) {
            failed.push(check);
        }
        tally.op(&cell.label, &failed);
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// The workload could not be set up.
pub fn measure(cfg: &Config) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut tally = Tally::default();
    // A single-threaded workload runs set-up and ops on each CPU in turn,
    // and its end-to-end figures weigh every CPU alike.
    let cpus = cfg.workload.single_threaded().then(Cpus::allowed);
    let slots = cpus.as_ref().map_or(1, Cpus::slots);

    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let mut prepared = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_start.elapsed() < budget / 20 {
        if let Some(cpus) = &cpus {
            cpus.pin(setup_s.len());
        }
        let setup = cfg.workload.setup(cfg.seed, cfg.size)?;
        setup_s.push(setup.seconds);
        prepared = Some(setup.prepared);
    }
    let prepared = prepared.expect("set up at least once");

    let op_budget = budget.saturating_sub(setup_start.elapsed());
    let op_budget = if cfg.trace { op_budget / 2 } else { op_budget };
    // Peak RSS is read after the first op: repeated ops in one process
    // only add allocator fragmentation, which no single run of the
    // workload pays.
    let mut peak_rss = None;
    let ops = run_ops(op_budget, cpus.as_ref(), None, REPEATABLE, &mut tally, || {
        let op = prepared.run();
        peak_rss.get_or_insert_with(peak_rss_mb);
        op
    });
    let first = &ops[0];
    let verified = prepared.verify();
    if let Some(v) = &verified {
        tally_op(&mut tally, v, first, REPEATABLE);
    }

    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let per_op =
        |f: &dyn Fn(&Op) -> f64| slot_median(&ops.iter().map(f).collect::<Vec<_>>(), slots);
    let values: [f64; END_TO_END.len()] = [
        slot_median(&setup_s, slots),
        slot_median(&walls, slots),
        per_op(&|o| ratio(o.delivered as f64, o.wall_s)),
        per_op(&|o| ratio(o.cells.len() as f64, o.wall_s)),
        peak_rss.unwrap_or_default(),
    ];
    let end_to_end =
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();

    let mut per_layer = Vec::new();
    if cfg.trace {
        let mut layer_samples: Vec<Layers> = Vec::new();
        let traced =
            run_ops(op_budget, cpus.as_ref(), Some(first), TRACE_IDENTITY, &mut tally, || {
                let t = prepared.traced();
                layer_samples.push(t.layers);
                t.op
            });
        per_layer = layer_metrics(&layer_samples, &ops, &traced);
    }
    if let Some(cpus) = &cpus {
        cpus.release();
    }

    let mut messages = Vec::new();
    if let Some(t) = verified.as_ref().unwrap_or(first).transport {
        for class in MsgClass::ALL {
            let c = t.class(class);
            if c.sent + c.delivered > 0 {
                messages.push((class.label(), c.sent, c.delivered, c.duplicated));
            }
        }
    }
    Ok(Report { tally, end_to_end, per_layer, messages, op_walls: walls })
}

/// Reduces the traced samples (and the untraced ops where a layer metric
/// needs them) to the per-layer metrics, each the median over ops.
fn layer_metrics(
    samples: &[Layers],
    ops: &[Op],
    traced: &[Op],
) -> Vec<(&'static str, &'static str, f64)> {
    let per = |f: &dyn Fn(&Layers) -> f64| median(samples.iter().map(f).collect());
    let secs = |ns: u64| ns as f64 / 1e9;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let handler_s = |l: &Layers| secs(l.bw.total_ns() + l.iter.total_ns() + l.adversary_ns);
    let adapter_s = |l: &Layers| secs(l.bw.adapter_ns + l.iter.adapter_ns);
    let self_s = |l: &Layers| l.drive_s - handler_s(l) - adapter_s(l);
    let duplicated = |op: &Op| op.transport.map_or(0, |t| t.total().duplicated) as f64;
    // Typed by length, so a metric added to one list and not the other
    // fails to compile instead of shifting every name.
    let values: [f64; PER_LAYER.len()] = [
        per(&|l| l.precompute_s),
        per(&|l| l.paths as f64),
        per(&|l| secs(l.bw.ns(MsgClass::Flood))),
        per(&|l| l.bw.calls(MsgClass::Flood) as f64),
        per(&|l| secs(l.bw.mc_fire_ns)),
        per(&|l| l.bw.mc_fire_calls as f64),
        per(&|l| secs(l.bw.ns(MsgClass::Complete))),
        per(&|l| l.bw.calls(MsgClass::Complete) as f64),
        per(&|l| secs(l.bw.start_ns)),
        per(&|l| l.mc_firings as f64),
        per(&|l| l.fra_marks as f64),
        per(&|l| l.witness_completions as f64),
        per(&|l| secs(l.iter.total_ns())),
        per(&|l| l.iter.calls(MsgClass::Iter) as f64),
        per(&|l| secs(l.adversary_ns)),
        per(&self_s),
        per(&|l| ratio(self_s(l) * 1e9, l.wrapped_delivered as f64)),
        per(&|l| ratio(l.wrapped_sent as f64, l.wrapped_delivered as f64)),
        median(traced.iter().map(duplicated).collect()),
        median(traced.iter().map(|o| ratio(duplicated(o), o.delivered as f64)).collect()),
        median(ops.iter().map(|o| quantile(cell_ms(o), 0.5)).collect()),
        median(ops.iter().map(|o| quantile(cell_ms(o), 0.9)).collect()),
        median(
            ops.iter()
                .map(|o| {
                    let busy: f64 = o.cells.iter().map(|c| c.wall_s).sum();
                    ratio(busy, o.wall_s * workers.min(o.cells.len()) as f64)
                })
                .collect(),
        ),
        per(&|l| ratio(l.precompute_s, l.cell_s)),
        median(traced.iter().map(|o| o.wall_s).collect())
            - median(ops.iter().map(|o| o.wall_s).collect()),
    ];
    PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect()
}

fn cell_ms(op: &Op) -> Vec<f64> {
    op.cells.iter().map(|c| c.wall_s * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::LIVENESS;
    use crate::workloads::CellResult;

    fn op(identity: u64, failed: Vec<&'static str>) -> Op {
        let cell =
            CellResult { label: "cell".into(), identity: vec![identity], failed, wall_s: 1.0 };
        Op { wall_s: 1.0, cells: vec![cell], delivered: 1, transport: None }
    }

    #[test]
    fn a_cell_that_does_not_reproduce_fails_the_named_check() {
        let mut tally = Tally::default();
        tally_op(&mut tally, &op(1, Vec::new()), &op(1, Vec::new()), REPEATABLE);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        tally_op(&mut tally, &op(2, vec![LIVENESS]), &op(1, Vec::new()), TRACE_IDENTITY);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.by_check[TRACE_IDENTITY], 1);
        assert_eq!(tally.by_check[LIVENESS], 1);
    }

    #[test]
    fn a_failed_op_makes_the_result_incorrect() {
        let mut tally = Tally::default();
        tally.op("cell", &[LIVENESS]);
        let report = Report {
            tally,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            messages: Vec::new(),
            op_walls: Vec::new(),
        };
        assert!(!report.correct());
        assert!(report
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(xs.clone(), 0.5), 5.0);
        assert_eq!(quantile(xs, 0.9), 9.0);
    }

    #[test]
    fn slot_medians_weigh_every_slot_alike() {
        assert_eq!(slot_median(&[3.0, 1.0, 2.0], 1), 2.0);
        // Slot 0 took 1, 2, 9; slot 1 took 10, 20: medians 2 and 15.
        assert_eq!(slot_median(&[1.0, 10.0, 2.0, 20.0, 9.0], 2), 8.5);
        // A slot no sample reached does not count.
        assert_eq!(slot_median(&[4.0], 2), 4.0);
    }
}
