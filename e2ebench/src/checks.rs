//! Correctness checks run on every op, and the tally of failed ops.

use dbac_core::scenario::sweep::CellSummary;
use dbac_core::scenario::{MsgClass, Outcome, StatsSnapshot};
use std::collections::BTreeMap;

/// Honest outputs lie inside the honest input hull.
pub const VALIDITY: &str = "validity";
/// Every honest node decided.
pub const LIVENESS: &str = "liveness";
/// Honest outputs lie within ε of each other.
pub const EPSILON_AGREEMENT: &str = "epsilon-agreement";
/// Lemma 15: the honest spread at least halves every BW round.
pub const LEMMA15_HALVING: &str = "lemma15-halving";
/// W-MSR hull contraction: the honest spread never grows.
pub const WMSR_NONINCREASING: &str = "wmsr-nonincreasing";
/// Per class: sent + duplicated = delivered + dropped + corrupted +
/// rejected + undelivered, with no terminal state overdrawn.
pub const LEDGER: &str = "ledger";
/// The W-MSR topology carries the expected robustness certificate.
pub const CERTIFIED: &str = "certified";
/// The protocol returned an error instead of an outcome.
pub const RUN_ERROR: &str = "run-error";
/// A repeated op produced other outputs or message counts than the first.
pub const REPEATABLE: &str = "repeatable";
/// The traced run differs from the untraced run in outputs or per-class
/// delivered counts.
pub const TRACE_IDENTITY: &str = "trace-identity";

/// Slack for floating-point rounding in the spread checks, the same as
/// `Outcome::valid` allows.
const TOL: f64 = 1e-12;

/// Which guarantees a protocol makes, beyond validity and liveness.
#[derive(Clone, Copy, Debug, Default)]
pub struct Expect {
    /// ε-agreement (every protocol here but the RBC probe, which by
    /// design guarantees only validity).
    pub agreement: bool,
    /// Lemma 15 per-round halving (Algorithm BW).
    pub halving: bool,
    /// Non-increasing spread (W-MSR).
    pub nonincreasing: bool,
}

fn halves(spreads: &[f64]) -> bool {
    spreads.windows(2).all(|w| w[1] <= w[0] / 2.0 + TOL)
}

fn never_grows(spreads: &[f64]) -> bool {
    spreads.windows(2).all(|w| w[1] <= w[0] + TOL)
}

/// The checks an outcome fails, by name.
#[must_use]
pub fn outcome_failures(out: &Outcome, expect: Expect) -> Vec<&'static str> {
    let spreads = out.spread_by_round();
    let mut failed = failures(out.valid(), out.all_decided(), out.converged(), &spreads, expect);
    if !ledger_balances(&out.sim_stats) {
        failed.push(LEDGER);
    }
    failed
}

/// The same checks on a sweep cell's digest, minus the ledger, which
/// needs the per-class counters a digest does not keep.
#[must_use]
pub fn summary_failures(s: &CellSummary, expect: Expect) -> Vec<&'static str> {
    failures(s.valid, s.all_decided, s.converged, &s.spread_by_round, expect)
}

fn failures(
    valid: bool,
    decided: bool,
    converged: bool,
    spreads: &[f64],
    expect: Expect,
) -> Vec<&'static str> {
    let mut failed = Vec::new();
    if !valid {
        failed.push(VALIDITY);
    }
    if !decided {
        failed.push(LIVENESS);
    }
    if expect.agreement && !converged {
        failed.push(EPSILON_AGREEMENT);
    }
    if expect.halving && !halves(spreads) {
        failed.push(LEMMA15_HALVING);
    }
    if expect.nonincreasing && !never_grows(spreads) {
        failed.push(WMSR_NONINCREASING);
    }
    failed
}

/// The per-class transport ledger. `undelivered` saturates at zero, so
/// the identity alone would hide an overcount: terminal events must not
/// exceed the copies that entered the system.
#[must_use]
pub fn ledger_balances(stats: &StatsSnapshot) -> bool {
    let Some(transport) = stats.transport.measured() else { return false };
    MsgClass::ALL.iter().all(|&class| {
        let c = transport.class(class);
        let inflow = c.sent + c.duplicated;
        let terminal = c.delivered + c.dropped + c.corrupted + c.rejected;
        terminal <= inflow && inflow == terminal + c.undelivered()
    })
}

/// What a run must reproduce: honest output bits and per-class delivered
/// counts.
#[must_use]
pub fn run_identity(out: &Outcome) -> Vec<u64> {
    let mut id: Vec<u64> = out.outputs.iter().map(|o| o.map_or(u64::MAX, f64::to_bits)).collect();
    if let Some(t) = out.sim_stats.transport.measured() {
        id.extend(t.by_class.iter().map(|c| c.delivered));
    }
    id
}

/// What a sweep cell must reproduce: its digest, bit for bit.
#[must_use]
pub fn cell_identity(s: &CellSummary) -> Vec<u64> {
    let mut id = vec![
        u64::from(s.converged),
        u64::from(s.valid),
        u64::from(s.all_decided),
        s.spread.to_bits(),
        s.messages_sent,
        s.messages_delivered,
        s.messages_dropped,
        u64::from(s.rounds),
    ];
    id.extend(s.spread_by_round.iter().map(|v| v.to_bits()));
    id
}

/// Ops attempted and failed, with the names of the failed checks.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops attempted (a run, or a sweep cell).
    pub attempted: u64,
    /// Ops that failed at least one check.
    pub failed: u64,
    /// Failed ops per check name.
    pub by_check: BTreeMap<&'static str, u64>,
    /// The first few failures, as `op: check, check`.
    pub examples: Vec<String>,
}

impl Tally {
    /// Records one op and the checks it failed.
    pub fn op(&mut self, label: &str, failed: &[&'static str]) {
        self.attempted += 1;
        if failed.is_empty() {
            return;
        }
        self.failed += 1;
        for name in failed {
            *self.by_check.entry(name).or_default() += 1;
        }
        if self.examples.len() < 10 {
            self.examples.push(format!("{label}: {}", failed.join(", ")));
        }
    }
}
