//! Command-line entry point:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, the message counts per
//! class and any failed check, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Exits 1 when any op fails a check, 2 on bad arguments or set-up.

use dbac_e2ebench::{measure, Config, Size, Workload};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::WmsrCirc256Crash,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match measure(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let w = cfg.workload.name();
    for (name, unit, value) in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{w} {name} = {value} {unit}");
    }
    let walls: Vec<String> = report.op_walls.iter().map(|s| format!("{s:.3}")).collect();
    println!("{w} untraced op walls (s): {}", walls.join(" "));
    for (class, sent, delivered, duplicated) in &report.messages {
        println!(
            "{w} messages.{class}: sent {sent}, delivered {delivered}, duplicated {duplicated}"
        );
    }
    for (check, count) in &report.tally.by_check {
        println!("{w} FAILED {check}: {count} ops");
    }
    for example in &report.tally.examples {
        println!("{w} failed op {example}");
    }
    println!("{}", report.result_line(cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
