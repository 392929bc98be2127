//! The tiny mode of every workload: every check runs and passes, every
//! metric `BENCHMARK.json` names is emitted with its unit, and the result
//! line parses back into the shape the benchmark contract reads.

use dbac_e2ebench::{measure, Config, Report, Size, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// A parsed JSON value (just enough of JSON for these files).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected '{}' at {}", c as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(fields);
                }
                loop {
                    let Json::Str(key) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    assert!(fields.iter().all(|(k, _)| *k != key), "duplicate key {key}");
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.eat(b'"');
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8").to_string();
                self.i += 1;
                Json::Str(s)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of one `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = Config { workload, seed: 7, seconds: 0.0, trace, size: Size::Tiny };
    measure(&cfg).expect("tiny set-up")
}

/// Checks the result line against the contract and returns its metrics.
fn result_metrics(report: &Report, trace: bool) -> BTreeMap<String, (f64, String)> {
    let line = Parser::parse(&report.result_line(trace));
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true));
    assert!(line.get("attempted").num() >= 1.0);
    assert_eq!(line.get("failed").num(), 0.0);
    let Json::Obj(metrics) = line.get("metrics") else { panic!("metrics must be an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert_eq!(m.keys(), ["value", "unit"], "{name}");
            (name.clone(), (m.get("value").num(), m.get("unit").str().to_string()))
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_emitted_catalogue() {
    let doc = benchmark_json();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(&PER_LAYER));
    let names: Vec<&str> = doc.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(doc.get("end_to_end").arr().iter().any(|m| m.get("name").str() == "setup_s"));
}

#[test]
fn every_workload_passes_every_check_and_emits_every_metric() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny(workload, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                report.tally.examples
            );
            let emitted = result_metrics(&report, trace);
            let expected = declared(&doc, list);
            assert_eq!(emitted.len(), expected.len(), "{} trace={trace}", workload.name());
            for (name, unit) in &expected {
                let (value, got_unit) = &emitted[name];
                assert_eq!(got_unit, unit, "{name}");
                assert!(value.is_finite(), "{name}");
                if list == "end_to_end" {
                    assert!(*value > 0.0, "{}: end-to-end {name} must not be 0", workload.name());
                }
            }
            assert!(!report.messages.is_empty(), "message counts are reported");
        }
    }
}

#[test]
fn traced_layers_see_their_workload() {
    let sweep = result_metrics(&tiny(Workload::SweepSmallMixed, true), true);
    assert!(sweep["bw.flood_ingest.calls"].0 > 0.0, "the sweep's BW cells are traced");
    assert_eq!(
        sweep["bw.mc_fire.calls"].0, sweep["bw.mc_firings"].0,
        "adapter agrees with registry"
    );
    assert!(sweep["precompute.paths"].0 > 0.0);
    assert_eq!(sweep["iter.handler.calls"].0, 0.0);
    assert!(sweep["link.duplicated"].0 > 0.0, "the dup-reorder links duplicate");
    let wmsr = result_metrics(&tiny(Workload::WmsrCirc256Crash, true), true);
    assert!(wmsr["iter.handler.calls"].0 > 0.0);
    assert_eq!(wmsr["bw.flood_ingest.calls"].0, 0.0);
    assert_eq!(wmsr["precompute.paths"].0, 0.0);
    assert_eq!(wmsr["link.duplicated"].0, 0.0, "clean links stay clean");
}

#[test]
fn traced_fleets_reproduce_execute_under_liars() {
    use dbac_baselines::IterativeTrimmedMean;
    use dbac_core::scenario::{FaultKind, Scenario, SchedulerSpec};
    use dbac_e2ebench::checks::run_identity;
    use dbac_e2ebench::fleet::traced_wmsr;
    use dbac_graph::{generators, NodeId};

    let protocol = IterativeTrimmedMean::with_rounds(40);
    for fault in [FaultKind::ConstantLiar { value: 9.0 }, FaultKind::Ramp { base: 0.0, slope: 0.5 }]
    {
        let scenario = Scenario::builder(generators::circulant(16, &[1, 2, 3, 4]), 1)
            .inputs((0..16).map(f64::from).collect())
            .fault(NodeId::new(5), fault)
            .scheduler(SchedulerSpec::legacy_random(3))
            .protocol(protocol)
            .build()
            .expect("valid scenario");
        let untraced = scenario.run().expect("runs");
        let traced = traced_wmsr(&scenario, &protocol).expect("runs");
        assert_eq!(run_identity(&traced.outcome), run_identity(&untraced));
        assert!(traced.adversary_ns > 0, "the liar's broadcasts are timed");
    }
}
