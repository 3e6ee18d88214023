//! `benchmark compare PARENT.json... -- CHANGE.json...`: one verdict per
//! (workload, end-to-end metric), judged with the direction and bound
//! `BENCHMARK.json` fixes for the metric (see [`stats::verdict`]).
//!
//! Each file is the `--out` document of one all-workload run; pairs are
//! formed in the order the files are given, so interleave the parent and
//! change runs when producing them.

use crate::stats::{self, Verdict};
use serde_json::Value;
use std::process::ExitCode;

struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

fn metric_specs(spec: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("a metric without a name")?;
            let lower_is_better = match m["better"].as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("metric {name}: better must be lower or higher")),
            };
            let bound = m["bound"]
                .as_f64()
                .ok_or_else(|| format!("metric {name}: no bound"))?;
            Ok(MetricSpec {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// The values of one (workload, metric) across result documents.
fn values(docs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d["workloads"][workload]["metrics"][metric]["value"].as_f64())
        .collect()
}

fn summary(v: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(v);
    format!("{q2:>12.4} [{q1:.4} .. {q3:.4}] n={}", v.len())
}

pub fn main(args: &[String]) -> ExitCode {
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    let mut after_separator = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return crate::usage("--spec needs a path"),
            },
            "--" => after_separator = true,
            path if after_separator => changes.push(path.to_string()),
            path => parents.push(path.to_string()),
        }
    }
    if parents.is_empty() || changes.is_empty() {
        return crate::usage("compare needs parent files, then --, then change files");
    }
    let loaded = load(&spec_path).and_then(|spec| {
        let metrics = metric_specs(&spec)?;
        let parents: Vec<Value> = parents.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
        let changes: Vec<Value> = changes.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
        Ok((metrics, parents, changes))
    });
    let (metrics, parents, changes) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut worse = false;
    println!(
        "{:<15} {:<12} {:>44} {:>44}  verdict",
        "workload", "metric", "parent median [q1 .. q3]", "change median [q1 .. q3]"
    );
    for &workload in crate::WORKLOADS {
        for m in &metrics {
            let p = values(&parents, workload, &m.name);
            let c = values(&changes, workload, &m.name);
            let v = stats::verdict(&p, &c, m.lower_is_better, m.bound);
            worse |= v == Verdict::Worse;
            println!(
                "{:<15} {:<12} {:>44} {:>44}  {}",
                workload,
                m.name,
                summary(&p),
                summary(&c),
                v.as_str()
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
