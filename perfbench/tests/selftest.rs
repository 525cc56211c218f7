//! Self-tests of the benchmark: its metric names match `BENCHMARK.json`,
//! a perturbed expected digest raises the failure count instead of
//! crashing, and every workload completes a minimum-length run cleanly.

use perfbench::check::Expected;
use perfbench::{Options, Workload, END_TO_END, PER_LAYER};
use report::json::{parse_json, JsonValue};
use std::time::Duration;

fn manifest() -> JsonValue {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark directory");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("metric field").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
}

fn smoke_options(workload: Workload, seed: u64, trace: bool) -> Options {
    let worker_exe = env!("CARGO_BIN_EXE_perfbench").into();
    Options { workload, seed, seconds: Duration::from_millis(1), trace, smoke: true, worker_exe }
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> perfbench::Outcome {
    perfbench::run(&smoke_options(workload, seed, trace))
}

fn emitted(o: &perfbench::Outcome) -> Vec<(String, String)> {
    o.metrics.iter().map(|(n, _, u)| (n.clone(), (*u).to_owned())).collect()
}

#[test]
fn metric_names_match_the_manifest() {
    let doc = manifest();
    assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name").to_owned())
        .collect();
    assert!(!workloads.is_empty());
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()), "{workloads:?}");
}

#[test]
fn perturbed_digest_counts_as_a_failure() {
    let committed = Expected::committed(Workload::Native);
    assert!(!committed.is_empty(), "native digests are committed");
    let text = include_str!("../expected/native.digests");
    let first = text.lines().find(|l| !l.starts_with('#')).expect("one digest line");
    let (label, digest) = first.split_once(' ').expect("label digest");
    let flipped = if digest.starts_with('0') { "1" } else { "0" };
    let perturbed = Expected::parse(&text.replace(first, &format!("{label} {flipped}{}", &digest[1..])));
    assert!(perturbed.verify(label, digest).is_some());
    assert_eq!(committed.verify(label, digest), None);

    // A whole run against a perturbed digest set reports, not panics.
    let plan = perfbench::simrun::SimPlan::new(Workload::Native, true);
    let opts = smoke_options(Workload::Native, 7, false);
    let clean = perfbench::simrun::run(&plan, &opts, None);
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);
    let wrong = Expected::parse("radix/RND 0000000000000000\n");
    let out = perfbench::simrun::run(&plan, &opts, Some(&wrong));
    assert!(out.failed >= 1, "a wrong digest must count as a failure");
    assert!(out.value("pass_rate").expect("pass_rate emitted") < 1.0);
    assert_eq!(out.attempted, clean.attempted);
}

#[test]
fn every_workload_completes_a_minimum_length_run() {
    for w in Workload::ALL {
        let o = smoke(w, 3, false);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
        assert_eq!(emitted(&o), owned(&END_TO_END), "{}", w.name());
        assert!(
            o.metrics.iter().all(|(n, v, _)| v.is_finite() && *v > 0.0 || n == "victima_speedup"),
            "{o:?}"
        );
        assert!(o.result_line().starts_with("{\"correct\": true"));
    }
}

#[test]
fn traced_minimum_length_runs_emit_every_layer_metric() {
    for w in [Workload::Virt, Workload::Service] {
        let o = smoke(w, 3, true);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
        assert_eq!(emitted(&o), owned(&PER_LAYER), "{}", w.name());
        assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));
        let artifact = perfbench::util::results_dir().join(format!("{}.layers.json", w.name()));
        let text = std::fs::read_to_string(&artifact).expect("traced runs write their artifact");
        let doc = parse_json(&text).expect("the artifact is JSON");
        for (name, _) in PER_LAYER {
            assert!(
                doc.get("metrics").and_then(|m| m.get(name)).is_some(),
                "{name} missing from the artifact"
            );
        }
        assert!(doc.get("provenance").and_then(|p| p.get("seed")).is_some());
        assert!(doc.get("layer_self_ms").and_then(|l| l.get("sim")).is_some());
    }
}
