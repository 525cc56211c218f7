//! Table 2 and Fig. 16: the PTW-CP design study.
//!
//! A profiling pass over the baseline collects the per-page Table 1
//! features; pages in the top 30% by total PTW cycles are labelled
//! costly-to-translate. We then train the paper's three MLPs from scratch
//! and evaluate them — and the production 4-comparator model — on a held-
//! out split. Fig. 16 renders NN-2's decision over the full
//! (frequency, cost) grid against the comparator's bounding box.

use crate::{Column, ExpCtx, ExperimentReport, Metric, Unit, Value};
use sim::{RunSpec, SystemConfig};
use victima::features::{FeatureTracker, Sample};
use victima::nn::{decision_grid, evaluate_comparator, train_and_evaluate, FeatureSet, TrainConfig};
use victima::predictor::Thresholds;
use workloads::registry::WORKLOAD_NAMES;

/// Collects the merged feature dataset from profiling runs (one engine
/// batch over the suite; tracking makes runs slower, so the budget is
/// capped).
fn collect_dataset(ctx: &ExpCtx) -> Vec<Sample> {
    let (scale, warmup, instructions) = ctx.budget();
    let (warmup, instructions) = (warmup.min(50_000), instructions.min(600_000));
    let specs: Vec<RunSpec> = WORKLOAD_NAMES
        .iter()
        .map(|&name| RunSpec::new(name, SystemConfig::radix(), scale, warmup, instructions).with_features())
        .collect();
    let mut merged = FeatureTracker::new();
    for result in ctx.run_batch(specs) {
        // The measured window's features are what we label.
        let tracker = result.features.expect("spec asked for feature collection");
        merged.merge(&tracker);
    }
    merged.dataset(0.3)
}

/// Table 2: model comparison.
pub fn table2(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    let dataset = collect_dataset(ctx);
    let (train, test) = victima::nn::split_samples(&dataset, 0.3, 0xda7a);
    let cfg = TrainConfig::default();
    let radix = SystemConfig::radix();
    let mut t = ExperimentReport::new("table2", "PTW-CP model comparison")
        .with_label_name("model")
        .with_columns([
            Column::new("features", Unit::Count),
            Column::new("size (B)", Unit::Bytes),
            Column::new("recall", Unit::Percent).with_precision(2),
            Column::new("accuracy", Unit::Percent).with_precision(2),
            Column::new("precision", Unit::Percent).with_precision(2),
            Column::new("f1", Unit::Percent).with_precision(2),
        ])
        .with_provenance(ctx.provenance([&radix]));
    for (name, set) in [("NN-10", FeatureSet::All10), ("NN-5", FeatureSet::Top5), ("NN-2", FeatureSet::Two)] {
        let (mlp, m) = train_and_evaluate(set, &train, &test, &cfg);
        t.push_row(
            name,
            [
                Value::from(set.len() as u64),
                Value::from(mlp.size_bytes() as u64),
                Value::from(m.recall()),
                Value::from(m.accuracy()),
                Value::from(m.precision()),
                Value::from(m.f1()),
            ],
        );
        t.push_metric(Metric::new(format!("f1/{name}"), m.f1(), Unit::Percent).with_tolerance(0.05));
    }
    let m = evaluate_comparator(&Thresholds::default(), &test);
    t.push_row(
        "Comparator",
        [
            Value::from(2u64),
            Value::from(24u64),
            Value::from(m.recall()),
            Value::from(m.accuracy()),
            Value::from(m.precision()),
            Value::from(m.f1()),
        ],
    );
    t.push_metric(Metric::new("f1/Comparator", m.f1(), Unit::Percent).with_tolerance(0.05));
    t.push_metric(Metric::new("dataset_pages", dataset.len() as f64, Unit::Count).with_tolerance(0.0));
    t.note(format!(
        "dataset: {} pages ({} train / {} test), 30% labelled costly",
        dataset.len(),
        train.len(),
        test.len()
    ));
    t.note("paper: NN-10 f1=90.4%, NN-5 f1=89.9%, NN-2 f1=80.7%, comparator f1=80.7% (24B)");
    vec![t]
}

/// Fig. 16: NN-2's decision pattern over the (frequency, cost) grid.
pub fn fig16(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    let dataset = collect_dataset(ctx);
    let (train, test) = victima::nn::split_samples(&dataset, 0.3, 0xda7a);
    let cfg = TrainConfig::default();
    let (nn2, _) = train_and_evaluate(FeatureSet::Two, &train, &test, &cfg);
    let grid = decision_grid(&nn2);
    let radix = SystemConfig::radix();
    let mut t =
        ExperimentReport::new("fig16", "NN-2 decision grid (rows: PTW frequency 0–7; cols: PTW cost 0–15)")
            .with_label_name("freq\\cost")
            .with_columns((0..=15).map(|c| Column::text(c.to_string())))
            .with_provenance(ctx.provenance([&radix]));
    let th = Thresholds::default();
    for freq in 0..=7u8 {
        let cells = (0..=15u8).map(|cost| {
            let nn = grid
                .iter()
                .find(|&&(f, c, _)| f == freq && c == cost)
                .map(|&(_, _, p)| p)
                .expect("full grid");
            let boxed = victima::PtwCostPredictor::classify(&th, freq, cost);
            // '#': both costly; 'n': NN-only; 'b': box-only; '.': neither.
            Value::from(match (nn, boxed) {
                (true, true) => "#",
                (true, false) => "n",
                (false, true) => "b",
                (false, false) => ".",
            })
        });
        t.push_row(freq.to_string(), cells);
    }
    let agree = grid.iter().filter(|&&(f, c, p)| p == victima::PtwCostPredictor::classify(&th, f, c)).count();
    t.push_metric(
        Metric::new("grid_agreement", agree as f64 / grid.len() as f64, Unit::Percent).with_tolerance(0.05),
    );
    t.note(format!("NN-2 and the comparator bounding box agree on {}/{} grid points", agree, grid.len()));
    vec![t]
}
