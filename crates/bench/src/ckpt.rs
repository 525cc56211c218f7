//! Warm-state checkpoint commands behind `experiments ckpt …`: capturing
//! a workload's post-warm-up state to a `.vckpt` file, resuming a
//! measured run from one, and summarising a file's metadata and sections
//! as a `report`-schema artifact.
//!
//! A checkpoint amortises warm-up across measured runs: `ckpt save` pays
//! the warm-up once, and every `ckpt resume` continues from that exact
//! boundary with statistics byte-identical to an uninterrupted
//! [`System::run_with_warmup`] run (pinned by `tests/checkpoint.rs`).

use report::{Column, ExperimentReport, Metric, Provenance, Unit, Value};
use sim::config::CONFIG_KEYS;
use sim::{ckpt as sim_ckpt, SimStats, System, SystemConfig};
use std::path::Path;
use victima_trace::{Checkpoint, TraceError};
use workloads::{registry, Scale};

/// Resolves a system configuration from its report name (the `cfg.name`
/// a checkpoint records). Covers every config a `--config` key names
/// ([`CONFIG_KEYS`]), so every config the CLI can record under.
pub fn config_named(name: &str) -> Option<SystemConfig> {
    CONFIG_KEYS.iter().filter_map(|key| SystemConfig::by_name(key)).find(|c| c.name == name)
}

fn build_system(workload: &str, cfg: &SystemConfig, scale: Scale, seed: u64) -> Result<System, TraceError> {
    let w = registry::by_name_seeded(workload, scale, seed)
        .ok_or_else(|| TraceError::Format(format!("unknown workload {workload} (try --list)")))?;
    let mut run_cfg = cfg.clone();
    run_cfg.seed = seed;
    Ok(System::new(run_cfg, w))
}

/// Warms `workload` under `cfg` for `warmup` instructions and writes the
/// post-warm-up state to `out`. Returns the captured checkpoint (for
/// summary printing).
pub fn save(
    workload: &str,
    cfg: &SystemConfig,
    scale: Scale,
    seed: u64,
    warmup: u64,
    out: &Path,
) -> Result<Checkpoint, TraceError> {
    let mut sys = build_system(workload, cfg, scale, seed)?;
    let ck = sim_ckpt::capture_warm(&mut sys, scale, warmup)?;
    ck.write_path(out)?;
    Ok(ck)
}

/// Resumes the measured phase from the checkpoint at `path`: rebuilds
/// the system the checkpoint identifies (config, workload, scale and
/// seed all come from its metadata), restores the warm state, and runs
/// `measured` instructions (the scale's default measured budget when
/// `None`).
pub fn resume(path: &Path, measured: Option<u64>) -> Result<(Checkpoint, u64, SimStats), TraceError> {
    let ck = Checkpoint::read_path(path)?;
    let cfg = config_named(&ck.meta.config).ok_or_else(|| {
        TraceError::Format(format!("checkpoint config {:?} is not resolvable here", ck.meta.config))
    })?;
    let scale = Scale::from(ck.meta.scale);
    let measured = measured.unwrap_or(scale.default_budget().1);
    let mut sys = build_system(&ck.meta.workload.clone(), &cfg, scale, ck.meta.seed)?;
    sim_ckpt::restore_into(&mut sys, &ck, scale)?;
    sys.run(measured);
    sys.finalize_stats();
    Ok((ck, measured, sys.stats))
}

/// Provenance block for checkpoint artifacts, sourced from the metadata.
fn ckpt_provenance(ck: &Checkpoint, measured: u64) -> Provenance {
    Provenance {
        scale: ck.meta.scale.name().to_owned(),
        warmup: ck.meta.warmup,
        instructions: measured,
        seed: ck.meta.seed,
        engine: ck.meta.engine.clone(),
        configs: vec![ck.meta.config.clone()],
        workloads: vec![ck.meta.workload.clone()],
    }
}

/// Renders a resumed run as a `report`-schema artifact (id `ckpt_resume`).
pub fn resume_report(path: &Path, measured: Option<u64>) -> Result<ExperimentReport, TraceError> {
    let (ck, measured, stats) = resume(path, measured)?;
    let mut r = ExperimentReport::new(
        "ckpt_resume",
        format!("Checkpoint resume: {} under {}", path.display(), ck.meta.config),
    )
    .with_label_name("stat")
    .with_columns([Column::new("value", Unit::Raw)])
    .with_provenance(ckpt_provenance(&ck, measured));
    r.push_row("instructions", [Value::from(stats.instructions as f64)]);
    r.push_row("cycles", [Value::from(stats.cycles())]);
    r.push_row("l1_tlb_misses", [Value::from(stats.l1_tlb_misses as f64)]);
    r.push_row("l2_tlb_misses", [Value::from(stats.l2_tlb_misses as f64)]);
    r.push_row("page_table_walks", [Value::from(stats.ptws as f64)]);
    r.push_metric(Metric::new("ipc", stats.ipc(), Unit::Ipc));
    r.push_metric(Metric::new("l2_tlb_mpki", stats.l2_tlb_mpki(), Unit::Mpki));
    r.note(format!(
        "resumed {} at the post-warm-up boundary ({} warm-up instructions, {} stream refs drained)",
        path.display(),
        ck.meta.warmup,
        ck.meta.refs_consumed
    ));
    Ok(r)
}

/// Summarises a checkpoint file's metadata and per-section sizes as a
/// `report`-schema artifact (id `ckpt_info`). Performs no simulation.
pub fn info_report(path: &Path) -> Result<ExperimentReport, TraceError> {
    let ck = Checkpoint::read_path(path)?;
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut r = ExperimentReport::new("ckpt_info", format!("Checkpoint info: {}", path.display()))
        .with_label_name("section")
        .with_columns([Column::new("words", Unit::Count)])
        .with_provenance(ckpt_provenance(&ck, 0));
    let mut total = 0u64;
    for (name, words) in ck.sections() {
        total += words.len() as u64;
        r.push_row(name, [Value::from(words.len() as f64)]);
    }
    r.push_metric(Metric::new("state_words", total as f64, Unit::Count));
    r.push_metric(Metric::new("file_bytes", file_bytes as f64, Unit::Bytes));
    r.push_metric(Metric::new("refs_consumed", ck.meta.refs_consumed as f64, Unit::Count));
    r.note(format!(
        "workload {} under {} @ {} scale, seed {:#x}, {} warm-up instructions",
        ck.meta.workload,
        ck.meta.config,
        ck.meta.scale.name(),
        ck.meta.seed,
        ck.meta.warmup
    ));
    r.note(format!("written by {}", ck.meta.engine));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vckpt-bench-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_then_resume_matches_uninterrupted_run() {
        let path = tmp("rnd.vckpt");
        let cfg = SystemConfig::victima();
        let (warmup, measured) = (2_000, 10_000);
        save("RND", &cfg, Scale::Tiny, cfg.seed, warmup, &path).unwrap();

        let mut reference = build_system("RND", &cfg, Scale::Tiny, cfg.seed).unwrap();
        reference.run_with_warmup(warmup, measured);
        reference.finalize_stats();

        let (ck, ran, stats) = resume(&path, Some(measured)).unwrap();
        assert_eq!(ran, measured);
        assert_eq!(ck.meta.workload, "RND");
        assert_eq!(stats, reference.stats, "resume must be byte-identical to the live run");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_summarises_sections() {
        let path = tmp("info.vckpt");
        let cfg = SystemConfig::radix();
        save("RND", &cfg, Scale::Tiny, cfg.seed, 1_000, &path).unwrap();
        let r = info_report(&path).unwrap();
        assert_eq!(r.id, "ckpt_info");
        assert!(r.rows.iter().any(|row| row.label == "l2_tlb"));
        assert!(r.metric("state_words").unwrap().value > 0.0);
        // The artifact must survive the JSON round trip (the schema gate).
        let json = report::json::to_json(&r);
        assert_eq!(report::json::from_json(&json).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let path = tmp("nope.vckpt");
        let err = save("NOPE", &SystemConfig::radix(), Scale::Tiny, 1, 10, &path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
    }
}
