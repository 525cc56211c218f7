//! Warm-state checkpointing: capture a [`System`] at the post-warm-up
//! boundary into a `.vckpt` [`Checkpoint`], and restore one into a
//! freshly built system for byte-identical resumption.
//!
//! The boundary is exactly where [`System::run_with_warmup`] sits after
//! its statistics reset: warm-up has executed, every statistic is zero,
//! and the only things distinguishing the system from a fresh build are
//! its microarchitectural contents and the workload stream position.
//! Capture therefore serializes *state, not statistics*: TLB and cache
//! tag arrays (with replacement clocks), page-walk caches, prefetcher
//! tables, DRAM open rows, the POM-TLB directory, and the page-table
//! access counters — plus the stream position (`refs_consumed`) and a
//! frame-allocator fingerprint. Resume rebuilds the system from the
//! same configuration and seed (construction is deterministic: regions,
//! frames and generator state all derive from the seed), drains the
//! stream back to the recorded position, restores each section, and
//! verifies the fingerprint. Running the measured phase then produces
//! [`SimStats`](crate::SimStats) byte-identical to the uninterrupted
//! run — `tests/checkpoint.rs` pins this.
//!
//! Checkpointing is native-mode only (the virtualised image is not
//! serialized), matching the sampling restriction. Components that are
//! either stateless (the Victima engine — its TLB blocks live *in* the
//! serialized L2 cache words) or rebuilt fresh on both sides of the
//! boundary (the epoch tracker) are deliberately absent.

use crate::config::ExecMode;
use crate::engine::ENGINE_ID;
use crate::system::{Memory, System};
use victima_trace::{Checkpoint, CheckpointMeta, TraceError, TraceScale};
use workloads::Scale;

fn bad(msg: impl Into<String>) -> TraceError {
    TraceError::Format(msg.into())
}

/// Runs `warmup` instructions, resets statistics (the
/// [`System::run_with_warmup`] boundary), and captures the warm state.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for a virtualised system (the guest
/// memory image is not serializable).
pub fn capture_warm(sys: &mut System, scale: Scale, warmup: u64) -> Result<Checkpoint, TraceError> {
    if sys.cfg.mode != ExecMode::Native {
        return Err(bad("virtualised systems cannot be checkpointed (native mode only)"));
    }
    sys.run(warmup);
    sys.reset_stats();
    sys.proc.reset_counters();

    let meta = CheckpointMeta {
        engine: ENGINE_ID.to_string(),
        config: sys.cfg.name.to_string(),
        workload: sys.workload_name().to_string(),
        scale: TraceScale::from(scale),
        seed: sys.cfg.seed,
        warmup,
        refs_consumed: sys.refs_consumed(),
    };
    let mut ck = Checkpoint::new(meta);

    let mut words = Vec::new();
    let grab = |out: &mut Vec<u64>| std::mem::take(out);

    sys.itlb.save_state(&mut words);
    ck.add_section("itlb", grab(&mut words));
    sys.dtlb4k.save_state(&mut words);
    ck.add_section("dtlb4k", grab(&mut words));
    sys.dtlb2m.save_state(&mut words);
    ck.add_section("dtlb2m", grab(&mut words));
    sys.l2_tlb.save_state(&mut words);
    ck.add_section("l2_tlb", grab(&mut words));
    if let Some(l3) = &sys.l3_tlb {
        l3.save_state(&mut words);
        ck.add_section("l3_tlb", grab(&mut words));
    }
    sys.walker.pwc.save_state(&mut words);
    ck.add_section("pwc", grab(&mut words));
    sys.bg_walker.pwc.save_state(&mut words);
    ck.add_section("bg_pwc", grab(&mut words));
    sys.hier.save_state(&mut words);
    ck.add_section("hier", grab(&mut words));
    if let Some(pom) = &sys.pom {
        pom.save_state(&mut words);
        ck.add_section("pom", grab(&mut words));
    }

    let Memory::Native { alloc, aspace } = &sys.proc.memory else {
        unreachable!("native mode checked above");
    };
    aspace.page_table.save_counters(&mut words);
    ck.add_section("pt_counters", grab(&mut words));
    let a = alloc.borrow();
    ck.add_section("frame_alloc", vec![a.frames_used(), a.rng_state(), a.max_skip]);

    Ok(ck)
}

fn section<'a>(ck: &'a Checkpoint, name: &str) -> Result<&'a [u64], TraceError> {
    ck.section(name).ok_or_else(|| bad(format!("checkpoint is missing section {name:?}")))
}

fn apply(name: &str, r: Result<(), String>) -> Result<(), TraceError> {
    r.map_err(|e| bad(format!("section {name:?}: {e}")))
}

/// Restores a checkpoint into `sys`, which must be a *freshly built*
/// system over the same configuration, workload and scale the
/// checkpoint was captured from. On success the system sits at the
/// post-warm-up boundary of the original run: running the measured
/// phase yields byte-identical statistics.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the checkpoint's identity
/// (engine, configuration, workload, scale, seed) does not match `sys`,
/// when `sys` has already executed, when a section is missing or sized
/// for a different geometry, or when the frame-allocator fingerprint
/// shows the rebuild allocated differently.
pub fn restore_into(sys: &mut System, ck: &Checkpoint, scale: Scale) -> Result<(), TraceError> {
    let span = sys.span_start();
    let r = restore_into_inner(sys, ck, scale);
    if r.is_ok() {
        sys.span_end("checkpoint_restore", span, &[("refs", ck.meta.refs_consumed)]);
    }
    r
}

fn restore_into_inner(sys: &mut System, ck: &Checkpoint, scale: Scale) -> Result<(), TraceError> {
    if sys.cfg.mode != ExecMode::Native {
        return Err(bad("virtualised systems cannot be checkpointed (native mode only)"));
    }
    if sys.refs_consumed() != 0 {
        return Err(bad(format!(
            "restore target must be freshly built ({} references already consumed)",
            sys.refs_consumed()
        )));
    }
    let m = &ck.meta;
    if m.engine != ENGINE_ID {
        return Err(bad(format!("engine mismatch: checkpoint {:?}, this build {ENGINE_ID:?}", m.engine)));
    }
    if m.config != sys.cfg.name {
        return Err(bad(format!("config mismatch: checkpoint {:?}, system {:?}", m.config, sys.cfg.name)));
    }
    if m.workload != sys.workload_name() {
        return Err(bad(format!(
            "workload mismatch: checkpoint {:?}, system {:?}",
            m.workload,
            sys.workload_name()
        )));
    }
    if m.scale != TraceScale::from(scale) {
        return Err(bad(format!("scale mismatch: checkpoint {}, run {:?}", m.scale.name(), scale)));
    }
    if m.seed != sys.cfg.seed {
        return Err(bad(format!("seed mismatch: checkpoint {}, system {}", m.seed, sys.cfg.seed)));
    }

    // Drain the deterministic generator back to the recorded stream
    // position before touching any state: on error the system is dead
    // anyway, but the happy path must consume exactly this many refs.
    sys.drain_stream_refs(m.refs_consumed);

    apply("itlb", sys.itlb.restore_state(section(ck, "itlb")?))?;
    apply("dtlb4k", sys.dtlb4k.restore_state(section(ck, "dtlb4k")?))?;
    apply("dtlb2m", sys.dtlb2m.restore_state(section(ck, "dtlb2m")?))?;
    apply("l2_tlb", sys.l2_tlb.restore_state(section(ck, "l2_tlb")?))?;
    match (&mut sys.l3_tlb, ck.section("l3_tlb")) {
        (Some(l3), Some(words)) => apply("l3_tlb", l3.restore_state(words))?,
        (None, None) => {}
        (Some(_), None) => return Err(bad("checkpoint is missing section \"l3_tlb\"")),
        (None, Some(_)) => return Err(bad("checkpoint has an L3 TLB but this system does not")),
    }
    apply("pwc", sys.walker.pwc.restore_state(section(ck, "pwc")?))?;
    apply("bg_pwc", sys.bg_walker.pwc.restore_state(section(ck, "bg_pwc")?))?;
    apply("hier", sys.hier.restore_state(section(ck, "hier")?))?;
    match (&mut sys.pom, ck.section("pom")) {
        (Some(pom), Some(words)) => apply("pom", pom.restore_state(words))?,
        (None, None) => {}
        (Some(_), None) => return Err(bad("checkpoint is missing section \"pom\"")),
        (None, Some(_)) => return Err(bad("checkpoint has a POM-TLB but this system does not")),
    }

    let pt_words = section(ck, "pt_counters")?;
    let fp = section(ck, "frame_alloc")?;
    let Memory::Native { alloc, aspace } = &mut sys.proc.memory else {
        unreachable!("native mode checked above");
    };
    apply("pt_counters", aspace.page_table.restore_counters(pt_words))?;
    if fp.len() != 3 {
        return Err(bad(format!("section \"frame_alloc\": expected 3 words, got {}", fp.len())));
    }
    let a = alloc.borrow();
    let here = [a.frames_used(), a.rng_state(), a.max_skip];
    if here != [fp[0], fp[1], fp[2]] {
        return Err(bad(format!(
            "frame-allocator fingerprint mismatch (checkpoint {fp:?}, rebuild {here:?}) — \
             different construction?"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use workloads::{registry, Scale};

    const WARMUP: u64 = 2_000;
    const MEASURED: u64 = 10_000;

    fn build(cfg: SystemConfig) -> System {
        let w = registry::by_name_seeded("RND", Scale::Tiny, cfg.seed).unwrap();
        System::new(cfg, w)
    }

    #[test]
    fn capture_restore_resumes_byte_identically() {
        for cfg in [SystemConfig::radix(), SystemConfig::victima(), SystemConfig::pom_tlb()] {
            // The uninterrupted reference run.
            let mut reference = build(cfg.clone());
            reference.run_with_warmup(WARMUP, MEASURED);
            reference.finalize_stats();

            // Capture, round-trip through bytes, restore, resume.
            let mut warm = build(cfg.clone());
            let ck = capture_warm(&mut warm, Scale::Tiny, WARMUP).unwrap();
            let ck = Checkpoint::decode(&ck.encode()).unwrap();
            let mut resumed = build(cfg.clone());
            restore_into(&mut resumed, &ck, Scale::Tiny).unwrap();
            resumed.run(MEASURED);
            resumed.finalize_stats();

            assert_eq!(resumed.stats, reference.stats, "config {}", cfg.name);
        }
    }

    /// A checkpoint taken deep into the stream resumes byte-identically:
    /// restore drains millions of references through the skipping stream
    /// (`Workload::advance`), which must land exactly where the saved
    /// run's generate-and-consume left off.
    #[test]
    fn deep_stream_position_resumes_byte_identically() {
        const SKIP: u64 = 1_000_003;
        for workload in ["RND", "GEN", "DLRM", "XS", "BFS", "TC"] {
            let cfg = SystemConfig::radix();
            let build = || {
                System::new(cfg.clone(), registry::by_name_seeded(workload, Scale::Tiny, cfg.seed).unwrap())
            };
            let mut reference = build();
            reference.skip(SKIP);
            reference.run_with_warmup(WARMUP, MEASURED);
            reference.finalize_stats();

            let mut warm = build();
            warm.skip(SKIP);
            let ck =
                Checkpoint::decode(&capture_warm(&mut warm, Scale::Tiny, WARMUP).unwrap().encode()).unwrap();
            let mut resumed = build();
            restore_into(&mut resumed, &ck, Scale::Tiny).unwrap();
            assert_eq!(resumed.refs_consumed(), warm.refs_consumed(), "{workload}: stream position");
            resumed.run(MEASURED);
            resumed.finalize_stats();
            assert_eq!(resumed.stats, reference.stats, "{workload}");
        }
    }

    #[test]
    fn restore_rejects_identity_mismatches() {
        let mut warm = build(SystemConfig::radix());
        let ck = capture_warm(&mut warm, Scale::Tiny, WARMUP).unwrap();

        // Wrong config.
        let mut other = build(SystemConfig::victima());
        let err = restore_into(&mut other, &ck, Scale::Tiny).unwrap_err();
        assert!(err.to_string().contains("config mismatch"), "{err}");

        // Wrong scale.
        let mut same = build(SystemConfig::radix());
        let err = restore_into(&mut same, &ck, Scale::Full).unwrap_err();
        assert!(err.to_string().contains("scale mismatch"), "{err}");

        // Wrong seed.
        let mut cfg = SystemConfig::radix();
        cfg.seed ^= 1;
        let mut reseeded = build(cfg);
        let err = restore_into(&mut reseeded, &ck, Scale::Tiny).unwrap_err();
        assert!(err.to_string().contains("seed mismatch"), "{err}");

        // Already-run target.
        let mut used = build(SystemConfig::radix());
        used.run(100);
        let err = restore_into(&mut used, &ck, Scale::Tiny).unwrap_err();
        assert!(err.to_string().contains("freshly built"), "{err}");
    }

    #[test]
    fn restore_rejects_missing_section() {
        let mut warm = build(SystemConfig::radix());
        let full = capture_warm(&mut warm, Scale::Tiny, WARMUP).unwrap();
        let mut stripped = Checkpoint::new(full.meta.clone());
        for (name, words) in full.sections() {
            if name != "hier" {
                stripped.add_section(name, words.to_vec());
            }
        }
        let mut fresh = build(SystemConfig::radix());
        let err = restore_into(&mut fresh, &stripped, Scale::Tiny).unwrap_err();
        assert!(err.to_string().contains("missing section \"hier\""), "{err}");
    }

    #[test]
    fn virtualised_systems_are_rejected() {
        let w = registry::by_name("RND", Scale::Tiny).unwrap();
        let mut sys = System::new(SystemConfig::nested_paging(), w);
        let err = capture_warm(&mut sys, Scale::Tiny, 100).unwrap_err();
        assert!(err.to_string().contains("native mode only"), "{err}");
    }
}
