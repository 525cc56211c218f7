//! Pins simulation results.
//!
//! Each case runs one spec through `SimEngine::run_one_observed` with
//! metrics on and hashes with 64-bit FNV-1a:
//! - `format!("{:?}", stats)`, which renders every `SimStats` counter,
//!   histogram and `f64`;
//! - the metric snapshot, for native configs only (the virtualised flows
//!   are free to gain metric sites without re-recording);
//! - the Table 1 feature dataset, for feature-tracking runs.
//!
//! A refactor of the translation path must leave every fingerprint
//! unchanged; an intended behaviour change re-records them, and the
//! `--check` baselines move with it.

use sim::{ExecMode, ObsMode, RunSpec, SamplingConfig, SimEngine, SystemConfig};
use workloads::Scale;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const WARMUP: u64 = 20_000;
const INSTRUCTIONS: u64 = 150_000;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn fingerprint(spec: &RunSpec) -> u64 {
    let r = SimEngine::run_one_observed(0, spec, &mut Default::default(), ObsMode::Metrics);
    let mut h = fnv(FNV_OFFSET, format!("{:?}", r.stats).as_bytes());
    if spec.config.mode == ExecMode::Native {
        h = fnv(h, format!("{:?}", r.metrics.expect("metrics enabled")).as_bytes());
    }
    if let Some(t) = &r.features {
        h = fnv(h, format!("{:?}", t.dataset(0.2)).as_bytes());
    }
    h
}

fn assert_fingerprints(cases: &[(RunSpec, u64)]) {
    let drifted: Vec<String> = cases
        .iter()
        .map(|(spec, want)| (spec, *want, fingerprint(spec)))
        .filter(|(_, want, got)| want != got)
        .map(|(spec, want, got)| format!("{}: expected {want:#018x}, got {got:#018x}", spec.label()))
        .collect();
    assert!(drifted.is_empty(), "simulation results drifted:\n{}", drifted.join("\n"));
}

fn config(key: &str) -> SystemConfig {
    match key {
        "radix" => SystemConfig::radix(),
        "l3tlb" => SystemConfig::with_l3_tlb(8192, 15),
        "pom" => SystemConfig::pom_tlb(),
        "victima" => SystemConfig::victima(),
        "victima+stlb" => SystemConfig::victima_plus_stlb(),
        "agnostic" => SystemConfig::victima_agnostic_srrip(),
        "ideal" => SystemConfig::ideal_backstop(16, "TLB-hit-L2"),
        "np" => SystemConfig::nested_paging(),
        "pom-virt" => SystemConfig::pom_tlb_virt(),
        "isp" => SystemConfig::ideal_shadow_paging(),
        "victima-virt" => SystemConfig::victima_virt(),
        _ => unreachable!("unknown config key {key}"),
    }
}

/// Full-detail runs: every config over {RND, XS, BFS, TC} at Tiny.
#[test]
fn detailed_runs_match_recorded_fingerprints() {
    let recorded: &[(&str, [u64; 4])] = &[
        ("radix", [0x4841bbd178244539, 0x3f9d927e267c8fa8, 0xcec8b9d99f46a772, 0xa9eecb6803eb48e3]),
        ("l3tlb", [0xd59a10e19d2f7c03, 0x345fd405dd9523a6, 0x1dca222dc46c5e1a, 0x95f91dd4517b5095]),
        ("pom", [0xe17641c81df7c2fc, 0x79a1f797c69dfeb0, 0x103450cb08657569, 0xc70e299eebfd4280]),
        ("victima", [0x3069a9ee42face09, 0xee4c0b8d5c308e1f, 0xd68694b06bca90f0, 0xd5ac8736ddfef5c2]),
        ("victima+stlb", [0x2a421fc7260ba9a2, 0x2076eaf47926db2b, 0x2bd509f992223e0c, 0xca3579522a20fbbd]),
        ("agnostic", [0x3069a9ee42face09, 0x23018d085d82da9d, 0xd68694b06bca90f0, 0xd5ac8736ddfef5c2]),
        ("ideal", [0xfd540eeec606e60d, 0x93324099e5e31d1a, 0x34ebee9bd406b641, 0xcae23efbab2ebf93]),
        ("np", [0xd4d0e02609bbd50e, 0xf922c43a521a3d7a, 0xf976859c46edd6f5, 0x14b183dea1f6be3e]),
        ("pom-virt", [0x6ebb046beac9e55a, 0x001a7d1b5329b010, 0x03e46838f2a5e944, 0xa07dfd66ebdd3750]),
        ("isp", [0xe3c44e8b12c19cf8, 0x6a226cfda2145a97, 0xbe77b8156af8f747, 0x3dd3a1b6684fda2e]),
        ("victima-virt", [0x81ad7daa5e2f694f, 0x471b029a8fc56948, 0xcf00400699532a81, 0xd98e8a2cfa31f1ad]),
    ];
    let cases: Vec<(RunSpec, u64)> = recorded
        .iter()
        .flat_map(|&(key, hashes)| {
            ["RND", "XS", "BFS", "TC"]
                .into_iter()
                .zip(hashes)
                .map(move |(w, h)| (RunSpec::new(w, config(key), Scale::Tiny, WARMUP, INSTRUCTIONS), h))
        })
        .collect();
    assert_fingerprints(&cases);
}

/// A sampled BFS run and a feature-tracking RND run per config.
#[test]
fn sampled_and_feature_runs_match_recorded_fingerprints() {
    let sampling = SamplingConfig::parse("40000:4000:2000").expect("valid schedule");
    let recorded: &[(&str, u64, u64)] = &[
        ("radix", 0xb1ea9ac66747cef6, 0x2f8874c50a552a96),
        ("victima", 0xc33fe40f5d96f183, 0xebb40a9be952c7c7),
        ("pom", 0x3254a00f36b436ee, 0xb922b55cf538cc25),
    ];
    let cases: Vec<(RunSpec, u64)> = recorded
        .iter()
        .flat_map(|&(key, sampled, features)| {
            [
                (
                    RunSpec::new("BFS", config(key), Scale::Tiny, WARMUP, 400_000).with_sampling(sampling),
                    sampled,
                ),
                (
                    RunSpec::new("RND", config(key), Scale::Tiny, WARMUP, INSTRUCTIONS).with_features(),
                    features,
                ),
            ]
        })
        .collect();
    assert_fingerprints(&cases);
}
