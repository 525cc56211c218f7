//! Pins simulation results.
//!
//! Each case runs one spec through `SimEngine::run_one_observed` with
//! metrics on and records two 64-bit FNV-1a hashes:
//! - the stats hash, over `format!("{:?}", stats)` (every `SimStats`
//!   counter, histogram and `f64`) followed by the Table 1 feature
//!   dataset for feature-tracking runs;
//! - the metric hash, over the metric snapshot, for every config, native
//!   and virtualised: the `sim.ptw.*` histograms and the PWC counts pin
//!   the nested 2D walk as well as the radix walk.
//!
//! A refactor of the translation path must leave every stats hash and
//! every metric hash unchanged; an intended behaviour change re-records
//! them, and the `--check` baselines move with it. A change to what the
//! `sim.*` metrics report re-records only the metric hashes.

use sim::{ObsMode, RunSpec, SamplingConfig, SimEngine, SystemConfig};
use workloads::Scale;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const WARMUP: u64 = 20_000;
const INSTRUCTIONS: u64 = 150_000;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The stats hash and the metric hash of one run.
fn fingerprint(spec: &RunSpec) -> (u64, u64) {
    let r = SimEngine::run_one_observed(0, spec, ObsMode::Metrics);
    let mut stats = fnv(FNV_OFFSET, format!("{:?}", r.stats).as_bytes());
    if let Some(t) = &r.features {
        stats = fnv(stats, format!("{:?}", t.dataset(0.2)).as_bytes());
    }
    let metrics = fnv(FNV_OFFSET, format!("{:?}", r.metrics.expect("metrics enabled")).as_bytes());
    (stats, metrics)
}

/// One case: a spec, its recorded stats hash and its recorded metric
/// hash.
type Case = (RunSpec, u64, u64);

fn assert_fingerprints(cases: &[Case]) {
    let mut drifted = Vec::new();
    for (spec, want_stats, want_metrics) in cases {
        let (stats, metrics) = fingerprint(spec);
        if stats != *want_stats {
            drifted.push(format!("{} stats: expected {want_stats:#018x}, got {stats:#018x}", spec.label()));
        }
        if metrics != *want_metrics {
            drifted.push(format!(
                "{} metrics: expected {want_metrics:#018x}, got {metrics:#018x}",
                spec.label()
            ));
        }
    }
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

/// The recorded metric hashes of `key`, which every config must have.
fn metric_hashes<const N: usize>(table: &[(&str, [u64; N])], key: &str) -> [u64; N] {
    let row = table.iter().find(|(k, _)| *k == key);
    row.unwrap_or_else(|| panic!("{key}: no metric hashes recorded")).1
}

/// Full-detail runs: every config over {RND, XS, BFS, TC} at Tiny.
#[test]
fn detailed_runs_match_recorded_fingerprints() {
    let stats: &[(&str, [u64; 4])] = &[
        ("radix", [0x2bda0609b554309e, 0xb31b39df8380bf90, 0xcbd9b4d2fc7163a1, 0xa58e559fe91ce4a4]),
        ("l3tlb", [0xbfa090e6c0b447ca, 0xc8ad360fd53f949a, 0x52a51074b3b470e0, 0x8e8c9b3188120aae]),
        ("pom", [0x34b266f42502859a, 0xcd04b1fefa70812e, 0x7c4a966697671919, 0x3e3408af027b265e]),
        ("victima", [0x0a74590faa9be5ab, 0x09707e0e626669f0, 0x12a41e752127537b, 0xc3dea47e7a321082]),
        ("victima+stlb", [0x2185e097cb0914e9, 0x0b6632015930495c, 0x3f363f52279561f1, 0x908ce7ffe14e4326]),
        ("agnostic", [0x0a74590faa9be5ab, 0xac891987918c6572, 0x12a41e752127537b, 0xc3dea47e7a321082]),
        ("ideal", [0x6a4a7bc7535011c1, 0x108b07e6f5a5c6b6, 0x29557f94fcd848d9, 0xa1f957fd17b3d5eb]),
        ("np", [0xd4d0e02609bbd50e, 0xf922c43a521a3d7a, 0xf976859c46edd6f5, 0x14b183dea1f6be3e]),
        ("pom-virt", [0x6ebb046beac9e55a, 0x001a7d1b5329b010, 0x03e46838f2a5e944, 0xa07dfd66ebdd3750]),
        ("isp", [0xe3c44e8b12c19cf8, 0x6a226cfda2145a97, 0xbe77b8156af8f747, 0x3dd3a1b6684fda2e]),
        ("victima-virt", [0x81ad7daa5e2f694f, 0x471b029a8fc56948, 0xcf00400699532a81, 0xd98e8a2cfa31f1ad]),
    ];
    let metrics: &[(&str, [u64; 4])] = &[
        ("radix", [0xd82838ef3b3d9e2e, 0xa43be96e8fe4e86a, 0x951b066c3d9b1e55, 0x19c683345d2c9adb]),
        ("l3tlb", [0xfd71099b0f3a09aa, 0xeabdaeb30f6a49f1, 0x5d7e6b7f81b3c998, 0x606c138e73259221]),
        ("pom", [0x18f456384931595f, 0x5c8cbaaf5780338e, 0x5a5834997d7e0bd7, 0x7d73a6ef6d11fbee]),
        ("victima", [0xaef1b43cb0b639bb, 0x02983c0995e7f886, 0x4dd656e3647fb9f0, 0x8b60c646da8bf301]),
        ("victima+stlb", [0x84dfa694911411e2, 0x450e66987da89802, 0x46163fce5c10da10, 0xcd2c9f924cabf15e]),
        ("agnostic", [0xaef1b43cb0b639bb, 0x13c798dcd06f47b9, 0x4dd656e3647fb9f0, 0x8b60c646da8bf301]),
        ("ideal", [0x115aeae2e948cc68, 0x6c11e0e190cfeb57, 0x72aff1b57881b84c, 0x23fe7b0dcae48ee1]),
        ("np", [0xa8defd8020119067, 0xb63a6d3a724c4fe0, 0x766a9a6dc5d0eabe, 0x9fd6fc4bd24e2433]),
        ("pom-virt", [0xdd048ce4e453c8f8, 0xe5f3a891e75bebb2, 0x6fbbee0314ee53f0, 0xd35f408e408ac155]),
        ("isp", [0x5cb5ca87a59f61fa, 0x4c4a963aaaf8cc01, 0xf0ef882c31ef2c1e, 0xb91c408c805fc748]),
        ("victima-virt", [0x32659cc40bc95d39, 0x0c2745c0a2e00c36, 0x94bd5168e1af21fb, 0xfaf13606e1d80460]),
    ];
    let cases: Vec<Case> = stats
        .iter()
        .flat_map(|&(key, hashes)| {
            let metrics = metric_hashes(metrics, key);
            ["RND", "XS", "BFS", "TC"].into_iter().enumerate().map(move |(i, w)| {
                let spec = RunSpec::new(w, config(key), Scale::Tiny, WARMUP, INSTRUCTIONS);
                (spec, hashes[i], metrics[i])
            })
        })
        .collect();
    assert_fingerprints(&cases);
}

/// A sampled BFS run and a feature-tracking RND run per config; each
/// table row holds the `[sampled, features]` hashes.
#[test]
fn sampled_and_feature_runs_match_recorded_fingerprints() {
    let sampling = SamplingConfig::parse("40000:4000:2000").expect("valid schedule");
    let stats: &[(&str, [u64; 2])] = &[
        ("radix", [0x36669e6ce59397ef, 0x2b0e154803c89ae5]),
        ("victima", [0x74d2b79ef84bf78f, 0xb93ef955431ba629]),
        ("pom", [0xfa5fc42d9eb42e46, 0x4ad26f28216cc14f]),
    ];
    let metrics: &[(&str, [u64; 2])] = &[
        ("radix", [0xfc53a335ec01efcd, 0xd82838ef3b3d9e2e]),
        ("victima", [0xe7dbb84d51307d30, 0xaef1b43cb0b639bb]),
        ("pom", [0xe71e24b36f8bcaa8, 0x18f456384931595f]),
    ];
    let cases: Vec<Case> = stats
        .iter()
        .flat_map(|&(key, hashes)| {
            let metrics = metric_hashes(metrics, key);
            let sampled =
                RunSpec::new("BFS", config(key), Scale::Tiny, WARMUP, 400_000).with_sampling(sampling);
            let features =
                RunSpec::new("RND", config(key), Scale::Tiny, WARMUP, INSTRUCTIONS).with_features();
            [sampled, features].into_iter().enumerate().map(move |(i, spec)| (spec, hashes[i], metrics[i]))
        })
        .collect();
    assert_fingerprints(&cases);
}
