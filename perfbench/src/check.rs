//! Output checks: committed expected digests at the default seed.
//!
//! Each workload's `expected/<workload>.digests` holds one
//! `<config>/<workload> <digest>` line per spec, recorded at
//! [`crate::DEFAULT_SEED`] with `--bless`. Simulation specs digest a
//! fixed set of [`sim::SimStats`] counters ([`crate::simrun::stats_digest`]);
//! service specs digest their streamed result line byte for byte.

use crate::Workload;
use std::collections::BTreeMap;

/// Expected per-spec digests, keyed by spec label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    map: BTreeMap<String, String>,
}

impl Expected {
    /// The digests committed for a workload.
    pub fn committed(w: Workload) -> Self {
        Self::parse(match w {
            Workload::Native => include_str!("../expected/native.digests"),
            Workload::Virt => include_str!("../expected/virt.digests"),
            Workload::Sampled => include_str!("../expected/sampled.digests"),
            Workload::Service => include_str!("../expected/service.digests"),
        })
    }

    /// Parses `label digest` lines (blank lines and `#` comments skipped).
    pub fn parse(text: &str) -> Self {
        let map = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' ').map(|(k, v)| (k.to_owned(), v.trim().to_owned())))
            .collect();
        Self { map }
    }

    /// Renders digests in the committed file format.
    pub fn render(entries: &[(String, String)]) -> String {
        let mut out =
            String::from("# <config>/<workload> <digest>, recorded at the default seed with --bless\n");
        for (label, d) in entries {
            out.push_str(&format!("{label} {d}\n"));
        }
        out
    }

    /// Checks one spec's digest: `Some(reason)` when it is missing or
    /// differs.
    pub fn verify(&self, label: &str, digest: &str) -> Option<String> {
        match self.map.get(label) {
            Some(want) if want == digest => None,
            Some(want) => Some(format!("{label}: digest {digest} differs from expected {want}")),
            None => Some(format!("{label}: no expected digest committed")),
        }
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is committed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_flags_mismatches() {
        let entries = vec![("radix/RND".to_owned(), "00ff".to_owned())];
        let e = Expected::parse(&Expected::render(&entries));
        assert_eq!(e.len(), 1);
        assert_eq!(e.verify("radix/RND", "00ff"), None);
        assert!(e.verify("radix/RND", "00fe").is_some());
        assert!(e.verify("victima/RND", "00ff").is_some());
    }
}
