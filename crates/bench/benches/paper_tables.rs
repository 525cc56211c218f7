//! `cargo bench` target that regenerates every paper table/figure at
//! quick scale (harness = false: this is a macro-benchmark, not a
//! statistical micro-benchmark).

use victima_bench::{experiments, ExpCtx};
use workloads::Scale;

fn main() {
    // Respect `cargo bench -- <filter>`-style arguments minimally: any
    // non-flag argument restricts to matching experiment ids.
    let filters: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    let ctx = ExpCtx::quick_at(Scale::Full);
    let start = std::time::Instant::now();
    let ids: Vec<&str> = experiments::ALL_IDS
        .iter()
        .copied()
        .filter(|id| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str())))
        .collect();
    for id in ids {
        let t0 = std::time::Instant::now();
        print!("{}", report::text::render_all(&experiments::by_id(&ctx, id).expect("known id")));
        eprintln!("[{id}: {:.1}s]", t0.elapsed().as_secs_f64());
    }
    eprintln!("[paper_tables total: {:.1}s]", start.elapsed().as_secs_f64());
}
