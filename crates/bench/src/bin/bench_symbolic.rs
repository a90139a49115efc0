//! EXP-SERVE — machine-readable symbolic-verification benchmark.
//!
//! Runs the Fig. 2 payment-safety property (`forall p . G (!ship(p) |
//! paid)`) on the **checkout bench** service — the checkout core scaled
//! by independent toggle flags to ~16× its state count, large enough
//! that search time dominates per-run setup — through two paths and
//! writes one JSON report, `BENCH_symbolic.json`, at the repo root:
//!
//! 1. **Sequential entry** — direct `verify_ltl` with slicing off,
//!    reporting the sample count, the minimum, median and maximum wall
//!    time, and the full `SearchStats`. Slicing is pinned off because
//!    cone-of-influence slicing (on by default) removes the very toggle
//!    flags that scale this service up.
//! 2. **Slice sweep** — the same request with slicing on vs off. The
//!    Fig. 2 property's cone excludes every toggle flag, so the sliced
//!    search collapses back to roughly the checkout core; the entry
//!    records the node-count and wall-time reduction (the headline
//!    numbers for the slicer) and asserts the verdict is unchanged.
//! 3. **Service path** — the same request submitted twice through a
//!    `wave-serve` engine: the cold run pays for the search, the second
//!    must be a content-addressed cache hit, so the hit/cold timing
//!    ratio is the headline number for the result cache.
//!
//! Sample count comes from `WAVE_BENCH_SAMPLES` (default 5).
//!
//! Usage: `cargo run --release -p wave-bench --bin bench_symbolic
//! [-- --out PATH] [-- --smoke]`.
//!
//! `--smoke` is the CI regression tripwire: it runs only the slice
//! sweep, skips the service path and the report file, and exits 1 when
//! slicing changes the verdict kind, when either search interns a
//! different node count than the committed `BENCH_symbolic.json`
//! records (the counts are deterministic), or when the sliced minimum
//! wall exceeds [`SMOKE_SLICE_RATIO`] × the unsliced minimum wall.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wave_demo::site;
use wave_logic::parser::parse_property;
use wave_serve::codec::{stats_to_json, Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::json::Json;
use wave_verifier::symbolic::{verify_ltl, SearchStats, SymbolicOptions, Verdict};

const FIG2_PROPERTY: &str = "forall p . G (!ship(p) | paid)";
const SERVICE: &str = "checkout_bench";
/// `--smoke` fails when the sliced minimum wall is more than this
/// fraction of the unsliced one. The committed report shows about 0.05,
/// so only a slicer that stopped removing the toggle flags (or a search
/// that stopped scaling with the node count) trips it.
const SMOKE_SLICE_RATIO: f64 = 0.25;

fn samples() -> usize {
    std::env::var("WAVE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// Repo root at build time; `--out` overrides at run time.
fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_symbolic.json")
}

struct Entry {
    wall_us_min: u64,
    verdict: Verdict,
    stats: SearchStats,
    json: Json,
}

fn run_entry(
    service: &wave_core::service::Service,
    property: &wave_logic::temporal::Property,
    n: usize,
    slice: bool,
) -> Entry {
    let opts = SymbolicOptions {
        slice,
        ..SymbolicOptions::default()
    };
    let mut walls: Vec<u64> = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let out = verify_ltl(service, property, &opts).expect("verification succeeds");
        walls.push(t0.elapsed().as_micros() as u64);
        last = Some(out);
    }
    let out = last.expect("at least one sample");
    walls.sort_unstable();
    let wall_us_min = walls[0];
    let wall_us_median = walls[walls.len() / 2];
    let wall_us_max = walls[walls.len() - 1];
    let json = Json::Obj(vec![
        ("samples".into(), Json::Int(n as i64)),
        ("wall_us_min".into(), Json::Int(wall_us_min as i64)),
        ("wall_us_median".into(), Json::Int(wall_us_median as i64)),
        ("wall_us_max".into(), Json::Int(wall_us_max as i64)),
        ("stats".into(), stats_to_json(&out.stats)),
    ]);
    eprintln!(
        "slice={slice}: min {wall_us_min} us, median {wall_us_median} us, max {wall_us_max} us \
         over {n} samples ({} nodes)",
        out.stats.nodes_interned
    );
    Entry {
        wall_us_min,
        verdict: out.verdict,
        stats: out.stats,
        json,
    }
}

/// The `(off, on)` node counts recorded in a committed report's
/// `slice_sweep`, or why they could not be read.
fn committed_nodes(path: &Path) -> Result<(i64, i64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let nodes = |side: &str| {
        report
            .get("slice_sweep")
            .and_then(|s| s.get(side))
            .and_then(|s| s.get("nodes_interned"))
            .and_then(Json::as_int)
            .ok_or_else(|| format!("{}: no slice_sweep.{side}.nodes_interned", path.display()))
    };
    Ok((nodes("off")?, nodes("on")?))
}

/// The `--smoke` checks; each returned line is one failure.
fn smoke_failures(
    full: &Entry,
    sliced: &Entry,
    committed: Result<(i64, i64), String>,
) -> Vec<String> {
    let mut fails = Vec::new();
    if std::mem::discriminant(&full.verdict) != std::mem::discriminant(&sliced.verdict) {
        fails.push(format!(
            "slicing changed the verdict kind: {:?} vs {:?}",
            full.verdict, sliced.verdict
        ));
    }
    match committed {
        Ok((off, on)) => {
            for (side, got, want) in [
                ("off", full.stats.nodes_interned, off),
                ("on", sliced.stats.nodes_interned, on),
            ] {
                if got as i64 != want {
                    fails.push(format!(
                        "slice {side}: interned {got} nodes, the committed report says {want}"
                    ));
                }
            }
        }
        Err(e) => fails.push(format!("committed node counts unreadable: {e}")),
    }
    let (on, off) = (sliced.wall_us_min as f64, full.wall_us_min as f64);
    if on > off * SMOKE_SLICE_RATIO {
        fails.push(format!(
            "sliced min wall {on} us exceeds {SMOKE_SLICE_RATIO} x the unsliced {off} us"
        ));
    }
    fails
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(default_out);
    let n = samples();

    let service = site::checkout_bench();
    let property = parse_property(FIG2_PROPERTY).expect("Fig. 2 property parses");

    // 1. The sequential entry via the verifier directly, slicing off:
    // the measurement needs the full toggle-scaled search.
    let full = run_entry(&service, &property, n, false);

    // 2. Slicing on vs off. The cone of `forall p . G (!ship(p) | paid)`
    // reaches ship, paid, pick_pid and their feeding inputs but none of
    // the bench toggle flags, so the sliced search is the checkout
    // core's — the reduction is the slicer's headline.
    let sliced = run_entry(&service, &property, n, true);

    if smoke {
        let fails = smoke_failures(&full, &sliced, committed_nodes(&default_out()));
        for f in &fails {
            eprintln!("SMOKE FAIL: {f}");
        }
        if !fails.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "smoke ok: {} -> {} nodes, sliced min {} us vs unsliced min {} us",
            full.stats.nodes_interned,
            sliced.stats.nodes_interned,
            sliced.wall_us_min,
            full.wall_us_min
        );
        return;
    }

    // Kind identity, not structural equality: `Holds` carries the
    // explored-node count, which slicing legitimately shrinks.
    assert!(
        matches!(full.verdict, Verdict::Holds { .. })
            && matches!(sliced.verdict, Verdict::Holds { .. }),
        "slicing must preserve the Fig. 2 verdict"
    );
    assert!(
        sliced.stats.nodes_interned < full.stats.nodes_interned,
        "slicing must shrink the search on the toggle-scaled service"
    );
    let pct = |part: u64, whole: u64| -> i64 {
        part.saturating_mul(100)
            .checked_div(whole)
            .unwrap_or_default() as i64
    };
    let node_reduction_pct = 100
        - pct(
            sliced.stats.nodes_interned as u64,
            full.stats.nodes_interned as u64,
        );
    let wall_reduction_pct = 100 - pct(sliced.wall_us_min, full.wall_us_min);
    eprintln!(
        "slice: {} -> {} nodes (-{node_reduction_pct}%), {} -> {} us min wall \
         (-{wall_reduction_pct}%), {} rules / {} relations sliced",
        full.stats.nodes_interned,
        sliced.stats.nodes_interned,
        full.wall_us_min,
        sliced.wall_us_min,
        sliced.stats.sliced_rules,
        sliced.stats.sliced_relations
    );
    let slice_report = Json::Obj(vec![
        ("samples".into(), Json::Int(n as i64)),
        (
            "off".into(),
            Json::Obj(vec![
                ("wall_us_min".into(), Json::Int(full.wall_us_min as i64)),
                (
                    "nodes_interned".into(),
                    Json::Int(full.stats.nodes_interned as i64),
                ),
            ]),
        ),
        (
            "on".into(),
            Json::Obj(vec![
                ("wall_us_min".into(), Json::Int(sliced.wall_us_min as i64)),
                (
                    "nodes_interned".into(),
                    Json::Int(sliced.stats.nodes_interned as i64),
                ),
                (
                    "sliced_rules".into(),
                    Json::Int(sliced.stats.sliced_rules as i64),
                ),
                (
                    "sliced_relations".into(),
                    Json::Int(sliced.stats.sliced_relations as i64),
                ),
            ]),
        ),
        ("node_reduction_pct".into(), Json::Int(node_reduction_pct)),
        ("wall_reduction_pct".into(), Json::Int(wall_reduction_pct)),
    ]);

    // 3. Cold vs. cache-hit timings through the service.
    let engine = Arc::new(Engine::new(EngineOptions::default()));
    let req = VerifyRequest {
        service: SERVICE.into(),
        property: FIG2_PROPERTY.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    };
    let t0 = Instant::now();
    let cold = engine.submit(&req).expect("cold submit succeeds");
    let cold_us = t0.elapsed().as_micros() as u64;
    assert!(!cold.cache_hit, "first submission must miss the cache");
    let mut hit_us_min = u64::MAX;
    for _ in 0..n.max(10) {
        let t0 = Instant::now();
        let hit = engine.submit(&req).expect("warm submit succeeds");
        hit_us_min = hit_us_min.min(t0.elapsed().as_micros() as u64);
        assert!(hit.cache_hit, "repeat submission must hit the cache");
        assert_eq!(
            hit.outcome_bytes, cold.outcome_bytes,
            "cache hit must replay byte-identical outcome"
        );
    }
    eprintln!("service: cold {cold_us} us, best cache hit {hit_us_min} us");

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("symbolic")),
        ("service".into(), Json::str(SERVICE)),
        ("property".into(), Json::str(FIG2_PROPERTY)),
        ("samples".into(), Json::Int(n as i64)),
        ("sequential".into(), full.json),
        ("slice_sweep".into(), slice_report),
        (
            "cache".into(),
            Json::Obj(vec![
                ("fingerprint".into(), Json::str(cold.fingerprint.to_hex())),
                ("cold_us".into(), Json::Int(cold_us as i64)),
                ("hit_us_min".into(), Json::Int(hit_us_min as i64)),
            ]),
        ),
    ]);
    std::fs::write(&out, report.encode() + "\n").expect("write report");
    println!("wrote {}", out.display());
}
