//! Attribution probes: after a traced submission returns, the benchmark
//! calls, from outside, the same public layer functions the engine ran
//! for that request path, each inside its own span. The engine's wall
//! minus the probes' sum is what no layer explains (queue handoff,
//! encode, cache insert, journal append).

use std::collections::BTreeMap;
use std::sync::Arc;

use wave_automata::ltl2buchi::translate;
use wave_automata::store::AutomatonCache;
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::parser::parse_property;
use wave_serve::codec::Mode;
use wave_serve::engine::request_fingerprint;
use wave_serve::tiers::verdict_tier_key;
use wave_verifier::abstraction::{to_pnf, FoAbstraction};
use wave_verifier::precheck::precheck;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

use crate::trace::Tracer;

/// Which path the engine took for a submission, read from its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnginePath {
    /// Whole-submission result cache hit.
    CacheHit = 0,
    /// Verdict-tier hit: the cone-sliced service was seen before.
    TierHit = 1,
    /// A search ran.
    Cold = 2,
}

impl EnginePath {
    /// Classifies a reply's flags.
    pub fn of(cache_hit: bool, incremental: bool) -> EnginePath {
        if cache_hit {
            EnginePath::CacheHit
        } else if incremental {
            EnginePath::TierHit
        } else {
            EnginePath::Cold
        }
    }
}

/// Per-layer samples gathered over a traced pass.
#[derive(Default)]
pub struct Layers {
    /// Durations in µs, keyed by metric name.
    pub us: BTreeMap<&'static str, Vec<f64>>,
    /// Interned nodes per search probe.
    pub nodes: Vec<f64>,
    /// Dedup hits per search probe.
    pub dedup: Vec<f64>,
    /// Automaton states per translation probe.
    pub states: Vec<f64>,
    /// Rules removed per slice probe.
    pub rules_removed: Vec<f64>,
    /// Slices the slicer refused (identity slice).
    pub refusals: u64,
    /// Admission checks run.
    pub precheck_calls: u64,
    /// Real submissions by the path the engine took.
    pub paths: [u64; 3],
    /// Automaton-tier hits during real submissions.
    pub automaton_hits: u64,
    /// Automaton-tier misses during real submissions.
    pub automaton_misses: u64,
}

impl Layers {
    /// Records one duration sample.
    pub fn add(&mut self, name: &'static str, us: f64) {
        self.us.entry(name).or_default().push(us);
    }

    /// Mean of a duration series (0 when the layer never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.us.get(name).map_or(0.0, |v| crate::report::mean(v))
    }

    /// Records the path a real submission took and the automaton-tier
    /// lookups it made (probes are not counted).
    pub fn record_path(&mut self, path: EnginePath, automaton_hits: u64, automaton_misses: u64) {
        self.paths[path as usize] += 1;
        self.automaton_hits += automaton_hits;
        self.automaton_misses += automaton_misses;
    }

    /// Sample count of a duration series.
    pub fn count(&self, name: &str) -> usize {
        self.us.get(name).map_or(0, Vec::len)
    }
}

/// One submission as the engine saw it.
pub struct Submitted<'a> {
    /// The service (registry-resolved or inline).
    pub service: &'a Service,
    /// Its rule sources (admission blames through them).
    pub sources: &'a ServiceSources,
    /// Property text as sent.
    pub property: &'a str,
    /// Request node limit (0 = default).
    pub node_limit: usize,
    /// The engine's automaton cache; by the time the probes run it
    /// holds this property's automaton.
    pub automata: &'a Arc<AutomatonCache>,
}

/// Re-runs the layer calls of `path` for `sub` under `root`; returns the
/// microseconds attributed. `automaton_missed` says whether the engine
/// translated the property during its run (its automaton tier missed);
/// the search probe reuses the engine's automaton cache, so translation
/// is timed once, by its own probe.
pub fn attribute(
    tr: &mut Tracer,
    layers: &mut Layers,
    root: usize,
    request: u64,
    sub: &Submitted<'_>,
    path: EnginePath,
    automaton_missed: bool,
) -> f64 {
    let mut attributed = 0.0;
    let (property, us) = tr.span("parse", Some(root), request, || {
        parse_property(sub.property).expect("benchmark properties parse")
    });
    layers.add("parse.busy_us", us);
    attributed += us;

    let (_, us) = tr.span("precheck", Some(root), request, || {
        precheck(sub.service, Some(sub.sources), Some(&property))
    });
    layers.add("precheck.busy_us", us);
    layers.precheck_calls += 1;
    attributed += us;

    let (_, us) = tr.span("fingerprint", Some(root), request, || {
        request_fingerprint(sub.service, Some(&property), Mode::Ltl, sub.node_limit)
    });
    layers.add("fingerprint.busy_us", us);
    attributed += us;

    if path == EnginePath::CacheHit {
        return attributed;
    }

    let (sliced, us) = tr.span("slice", Some(root), request, || {
        wave_core::slice::slice(sub.service, &property)
    });
    layers.add("slice.busy_us", us);
    layers
        .rules_removed
        .push(sliced.report.sliced_rules() as f64);
    if sliced.report.refused.is_some() {
        layers.refusals += 1;
    }
    attributed += us;

    let (_, us) = tr.span("tiers.key", Some(root), request, || {
        verdict_tier_key(&sliced.service, &property, sub.node_limit)
    });
    layers.add("tiers.key_us", us);
    attributed += us;
    drop(sliced);

    if path == EnginePath::TierHit {
        return attributed;
    }

    if automaton_missed {
        let (states, us) = tr.span("ltl2buchi", Some(root), request, || {
            let mut table = FoAbstraction::default();
            to_pnf(&property.body, true, &mut table).map(|pnf| translate(&pnf).len())
        });
        layers.add("ltl2buchi.busy_us", us);
        layers.states.push(states.unwrap_or(0) as f64);
        attributed += us;
    }

    let opts = SymbolicOptions {
        node_limit: sub.node_limit,
        threads: 1,
        automata: Some(Arc::clone(sub.automata)),
        ..SymbolicOptions::default()
    };
    let (outcome, us) = tr.span("search", Some(root), request, || {
        verify_ltl(sub.service, &property, &opts)
    });
    attributed += us;
    layers.add("search.busy_us", us);
    if let Ok(out) = outcome {
        let nodes = out.stats.nodes_interned;
        let search_us = out.stats.search_wall.as_secs_f64() * 1e6;
        layers.nodes.push(nodes as f64);
        layers.dedup.push(out.stats.dedup_hits as f64);
        layers.add("search.outside_wall_us", (us - search_us).max(0.0));
        if nodes > 0 {
            layers.add("search.us_per_node", search_us / nodes as f64);
        }
    }
    attributed
}

/// Per-layer values every workload reports from its traced pass; the
/// workload adds the ones only it can measure.
pub fn common_metrics(layers: &Layers) -> BTreeMap<&'static str, (f64, usize)> {
    use crate::ratio;
    use crate::report::mean;
    let mut m = BTreeMap::new();
    for name in [
        "search.busy_us",
        "search.us_per_node",
        "search.outside_wall_us",
        "ltl2buchi.busy_us",
        "precheck.busy_us",
        "parse.busy_us",
        "fingerprint.busy_us",
        "slice.busy_us",
    ] {
        m.insert(name, (layers.mean_us(name), layers.count(name)));
    }
    m.insert("search.nodes", (mean(&layers.nodes), layers.nodes.len()));
    m.insert(
        "search.dedup_hits",
        (mean(&layers.dedup), layers.dedup.len()),
    );
    m.insert(
        "ltl2buchi.states",
        (mean(&layers.states), layers.states.len()),
    );
    m.insert(
        "slice.rules_removed",
        (mean(&layers.rules_removed), layers.rules_removed.len()),
    );
    m.insert(
        "slice.refusals",
        (layers.refusals as f64, layers.rules_removed.len()),
    );
    let calls = layers.precheck_calls as usize;
    m.insert("precheck.calls", (calls as f64, calls));
    let [hit, tier, cold] = layers.paths.map(|n| n as f64);
    let n = (hit + tier + cold) as usize;
    m.insert("cache.hit_ratio", (ratio(hit, hit + tier + cold), n));
    m.insert(
        "verdict_tier.hit_ratio",
        (ratio(tier, tier + cold), (tier + cold) as usize),
    );
    let (ah, am) = (layers.automaton_hits as f64, layers.automaton_misses as f64);
    m.insert(
        "automaton_tier.hit_ratio",
        (ratio(ah, ah + am), (ah + am) as usize),
    );
    m
}
