//! The incremental-divergence leg: random edit sequences replayed
//! through a **warm** `wave-serve` engine and diffed against cold runs.
//!
//! The digest-keyed tiers (`wave_serve::tiers`) claim that a warm
//! engine answering from its verdict tier returns **byte-identical**
//! verdicts to a cold search of the submitted service — for any edit,
//! in-cone or out. This leg turns the claim into an oracle:
//!
//! 1. generate a spec, submit it to a fresh in-process engine (cold);
//! 2. apply a seeded sequence of edits — rule-body tweaks, property
//!    swaps, relation renames, and no-op reorders — resubmitting each
//!    admissible edit to the *same* engine;
//! 3. for every resubmission, run the edited service cold through
//!    [`verify_ltl`] and demand the verdict's wire encoding match the
//!    warm engine's byte for byte;
//! 4. for **no-op** edits (permutations that preserve the canonical
//!    fingerprint) additionally demand zero search node expansions —
//!    the answer must come from the result cache or the verdict tier,
//!    never from a search.
//!
//! Any violation is a [`FlawKind::IncrementalDivergence`]; engine
//! refusals of admissible requests are [`FlawKind::EngineError`]s. The
//! `wave-qa --incremental` campaign gates on this in CI alongside
//! `qa-fuzz`.

use wave_logic::parser::parse_property;
use wave_rng::{Rng, SplitMix64};
use wave_serve::codec::{outcome_from_json, verdict_to_json, Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::json::Json;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions, VerifyOutcome};

use crate::diff::{permuted, Flaw, FlawKind};
use wave_core::spec::{rename_idents, ServiceSpec};

/// Budgets for one incremental case.
#[derive(Clone, Debug)]
pub struct IncOptions {
    /// Edits attempted per seed (inadmissible mutants are skipped, not
    /// counted).
    pub edits: usize,
    /// Symbolic node budget for both the warm engine and the cold
    /// oracle — they must agree for the tier key to be comparable.
    pub node_limit: usize,
}

impl Default for IncOptions {
    fn default() -> Self {
        IncOptions {
            edits: 4,
            node_limit: 300_000,
        }
    }
}

/// The outcome of one incremental case.
#[derive(Clone, Debug)]
pub struct IncReport {
    /// The seed.
    pub seed: u64,
    /// Admissible edits actually submitted (excludes the base submit).
    pub edits: usize,
    /// Mutants skipped because they no longer built or admitted.
    pub skipped: usize,
    /// Resubmissions answered by the whole-submission result cache.
    pub cache_hits: usize,
    /// Resubmissions answered by the digest-keyed verdict tier.
    pub incremental_hits: usize,
    /// Resubmissions that ran a cold search in the engine.
    pub cold_runs: usize,
    /// Everything that tripped.
    pub flaws: Vec<Flaw>,
}

impl IncReport {
    /// True when the case produced no flaw.
    pub fn clean(&self) -> bool {
        self.flaws.is_empty()
    }
}

/// Runs the incremental leg on one spec: a warm engine fed a seeded
/// edit sequence, every answer diffed against a cold run.
pub fn run_incremental_case(seed: u64, spec: &ServiceSpec, opts: &IncOptions) -> IncReport {
    let mut report = IncReport {
        seed,
        edits: 0,
        skipped: 0,
        cache_hits: 0,
        incremental_hits: 0,
        cold_runs: 0,
        flaws: Vec::new(),
    };
    let engine = Engine::new(EngineOptions {
        workers: 1,
        queue_capacity: 4,
        ..EngineOptions::default()
    });
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);

    // Base submission warms the engine (result cache + both tiers).
    let mut current = spec.clone();
    if submit_and_diff(&engine, &current, opts, false, &mut report).is_none() {
        return report;
    }

    let mut attempts = 0;
    while report.edits + report.skipped < opts.edits && attempts < opts.edits * 4 {
        attempts += 1;
        let mut edited = current.clone();
        let noop = match rng.gen_range(0usize..4) {
            0 => {
                if !tweak_rule_body(&mut edited, &mut rng) {
                    continue;
                }
                false
            }
            1 => {
                edited.property = crate::gen::random_property(&edited, &mut rng);
                false
            }
            2 => {
                if !rename_relation(&mut edited, &mut rng) {
                    continue;
                }
                false
            }
            _ => {
                edited = permuted(&current, &mut rng);
                true
            }
        };
        if !crate::gen::admissible(&edited) {
            report.skipped += 1;
            continue;
        }
        report.edits += 1;
        if submit_and_diff(&engine, &edited, opts, noop, &mut report).is_some() {
            // Walk the sequence: the next edit builds on this one, so
            // the engine accumulates a history of warm digests.
            current = edited;
        }
    }
    report
}

/// Submits `spec` to the warm engine, decodes the answer, and diffs it
/// against a cold [`verify_ltl`] of the same build. Returns `None` when
/// the submission never produced a comparable outcome.
fn submit_and_diff(
    engine: &Engine,
    spec: &ServiceSpec,
    opts: &IncOptions,
    noop: bool,
    report: &mut IncReport,
) -> Option<()> {
    let flaw = |report: &mut IncReport, kind: FlawKind, detail: String| {
        report.flaws.push(Flaw { kind, detail });
    };
    let (service, sources) = match spec.build() {
        Ok(pair) => pair,
        Err(errs) => {
            flaw(
                report,
                FlawKind::Build,
                format!("admissible spec stopped building: {errs:?}"),
            );
            return None;
        }
    };
    let property = parse_property(&spec.property).ok()?;
    let req = VerifyRequest {
        service: "qa-inc".into(),
        property: spec.property.clone(),
        mode: Mode::Ltl,
        node_limit: opts.node_limit,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    };
    let res = match engine.submit_service(service.clone(), sources, &req) {
        Ok(r) => r,
        Err(e) => {
            flaw(
                report,
                FlawKind::EngineError,
                format!("warm engine refused an admissible submit: {e}"),
            );
            return None;
        }
    };
    let warm: VerifyOutcome = match std::str::from_utf8(&res.outcome_bytes)
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .and_then(|j| outcome_from_json(&j).ok())
    {
        Some(out) => out,
        None => {
            flaw(
                report,
                FlawKind::EngineError,
                "warm engine returned undecodable outcome bytes".into(),
            );
            return None;
        }
    };
    if res.cache_hit {
        report.cache_hits += 1;
    } else if res.incremental {
        report.incremental_hits += 1;
    } else {
        report.cold_runs += 1;
    }

    // The cold oracle: same service, same property, same budget,
    // no caches of any kind.
    let cold = match verify_ltl(
        &service,
        &property,
        &SymbolicOptions {
            node_limit: opts.node_limit,
            ..SymbolicOptions::default()
        },
    ) {
        Ok(out) => out,
        Err(e) => {
            flaw(
                report,
                FlawKind::EngineError,
                format!("cold oracle refused an admissible request: {e}"),
            );
            return None;
        }
    };

    // The tentpole claim: warm and cold verdict *bytes* are identical —
    // not just the kind, the full wire encoding (witness lassos
    // included), because a tier hit replays stored bytes verbatim.
    let warm_bytes = verdict_to_json(&warm.verdict).encode();
    let cold_bytes = verdict_to_json(&cold.verdict).encode();
    if warm_bytes != cold_bytes {
        flaw(
            report,
            FlawKind::IncrementalDivergence,
            format!(
                "warm {} ({}) vs cold {}",
                warm_bytes,
                if res.cache_hit {
                    "cache hit"
                } else if res.incremental {
                    "tier hit"
                } else {
                    "cold in-engine"
                },
                cold_bytes
            ),
        );
    }
    // A no-op edit (canonical-fingerprint-preserving permutation) must
    // never run a fresh search: either the result cache replays the
    // prior outcome verbatim (its *stored* stats describe the original
    // search, which is fine), or the verdict tier answers with zero
    // expansions. A cold in-engine run here means the digest missed.
    if noop && !res.cache_hit && !(res.incremental && warm.stats.nodes_interned == 0) {
        flaw(
            report,
            FlawKind::IncrementalDivergence,
            format!(
                "no-op reorder ran a search: {} node(s) expanded (incremental={})",
                warm.stats.nodes_interned, res.incremental
            ),
        );
    }
    Some(())
}

/// Duplicates (or contradicts) a random insert/delete body or target
/// guard: `(b) & (b)` keeps the semantics, `(b) & !(b)` kills the rule
/// — both change the canonical form, so the submission fingerprint
/// moves while the property's cone may or may not. Input options rules
/// are left alone (conjunction tweaks can break their head-variable
/// guard shape and trip admission, which would only inflate `skipped`).
fn tweak_rule_body(spec: &mut ServiceSpec, rng: &mut SplitMix64) -> bool {
    let mut slots = Vec::new();
    for (pi, p) in spec.pages.iter().enumerate() {
        for ri in 0..p.inserts.len() {
            slots.push((pi, 0usize, ri));
        }
        for ri in 0..p.deletes.len() {
            slots.push((pi, 1, ri));
        }
        for ti in 0..p.targets.len() {
            slots.push((pi, 2, ti));
        }
    }
    let Some(&(pi, kind, ri)) = rng.choose(&slots) else {
        return false;
    };
    let dup = rng.gen_bool(0.7);
    let tweak = |b: &str| {
        if dup {
            format!("(({b}) & ({b}))")
        } else {
            format!("(({b}) & !({b}))")
        }
    };
    let p = &mut spec.pages[pi];
    match kind {
        0 => p.inserts[ri].body = tweak(&p.inserts[ri].body),
        1 => p.deletes[ri].body = tweak(&p.deletes[ri].body),
        _ => p.targets[ri].1 = tweak(&p.targets[ri].1),
    }
    true
}

/// Consistently renames one state/input relation across declarations,
/// solicits, rule heads, rule bodies, guards and the property. Renames
/// change the canonical form of everything that mentions the relation —
/// a whole-service edit the tiers must treat as new work.
fn rename_relation(spec: &mut ServiceSpec, rng: &mut SplitMix64) -> bool {
    let mut names: Vec<String> = spec.state_props.clone();
    names.extend(spec.input_props.iter().cloned());
    names.extend(spec.state_rels.iter().map(|(n, _)| n.clone()));
    let Some(old) = rng.choose(&names).cloned() else {
        return false;
    };
    // Generated vocabularies (`g0`, `s1`, `st`, …) never contain this
    // suffix, so the new name cannot collide.
    let new = format!("{old}ren");
    let map = |id: &str| -> Option<String> { (id == old).then(|| new.clone()) };
    for n in spec
        .state_props
        .iter_mut()
        .chain(spec.input_props.iter_mut())
    {
        if *n == old {
            *n = new.clone();
        }
    }
    for (n, _) in &mut spec.state_rels {
        if *n == old {
            *n = new.clone();
        }
    }
    for p in &mut spec.pages {
        for s in &mut p.solicits {
            if *s == old {
                *s = new.clone();
            }
        }
        for r in p
            .input_rules
            .iter_mut()
            .chain(p.inserts.iter_mut())
            .chain(p.deletes.iter_mut())
        {
            if r.rel == old {
                r.rel = new.clone();
            }
            r.body = rename_idents(&r.body, &map);
        }
        for (_, g) in &mut p.targets {
            *g = rename_idents(g, &map);
        }
    }
    spec.property = rename_idents(&spec.property, &map);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    /// The in-tree mini-campaign: every seed must come back clean. The
    /// CI `qa-inc` job runs the same loop at 300 seeds in release mode.
    #[test]
    fn incremental_campaign_seeds_are_clean() {
        let opts = IncOptions::default();
        for seed in 0..8 {
            let case = generate(seed);
            let report = run_incremental_case(seed, &case.spec, &opts);
            assert!(
                report.clean(),
                "seed {seed} flawed: {:?}\nspec:\n{}",
                report.flaws,
                case.spec.to_source()
            );
            assert!(report.edits > 0 || report.skipped > 0, "seed {seed} idle");
        }
    }

    /// A hand-written sanity check: a no-op permutation of a toggle
    /// service must be a cache hit, and an out-of-cone body tweak must
    /// come back byte-identical.
    #[test]
    fn edits_are_classified_and_diffed() {
        let mut total_hits = 0;
        let opts = IncOptions::default();
        for seed in 0..12 {
            let case = generate(seed);
            let report = run_incremental_case(seed, &case.spec, &opts);
            assert!(report.clean(), "seed {seed}: {:?}", report.flaws);
            total_hits += report.cache_hits + report.incremental_hits;
        }
        // Across a dozen seeds the warm engine must have answered at
        // least one edit without a cold run — otherwise the leg is not
        // actually exercising the tiers.
        assert!(total_hits > 0, "no warm answer in the whole campaign");
    }

    #[test]
    fn rename_is_consistent() {
        let case = generate(3);
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut spec = case.spec.clone();
        if rename_relation(&mut spec, &mut rng) {
            assert!(crate::gen::admissible(&spec), "rename broke admission");
        }
    }
}
