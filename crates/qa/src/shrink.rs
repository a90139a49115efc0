//! Greedy minimization of failing specs.
//!
//! Given a spec and a predicate ("still fails the same way"), the
//! shrinker repeatedly tries one-element removals — a database fact, a
//! navigation target, a rule, a solicitation, a whole page, a
//! declaration — and keeps any removal under which the predicate still
//! holds, looping to a fixpoint. Candidates that break the build are
//! harmless: the predicate re-runs the differential driver, and a spec
//! that no longer builds no longer fails *the same way*, so the
//! candidate is simply rejected.
//!
//! The result is what gets printed as a repro
//! ([`ServiceSpec::to_source`]) and checked into a regression test.

use wave_core::spec::ServiceSpec;

/// All one-step reductions of `spec`, most aggressive first (whole
/// pages before single facts) so the greedy loop converges quickly.
fn candidates(spec: &ServiceSpec) -> Vec<ServiceSpec> {
    let mut out = Vec::new();

    // Drop a non-home page and every edge into it.
    for i in 0..spec.pages.len() {
        if spec.pages[i].name == spec.home {
            continue;
        }
        let doomed = spec.pages[i].name.clone();
        let mut s = spec.clone();
        s.pages.remove(i);
        for p in &mut s.pages {
            p.targets.retain(|(t, _)| *t != doomed);
        }
        out.push(s);
    }

    // Drop one target / rule / solicitation.
    for i in 0..spec.pages.len() {
        for j in 0..spec.pages[i].targets.len() {
            let mut s = spec.clone();
            s.pages[i].targets.remove(j);
            out.push(s);
        }
        for j in 0..spec.pages[i].inserts.len() {
            let mut s = spec.clone();
            s.pages[i].inserts.remove(j);
            out.push(s);
        }
        for j in 0..spec.pages[i].deletes.len() {
            let mut s = spec.clone();
            s.pages[i].deletes.remove(j);
            out.push(s);
        }
        for j in 0..spec.pages[i].input_rules.len() {
            let mut s = spec.clone();
            s.pages[i].input_rules.remove(j);
            out.push(s);
        }
        for j in 0..spec.pages[i].solicits.len() {
            let mut s = spec.clone();
            s.pages[i].solicits.remove(j);
            out.push(s);
        }
    }

    // Drop one fact.
    for i in 0..spec.facts.len() {
        let mut s = spec.clone();
        s.facts.remove(i);
        out.push(s);
    }

    // Drop one declaration (the build/precheck re-run rejects the
    // candidate if anything still refers to it).
    macro_rules! drop_each {
        ($field:ident) => {
            for i in 0..spec.$field.len() {
                let mut s = spec.clone();
                s.$field.remove(i);
                out.push(s);
            }
        };
    }
    drop_each!(db_rels);
    drop_each!(state_props);
    drop_each!(state_rels);
    drop_each!(input_props);
    drop_each!(input_rels);

    out
}

/// Greedily minimizes `spec` under `still_fails`, to a fixpoint. The
/// returned spec satisfies `still_fails`; the input must too.
pub fn shrink(spec: &ServiceSpec, still_fails: &dyn Fn(&ServiceSpec) -> bool) -> ServiceSpec {
    debug_assert!(still_fails(spec), "shrink needs a failing input");
    let mut current = spec.clone();
    loop {
        let mut reduced = false;
        for cand in candidates(&current) {
            if still_fails(&cand) {
                current = cand;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn shrinks_to_the_failure_core() {
        // Artificial failure: "the spec still has a fact for r0 and at
        // least two pages". The minimum satisfying that is exactly two
        // pages, one fact, and the r0 declaration the fact needs.
        let case = generate(7); // data-flow shape has facts and >= 2 pages
        let spec = {
            let mut s = case.spec.clone();
            if s.facts.is_empty() {
                s.db_rels = vec![("r0".into(), 1)];
                s.facts.push(("r0".into(), vec!["a".into()]));
            }
            s
        };
        let fails = |s: &ServiceSpec| !s.facts.is_empty() && s.pages.len() >= 2;
        assert!(fails(&spec));
        let min = shrink(&spec, &fails);
        assert_eq!(min.pages.len(), 2, "{}", min.to_source());
        assert_eq!(min.facts.len(), 1, "{}", min.to_source());
        assert!(min.pages.iter().all(|p| p.targets.is_empty()
            && p.inserts.is_empty()
            && p.deletes.is_empty()
            && p.input_rules.is_empty()
            && p.solicits.is_empty()));
    }

    #[test]
    fn shrunk_real_failure_still_fails_and_round_trips() {
        use crate::diff::{run_case, DiffOptions, FlawKind};
        // Make a real flaw: a generated case whose property is replaced
        // by one referencing an undeclared relation — the admission gate
        // refuses it, and the shrinker must keep exactly that refusal.
        let mut spec = generate(3).spec;
        spec.property = "G nosuchrel".into();
        let opts = DiffOptions::default();
        let fails = |s: &ServiceSpec| {
            run_case(0, s, &opts)
                .flaws
                .iter()
                .any(|f| f.kind == FlawKind::Inadmissible)
        };
        assert!(fails(&spec));
        let min = shrink(&spec, &fails);
        assert!(fails(&min));
        // The repro prints and parses.
        let text = min.to_source();
        assert_eq!(ServiceSpec::parse(&text).unwrap(), min);
        // And it is small: one page, no database clutter.
        assert_eq!(min.pages.len(), 1, "{text}");
        assert!(min.facts.is_empty(), "{text}");
    }
}
