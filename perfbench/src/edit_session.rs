//! `edit-session`: the IDE/CI loop. One in-process engine persisting
//! its journal receives a seeded walk of small `wave_qa::gen` services,
//! closed loop, one client. Each document opens cold and then mixes
//! four kinds of submission:
//!
//! * exact resubmits — result-cache hits;
//! * out-of-cone edits (a new state flag no rule reads) — verdict-tier
//!   hits;
//! * in-cone edits (a target guard conjoined with a tautology) — cold
//!   runs whose automaton the tier already holds;
//! * property swaps — fully cold runs.
//!
//! Every edit preserves the property's meaning, so each submission's
//! expected verdict kind is the committed one for its base service and
//! property (`data/edit_session_expected.txt`, regenerated with
//! `perfbench regen-expected`).

use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_core::spec::{RuleSpec, ServiceSpec};
use wave_logic::fingerprint::Fnv128;
use wave_logic::instance::Instance;
use wave_logic::parser::parse_property;
use wave_rng::{Rng, SplitMix64};
use wave_serve::codec::{outcome_from_json, verdict_to_json, Mode, VerifyRequest};
use wave_serve::json::Json;
use wave_serve::{Engine, EngineOptions};
use wave_verifier::dbgen::enumerate;
use wave_verifier::enumerative::{verify_ltl_on_db, EnumOptions, EnumOutcome};
use wave_verifier::replay::replay_outcome;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions, Verdict};

use crate::layers::{attribute, common_metrics, EnginePath, Layers, Submitted};
use crate::pace::Pace;
use crate::report::{median, percentile, proc_status_bytes, Report};
use crate::trace::Tracer;
use crate::{ratio, Kind, Options};

/// Base services: `wave_qa::gen::generate(seed)` for `seed < POOL`.
pub const POOL: u64 = 4096;
/// Alternative properties per base (swap targets).
pub const ALT_PROPERTIES: u64 = 3;
/// Pairs whose cold search interns plus re-derives more nodes than
/// this are left out (under 3% of them, but their searches run up to
/// 0.6 s): the heavy tail belongs to `cold-search`, and here it would
/// make the mean and the peak memory a draw of which few bases a seed
/// happens to pick.
pub const WORK_CAP: u64 = 600;
/// A pass runs at least this many submissions, so its p99 has ten
/// beyond it.
pub const MIN_SUBMISSIONS: usize = 1_000;
/// Submissions a measured pass runs per second of `--seconds`, about
/// the reference box's rate. The pass has a fixed size rather than a
/// fixed length because the engine's resident set grows with the
/// submissions it has taken: a pass that ran as long as a fast or slow
/// stretch of the host allowed would make `peak_rss_mb` a measure of
/// the host's speed.
const SUBMISSIONS_PER_SECOND: f64 = 2_500.0;
/// Every `WARM_EVERY`-th usable base is reserved for the journal the
/// set-up recovers and for set-up jobs; the walk never opens them.
const WARM_EVERY: usize = 8;
/// Documents in the recovered journal.
const WARM_DOCS: usize = 128;
/// Engine set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Byte budget of the result cache and of each tier. Small enough that
/// a pass cycles the journals through many compactions, so a run
/// measures the session's steady state rather than whether it happened
/// to cross its first compaction threshold.
const CACHE_BYTES: usize = 1 << 20;
/// Submissions prepared (generated and built) per untimed batch.
const CHUNK: usize = 256;

const TABLE: &str = include_str!("../data/edit_session_expected.txt");

/// Committed expectation for one base: per property (base property
/// first), `None` when the pair is left out, else the verdict kind and
/// the index of the witness database a violation replays on.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The generator seed.
    pub seed: u64,
    /// Digest of the generated spec and properties, to catch drift.
    pub digest: u32,
    /// Per property.
    pub kinds: Vec<Option<(Kind, usize)>>,
}

/// Parses the committed table.
pub fn table() -> Result<Vec<Entry>, String> {
    parse_table(TABLE)
}

fn parse_table(text: &str) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("expectation table line {}: {line:?}", n + 1);
        let mut fields = line.split_whitespace();
        let seed = fields.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let digest = fields
            .next()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(bad)?;
        let kinds = fields
            .map(|f| match f {
                "-" => Ok(None),
                "H" => Ok(Some((Kind::Holds, 0))),
                v => v
                    .strip_prefix('V')
                    .and_then(|i| i.parse().ok())
                    .map(|i| Some((Kind::Violated, i)))
                    .ok_or_else(bad),
            })
            .collect::<Result<Vec<_>, _>>()?;
        out.push(Entry {
            seed,
            digest,
            kinds,
        });
    }
    Ok(out)
}

/// The base property followed by [`ALT_PROPERTIES`] seeded swaps.
pub fn properties(spec: &ServiceSpec, seed: u64) -> Vec<String> {
    let mut out = vec![spec.property.clone()];
    for i in 1..=ALT_PROPERTIES {
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
        out.push(wave_qa::gen::random_property(spec, &mut rng));
    }
    out
}

fn digest(spec: &ServiceSpec, props: &[String]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    let src = spec.to_source();
    for s in std::iter::once(&src).chain(props) {
        for b in s.bytes().chain([0]) {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// The databases a violation may replay on, in a fixed order: the
/// spec's own facts, the empty database, then small enumerated ones.
fn witness_dbs(spec: &ServiceSpec, service: &Service) -> Vec<Instance> {
    let mut dbs = vec![spec.db_instance(), Instance::new()];
    dbs.extend(enumerate(&service.schema, 2, Some(16)));
    dbs
}

/// Replays a violation on witness database `witness`.
fn replay(spec: &ServiceSpec, witness: usize) -> Result<(), String> {
    let (service, _) = spec.build().map_err(|e| format!("build: {e:?}"))?;
    let property = parse_property(&spec.property).map_err(|e| e.to_string())?;
    let db = match witness {
        0 => spec.db_instance(),
        1 => Instance::new(),
        i => witness_dbs(spec, &service)
            .into_iter()
            .nth(i)
            .ok_or("witness database index out of range")?,
    };
    let db = &db;
    match verify_ltl_on_db(&service, db, &property, &EnumOptions::default()) {
        Ok(out @ EnumOutcome::Violated { .. }) => {
            replay_outcome(&service, db, &property, &out).map_err(|e| e.to_string())
        }
        Ok(_) => Err("no concrete violation on the witness database".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Recomputes the expectation table from scratch with the plain
/// verifier (no engine, no caches): one line per base.
pub fn regenerate() -> String {
    let mut out = String::from(
        "# edit-session expectations: seed digest kind-per-property\n\
         # kind: H holds, V<i> violated (replays on witness database i), - left out\n\
         # regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- regen-expected\n",
    );
    for seed in 0..POOL {
        let case = wave_qa::gen::generate(seed);
        let props = properties(&case.spec, seed);
        let mut line = format!("{seed} {:08x}", digest(&case.spec, &props));
        for p in &props {
            let mut spec = case.spec.clone();
            spec.property = p.clone();
            line.push(' ');
            line.push_str(&expectation(&spec).unwrap_or_else(|| "-".into()));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn expectation(spec: &ServiceSpec) -> Option<String> {
    if !wave_qa::gen::admissible(spec) {
        return None;
    }
    let (service, _) = spec.build().ok()?;
    let property = parse_property(&spec.property).ok()?;
    let out = verify_ltl(&service, &property, &SymbolicOptions::default()).ok()?;
    if out.stats.nodes_interned as u64 + out.stats.dedup_hits > WORK_CAP {
        return None;
    }
    match Kind::of(&out.verdict)? {
        Kind::Holds => Some("H".into()),
        Kind::Violated => (0..witness_dbs(spec, &service).len())
            .find(|&i| replay(spec, i).is_ok())
            .map(|i| format!("V{i}")),
    }
}

/// What a submission does to the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// First submission of a document (cold).
    Open,
    /// The previous submission again.
    Resubmit,
    /// A new, unread state flag.
    OutOfCone,
    /// A target guard conjoined with a tautology.
    InCone,
    /// Another property.
    Swap,
}

impl Step {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Step::Open => "open",
            Step::Resubmit => "resubmit",
            Step::OutOfCone => "out_of_cone",
            Step::InCone => "in_cone",
            Step::Swap => "swap",
        }
    }

    /// The engine path this step is built to take.
    pub fn intended(self) -> EnginePath {
        match self {
            Step::Resubmit => EnginePath::CacheHit,
            Step::OutOfCone => EnginePath::TierHit,
            Step::Open | Step::InCone | Step::Swap => EnginePath::Cold,
        }
    }
}

/// One submission of the walk.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Its kind.
    pub step: Step,
    /// Base generator seed.
    pub seed: u64,
    /// The full spec as submitted (property included).
    pub spec: ServiceSpec,
    /// Expected verdict kind.
    pub expected: Kind,
    /// Witness database index for a violation.
    pub witness: usize,
    /// Index of the submitted property (0 = the base property).
    pub prop: usize,
}

/// The deck each document shuffles after its cold open: long enough
/// that a pass opens fewer documents than the walk has bases.
const DECK: &[(Step, usize)] = &[
    (Step::Resubmit, 6),
    (Step::OutOfCone, 10),
    (Step::InCone, 6),
    (Step::Swap, 2),
];

/// The seeded walk: documents over the pass bases, each an open
/// followed by a shuffled deck of edits.
pub struct Walk {
    entries: Arc<Vec<Entry>>,
    order: Vec<usize>,
    next_doc: usize,
    rng: SplitMix64,
    queue: VecDeque<Submission>,
}

/// Indices of usable bases (base property kept), split into the walk's
/// and the set-up's.
fn regions(entries: &[Entry]) -> (Vec<usize>, Vec<usize>) {
    let usable =
        (0..entries.len()).filter(|&i| entries[i].kinds.first().copied().flatten().is_some());
    let (mut walk, mut warm) = (Vec::new(), Vec::new());
    for (n, i) in usable.enumerate() {
        if n % WARM_EVERY == WARM_EVERY - 1 {
            warm.push(i);
        } else {
            walk.push(i);
        }
    }
    (walk, warm)
}

impl Walk {
    /// The walk for `seed` over the committed table.
    pub fn new(entries: Arc<Vec<Entry>>, seed: u64) -> Walk {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xED17_5E55_10A0_0002);
        let (mut order, _) = regions(&entries);
        rng.shuffle(&mut order);
        Walk {
            entries,
            order,
            next_doc: 0,
            rng,
            queue: VecDeque::new(),
        }
    }

    /// Bases opened so far.
    pub fn docs(&self) -> usize {
        self.next_doc
    }

    fn document(&mut self) -> Result<(), String> {
        let entry = self.entries[self.order[self.next_doc % self.order.len()]].clone();
        self.next_doc += 1;
        let docs = document(&entry, &mut self.rng)?;
        self.queue.extend(docs);
        Ok(())
    }
}

impl Iterator for Walk {
    type Item = Result<Submission, String>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.queue.is_empty() {
            if let Err(e) = self.document() {
                return Some(Err(e));
            }
        }
        self.queue.pop_front().map(Ok)
    }
}

/// The submissions of one document over `entry`.
fn document(entry: &Entry, rng: &mut SplitMix64) -> Result<Vec<Submission>, String> {
    let case = wave_qa::gen::generate(entry.seed);
    let props = properties(&case.spec, entry.seed);
    if digest(&case.spec, &props) != entry.digest || props.len() != entry.kinds.len() {
        return Err(format!(
            "base {}: the generator no longer yields the committed case; \
             regenerate data/edit_session_expected.txt",
            entry.seed
        ));
    }
    let mut spec = case.spec.clone();
    let (mut expected, mut witness) = entry.kinds[0].expect("walk opens usable bases only");
    let mut prop = 0;
    let mut out = vec![Submission {
        step: Step::Open,
        seed: entry.seed,
        spec: spec.clone(),
        expected,
        witness,
        prop,
    }];
    let mut deck: Vec<Step> = DECK
        .iter()
        .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
        .collect();
    rng.shuffle(&mut deck);
    let mut alts: Vec<usize> = (1..props.len())
        .filter(|&i| entry.kinds[i].is_some())
        .collect();
    rng.shuffle(&mut alts);
    let mut flags = 0usize;
    for mut step in deck {
        if step == Step::Swap && alts.is_empty() {
            step = Step::InCone;
        }
        let mut edited = spec.clone();
        match step {
            Step::Open | Step::Resubmit => {}
            Step::OutOfCone => {
                let flag = format!("z{flags}");
                flags += 1;
                edited.state_props.push(flag.clone());
                edited.pages[0].inserts.push(RuleSpec {
                    rel: flag,
                    vars: Vec::new(),
                    body: "g0".into(),
                });
            }
            Step::InCone => {
                let slots: Vec<(usize, usize)> = edited
                    .pages
                    .iter()
                    .enumerate()
                    .flat_map(|(p, page)| (0..page.targets.len()).map(move |t| (p, t)))
                    .collect();
                let &(p, t) = rng.choose(&slots).ok_or("service without targets")?;
                let guard = &mut edited.pages[p].targets[t].1;
                *guard = format!("(({guard}) & (g0 | !g0))");
            }
            Step::Swap => {
                let a = alts.pop().expect("checked non-empty");
                edited.property = props[a].clone();
                (expected, witness) = entry.kinds[a].expect("alternatives are usable");
                prop = a;
            }
        }
        spec = edited;
        out.push(Submission {
            step,
            seed: entry.seed,
            spec: spec.clone(),
            expected,
            witness,
            prop,
        });
    }
    Ok(out)
}

fn request(spec: &ServiceSpec) -> VerifyRequest {
    VerifyRequest {
        service: "edit-session".into(),
        property: spec.property.clone(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

fn engine(journal: &Path) -> Arc<Engine> {
    Arc::new(Engine::new(EngineOptions {
        workers: 1,
        cache_bytes: CACHE_BYTES,
        persist: Some(journal.to_path_buf()),
        ..EngineOptions::default()
    }))
}

/// Opens the first [`WARM_DOCS`] set-up bases on a persisting engine,
/// so each set-up has a journal to recover. Returns the journal's
/// directory.
fn seed_journal(entries: &[Entry], dir: &Path) -> Result<PathBuf, String> {
    let seed_dir = dir.join("seed");
    std::fs::create_dir_all(&seed_dir).map_err(|e| e.to_string())?;
    let engine = engine(&seed_dir.join("journal.ndjson"));
    let (_, warm) = regions(entries);
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    for &i in warm.iter().take(WARM_DOCS) {
        let sub = document(&entries[i], &mut rng)?.swap_remove(0);
        let (service, sources) = sub.spec.build().map_err(|e| format!("{e:?}"))?;
        engine
            .submit_service(service, sources, &request(&sub.spec))
            .map_err(|e| e.to_string())?;
    }
    Ok(seed_dir)
}

/// One set-up: copy the seeded journal, build the engine on it (journal
/// recovery), run one cold set-up job. Returns the engine and the wall.
fn set_up(
    entries: &[Entry],
    seed_dir: &Path,
    dir: &Path,
    rep: usize,
    report: &mut Report,
) -> Result<(Arc<Engine>, f64), String> {
    let rep_dir = dir.join(format!("rep{rep}"));
    std::fs::create_dir_all(&rep_dir).map_err(|e| e.to_string())?;
    for f in std::fs::read_dir(seed_dir).map_err(|e| e.to_string())? {
        let f = f.map_err(|e| e.to_string())?;
        std::fs::copy(f.path(), rep_dir.join(f.file_name())).map_err(|e| e.to_string())?;
    }
    let (_, warm) = regions(entries);
    let base = warm[(WARM_DOCS + rep) % warm.len()];
    let mut rng = SplitMix64::seed_from_u64(rep as u64);
    let sub = document(&entries[base], &mut rng)?.swap_remove(0);
    let (service, sources) = sub.spec.build().map_err(|e| format!("{e:?}"))?;
    let req = request(&sub.spec);
    let t = Instant::now();
    let engine = engine(&rep_dir.join("journal.ndjson"));
    let res = engine.submit_service(service, sources, &req);
    let wall = t.elapsed().as_secs_f64();
    check(
        &sub,
        res.map(|r| r.outcome_bytes).map_err(|e| e.to_string()),
        report,
    );
    Ok((engine, wall))
}

/// Checks a reply's verdict kind; returns the verdict when it matched.
fn check(sub: &Submission, bytes: Result<Vec<u8>, String>, report: &mut Report) -> Option<Verdict> {
    let verdict = bytes.and_then(|b| {
        std::str::from_utf8(&b)
            .ok()
            .and_then(|s| Json::parse(s).ok())
            .and_then(|j| outcome_from_json(&j).ok())
            .map(|o| o.verdict)
            .ok_or_else(|| "undecodable outcome bytes".to_string())
    });
    match verdict {
        Ok(v) if Kind::of(&v) == Some(sub.expected) => Some(v),
        Ok(v) => {
            report.fail(format!(
                "base {} ({}): expected {:?}, got {}",
                sub.seed,
                sub.step.name(),
                sub.expected,
                crate::verdict_name(&v)
            ));
            None
        }
        Err(e) => {
            report.fail(format!("base {} ({}): {e}", sub.seed, sub.step.name()));
            None
        }
    }
}

/// A built submission, ready to send.
struct Ready {
    sub: Submission,
    service: Service,
    sources: ServiceSources,
    req: VerifyRequest,
}

fn prepare(
    walk: &mut Walk,
    n: usize,
    corrupt: &mut Option<usize>,
    done: usize,
) -> Result<Vec<Ready>, String> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut sub = walk.next().expect("the walk is endless")?;
        if *corrupt == Some(done + k) {
            sub.expected = sub.expected.flipped();
            *corrupt = None;
        }
        let (service, sources) = sub.spec.build().map_err(|e| format!("{e:?}"))?;
        let req = request(&sub.spec);
        out.push(Ready {
            sub,
            service,
            sources,
            req,
        });
    }
    Ok(out)
}

/// Latency samples of a pass, by step kind.
#[derive(Default)]
struct Pass {
    lat: Vec<f64>,
    steps: Vec<Step>,
    paths: Vec<EnginePath>,
    busy: f64,
    /// Walk indices of the first cold run to report each distinct
    /// violation (base, property, verdict bytes).
    cold_violated: Vec<usize>,
    prep_s: f64,
}

/// When a pass ends.
#[derive(Clone, Copy)]
enum Until {
    /// After this much submit time.
    Busy(f64),
    /// After exactly this many submissions.
    Count(usize),
}

/// Runs the walk until `until`, sampling the host's pace once per
/// prepared batch when given one.
fn pass(
    engine: &Engine,
    walk: &mut Walk,
    until: Until,
    corrupt: &mut Option<usize>,
    report: &mut Report,
    mut pace: Option<&mut Pace>,
    mut traced: Option<(&mut Tracer, &mut Layers, &mut f64)>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut violations = HashSet::new();
    let automata = engine.tiers().automata();
    loop {
        let want = match until {
            Until::Count(n) if p.lat.len() >= n => break,
            Until::Count(n) => CHUNK.min(n - p.lat.len()),
            Until::Busy(seconds) if p.busy >= seconds => break,
            Until::Busy(..) => CHUNK,
        };
        let t = Instant::now();
        let chunk = prepare(walk, want, corrupt, p.lat.len())?;
        p.prep_s += t.elapsed().as_secs_f64();
        if let Some(pace) = pace.as_mut() {
            pace.sample(p.lat.len());
        }
        for r in chunk {
            let id = p.lat.len() as u64;
            report.attempted += 1;
            let (res, us) = match traced.as_mut() {
                None => {
                    let t = Instant::now();
                    let res = engine.submit_service(r.service, r.sources, &r.req);
                    (res, t.elapsed().as_secs_f64() * 1e6)
                }
                Some((tracer, layers, unattributed)) => {
                    let (service, sources) = (r.service.clone(), r.sources.clone());
                    let root = tracer.open("job", None, id);
                    let tiers = engine.tiers();
                    let (hits, misses) = (tiers.automaton_hits(), tiers.automaton_misses());
                    let (res, us) = tracer.span("engine.submit", Some(root), id, || {
                        engine.submit_service(r.service, r.sources, &r.req)
                    });
                    let hits = tiers.automaton_hits() - hits;
                    let misses = tiers.automaton_misses() - misses;
                    if let Ok(res) = &res {
                        let sub = Submitted {
                            service: &service,
                            sources: &sources,
                            property: &r.sub.spec.property,
                            node_limit: 0,
                            automata: &automata,
                        };
                        let path = EnginePath::of(res.cache_hit, res.incremental);
                        layers.record_path(path, hits, misses);
                        let attributed =
                            attribute(tracer, layers, root, id, &sub, path, misses > 0);
                        layers.add("engine.submit_busy_us", us);
                        let rest = (us - attributed).max(0.0);
                        layers.add("engine.unattributed_us", rest);
                        **unattributed += rest;
                    }
                    tracer.close(root);
                    (res, tracer.spans()[root].us())
                }
            };
            p.lat.push(us);
            p.busy += us / 1e6;
            p.steps.push(r.sub.step);
            let path = res.as_ref().map_or(EnginePath::Cold, |x| {
                EnginePath::of(x.cache_hit, x.incremental)
            });
            p.paths.push(path);
            let verdict = check(
                &r.sub,
                res.map(|x| x.outcome_bytes).map_err(|e| e.to_string()),
                report,
            );
            if let (EnginePath::Cold, Some(v @ Verdict::Violated { .. })) = (path, verdict) {
                // Keyed by the lasso's digest, not its text: the set
                // lives through the pass, and text would put memory that
                // grows with the pass's length into the measured peak.
                let mut lasso = Fnv128::new();
                lasso.write_str(&verdict_to_json(&v).encode());
                if violations.insert((r.sub.seed, r.sub.prop, lasso.finish())) {
                    p.cold_violated.push(p.lat.len() - 1);
                }
            }
        }
    }
    Ok(p)
}

/// Replays every distinct violation a search produced, on the first
/// submission that produced it. Edits keep the property's meaning and
/// the searched states, so a document's later cold runs repeat the same
/// lasso. Runs after the passes, so the enumerative replays stay out of
/// the measured peak; the walk is regenerated from its seed.
fn replay_violations(
    entries: &Arc<Vec<Entry>>,
    seed: u64,
    indices: &[usize],
    report: &mut Report,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut wanted = indices.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut walk = Walk::new(Arc::clone(entries), seed).enumerate();
    for &i in &wanted {
        let sub = loop {
            match walk.next() {
                Some((k, sub)) if k == i => break sub?,
                Some(_) => continue,
                None => unreachable!("the walk is endless"),
            }
        };
        if let Err(e) = replay(&sub.spec, sub.witness) {
            report.fail(format!(
                "base {} ({}): replay: {e}",
                sub.seed,
                sub.step.name()
            ));
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

fn workdir(opts: &Options) -> Result<PathBuf, String> {
    let dir = opts
        .tmp
        .join(format!("edit-session-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// The measured run.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let entries = Arc::new(table()?);
    let dir = workdir(opts)?;
    let seed_dir = seed_journal(&entries, &dir)?;
    let cpu = crate::pace::pin();
    let mut pace = Pace::default();
    let mut setups = Vec::new();
    let mut engine = None;
    for rep in 0..SETUP_REPS {
        pace.sample(0);
        let (e, wall) = set_up(&entries, &seed_dir, &dir, rep, &mut report)?;
        pace.sample(0);
        setups.push(wall);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let mut walk = Walk::new(Arc::clone(&entries), opts.seed);
    let mut corrupt = opts.corrupt;
    let p = pass(
        &engine,
        &mut walk,
        Until::Count(MIN_SUBMISSIONS.max((opts.seconds * SUBMISSIONS_PER_SECOND) as usize)),
        &mut corrupt,
        &mut report,
        Some(&mut pace),
        None,
    )?;
    let peak = proc_status_bytes("VmHWM");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let replay_s = replay_violations(&entries, opts.seed, &p.cold_violated, &mut report)?;

    let n = p.lat.len();
    let scaled = pace.times(&p.lat);
    let jobs_per_s = n as f64 / (scaled.iter().sum::<f64>() / 1e6);
    let setup = median(&setups);
    report.metric("setup_s", "s", pace.setup_time(setup), setups.len());
    report.metric("jobs_per_s", "1/s", jobs_per_s, n);
    report.metric(
        "latency_p50_us",
        "us",
        percentile(&scaled, 0.5).unwrap_or(0.0),
        n,
    );
    report.metric(
        "latency_p90_us",
        "us",
        percentile(&scaled, 0.9).unwrap_or(0.0),
        n,
    );
    report.metric("peak_rss_mb", "MB", peak as f64 / (1024.0 * 1024.0), 1);
    // One client in a closed loop runs at the highest rate it can
    // sustain, so its capacity is its completion rate.
    report.metric("max_rate_rps", "1/s", jobs_per_s, n);
    if let Some(p99) = percentile(&scaled, 0.99) {
        report.extra("latency_p99_us", "us", p99, n);
    }
    report.extra("pace.slowdown", "ratio", pace.slowdown(), pace.samples());
    report.notes.push(match cpu {
        Some(c) => format!("pinned to cpu {c}; timings are stated at the reference pace"),
        None => "could not pin to one cpu; timings are stated at the reference pace".into(),
    });
    report.extra("measured.setup_s", "s", setup, setups.len());
    report.extra("measured.jobs_per_s", "1/s", n as f64 / p.busy, n);
    report.extra(
        "measured.latency_p50_us",
        "us",
        percentile(&p.lat, 0.5).unwrap_or(0.0),
        n,
    );
    report.extra(
        "measured.latency_p90_us",
        "us",
        percentile(&p.lat, 0.9).unwrap_or(0.0),
        n,
    );
    let mut mismatched = 0;
    for step in [
        Step::Open,
        Step::Resubmit,
        Step::OutOfCone,
        Step::InCone,
        Step::Swap,
    ] {
        let lat: Vec<f64> = (0..n)
            .filter(|&i| p.steps[i] == step)
            .map(|i| scaled[i])
            .collect();
        mismatched += (0..n)
            .filter(|&i| p.steps[i] == step && p.paths[i] != step.intended())
            .count();
        report.extra(
            &format!("step.{}_p50_us", step.name()),
            "us",
            median(&lat),
            lat.len(),
        );
    }
    report.notes.push(format!(
        "closed loop, 1 client; {n} submissions over {} documents in {:.2} s of submit time; \
         {} cold violations replayed ({:.2} s); input preparation {:.2} s; \
         {mismatched} took another engine path than their step intends",
        walk.docs(),
        p.busy,
        p.cold_violated.len(),
        replay_s,
        p.prep_s
    ));
    Ok(report)
}

/// The traced run: an untraced pass for half the time, then the same
/// submissions on a fresh set-up with every layer call in spans. It
/// runs on one CPU, as the measured run does, and reports times as
/// measured.
pub fn run_traced(opts: &Options, tracer: &mut Tracer) -> Result<Report, String> {
    crate::pace::pin();
    let mut report = Report::default();
    let entries = Arc::new(table()?);
    let dir = workdir(opts)?;
    let seed_dir = seed_journal(&entries, &dir)?;
    let (engine, _) = set_up(&entries, &seed_dir, &dir, 0, &mut report)?;
    let mut walk = Walk::new(Arc::clone(&entries), opts.seed);
    let mut corrupt = opts.corrupt;
    let untraced = pass(
        &engine,
        &mut walk,
        Until::Busy(opts.seconds / 2.0),
        &mut corrupt,
        &mut report,
        None,
        None,
    )?;
    drop(engine);
    let n = untraced.lat.len();

    let (engine, _) = set_up(&entries, &seed_dir, &dir, 1, &mut report)?;
    let mut walk = Walk::new(Arc::clone(&entries), opts.seed);
    let mut layers = Layers::default();
    let mut unattributed = 0.0;
    let traced = pass(
        &engine,
        &mut walk,
        Until::Count(n),
        &mut corrupt,
        &mut report,
        None,
        Some((tracer, &mut layers, &mut unattributed)),
    )?;
    let (journal_bytes, ..) = engine.journal_stats();
    let mut violated = untraced.cold_violated.clone();
    violated.extend(&traced.cold_violated);
    replay_violations(&entries, opts.seed, &violated, &mut report)?;
    let mut m = common_metrics(&layers);
    m.insert("cache.journal_bytes", (journal_bytes as f64, 1));
    for name in ["engine.submit_busy_us", "engine.unattributed_us"] {
        m.insert(name, (layers.mean_us(name), layers.count(name)));
    }
    let real: f64 = layers
        .us
        .get("engine.submit_busy_us")
        .map_or(0.0, |v| v.iter().sum());
    m.insert("trace.overhead_s", (traced.busy - untraced.busy, n));
    m.insert("unattributed.share", (ratio(unattributed, real), n));
    crate::emit_per_layer(&mut report, &m);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    report.notes.push(format!(
        "traced {n} submissions: untraced pass {:.3} s, traced pass {:.3} s of submit time",
        untraced.busy, traced.busy
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_parses_and_keeps_enough_bases() {
        let entries = table().expect("committed table parses");
        assert_eq!(entries.len() as u64, POOL);
        let (walk, warm) = regions(&entries);
        assert!(walk.len() > 2_000, "walk region: {}", walk.len());
        assert!(warm.len() > WARM_DOCS + SETUP_REPS);
    }

    #[test]
    fn every_edit_the_walk_makes_stays_admissible() {
        let entries = Arc::new(table().expect("committed table parses"));
        let mut walk = Walk::new(entries, 3);
        for _ in 0..3_000 {
            let sub = walk
                .next()
                .unwrap()
                .expect("committed table matches the generator");
            assert!(
                wave_qa::gen::admissible(&sub.spec),
                "base {} {:?} edit is inadmissible",
                sub.seed,
                sub.step
            );
        }
    }

    #[test]
    fn parse_table_rejects_garbage() {
        assert!(parse_table("1 0000000a H V3 -\n").is_ok());
        assert!(parse_table("1 0000000a H X -\n").is_err());
    }
}
