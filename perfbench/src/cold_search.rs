//! `cold-search`: distinct checkout-family verifications through an
//! in-process engine, closed loop, one client, each a miss on the
//! result cache and both tiers. The symbolic search does nearly all
//! the work.
//!
//! Jobs come from templates over `checkout_bench` that quantify over
//! products. Every job binds its own variable name, so its canonical
//! form — and with it the result-cache, verdict-tier and
//! automaton-tier keys — is new while the search it needs is the same.
//! How many toggle flags the property pulls into the cone sets the job's
//! size class: none (~2.9k nodes) or one (~9.5k nodes). Each block of
//! [`BLOCK`] jobs holds the classes in fixed shares, so the p50 falls
//! inside the no-flag class and the p90 inside the one-flag holds jobs.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_logic::instance::Instance;
use wave_logic::parser::parse_property;
use wave_rng::{Rng, SplitMix64};
use wave_serve::codec::{Mode, Request, VerifyRequest};
use wave_serve::{Engine, EngineOptions, LocalClient};
use wave_verifier::enumerative::{verify_ltl_on_db, EnumOptions, EnumOutcome};
use wave_verifier::replay::replay_outcome;
use wave_verifier::symbolic::Verdict;

use crate::layers::{attribute, common_metrics, EnginePath, Layers, Submitted};
use crate::pace::Pace;
use crate::report::{median, percentile, proc_status_bytes, Report};
use crate::trace::Tracer;
use crate::{ratio, Kind, Options};

/// The registry service every job verifies.
pub const SERVICE: &str = "checkout_bench";
/// Jobs per block; each block holds every template its fixed count.
pub const BLOCK: usize = 20;
/// A pass runs at least this many jobs, so its p90 has ten beyond it.
pub const MIN_JOBS: usize = 100;
/// Engine set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A pass ends here even short of [`MIN_JOBS`], so a run stays inside
/// its time limit on a much slower build (its p90 is then refused).
const MAX_PASS_S: f64 = 140.0;

/// Job-size class: toggle flags inside the property's cone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// No flag in the cone (~2.9k interned nodes).
    NoFlag,
    /// One flag in the cone (~9.5k interned nodes).
    OneFlag,
}

/// A property template: `{v}` is the bound variable, `{f}` a flag.
pub struct Template {
    /// Property text with placeholders.
    pub text: &'static str,
    /// Size class.
    pub class: Class,
    /// The committed verdict kind every instance must produce.
    pub expected: Kind,
    /// Instances per block of [`BLOCK`].
    pub per_block: usize,
}

/// The templates, with their committed expected verdicts.
pub const TEMPLATES: &[Template] = &[
    Template {
        text: "forall {v} . G (!ship({v}) | paid)",
        class: Class::NoFlag,
        expected: Kind::Holds,
        per_block: 8,
    },
    Template {
        text: "forall {v} . G (!ship({v}) | paid | X X paid)",
        class: Class::NoFlag,
        expected: Kind::Holds,
        per_block: 8,
    },
    Template {
        text: "forall {v} . G (!ship({v}) | paid | {f})",
        class: Class::OneFlag,
        expected: Kind::Holds,
        per_block: 3,
    },
    Template {
        text: "forall {v} . G (!ship({v}) | paid) & G (!COP | {f})",
        class: Class::OneFlag,
        expected: Kind::Violated,
        per_block: 1,
    },
];

/// One generated job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index into [`TEMPLATES`].
    pub template: usize,
    /// The instantiated property.
    pub property: String,
    /// Its committed expected verdict kind.
    pub expected: Kind,
}

impl Job {
    /// The wire request for this job.
    pub fn request(&self) -> VerifyRequest {
        VerifyRequest {
            service: SERVICE.into(),
            property: self.property.clone(),
            mode: Mode::Ltl,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        }
    }
}

fn instantiate(template: usize, var: &str, flag: usize) -> Job {
    let t = &TEMPLATES[template];
    Job {
        template,
        property: t
            .text
            .replace("{v}", var)
            .replace("{f}", &format!("flag{flag}")),
        expected: t.expected,
    }
}

/// The first `n` jobs for `seed`: blocks of [`BLOCK`] holding every
/// template its fixed count in seeded order, each job with a fresh
/// variable name and a seeded flag.
pub fn jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC01D_5EA2_C4B0_0001);
    let mut names = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<usize> = TEMPLATES
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.per_block))
            .collect();
        rng.shuffle(&mut block);
        for template in block {
            let var = loop {
                let name = format!("p{:08x}", rng.next_u64() as u32);
                if names.insert(name.clone()) {
                    break name;
                }
            };
            let flag = rng.gen_range(0usize..2);
            out.push(instantiate(template, &var, flag));
        }
    }
    out.truncate(n);
    out
}

/// The untimed set-up job: the largest class, under a variable name no
/// generated job uses.
pub fn warmup_job(rep: usize) -> Job {
    instantiate(3, &format!("w{rep}"), rep % 2)
}

/// Applies `--corrupt-expected`: a deliberately wrong expectation the
/// gate must catch.
fn planted(opts: &Options, mut list: Vec<Job>) -> Vec<Job> {
    if let Some(job) = opts.corrupt.and_then(|i| list.get_mut(i)) {
        job.expected = job.expected.flipped();
    }
    list
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    }))
}

/// Builds an engine and runs the set-up job on it; returns the client
/// and the set-up wall.
fn set_up(rep: usize, report: &mut Report) -> (Arc<Engine>, LocalClient, Duration) {
    let t = Instant::now();
    let engine = engine();
    let client = LocalClient::new(Arc::clone(&engine));
    let job = warmup_job(rep);
    let reply = client.verify(&job.request());
    let wall = t.elapsed();
    check_reply(
        &job,
        reply.map(|r| r.outcome.verdict).map_err(|e| e.to_string()),
        report,
    );
    (engine, client, wall)
}

fn check_reply(job: &Job, verdict: Result<Verdict, String>, report: &mut Report) -> bool {
    match verdict {
        Ok(v) if Kind::of(&v) == Some(job.expected) => true,
        Ok(v) => {
            report.fail(format!(
                "{}: expected {:?}, got {}",
                job.property,
                job.expected,
                crate::verdict_name(&v)
            ));
            false
        }
        Err(e) => {
            report.fail(format!("{}: submit failed: {e}", job.property));
            false
        }
    }
}

/// Replays every violated job's counterexample concretely: the
/// enumerative engine must find a violating run over a one-product
/// database, and that lasso must survive `wave_verifier::replay`.
fn replay_violations(violated: &[&Job], report: &mut Report) {
    let service = wave_serve::registry::resolve(SERVICE).expect("registry service");
    let mut db = Instance::new();
    db.insert("prod_prices", wave_logic::tuple!["a", "1"]);
    for job in violated {
        let property = parse_property(&job.property).expect("template parses");
        match verify_ltl_on_db(&service, &db, &property, &EnumOptions::default()) {
            Ok(out @ EnumOutcome::Violated { .. }) => {
                if let Err(e) = replay_outcome(&service, &db, &property, &out) {
                    report.fail(format!("{}: lasso does not replay: {e}", job.property));
                }
            }
            Ok(_) => report.fail(format!(
                "{}: no concrete violation on the witness database",
                job.property
            )),
            Err(e) => report.fail(format!("{}: enumerative check failed: {e}", job.property)),
        }
    }
}

/// Runs `jobs` back to back until `seconds` have passed and at least
/// `min_jobs` completed (or the list ends), sampling the host's pace
/// after each when given one. Returns the latencies in µs and the pass wall.
fn closed_loop(
    client: &LocalClient,
    jobs: &[Job],
    seconds: f64,
    min_jobs: usize,
    report: &mut Report,
    violated: &mut Vec<usize>,
    mut pace: Option<&mut Pace>,
) -> (Vec<f64>, f64) {
    let mut lat = Vec::new();
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let elapsed = start.elapsed().as_secs_f64();
        if (lat.len() >= min_jobs && elapsed >= seconds) || elapsed >= MAX_PASS_S {
            break;
        }
        let req = job.request();
        let t = Instant::now();
        let reply = client.verify(&req);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(pace) = pace.as_mut() {
            pace.sample(lat.len());
        }
        report.attempted += 1;
        let verdict = match reply {
            Ok(r) if r.cache_hit || r.incremental => {
                report.fail(format!(
                    "{}: served from a cache or tier; cold-search must search",
                    job.property
                ));
                continue;
            }
            Ok(r) => Ok(r.outcome.verdict),
            Err(e) => Err(e.to_string()),
        };
        if check_reply(job, verdict, report) && job.expected == Kind::Violated {
            violated.push(i);
        }
    }
    (lat, start.elapsed().as_secs_f64())
}

/// The measured run: set-up, one timed closed-loop pass, correctness
/// checks, end-to-end metrics. Timings and rates are stated at the
/// reference pace ([`crate::pace`]); the report lines also give them
/// as measured.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let cpu = crate::pace::pin();
    let mut pace = Pace::default();
    let list = planted(
        opts,
        jobs(opts.seed, 4 * MIN_JOBS.max((opts.seconds * 10.0) as usize)),
    );
    let mut setups = Vec::new();
    let mut client = None;
    for rep in 0..SETUP_REPS {
        pace.sample(0);
        let (_, c, wall) = set_up(rep, &mut report);
        pace.sample(0);
        setups.push(wall.as_secs_f64());
        client = Some(c);
    }
    let client = client.expect("at least one set-up");
    let mut violated = Vec::new();
    let (lat, wall) = closed_loop(
        &client,
        &list,
        opts.seconds,
        MIN_JOBS,
        &mut report,
        &mut violated,
        Some(&mut pace),
    );
    let peak = proc_status_bytes("VmHWM");
    let vjobs: Vec<&Job> = violated.iter().map(|&i| &list[i]).collect();
    replay_violations(&vjobs, &mut report);

    let n = lat.len();
    let scaled = pace.times(&lat);
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
    match percentile(&scaled, 0.9) {
        Some(p90) => report.metric("latency_p90_us", "us", p90, n),
        None => report.fail(format!("only {n} jobs completed; a p90 needs 100")),
    }
    report.metric("peak_rss_mb", "MB", peak as f64 / (1024.0 * 1024.0), 1);
    // One client in a closed loop runs at the highest rate it can
    // sustain, so its capacity is its completion rate.
    report.metric("max_rate_rps", "1/s", jobs_per_s, n);
    report.extra("pace.slowdown", "ratio", pace.slowdown(), pace.samples());
    report.notes.push(match cpu {
        Some(c) => format!("pinned to cpu {c}; timings are stated at the reference pace"),
        None => "could not pin to one cpu; timings are stated at the reference pace".into(),
    });
    report.extra("measured.setup_s", "s", setup, setups.len());
    report.extra(
        "measured.jobs_per_s",
        "1/s",
        n as f64 / (lat.iter().sum::<f64>() / 1e6),
        n,
    );
    report.extra(
        "measured.latency_p50_us",
        "us",
        percentile(&lat, 0.5).unwrap_or(0.0),
        n,
    );
    if let Some(p90) = percentile(&lat, 0.9) {
        report.extra("measured.latency_p90_us", "us", p90, n);
    }
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (job, l) in list.iter().zip(&scaled) {
        let class = match TEMPLATES[job.template].class {
            Class::NoFlag => "class.no_flag_p50_us",
            Class::OneFlag => "class.one_flag_p50_us",
        };
        by_class.entry(class).or_default().push(*l);
    }
    for (name, l) in by_class {
        report.extra(name, "us", median(&l), l.len());
    }
    report.notes.push(format!(
        "closed loop, 1 client, threads:1; {n} distinct jobs in {wall:.2} s; {} violated replayed",
        vjobs.len()
    ));
    report
}

/// The traced run: an untraced pass for half the time, then the same
/// jobs again on a fresh engine with every layer call wrapped in spans.
/// It runs on one CPU, as the measured run does, and reports times as
/// measured.
pub fn run_traced(opts: &Options, tracer: &mut Tracer) -> Report {
    crate::pace::pin();
    let mut report = Report::default();
    let list = planted(opts, jobs(opts.seed, 4 * MIN_JOBS));
    // The first search of the process sets its peak: its growth over the
    // resident set before it, per node, is what a search node costs.
    let rss_floor = proc_status_bytes("VmRSS");
    let (_, client, _) = set_up(0, &mut report);
    let first_peak = proc_status_bytes("VmHWM").saturating_sub(rss_floor);
    let first_nodes = client
        .verify(&warmup_job(0).request())
        .map_or(0, |r| r.outcome.stats.nodes_interned);
    let mut violated = Vec::new();
    let (lat, untraced_wall) = closed_loop(
        &client,
        &list,
        opts.seconds / 2.0,
        0,
        &mut report,
        &mut violated,
        None,
    );
    drop(client);
    let n = lat.len();

    let (engine, client, _) = set_up(1, &mut report);
    let automata = engine.tiers().automata();
    let (service, sources) =
        wave_serve::registry::resolve_with_sources(SERVICE).expect("registry service");
    let mut layers = Layers::default();
    let mut real_total = 0.0;
    let mut unattributed_total = 0.0;
    let start = Instant::now();
    for (i, job) in list[..n].iter().enumerate() {
        let id = i as u64;
        let root = tracer.open("job", None, id);
        let req = job.request();
        let (line, enc_us) = tracer.span("codec.encode", Some(root), id, || {
            Request::Verify(req.clone()).encode()
        });
        layers.add("codec.encode_us", enc_us);
        let (_, dec_us) = tracer.span("codec.decode", Some(root), id, || Request::decode(&line));
        layers.add("codec.decode_us", dec_us);
        let (hits, misses) = (
            engine.tiers().automaton_hits(),
            engine.tiers().automaton_misses(),
        );
        let (reply, real_us) = tracer.span("engine.submit", Some(root), id, || client.verify(&req));
        let hits = engine.tiers().automaton_hits() - hits;
        report.attempted += 1;
        let Ok(reply) = reply else {
            report.fail(format!("{}: traced submit failed", job.property));
            tracer.close(root);
            continue;
        };
        let path = EnginePath::of(reply.cache_hit, reply.incremental);
        check_reply(job, Ok(reply.outcome.verdict.clone()), &mut report);
        let sub = Submitted {
            service: &service,
            sources: &sources,
            property: &job.property,
            node_limit: 0,
            automata: &automata,
        };
        let misses = engine.tiers().automaton_misses() - misses;
        layers.record_path(path, hits, misses);
        let attributed = attribute(tracer, &mut layers, root, id, &sub, path, misses > 0);
        tracer.close(root);
        layers.add("engine.submit_busy_us", real_us);
        let rest = (real_us - attributed - enc_us - dec_us).max(0.0);
        layers.add("engine.unattributed_us", rest);
        real_total += real_us;
        unattributed_total += rest;
    }
    let traced_wall = start.elapsed().as_secs_f64();
    let vjobs: Vec<&Job> = violated.iter().map(|&i| &list[i]).collect();
    replay_violations(&vjobs, &mut report);

    let mut m = common_metrics(&layers);
    m.insert(
        "search.bytes_per_node",
        (ratio(first_peak as f64, first_nodes as f64), 1),
    );
    for name in ["engine.submit_busy_us", "engine.unattributed_us"] {
        m.insert(name, (layers.mean_us(name), layers.count(name)));
    }
    m.insert("codec.encode_us", (layers.mean_us("codec.encode_us"), n));
    m.insert("codec.decode_us", (layers.mean_us("codec.decode_us"), n));
    m.insert("trace.overhead_s", (traced_wall - untraced_wall, n));
    m.insert(
        "unattributed.share",
        (ratio(unattributed_total, real_total), n),
    );
    crate::emit_per_layer(&mut report, &m);
    report.notes.push(format!(
        "traced {n} jobs: untraced pass {untraced_wall:.2} s, traced pass {traced_wall:.2} s \
         (the traced pass repeats each search as an attribution probe)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_hold_every_template_its_share() {
        let js = jobs(7, BLOCK * 3);
        for block in js.chunks(BLOCK) {
            for (i, t) in TEMPLATES.iter().enumerate() {
                assert_eq!(
                    block.iter().filter(|j| j.template == i).count(),
                    t.per_block
                );
            }
        }
        let distinct: HashSet<&str> = js.iter().map(|j| j.property.as_str()).collect();
        assert_eq!(distinct.len(), js.len(), "every job is a distinct property");
        for j in &js {
            parse_property(&j.property).expect("job parses");
        }
    }
}
