//! `serve-hot`: a TCP server on loopback whose cache holds the whole
//! 120-formula `wave_load` corpus, driven open loop over two persistent
//! connections by a Zipf draw, on a ladder of fixed rates. Every reply
//! is a cache hit, so codec, server, client, socket and the engine's
//! hit path are the whole cost.
//!
//! Latency comes from the lowest ("reference") rate, timed from each
//! request's due time. The ladder then climbs; a step fails once the
//! sender runs later than [`LATENESS_LIMIT_US`] or its p90 exceeds
//! [`LATENCY_LIMIT_US`], and `max_rate_rps` is the achieved rate of the
//! highest step that passed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_load::corpus::{corpus, request};
use wave_load::zipf::Zipf;
use wave_rng::SplitMix64;
use wave_serve::codec::Request;
use wave_serve::server::handle_line;
use wave_serve::{Engine, EngineOptions, Server, TcpClient};

use crate::layers::{attribute, common_metrics, EnginePath, Layers, Submitted};
use crate::report::{mean, median, percentile, proc_status_bytes, Report};
use crate::trace::Tracer;
use crate::{ratio, Options};

/// Corpus size.
pub const CORPUS: usize = 120;
/// Zipf exponent of the formula draw.
pub const ZIPF_S: f64 = 1.1;
/// Persistent connections (= load threads).
pub const LANES: usize = 2;
/// Offered rates in requests per second; the first is the reference.
/// Today's code sustains about 22 rps on two connections; no step lies
/// within 30% of that, and the top is over 100× above it.
pub const LADDER: &[f64] = &[8.0, 15.0, 50.0, 150.0, 500.0, 1_500.0, 5_000.0];
/// p90 latency limit of a passing step.
pub const LATENCY_LIMIT_US: f64 = 250_000.0;
/// A step fails as soon as a request is sent this late.
pub const LATENESS_LIMIT_US: f64 = 250_000.0;
/// Requests per ladder step above the reference, at least.
const STEP_SAMPLES: usize = 110;
/// Shortest ladder step above the reference.
const MIN_STEP_S: f64 = 1.5;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Round trips per connection inside set-up.
const WARMUP_TRIPS: usize = 2;

/// A running server with a warm cache and two connected clients.
struct Warm {
    engine: Arc<Engine>,
    clients: Vec<TcpClient>,
    formulas: Vec<String>,
    /// Outcome bytes the in-process engine produced, by fingerprint.
    expected: HashMap<u128, Vec<u8>>,
}

/// Builds the engine, starts the server (its accept loop runs until the
/// process exits), warms the cache with the corpus, connects the
/// clients and runs a few round trips on each.
fn set_up(report: &mut Report) -> Result<(Warm, f64), String> {
    let formulas = corpus(CORPUS);
    let t = Instant::now();
    let engine = Arc::new(Engine::new(EngineOptions::default()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| e.to_string())?;
    let addr: SocketAddr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    let mut expected = HashMap::new();
    for f in &formulas {
        let res = engine.submit(&request(f)).map_err(|e| e.to_string())?;
        expected.insert(res.fingerprint.0, res.outcome_bytes);
    }
    let mut clients = Vec::new();
    for _ in 0..LANES {
        let mut c =
            TcpClient::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        for _ in 0..WARMUP_TRIPS {
            let reply = c.verify(&request(&formulas[0]));
            check(reply, &expected, report);
        }
        clients.push(c);
    }
    let wall = t.elapsed().as_secs_f64();
    Ok((
        Warm {
            engine,
            clients,
            formulas,
            expected,
        },
        wall,
    ))
}

/// Checks a reply's outcome bytes against the in-process engine's.
fn check(
    reply: Result<wave_serve::VerifyReply, wave_serve::client::ClientError>,
    expected: &HashMap<u128, Vec<u8>>,
    report: &mut Report,
) -> Option<wave_serve::VerifyReply> {
    match reply {
        Ok(r) => match expected.get(&r.fingerprint.0) {
            Some(b) if b.as_slice() == r.outcome_text.as_bytes() => Some(r),
            Some(_) => {
                report.fail(format!(
                    "{}: outcome bytes differ from the engine's",
                    r.fingerprint
                ));
                None
            }
            None => {
                report.fail(format!("{}: fingerprint outside the corpus", r.fingerprint));
                None
            }
        },
        Err(e) => {
            report.fail(format!("round trip failed: {e}"));
            None
        }
    }
}

/// The formula draw for `seed`.
pub fn draws(seed: u64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(CORPUS, ZIPF_S);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E2F_E407_0000_0003);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// One ladder step's record.
#[derive(Default)]
struct StepRun {
    rate: f64,
    offered: usize,
    lat: Vec<f64>,
    lateness: Vec<f64>,
    aborted: bool,
    wall: f64,
    failures: Vec<String>,
    hits: usize,
}

impl StepRun {
    fn achieved(&self) -> f64 {
        ratio(self.lat.len() as f64, self.wall)
    }

    fn passed(&self) -> bool {
        !self.aborted
            && self.failures.is_empty()
            && self.lat.len() == self.offered
            && percentile(&self.lat, 0.9).is_some_and(|p| p <= LATENCY_LIMIT_US)
    }
}

/// Per-lane trace state of a traced step.
struct LaneTrace {
    tracer: Tracer,
    layers: Layers,
    unattributed: f64,
    rtt: f64,
}

/// Sends `offered` requests at `rate`, request `i` due at `i / rate`
/// and sent on lane `i % LANES`; each lane waits for its reply before
/// sending its next due request.
fn run_step(
    warm: &mut Warm,
    draws: &[usize],
    rate: f64,
    offered: usize,
    tracing: Option<Instant>,
) -> (StepRun, Vec<LaneTrace>) {
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let formulas = &warm.formulas;
    let expected = &warm.expected;
    let engine = &warm.engine;
    let results: Vec<(StepRun, f64, Option<LaneTrace>)> = std::thread::scope(|s| {
        let handles: Vec<_> = warm
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let abort = &abort;
                s.spawn(move || {
                    lane_loop(
                        lane, client, engine, formulas, expected, draws, rate, offered, start,
                        abort, tracing,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let mut step = StepRun {
        rate,
        offered,
        ..StepRun::default()
    };
    let mut traces = Vec::new();
    let mut last_done = 0.0f64;
    for (lane, done, trace) in results {
        step.lat.extend(lane.lat);
        step.lateness.extend(lane.lateness);
        step.aborted |= lane.aborted;
        step.failures.extend(lane.failures);
        step.hits += lane.hits;
        last_done = last_done.max(done);
        traces.extend(trace);
    }
    step.wall = last_done;
    (step, traces)
}

#[allow(clippy::too_many_arguments)]
fn lane_loop(
    lane: usize,
    client: &mut TcpClient,
    engine: &Engine,
    formulas: &[String],
    expected: &HashMap<u128, Vec<u8>>,
    draws: &[usize],
    rate: f64,
    offered: usize,
    start: Instant,
    abort: &AtomicBool,
    tracing: Option<Instant>,
) -> (StepRun, f64, Option<LaneTrace>) {
    let mut out = StepRun::default();
    let mut report = Report::default();
    let mut trace = tracing.map(|epoch| LaneTrace {
        tracer: Tracer::new(epoch),
        layers: Layers::default(),
        unattributed: 0.0,
        rtt: 0.0,
    });
    let (service, sources) =
        wave_serve::registry::resolve_with_sources(wave_load::corpus::SERVICE).expect("registry");
    let automata = engine.tiers().automata();
    let mut last_done = 0.0;
    for i in (lane..offered).step_by(LANES) {
        if abort.load(Ordering::Relaxed) {
            out.aborted = true;
            break;
        }
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let lateness = sent.saturating_duration_since(due).as_secs_f64() * 1e6;
        if lateness > LATENESS_LIMIT_US {
            abort.store(true, Ordering::Relaxed);
            out.aborted = true;
            break;
        }
        let req = request(&formulas[draws[i % draws.len()]]);
        let reply = match trace.as_mut() {
            None => client.verify(&req),
            Some(t) => {
                let id = i as u64;
                let root = t.tracer.open("job", None, id);
                let (reply, rtt) = t
                    .tracer
                    .span("client.rtt", Some(root), id, || client.verify(&req));
                t.layers.add("client.rtt_us", rtt);
                t.rtt += rtt;
                probe(
                    t, root, id, engine, &req, &service, &sources, &automata, rtt,
                );
                t.tracer.close(root);
                reply
            }
        };
        let done = Instant::now();
        out.lateness.push(lateness);
        out.lat
            .push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
        last_done = done.saturating_duration_since(start).as_secs_f64();
        if let Some(r) = check(reply, expected, &mut report) {
            out.hits += usize::from(r.cache_hit);
        }
    }
    out.failures = report.failures;
    (out, last_done, trace)
}

/// Attribution probes for one served request: the codec, the server's
/// line handler and the engine's hit path, each called from outside.
#[allow(clippy::too_many_arguments)]
fn probe(
    t: &mut LaneTrace,
    root: usize,
    id: u64,
    engine: &Engine,
    req: &wave_serve::VerifyRequest,
    service: &wave_core::service::Service,
    sources: &wave_core::provenance::ServiceSources,
    automata: &Arc<wave_automata::store::AutomatonCache>,
    rtt: f64,
) {
    let (line, us) = t.tracer.span("codec.encode", Some(root), id, || {
        Request::Verify(req.clone()).encode()
    });
    t.layers.add("codec.encode_us", us);
    let (_, us) = t
        .tracer
        .span("codec.decode", Some(root), id, || Request::decode(&line));
    t.layers.add("codec.decode_us", us);
    let (_, handle) = t.tracer.span("server.handle_line", Some(root), id, || {
        handle_line(engine, &line)
    });
    t.layers.add("server.handle_line_us", handle);
    t.layers.add("wire.us", (rtt - handle).max(0.0));
    let (res, submit) = t
        .tracer
        .span("engine.submit", Some(root), id, || engine.submit(req));
    t.layers.add("engine.submit_busy_us", submit);
    let path = res.map_or(EnginePath::CacheHit, |r| {
        EnginePath::of(r.cache_hit, r.incremental)
    });
    t.layers.record_path(path, 0, 0);
    let sub = Submitted {
        service,
        sources,
        property: &req.property,
        node_limit: req.node_limit,
        automata,
    };
    let attributed = attribute(&mut t.tracer, &mut t.layers, root, id, &sub, path, false);
    let rest = (submit - attributed).max(0.0);
    t.layers.add("engine.unattributed_us", rest);
    t.unattributed += rest;
}

fn reference_requests(seconds: f64) -> usize {
    ((LADDER[0] * seconds / 2.0) as usize).max(STEP_SAMPLES)
}

/// The measured run.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        let (w, wall) = set_up(&mut report)?;
        setups.push(wall);
        warm = Some(w);
    }
    let mut warm = warm.expect("at least one set-up");
    let mut steps: Vec<StepRun> = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let offered = if k == 0 {
            reference_requests(opts.seconds)
        } else {
            ((rate * MIN_STEP_S) as usize).max(STEP_SAMPLES)
        };
        let d = draws(opts.seed.wrapping_add(k as u64), offered);
        let (step, _) = run_step(&mut warm, &d, rate, offered, None);
        report.attempted += step.lat.len() as u64;
        let passed = step.passed();
        steps.push(step);
        if !passed {
            break;
        }
    }
    let peak = proc_status_bytes("VmHWM");
    let reference = &steps[0];
    if !reference.passed() {
        report.notes.push("the reference step itself failed".into());
    }
    for step in &steps {
        for f in &step.failures {
            report.fail(f.clone());
        }
    }
    let n = reference.lat.len();
    report.metric("setup_s", "s", median(&setups), setups.len());
    report.metric("jobs_per_s", "1/s", reference.achieved(), n);
    report.metric(
        "latency_p50_us",
        "us",
        percentile(&reference.lat, 0.5).unwrap_or(0.0),
        n,
    );
    match percentile(&reference.lat, 0.9) {
        Some(p90) => report.metric("latency_p90_us", "us", p90, n),
        None => report.fail(format!(
            "reference step completed {n} requests; a p90 needs 100"
        )),
    }
    report.metric("peak_rss_mb", "MB", peak as f64 / (1024.0 * 1024.0), 1);
    let best = steps.iter().rev().find(|s| s.passed());
    report.metric(
        "max_rate_rps",
        "1/s",
        best.map_or(0.0, StepRun::achieved),
        best.map_or(0, |s| s.lat.len()),
    );
    for s in &steps {
        report.notes.push(format!(
            "step {:>6} rps: {}/{} done in {:.2} s ({:.2} rps), p50 {:.0} us, p90 {}, \
             max lateness {:.0} us, cache hits {} -> {}",
            s.rate,
            s.lat.len(),
            s.offered,
            s.wall,
            s.achieved(),
            median(&s.lat),
            percentile(&s.lat, 0.9).map_or("n/a".into(), |p| format!("{p:.0} us")),
            s.lateness.iter().copied().fold(0.0, f64::max),
            s.hits,
            if s.passed() { "pass" } else { "fail" }
        ));
    }
    report.extra(
        "loadgen.lateness_p90_us",
        "us",
        percentile(&reference.lateness, 0.9).unwrap_or(0.0),
        n,
    );
    Ok(report)
}

/// The traced run: the reference rate untraced for half the time, then
/// the same schedule with every request's layers probed in spans.
pub fn run_traced(opts: &Options, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut warm, _) = set_up(&mut report)?;
    let rate = LADDER[0];
    let offered = reference_requests(opts.seconds);
    let d = draws(opts.seed, offered);
    let (untraced, _) = run_step(&mut warm, &d, rate, offered, None);
    let (traced, lanes) = run_step(&mut warm, &d, rate, offered, Some(Instant::now()));
    report.attempted += (untraced.lat.len() + traced.lat.len()) as u64;
    for f in untraced.failures.iter().chain(&traced.failures) {
        report.fail(f.clone());
    }
    let mut layers = Layers::default();
    let mut unattributed = 0.0;
    let mut rtt = 0.0;
    for lane in lanes {
        tracer.merge(lane.tracer);
        unattributed += lane.unattributed;
        rtt += lane.rtt;
        for (k, v) in lane.layers.us {
            layers.us.entry(k).or_default().extend(v);
        }
        layers.precheck_calls += lane.layers.precheck_calls;
        for (all, lane) in layers.paths.iter_mut().zip(lane.layers.paths) {
            *all += lane;
        }
    }
    let n = traced.lat.len();
    let mut m = common_metrics(&layers);
    for name in [
        "codec.encode_us",
        "codec.decode_us",
        "server.handle_line_us",
        "client.rtt_us",
        "wire.us",
        "engine.submit_busy_us",
        "engine.unattributed_us",
    ] {
        m.insert(name, (layers.mean_us(name), layers.count(name)));
    }
    m.insert(
        "loadgen.lateness_us",
        (mean(&untraced.lateness), untraced.lateness.len()),
    );
    m.insert("trace.overhead_s", (traced.wall - untraced.wall, n));
    m.insert("unattributed.share", (ratio(unattributed, rtt), n));
    crate::emit_per_layer(&mut report, &m);
    report.notes.push(format!(
        "traced {n} requests at {rate} rps: untraced phase {:.2} s, traced phase {:.2} s",
        untraced.wall, traced.wall
    ));
    Ok(report)
}
