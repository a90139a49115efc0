//! The repository's benchmark: three workloads driven from one process,
//! end-to-end metrics from an untraced run and per-layer attribution
//! from a separate traced run. See `NOTES.md` beside this crate.

use std::collections::BTreeMap;
use std::path::PathBuf;

use wave_verifier::symbolic::Verdict;

pub mod cold_search;
pub mod edit_session;
pub mod layers;
pub mod pace;
pub mod report;
pub mod serve_hot;
pub mod trace;

use report::{Report, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["cold-search", "edit-session", "serve-hot"];

/// A conclusive verdict kind, as the expectations commit it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The property holds.
    Holds,
    /// A counterexample exists.
    Violated,
}

impl Kind {
    /// The kind of a conclusive verdict; `None` for inconclusive ones.
    pub fn of(v: &Verdict) -> Option<Kind> {
        match v {
            Verdict::Holds { .. } => Some(Kind::Holds),
            Verdict::Violated { .. } => Some(Kind::Violated),
            _ => None,
        }
    }

    /// The other kind (used to plant a wrong expectation).
    pub fn flipped(self) -> Kind {
        match self {
            Kind::Holds => Kind::Violated,
            Kind::Violated => Kind::Holds,
        }
    }
}

/// A verdict's name for failure messages.
pub fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Holds { .. } => "holds",
        Verdict::Violated { .. } => "violated",
        Verdict::LimitReached => "limit_reached",
        Verdict::Cancelled => "cancelled",
        Verdict::Poisoned => "poisoned",
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory inside the checkout (journals, spans).
    pub tmp: PathBuf,
    /// Plant a wrong expected verdict on this job (gate self-test).
    pub corrupt: Option<usize>,
}

/// Runs one workload; the tracer collects spans of a traced run.
pub fn run(opts: &Options, tracer: &mut trace::Tracer) -> Result<Report, String> {
    match (opts.workload.as_str(), opts.trace) {
        ("cold-search", false) => Ok(cold_search::run(opts)),
        ("cold-search", true) => Ok(cold_search::run_traced(opts, tracer)),
        ("edit-session", false) => edit_session::run(opts),
        ("edit-session", true) => edit_session::run_traced(opts, tracer),
        ("serve-hot", false) => serve_hot::run(opts),
        ("serve-hot", true) => serve_hot::run_traced(opts, tracer),
        (w, _) => Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}")),
    }
}

/// Emits every per-layer metric in `BENCHMARK.json` order; a layer the
/// workload did not exercise reads 0 with 0 samples.
pub fn emit_per_layer(report: &mut Report, values: &BTreeMap<&'static str, (f64, usize)>) {
    for &(name, unit) in PER_LAYER {
        let (v, n) = values.get(name).copied().unwrap_or((0.0, 0));
        report.metric(name, unit, v, n);
    }
}
