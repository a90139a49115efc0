//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed by one
//! JSON result line. Exits 1 when any output was wrong, 2 on a usage
//! error. `perfbench regen-expected` prints the edit-session
//! expectation table.

use std::process::ExitCode;
use std::time::Instant;

use wave_perfbench::report::{env_block, result_line};
use wave_perfbench::trace::Tracer;
use wave_perfbench::{edit_session, run, Options, WORKLOADS};

/// Failure lines printed at most.
const SHOW_FAILURES: usize = 20;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench regen-expected",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.1..=600.0).contains(&s) {
                    return Err("--seconds must lie in 0.1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--corrupt-expected" => {
                corrupt = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--corrupt-expected: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tmp: std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_tmp"),
        corrupt,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("regen-expected") {
        print!("{}", edit_session::regenerate());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let report = match run(&opts, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    println!("env {}", env_block());
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!(
            "  {:<28} {:>16.3} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    if opts.trace {
        println!("  span self time (benchmark-side spans around public layer calls):");
        for (name, (calls, self_us)) in tracer.self_times() {
            println!(
                "    {name:<20} calls {calls:>8}  self {:>14.1} us  mean {:>12.2} us",
                self_us,
                self_us / calls.max(1) as f64
            );
        }
        let path = opts
            .tmp
            .join("spans")
            .join(format!("{}-seed{}.ndjson", opts.workload, opts.seed));
        match tracer.write(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!(
        "  attempted {} failed {}",
        report.attempted.max(1),
        report.failed
    );
    for f in report.failures.iter().take(SHOW_FAILURES) {
        println!("  FAILED: {f}");
    }
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
