//! The benchmark's own checks: inputs are a function of the seed, the
//! printed metrics are exactly those `BENCHMARK.json` declares, and the
//! correctness gate can fail.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use wave_logic::parser::parse_property;
use wave_perfbench::report::{END_TO_END, PER_LAYER};
use wave_perfbench::{cold_search, edit_session, serve_hot};
use wave_serve::codec::Mode;
use wave_serve::engine::request_fingerprint;

/// A minimal JSON value, enough to read `BENCHMARK.json` and result
/// lines.
#[derive(Debug, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    fn get(&self, key: &str) -> &J {
        match self {
            J::Obj(f) => {
                &f.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            J::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn parse_json(src: &str) -> J {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        assert_eq!(b[*i], b'"');
        *i += 1;
        let mut out = String::new();
        while b[*i] != b'"' {
            if b[*i] == b'\\' {
                *i += 1;
            }
            out.push(b[*i] as char);
            *i += 1;
        }
        *i += 1;
        out
    }
    fn value(b: &[u8], i: &mut usize) -> J {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return J::Obj(fields);
                    }
                    let k = string(b, i);
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    fields.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return J::Arr(items);
                    }
                    items.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => J::Str(string(b, i)),
            b't' => {
                *i += 4;
                J::Bool(true)
            }
            b'f' => {
                *i += 5;
                J::Bool(false)
            }
            b'n' => {
                *i += 4;
                J::Null
            }
            _ => {
                let start = *i;
                while *i < b.len() && (b"+-.eE".contains(&b[*i]) || b[*i].is_ascii_digit()) {
                    *i += 1;
                }
                J::Num(src_num(&b[start..*i]))
            }
        }
    }
    fn src_num(b: &[u8]) -> f64 {
        std::str::from_utf8(b).unwrap().parse().unwrap()
    }
    let mut i = 0;
    value(src.as_bytes(), &mut i)
}

fn benchmark_json() -> J {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the repository root"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    match benchmark_json().get(section) {
        J::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        _ => panic!("{section} is not a list"),
    }
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(owned(END_TO_END), declared("end_to_end"));
    assert_eq!(owned(PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = match benchmark_json().get("workloads") {
        J::Arr(items) => items
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect(),
        _ => panic!("workloads is not a list"),
    };
    assert_eq!(workloads, wave_perfbench::WORKLOADS);
}

#[test]
fn same_seed_same_cold_search_jobs_and_fingerprints() {
    let service = wave_serve::registry::resolve(cold_search::SERVICE).unwrap();
    let fps = |seed| -> Vec<u128> {
        cold_search::jobs(seed, 60)
            .iter()
            .map(|j| {
                let p = parse_property(&j.property).unwrap();
                request_fingerprint(&service, Some(&p), Mode::Ltl, 0).0
            })
            .collect()
    };
    assert_eq!(cold_search::jobs(11, 60), cold_search::jobs(11, 60));
    assert_eq!(fps(11), fps(11));
    assert_ne!(fps(11), fps(12), "another seed draws other jobs");
}

#[test]
fn same_seed_same_edit_walk_and_fingerprints() {
    let entries = Arc::new(edit_session::table().unwrap());
    let walk = |seed| -> Vec<(String, u128)> {
        edit_session::Walk::new(Arc::clone(&entries), seed)
            .take(400)
            .map(|s| {
                let s = s.unwrap();
                let (service, _) = s.spec.build().unwrap();
                let p = parse_property(&s.spec.property).unwrap();
                let fp = request_fingerprint(&service, Some(&p), Mode::Ltl, 0).0;
                (format!("{}:{}", s.step.name(), s.spec.to_source()), fp)
            })
            .collect()
    };
    assert_eq!(walk(21), walk(21));
    assert_ne!(walk(21), walk(22));
}

#[test]
fn same_seed_same_serve_draws() {
    assert_eq!(serve_hot::draws(5, 500), serve_hot::draws(5, 500));
    assert_ne!(serve_hot::draws(5, 500), serve_hot::draws(6, 500));
}

/// Runs the benchmark binary briefly on edit-session (the only
/// workload whose minimum pass fits a unit test); returns the exit code
/// and the final line.
fn run_bench(extra: &[&str]) -> (i32, J) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let mut args = vec![
        "--workload",
        "edit-session",
        "--seed",
        "5",
        "--seconds",
        "0.2",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(&args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    (out.status.code().unwrap_or(-1), parse_json(last))
}

fn printed(line: &J) -> Vec<(String, String)> {
    match line.get("metrics") {
        J::Obj(fields) => fields
            .iter()
            .map(|(name, v)| (name.clone(), v.get("unit").str().to_string()))
            .collect(),
        _ => panic!("metrics is not an object"),
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let (code, line) = run_bench(&["--trace", "0"]);
    assert_eq!(code, 0);
    assert_eq!(line.get("correct"), &J::Bool(true));
    assert_eq!(printed(&line), declared("end_to_end"));
    let (code, line) = run_bench(&["--trace", "1"]);
    assert_eq!(code, 0);
    assert_eq!(printed(&line), declared("per_layer"));
}

#[test]
fn a_wrong_expected_verdict_fails_the_command() {
    let (code, line) = run_bench(&["--trace", "0", "--corrupt-expected", "3"]);
    assert_eq!(code, 1, "the gate must exit nonzero");
    assert_eq!(line.get("correct"), &J::Bool(false));
    assert_eq!(line.get("failed"), &J::Num(1.0));
}
