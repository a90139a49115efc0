//! In-memory spans recorded around calls into the program's public
//! layer functions. Nothing here runs inside the program: every span
//! wraps a call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`search`, `parse`, `client.rtt`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request (job) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder: spans stay in memory until [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the recorders of concurrent threads).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in microseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(id);
        (out, self.spans[id].us())
    }

    /// Appends another recorder's spans (re-basing parent indices).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: `(calls, total self time in µs)`. A span's self time
    /// is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns - covered) as f64 / 1e3;
        }
        out
    }

    /// Writes every span as one NDJSON line (name, start, end, parent,
    /// request).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                request: 0,
            },
            Span {
                name: "a",
                start_ns: 100,
                end_ns: 400,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "b",
                start_ns: 300,
                end_ns: 500,
                parent: Some(0),
                request: 0,
            },
        ];
        let st = t.self_times();
        assert_eq!(st["job"], (1, 0.6));
        assert_eq!(st["a"], (1, 0.3));
        assert_eq!(st["b"], (1, 0.2));
    }
}
