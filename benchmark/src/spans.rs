//! Host-time spans recorded by the traced pass around each call into a
//! layer. Spans stay in memory; at the end they give per-layer self time
//! and are written out once in Chrome `trace_event` format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    cell: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder: an arena of spans with parent links and a stack of
/// the spans currently open.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let id = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any span still open inside it (a call that
    /// panicked leaves its span open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.recs[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.enter(name, cell);
        let out = f();
        self.exit(id);
        (out, self.seconds(id))
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        let r = &self.recs[id];
        (r.end_ns - r.start_ns) as f64 / 1e9
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its direct children cover, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .recs
            .iter()
            .map(|r| i128::from(r.end_ns) - i128::from(r.start_ns))
            .collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] -= i128::from(r.end_ns) - i128::from(r.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (r, ns) in self.recs.iter().zip(own) {
            *out.entry(r.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (microsecond times),
    /// one complete event per span, the cell id as an argument.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, r) in self.recs.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                quote(r.name),
                quote(r.name.split('.').next().unwrap_or(r.name)),
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
            );
            if let Some(p) = r.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(c) = r.cell {
                let _ = write!(out, ",\"cell\":{c}");
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.recs.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::default();
        let root = s.enter("pass", None);
        s.time("core.run", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.time("core.run", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.exit(root);
        let own = s.self_seconds();
        let runs: f64 = s.durations("core.run").iter().sum();
        assert_eq!(s.durations("core.run").len(), 2);
        assert!(runs >= 0.008);
        assert!((own["pass"] + own["core.run"] - s.seconds(root)).abs() < 1e-9);
        assert!(own["pass"] < runs);
        let doc = Json::parse(&s.chrome_json()).expect("valid Chrome JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
