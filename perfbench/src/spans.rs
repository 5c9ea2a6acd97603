//! Host-clock span recorder for the traced run.
//!
//! Spans live in memory for the whole run and are written out once at
//! the end. A span has a name, a start, an end and the span that was
//! open when it began (its parent): an op span is the parent of the
//! layer calls the op makes. A disabled recorder never reads the clock,
//! so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed host span; times are nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

impl HostSpan {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span (`None` when the recorder is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<u32>);

pub struct HostSpans {
    epoch: Instant,
    on: bool,
    spans: Vec<HostSpan>,
    stack: Vec<u32>,
}

impl HostSpans {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(HostSpan {
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in begin order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(HostSpan::duration)
            .collect()
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer, in nanoseconds: each span's duration minus
    /// the part its children cover, summed by the layer prefix of its
    /// name (the text before the first `.`).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p as usize] += s.duration();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0) += s.duration().saturating_sub(children);
        }
        by_layer
    }

    /// The spans as JSON lines: one object per span with its id, name,
    /// parent id (or null), start and end.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = HostSpans::new(true);
        let op = rec.begin("bench.op");
        let inner = rec.begin("lsm.put");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(inner);
        rec.end(op);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = rec.self_time_by_layer();
        let total = spans[0].duration();
        assert_eq!(by_layer["bench"] + by_layer["lsm"], total);
        assert!(by_layer["lsm"] >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = HostSpans::new(false);
        let open = rec.begin("x.y");
        rec.end(open);
        assert!(rec.spans().is_empty());
    }
}
