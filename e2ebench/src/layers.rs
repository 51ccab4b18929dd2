//! Per-layer self times from a probe trace.
//!
//! Only the benchmark's own spans (category `bench`) are layers; spans
//! the library records inside a call belong to that call's layer. A
//! span's self time is its duration minus the part covered by its
//! direct `bench` children.

use std::collections::BTreeMap;

use mira_probe::{EventKind, Trace};

/// One `bench` span with its nesting resolved.
#[derive(Clone, Debug)]
pub struct Node {
    pub name: &'static str,
    pub start: u64,
    pub dur: u64,
    pub self_ns: u64,
    pub parent: Option<usize>,
}

/// The `bench` spans of a trace in start order, with parents and self
/// times. Spans nest by interval containment (one thread records them).
pub fn nodes(trace: &Trace) -> Vec<Node> {
    let mut ns: Vec<Node> = trace
        .events
        .iter()
        .filter(|e| e.cat == "bench" && e.kind == EventKind::Complete)
        .map(|e| Node {
            name: e.name,
            start: e.start_ns,
            dur: e.dur_ns,
            self_ns: e.dur_ns,
            parent: None,
        })
        .collect();
    // parents before children: earlier start first, longer first on ties
    ns.sort_by(|a, b| a.start.cmp(&b.start).then(b.dur.cmp(&a.dur)));
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..ns.len() {
        while let Some(&top) = stack.last() {
            if ns[i].start >= ns[top].start + ns[top].dur {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            ns[i].parent = Some(top);
            let covered = ns[i].dur.min(ns[top].self_ns);
            ns[top].self_ns -= covered;
        }
        stack.push(i);
    }
    ns
}

/// One trace from captures taken one after another: each part's events
/// shifted by its start offset (ns since the first began), counters and
/// accumulators summed by name.
pub fn merge(parts: Vec<(u64, Trace)>) -> Trace {
    let mut out = Trace::default();
    for (offset, t) in parts {
        out.events.extend(t.events.into_iter().map(|mut e| {
            e.start_ns += offset;
            e
        }));
        for (name, v) in t.counters {
            match out.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => out.counters.push((name, v)),
            }
        }
        for a in t.accums {
            match out.accums.iter_mut().find(|b| b.name == a.name) {
                Some(b) => {
                    b.calls += a.calls;
                    b.total_ns += a.total_ns;
                }
                None => out.accums.push(a),
            }
        }
        out.wall_ns = offset + t.wall_ns;
    }
    out
}

/// For every span named `unit`, the self time of each layer inside it
/// (summed per layer name) and the unit's own self time under its name:
/// the entries of one unit add up to its duration.
pub fn per_unit(nodes: &[Node], unit: &str) -> Vec<BTreeMap<&'static str, u64>> {
    // slot of the nearest enclosing unit, resolved parents-first
    let mut slot_of: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut out: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.name == unit {
            slot_of[i] = Some(out.len());
            out.push(BTreeMap::from([(n.name, n.self_ns)]));
        } else if let Some(slot) = n.parent.and_then(|p| slot_of[p]) {
            slot_of[i] = Some(slot);
            *out[slot].entry(n.name).or_default() += n.self_ns;
        }
    }
    out
}

/// Durations (not self times) of every span with this name, in ns.
pub fn durations(nodes: &[Node], name: &str) -> Vec<f64> {
    nodes
        .iter()
        .filter(|n| n.name == name)
        .map(|n| n.dur as f64)
        .collect()
}

/// The self-time table: one row per span name (calls, total self time,
/// mean), then the aggregated hot-path accumulators.
pub fn table(trace: &Trace, nodes: &[Node]) -> String {
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for n in nodes {
        let r = rows.entry(n.name).or_default();
        r.0 += 1;
        r.1 += n.self_ns;
    }
    let total: u64 = rows.values().map(|r| r.1).sum::<u64>().max(1);
    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.1 .1));
    let mut s = format!(
        "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
        "span (self time)", "calls", "total ms", "mean us", "share"
    );
    for (name, (calls, ns)) in sorted {
        s.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            calls,
            ns as f64 / 1e6,
            ns as f64 / 1e3 / calls as f64,
            100.0 * ns as f64 / total as f64
        ));
    }
    s.push_str("accumulators (inside the spans above, or between spans on the query path):\n");
    for a in trace.accums.iter().filter(|a| a.name.starts_with("bench.")) {
        s.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3}\n",
            a.name,
            a.calls,
            a.total_ns as f64 / 1e6,
            a.total_ns as f64 / 1e3 / a.calls.max(1) as f64
        ));
    }
    s
}

/// Mean ns per call of a `bench.*` accumulator.
pub fn accum_mean_ns(trace: &Trace, name: &str) -> Option<f64> {
    trace
        .accum(name)
        .filter(|a| a.calls > 0)
        .map(|a| a.total_ns as f64 / a.calls as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_probe as probe;

    fn busy(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let (_, trace) = probe::capture(|| {
            let _outer = probe::span("unit", "bench");
            {
                let _a = probe::span("layer.a", "bench");
                busy(200);
            }
            {
                let _b = probe::span("layer.b", "bench");
                let _lib = probe::span("library.inner", "lib");
                busy(100);
            }
            busy(50);
        });
        let ns = nodes(&trace);
        assert_eq!(ns.len(), 3, "library spans are not layers");
        let unit = ns.iter().find(|n| n.name == "unit").unwrap();
        let a = ns.iter().find(|n| n.name == "layer.a").unwrap();
        let b = ns.iter().find(|n| n.name == "layer.b").unwrap();
        assert_eq!(a.self_ns, a.dur);
        assert_eq!(b.self_ns, b.dur, "non-bench children do not count");
        assert_eq!(unit.self_ns, unit.dur - a.dur - b.dur);
        let per = per_unit(&ns, "unit");
        assert_eq!(per.len(), 1);
        let sum: u64 = per[0].values().sum();
        assert_eq!(sum, unit.dur, "self times add up to the unit's duration");
        assert!(table(&trace, &ns).contains("layer.a"));
    }

    #[test]
    fn merge_shifts_events_and_sums_rows() {
        let part = || {
            probe::capture(|| {
                drop(probe::span("x", "bench"));
                drop(probe::accum("bench.hot"));
                probe::add("n", 2);
            })
            .1
        };
        let (a, b) = (part(), part());
        let b_start = b.events[0].start_ns;
        let m = merge(vec![(0, a), (1_000_000, b)]);
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.events[1].start_ns, b_start + 1_000_000);
        assert_eq!(m.counter("n"), Some(4));
        assert_eq!(m.accum("bench.hot").map(|r| r.calls), Some(2));
        assert_eq!(nodes(&m).len(), 2);
    }
}
