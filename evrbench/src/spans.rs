//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The benchmark adds no tracing inside the program: it wraps the
//! public calls it makes in spans of its own, and reads the timeline
//! intervals the program already records when an observer with a
//! timeline is attached. Both share the timeline's clock, so they nest.
//!
//! Self time is attributed by sharing wall time: where `k` children of
//! a span overlap (parallel workers), each is credited `1/k` of that
//! stretch, and time no child covers is the span's own. The shares of
//! every span under a root then add up to the root's wall time exactly,
//! and the root's own share is the time left unattributed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use evr_obs::{Observer, Timeline, TimelineEvent};

/// Capacity of the program timeline attached in traced runs.
const TIMELINE_CAPACITY: usize = 1 << 20;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// Layer call or phase name.
    pub name: &'static str,
    /// Start, nanoseconds on the timeline clock.
    pub start_ns: u64,
    /// End, nanoseconds on the timeline clock.
    pub end_ns: u64,
    /// Worker lane the span ran on.
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder plus the enabled observer whose timeline and counters
/// the traced run reads.
#[derive(Debug)]
pub struct Tracer {
    observer: Observer,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer with a fresh enabled observer and timeline.
    pub fn new() -> Tracer {
        Tracer {
            observer: Observer::enabled().with_timeline(Timeline::bounded(TIMELINE_CAPACITY)),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The enabled observer to attach to the program under test.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    fn timeline(&self) -> &Timeline {
        self.observer.timeline()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.name == name).collect()
    }

    /// Mean duration of the spans named `name`, in milliseconds (0 when
    /// none was recorded).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.named(name);
        if spans.is_empty() {
            return 0.0;
        }
        spans.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / spans.len() as f64 / 1e6
    }

    /// Writes spans and program timeline intervals as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"lane\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.lane
            )?;
        }
        for e in self.timeline().events() {
            writeln!(
                out,
                "{{\"kind\":\"timeline\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"lane\":{},\"user\":{},\"segment\":{},\"request\":{}}}",
                e.stage, e.start_ns, e.end_ns, e.worker, e.ctx.user, e.ctx.segment, e.ctx.request
            )?;
        }
        out.flush()
    }

    /// Timeline intervals the program recorded, and how many the ring
    /// dropped.
    pub fn timeline_events(&self) -> (Vec<TimelineEvent>, u64) {
        (self.timeline().events(), self.timeline().dropped())
    }
}

/// Runs `f` inside a span named `name` under `parent`, passing the new
/// span's id (for nesting). Untraced (`None`), it runs `f(0)` and
/// records nothing.
pub fn span<R>(
    tracer: Option<&Tracer>,
    parent: u64,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(tr) = tracer else {
        return f(0);
    };
    let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = tr.timeline().now_ns();
    let out = f(id);
    let end_ns = tr.timeline().now_ns();
    let lane = evr_obs::timeline::current_worker();
    tr.spans.lock().expect("span list lock poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        lane,
    });
    out
}

/// Wall time under one root, shared out by span name.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// The root's wall time, seconds.
    pub wall_s: f64,
    /// Self seconds per span (or timeline stage) name; the root's own
    /// name holds the unattributed remainder.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Self seconds of `name` (0 when it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of all shares; equals [`Attribution::wall_s`] up to rounding.
    pub fn total_s(&self) -> f64 {
        self.self_s.values().sum()
    }
}

struct Node {
    name: &'static str,
    start: u64,
    end: u64,
    lane: u32,
    children: Vec<usize>,
}

/// Shares the wall time of span `root` among the spans below it and
/// the program timeline intervals they contain. Timeline stages named
/// in `skip` are left out (e.g. the scheduler's own per-item record of
/// a span the benchmark already took).
pub fn attribute(
    spans: &[Span],
    events: &[TimelineEvent],
    root: u64,
    skip: &[&str],
) -> Attribution {
    // Keep the subtree of `root` only.
    let mut by_parent: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_parent.entry(s.parent).or_default().push(s);
    }
    let Some(root_span) = spans.iter().find(|s| s.id == root) else {
        return Attribution::default();
    };
    let mut nodes: Vec<Node> = Vec::new();
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut stack = vec![root_span];
    while let Some(s) = stack.pop() {
        index_of.insert(s.id, nodes.len());
        nodes.push(Node {
            name: s.name,
            start: s.start_ns,
            end: s.end_ns,
            lane: s.lane,
            children: Vec::new(),
        });
        if let Some(kids) = by_parent.get(&s.id) {
            stack.extend(kids.iter().copied());
        }
    }
    for s in spans {
        if s.id != root {
            if let (Some(&i), Some(&p)) = (index_of.get(&s.id), index_of.get(&s.parent)) {
                nodes[p].children.push(i);
            }
        }
    }
    // Hang each program interval under the innermost interval
    // containing it on its own lane (one thread's intervals nest, so a
    // stack sweep finds it); an interval on a lane no span covers (a
    // fan-out worker) goes under the innermost span of any lane.
    let evs: Vec<&TimelineEvent> = events
        .iter()
        .filter(|e| !skip.contains(&e.stage))
        .filter(|e| e.start_ns >= root_span.start_ns && e.end_ns <= root_span.end_ns)
        .collect();
    let span_count = nodes.len();
    // (start, end, is_event, index): spans sort before equal events.
    let mut per_lane: BTreeMap<u32, Vec<(u64, u64, bool, usize)>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        per_lane.entry(n.lane).or_default().push((n.start, n.end, false, i));
    }
    for (j, e) in evs.iter().enumerate() {
        per_lane.entry(e.worker).or_default().push((e.start_ns, e.end_ns, true, j));
    }
    let mut orphans = Vec::new();
    for items in per_lane.values_mut() {
        items.sort_by_key(|&(s, e, is_event, _)| (s, std::cmp::Reverse(e), is_event));
        let mut stack: Vec<(u64, u64, usize)> = Vec::new();
        for &(s, e, is_event, i) in items.iter() {
            while stack.last().is_some_and(|top| !(top.0 <= s && e <= top.1)) {
                stack.pop();
            }
            if !is_event {
                stack.push((s, e, i));
                continue;
            }
            match stack.last() {
                Some(&(_, _, p)) => {
                    let k = push_event(&mut nodes, evs[i]);
                    nodes[p].children.push(k);
                    stack.push((s, e, k));
                }
                None => orphans.push(i),
            }
        }
    }
    for j in orphans {
        let e = evs[j];
        let parent = (0..span_count)
            .filter(|&i| nodes[i].start <= e.start_ns && e.end_ns <= nodes[i].end)
            .min_by_key(|&i| nodes[i].end - nodes[i].start);
        if let Some(p) = parent {
            let k = push_event(&mut nodes, e);
            nodes[p].children.push(k);
        }
    }

    let mut out = Attribution {
        wall_s: (root_span.end_ns - root_span.start_ns) as f64 / 1e9,
        self_s: BTreeMap::new(),
    };
    let mut work = vec![(0usize, vec![(root_span.start_ns, root_span.end_ns, 1.0f64)])];
    while let Some((n, pieces)) = work.pop() {
        let (own, kids) = share(&nodes, n, &pieces);
        *out.self_s.entry(nodes[n].name).or_default() += own / 1e9;
        work.extend(kids);
    }
    out
}

fn push_event(nodes: &mut Vec<Node>, e: &TimelineEvent) -> usize {
    nodes.push(Node {
        name: e.stage,
        start: e.start_ns,
        end: e.end_ns,
        lane: e.worker,
        children: Vec::new(),
    });
    nodes.len() - 1
}

/// Splits node `n`'s weighted time `pieces` into its own share (ns) and
/// the weighted pieces each child inherits.
#[allow(clippy::type_complexity)]
fn share(
    nodes: &[Node],
    n: usize,
    pieces: &[(u64, u64, f64)],
) -> (f64, Vec<(usize, Vec<(u64, u64, f64)>)>) {
    let kids = &nodes[n].children;
    let mut cuts: Vec<u64> = pieces.iter().flat_map(|p| [p.0, p.1]).collect();
    for &k in kids {
        cuts.push(nodes[k].start);
        cuts.push(nodes[k].end);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut own = 0.0;
    let mut inherited: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); kids.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut by_start: Vec<usize> = (0..kids.len()).collect();
    by_start.sort_by_key(|&i| nodes[kids[i]].start);
    let mut next = 0;
    let mut piece = 0;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        while next < by_start.len() && nodes[kids[by_start[next]]].start <= a {
            active.push(by_start[next]);
            next += 1;
        }
        active.retain(|&i| nodes[kids[i]].end > a);
        while piece < pieces.len() && pieces[piece].1 <= a {
            piece += 1;
        }
        let weight = match pieces.get(piece) {
            Some(&(s, e, w)) if s <= a && b <= e => w,
            _ => 0.0,
        };
        if weight == 0.0 {
            continue;
        }
        let dt = (b - a) as f64;
        if active.is_empty() {
            own += weight * dt;
        } else {
            let w = weight / active.len() as f64;
            for &i in &active {
                let list = &mut inherited[i];
                match list.last_mut() {
                    Some(last) if last.1 == a && last.2 == w => last.1 = b,
                    _ => list.push((a, b, w)),
                }
            }
        }
    }
    let kids_out = kids.iter().zip(inherited).map(|(&k, p)| (k, p)).collect();
    (own, kids_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start: u64, end: u64, lane: u32) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end, lane }
    }

    #[test]
    fn serial_children_leave_the_gaps_to_the_parent() {
        let spans =
            [sp(1, 0, "root", 0, 100, 0), sp(2, 1, "a", 10, 40, 0), sp(3, 1, "b", 50, 90, 0)];
        let at = attribute(&spans, &[], 1, &[]);
        assert_eq!(at.get("a"), 30e-9);
        assert_eq!(at.get("b"), 40e-9);
        assert!((at.get("root") - 30e-9).abs() < 1e-18);
        assert!((at.total_s() - at.wall_s).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_split_the_wall_time() {
        // Two lanes run "w" at once for 0..60; one keeps going to 100.
        let spans = [
            sp(1, 0, "root", 0, 100, 0),
            sp(2, 1, "w", 0, 60, 1),
            sp(3, 1, "w", 0, 100, 2),
            sp(4, 3, "leaf", 80, 100, 2),
        ];
        let at = attribute(&spans, &[], 1, &[]);
        assert!((at.get("w") - 80e-9).abs() < 1e-15);
        assert!((at.get("leaf") - 20e-9).abs() < 1e-15);
        assert_eq!(at.get("root"), 0.0);
        assert!((at.total_s() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn timeline_intervals_nest_under_the_innermost_span_on_their_lane() {
        let spans = [sp(1, 0, "root", 0, 100, 0), sp(2, 1, "call", 10, 90, 3)];
        let ev = |stage: &'static str, start, end, worker| TimelineEvent {
            worker,
            stage,
            start_ns: start,
            end_ns: end,
            ctx: evr_obs::TraceCtx::anonymous(),
        };
        let events =
            [ev("fetch", 20, 60, 3), ev("sas_fetch_fov", 30, 40, 3), ev("user", 10, 90, 3)];
        let at = attribute(&spans, &events, 1, &["user"]);
        assert!((at.get("fetch") - 30e-9).abs() < 1e-15);
        assert!((at.get("sas_fetch_fov") - 10e-9).abs() < 1e-15);
        assert!((at.get("call") - 40e-9).abs() < 1e-15);
        assert_eq!(at.get("user"), 0.0);
        assert!((at.total_s() - at.wall_s).abs() < 1e-15);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert_eq!(span(None, 0, "x", |id| id + 7), 7);
        let tr = Tracer::new();
        let inner = span(Some(&tr), 0, "outer", |id| span(Some(&tr), id, "inner", |_| id));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "inner" && s.parent == inner));
    }
}
