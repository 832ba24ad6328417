//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into
//! each layer: name, start, end, the span that caused it, and the
//! iteration they belong to. They stay in memory until the run ends and
//! are then written as one JSON object per line. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover (children may overlap when they ran on parallel threads,
//! so the cover is a union of intervals, not a sum).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace_io.read_parse`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The iteration (request) the span belongs to.
    pub iter: u32,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; when off, [`Ctx::span`] only runs its closure,
/// which is what the untraced reference pass uses.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span hangs: the tracer, the parent span, the iteration.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: Option<usize>,
    iter: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The context for top-level spans of iteration `iter`.
    pub fn iteration(&self, iter: u32) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
            iter,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order of recording.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list not poisoned").clone()
    }
}

impl<'a> Ctx<'a> {
    /// Runs `f` inside a span called `name`; `f` receives the context
    /// for spans it causes. Safe to call from several threads at once.
    pub fn span<T>(&self, name: &str, f: impl FnOnce(Ctx<'a>) -> T) -> T {
        if !self.tracer.on {
            return f(*self);
        }
        let start_ns = self.tracer.now_ns();
        let id = {
            let mut spans = self.tracer.spans.lock().expect("span list not poisoned");
            spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent: self.parent,
                iter: self.iter,
            });
            spans.len() - 1
        };
        let out = f(Ctx {
            tracer: self.tracer,
            parent: Some(id),
            iter: self.iter,
        });
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.lock().expect("span list not poisoned")[id].end_ns = end_ns;
        out
    }
}

/// Self time of every span, in ns, index-aligned with `spans`: duration
/// minus the union of its direct children's intervals (clipped to the
/// span itself).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
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
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Seconds spent in spans called `name`, summed per iteration: one
/// entry per iteration that has such a span.
pub fn seconds_per_iteration(spans: &[Span], name: &str) -> BTreeMap<u32, f64> {
    let mut by_iter: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_iter.entry(s.iter).or_default() += s.duration_ns() as f64 / 1e9;
    }
    by_iter
}

/// Writes the spans as JSON lines: `id`, `name`, `start_ns`, `end_ns`,
/// `parent` (or null), `iter`, and the derived `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        // Span names are `[A-Za-z0-9_.-]+` (checked by the self-tests),
        // so they need no JSON escaping.
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.iter
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two children ran in parallel over [10, 60] and [30, 80]: the
        // parent's interval is covered for 70 ns, not 100.
        let spans = vec![
            span("par", 0, 100, None),
            span("left", 10, 60, Some(0)),
            span("right", 30, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recording_nests_and_off_records_nothing() {
        let on = Tracer::new(true);
        let got = on
            .iteration(3)
            .span("outer", |ctx| ctx.span("inner", |_| 7));
        assert_eq!(got, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iter, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.iteration(0).span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn per_iteration_totals_sum_same_named_spans() {
        let mut spans = vec![
            span("x", 0, 1_000_000_000, None),
            span("x", 0, 500_000_000, None),
        ];
        spans[1].iter = 1;
        spans.push(span("x", 0, 250_000_000, None));
        let totals: Vec<(u32, f64)> = seconds_per_iteration(&spans, "x").into_iter().collect();
        assert_eq!(totals, vec![(0, 1.25), (1, 0.5)]);
        assert!(seconds_per_iteration(&spans, "absent").is_empty());
    }
}
