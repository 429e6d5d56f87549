//! In-memory spans recorded around each call into a layer.
//!
//! A span is a name, a start and an end (nanoseconds since a shared
//! epoch), the index of the span that caused it, a request id shared by
//! every span of one request, and a label naming the cell it measured
//! (matrix, format, panel width). Each client thread records into its
//! own [`Tracer`]; the tracers are merged when the phase ends and the
//! spans are written out when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Request (or operation) id shared by the spans of one request.
    pub req: u64,
    /// Cell label, see [`label`].
    pub label: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Packs a cell identity into a span label: matrix index, format index
/// (0 when the span is not about one format) and panel width.
pub fn label(mat: usize, fmt: usize, k: usize) -> u32 {
    ((mat as u32) << 16) | ((fmt as u32) << 8) | k as u32
}

/// Inverse of [`label`].
pub fn unlabel(l: u32) -> (usize, usize, usize) {
    ((l >> 16) as usize, ((l >> 8) & 0xff) as usize, (l & 0xff) as usize)
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer { epoch, on, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; returns its index ([`ROOT`] when disabled).
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64, label: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req, label });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        if self.on && id != ROOT {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Closes span `id` now and replaces its label (for cells only known
    /// once the call returns, such as a coalesced panel's width).
    pub fn end_labelled(&mut self, id: u32, label: u32) {
        if self.on && id != ROOT {
            self.spans[id as usize].label = label;
            self.end(id);
        }
    }

    /// Records an interval that was measured by the layer itself (for
    /// example a response's queue wait), starting at `start`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        label: u32,
        start: Instant,
        dur_ns: u64,
    ) {
        if self.on {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns: start_ns + dur_ns, parent, req, label });
        }
    }

    /// Appends another tracer's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(p, kids)| {
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(p.start_ns), b.min(p.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            p.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as tab-separated lines with a header:
/// index, parent, request, name, label, start, end, self (ns).
pub fn write_tsv(
    path: &std::path::Path,
    spans: &[Span],
    label_name: impl Fn(u32) -> String,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tlabel\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}",
            s.req,
            s.name,
            label_name(s.label),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name: "s", start_ns, end_ns, parent, req: 0, label: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, ROOT),
            span(10, 30, 0),
            span(20, 50, 0), // overlaps the first child: union is 10..50
            span(60, 70, 0),
            span(90, 130, 0), // clipped to the parent's end at 100
            span(25, 28, 1),  // grandchild: counts against span 1 only
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 10);
        assert_eq!(own[1], 20 - 3);
        assert_eq!(own[2], 30);
        assert_eq!(own[5], 3);
    }

    #[test]
    fn children_outside_the_parent_do_not_count() {
        let spans = [span(100, 200, ROOT), span(0, 50, 0), span(250, 300, 0)];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn absorb_reindexes_parents_and_disabled_tracers_record_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let r = a.begin("root", ROOT, 1, 0);
        a.end(r);
        let mut b = Tracer::new(epoch, true);
        let p = b.begin("req", ROOT, 2, 0);
        let c = b.begin("submit", p, 2, label(3, 1, 8));
        b.end_labelled(c, label(3, 1, 2));
        b.end(p);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, 1);
        assert_eq!(unlabel(s[2].label), (3, 1, 2));
        let mut off = Tracer::new(epoch, false);
        let id = off.begin("x", ROOT, 0, 0);
        off.end(id);
        assert_eq!(id, ROOT);
        assert!(off.spans().is_empty());
    }
}
