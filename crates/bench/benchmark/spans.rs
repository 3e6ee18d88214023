//! In-memory spans recorded around calls into the library, written out as
//! JSONL when the run ends, plus the per-layer self-time table.
//!
//! A span's self time is its duration minus the part of its interval that
//! its direct children cover; overlapping children (two client threads,
//! say) are counted once.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Request or replication the span belongs to, when there is one.
    pub req: Option<u64>,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can open children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                start,
                end,
                req,
            });
        out
    }

    /// Every span recorded so far, in id order.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while recording a span");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in the order given: duration minus the union
/// of its direct children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: String,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per span name: how many, their summed duration and summed self time.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: BTreeMap<&str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(&s.name).or_insert_with(|| LayerRow {
            name: s.name.clone(),
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += s.end - s.start;
        row.self_s += own;
    }
    rows.into_values().collect()
}

/// Summed duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + (s.end - s.start))
}

/// Durations of the spans named `name`, in id order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Writes the spans as JSONL and the layer table as text next to it.
pub fn write(spans: &[Span], jsonl: &Path, table: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(jsonl)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
        let line = Value::Object(vec![
            ("id".into(), Value::U64(s.id)),
            ("parent".into(), opt(s.parent)),
            ("name".into(), Value::Str(s.name.clone())),
            ("start".into(), Value::F64(s.start)),
            ("end".into(), Value::F64(s.end)),
            ("req".into(), opt(s.req)),
        ]);
        let text = serde_json::to_string(&line).map_err(std::io::Error::other)?;
        writeln!(out, "{text}")?;
    }
    out.flush()?;
    std::fs::write(table, render_table(&layer_table(spans)))
}

/// The layer table as aligned text.
pub fn render_table(rows: &[LayerRow]) -> String {
    let mut text = format!(
        "{:<32} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for r in rows {
        text.push_str(&format!(
            "{:<32} {:>8} {:>12.6} {:>12.6}\n",
            r.name, r.count, r.total_s, r.self_s
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start,
            end,
            req: None,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 3.0),
            span(3, Some(1), 2.0, 5.0),  // overlaps span 2
            span(4, Some(1), 8.0, 12.0), // runs past its parent's end
            span(5, Some(3), 2.5, 4.5),  // grandchild: only its parent counts
            span(6, Some(1), 3.5, 4.0),  // nested inside span 3's interval
        ];
        let own = self_times(&spans);
        // Covered by children of 1: [1, 5] and [8, 10] = 6.
        assert!((own[0] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own[1] - 2.0).abs() < 1e-12);
        assert!((own[2] - 1.0).abs() < 1e-12, "span 3 minus its grandchild");
        assert!((own[3] - 4.0).abs() < 1e-12);
        assert!((own[4] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_table_sums_by_name() {
        let tracer = Tracer::new();
        tracer.span("outer", None, Some(7), |id| {
            tracer.span("inner", Some(id), Some(7), |_| ());
            tracer.span("inner", Some(id), Some(7), |_| ());
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert!(spans[1..].iter().all(|s| s.parent == Some(spans[0].id)));
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name.as_str(), rows[0].count), ("inner", 2));
        assert!(rows[1].self_s <= rows[1].total_s);
        assert!(render_table(&rows).contains("outer"));
    }
}
