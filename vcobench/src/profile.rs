//! An aggregating `obskit` recorder: per span name a count plus total,
//! outermost and self time, and the sum of every counter. Only live
//! spans are held, so memory stays bounded however long the run is.

use obskit::{AttrValue, Recorder, SpanId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

/// Aggregate of every span that carried one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations of the spans with no live ancestor of the same
    /// name, seconds: the wall time the layer covered, counted once
    /// when it recurses.
    pub outer_s: f64,
    /// Summed self time (duration minus the children's durations),
    /// seconds. Children on other threads can overlap, so one span's
    /// self time may be negative; the sum over all names still equals
    /// the root spans' durations.
    pub self_s: f64,
}

#[derive(Debug)]
struct Live {
    name: &'static str,
    parent: Option<u64>,
    start: Instant,
    child_s: f64,
    nested: bool,
}

#[derive(Debug, Default)]
struct State {
    next_id: u64,
    live: HashMap<u64, Live>,
    spans: BTreeMap<&'static str, SpanAgg>,
    counters: BTreeMap<&'static str, u64>,
}

/// The recorder (see the module docs). Install it with
/// `obskit::install(Arc::new(ProfileRecorder::default()))`.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    state: Mutex<State>,
}

/// A snapshot of a [`ProfileRecorder`]'s aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per span name.
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// Per counter name.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Profile {
    /// The aggregate of one span name (all zero when it never closed).
    pub fn span(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// One counter's sum (zero when it was never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the self times of every span name, seconds.
    pub fn self_sum_s(&self) -> f64 {
        self.spans.values().map(|a| a.self_s).sum()
    }

    /// The aggregate as JSON: one object per span name, one number per
    /// counter.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|(name, a)| {
                format!(
                    "    \"{name}\": {{\"count\": {}, \"total_s\": {}, \"outer_s\": {}, \"self_s\": {}}}",
                    a.count, a.total_s, a.outer_s, a.self_s
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| format!("    \"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n  \"spans\": {{\n{spans}\n  }},\n  \"counters\": {{\n{counters}\n  }}\n}}\n")
    }
}

impl ProfileRecorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("profile lock poisoned by a panicking instrumented thread")
    }

    /// The aggregates recorded so far (spans still open are left out).
    pub fn snapshot(&self) -> Profile {
        let st = self.lock();
        Profile {
            spans: st.spans.clone(),
            counters: st.counters.clone(),
        }
    }
}

impl Recorder for ProfileRecorder {
    fn span_begin(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        let mut st = self.lock();
        st.next_id += 1;
        let id = st.next_id;
        let parent = parent.map(|p| p.0);
        let mut nested = false;
        let mut up = parent;
        while let Some(p) = up {
            match st.live.get(&p) {
                Some(l) if l.name == name => {
                    nested = true;
                    break;
                }
                Some(l) => up = l.parent,
                None => break,
            }
        }
        st.live.insert(
            id,
            Live {
                name,
                parent,
                start,
                child_s: 0.0,
                nested,
            },
        );
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        let end = Instant::now();
        let mut st = self.lock();
        let Some(live) = st.live.remove(&id.0) else {
            return;
        };
        let dur = end.duration_since(live.start).as_secs_f64();
        if let Some(parent) = live.parent.and_then(|p| st.live.get_mut(&p)) {
            parent.child_s += dur;
        }
        let agg = st.spans.entry(live.name).or_default();
        agg.count += 1;
        agg.total_s += dur;
        if !live.nested {
            agg.outer_s += dur;
        }
        agg.self_s += dur - live.child_s;
    }

    fn span_attr(&self, _id: SpanId, _key: &'static str, _value: AttrValue) {}

    fn point(
        &self,
        _name: &'static str,
        _parent: Option<SpanId>,
        _attrs: &[(&'static str, AttrValue)],
    ) {
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&self, _name: &'static str, _value: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn nested_spans_split_self_time_and_counters_sum() {
        let rec = Arc::new(ProfileRecorder::default());
        {
            let _g = obskit::install(rec.clone() as Arc<dyn Recorder>);
            let _root = obskit::span("root");
            for _ in 0..3 {
                let _a = obskit::span("a");
                let _inner = obskit::span("a");
                obskit::counter_add("c", 2);
            }
        }
        let p = rec.snapshot();
        assert_eq!(p.span("root").count, 1);
        assert_eq!(p.span("a").count, 6);
        assert_eq!(p.counter("c"), 6);
        let a = p.span("a");
        assert!(a.outer_s <= a.total_s);
        let root = p.span("root").total_s;
        assert!((p.self_sum_s() - root).abs() <= 1e-9 + 1e-6 * root);
    }
}
