//! In-memory span tracing around calls into each layer's public API.
//!
//! Spans are recorded from the benchmark's own wrappers only: the
//! program under test is not instrumented. Each span holds a layer name,
//! start and end (ns since the tracer was made), its parent span and the
//! plan it belongs to. Self time — a span's duration minus the time its
//! children cover — is folded per layer as spans close, so the per-layer
//! totals cover every span even when the kept buffer is full.
//!
//! Every wrapper forwards every trait method, defaulted ones included, to
//! the wrapped value, so a traced run computes bit-identical outcomes.
//! Accessors that do no simulation work (`ProfilingEnv::{space, quote,
//! elapsed, spent, total_samples}`, `CloudInterface::{now, total_spent,
//! metrics, provisioning_delay}`) are forwarded without a span: they cost
//! nanoseconds, are called per scored candidate, and a span would cost
//! more than the call. Their time stays in the caller's self time.

use mlcd::prelude::{Deployment, Money, Observation, ProfileError, ProfilingEnv, SearchSpace};
use mlcd::search::{TraceEvent, TraceSink};
use mlcd::system::CloudInterface;
use mlcd_cloudsim::{
    CloudError, Cluster, InstanceType, MetricStore, SimCloud, SimDuration, SimTime,
};
use mlcd_fleet::{Decision, FleetScheduler, FleetView};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Plan,
    Setup,
    Search,
    Profiler,
    Cloud,
    Complete,
    FleetRun,
    Decide,
    Isolated,
    Submit,
    Result,
    Read,
}

const N_LAYERS: usize = 12;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Plan => "plan",
            Layer::Setup => "experiment.setup",
            Layer::Search => "search",
            Layer::Profiler => "profiler",
            Layer::Cloud => "cloudsim",
            Layer::Complete => "experiment.complete",
            Layer::FleetRun => "fleet.run",
            Layer::Decide => "fleet.decide",
            Layer::Isolated => "fleet.isolated",
            Layer::Submit => "net.submit",
            Layer::Result => "net.result",
            Layer::Read => "net.read",
        }
    }
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub plan: u32,
}

/// Per-layer totals over every closed span.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

struct Open {
    start: u64,
    child: u64,
    kept: u32,
}

struct State {
    spans: Vec<Span>,
    stack: Vec<Open>,
    agg: [Agg; N_LAYERS],
    plan: u32,
    dropped: u64,
}

/// A span recorder. One nesting stack: every nested span must be opened
/// and closed on one thread (the fleet driver and closed-loop workloads
/// run their traced calls on the main thread). Asynchronous spans, such
/// as pipelined wire requests, are added whole with [`Tracer::record`].
pub struct Tracer {
    epoch: Instant,
    cap: usize,
    st: Mutex<State>,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans for the written trace.
    pub fn new(cap: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            cap,
            st: Mutex::new(State {
                spans: Vec::with_capacity(cap.min(1 << 16)),
                stack: Vec::new(),
                agg: [Agg::default(); N_LAYERS],
                plan: 0,
                dropped: 0,
            }),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.st.lock().expect("tracer state poisoned by a panicking traced call")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn set_plan(&self, plan: u32) {
        self.state().plan = plan;
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        {
            let mut st = self.state();
            let parent = st.stack.last().map_or(NONE, |o| o.kept);
            let kept = if st.spans.len() < self.cap {
                let plan = st.plan;
                st.spans.push(Span { layer, start_ns: start, end_ns: start, parent, plan });
                (st.spans.len() - 1) as u32
            } else {
                st.dropped += 1;
                NONE
            };
            st.stack.push(Open { start, child: 0, kept });
        }
        let out = f();
        let end = self.now_ns();
        let mut st = self.state();
        let open = st.stack.pop().expect("span stack underflow");
        let dur = end - open.start;
        let agg = &mut st.agg[layer as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child);
        if open.kept != NONE {
            st.spans[open.kept as usize].end_ns = end;
        }
        if let Some(parent) = st.stack.last_mut() {
            parent.child += dur;
        }
        out
    }

    /// Add a span that was timed elsewhere (it has no children).
    pub fn record(&self, layer: Layer, start_ns: u64, end_ns: u64, plan: u32) {
        let mut st = self.state();
        let dur = end_ns.saturating_sub(start_ns);
        let agg = &mut st.agg[layer as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur;
        if st.spans.len() < self.cap {
            st.spans.push(Span { layer, start_ns, end_ns, parent: NONE, plan });
        } else {
            st.dropped += 1;
        }
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.state().agg[layer as usize]
    }

    /// Write the kept spans as CSV (`id,name,start_ns,end_ns,parent,plan`).
    /// Returns `(kept, dropped)`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        let st = self.state();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,plan")?;
        for (i, s) in st.spans.iter().enumerate() {
            let parent = if s.parent == NONE { String::new() } else { s.parent.to_string() };
            writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.plan
            )?;
        }
        out.flush()?;
        Ok((st.spans.len(), st.dropped))
    }
}

/// Counts the search kernel's structured trace events.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct CountingSink {
    pub scored: u64,
    pub pruned: u64,
    pub probes: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::CandidateScored { .. } => self.scored += 1,
            TraceEvent::CandidatePruned { .. } => self.pruned += 1,
            TraceEvent::InitProbe { .. } | TraceEvent::Probe { .. } => self.probes += 1,
            _ => {}
        }
    }
}

/// The profiler as the searcher sees it, with `profile`/`profile_batch`
/// spanned and failed probes counted.
pub struct TracedEnv<'a> {
    pub inner: &'a mut dyn ProfilingEnv,
    pub tracer: &'a Tracer,
    pub failures: u64,
}

impl ProfilingEnv for TracedEnv<'_> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn total_samples(&self) -> f64 {
        self.inner.total_samples()
    }

    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        self.inner.quote(d)
    }

    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError> {
        let inner = &mut *self.inner;
        let out = self.tracer.span(Layer::Profiler, || inner.profile(d));
        self.failures += u64::from(out.is_err());
        out
    }

    fn profile_batch(&mut self, ds: &[Deployment]) -> Vec<Result<Observation, ProfileError>> {
        let inner = &mut *self.inner;
        let out = self.tracer.span(Layer::Profiler, || inner.profile_batch(ds));
        self.failures += out.iter().filter(|r| r.is_err()).count() as u64;
        out
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn spent(&self) -> Money {
        self.inner.spent()
    }
}

/// The simulated cloud behind the profiler, with every call that drives
/// the event engine spanned.
pub struct TracedCloud {
    pub inner: SimCloud,
    pub tracer: Arc<Tracer>,
}

impl TracedCloud {
    fn span<R>(&self, f: impl FnOnce(&SimCloud) -> R) -> R {
        self.tracer.span(Layer::Cloud, || f(&self.inner))
    }
}

impl CloudInterface for TracedCloud {
    fn launch(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        self.span(|c| CloudInterface::launch(c, itype, n))
    }
    fn wait_until_running(&self, cluster: &Cluster) -> SimDuration {
        self.span(|c| CloudInterface::wait_until_running(c, cluster))
    }
    fn run_for(&self, cluster: &Cluster, d: SimDuration) -> Result<(), CloudError> {
        self.span(|c| CloudInterface::run_for(c, cluster, d))
    }
    fn terminate(&self, cluster: &Cluster) {
        self.span(|c| CloudInterface::terminate(c, cluster))
    }
    fn now(&self) -> SimTime {
        CloudInterface::now(&self.inner)
    }
    fn total_spent(&self) -> Money {
        CloudInterface::total_spent(&self.inner)
    }
    fn metrics(&self) -> &MetricStore {
        CloudInterface::metrics(&self.inner)
    }
    fn provisioning_delay(&self, cluster: &Cluster) -> Option<SimDuration> {
        CloudInterface::provisioning_delay(&self.inner, cluster)
    }
    fn terminate_at(&self, cluster: &Cluster, end: SimTime) {
        self.span(|c| CloudInterface::terminate_at(c, cluster, end))
    }
    fn skip_to(&self, t: SimTime) {
        self.span(|c| CloudInterface::skip_to(c, t))
    }
    fn launch_spot(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        self.span(|c| CloudInterface::launch_spot(c, itype, n))
    }
    fn revocation_before(&self, cluster: &Cluster, t: SimTime) -> Option<SimTime> {
        self.span(|c| CloudInterface::revocation_before(c, cluster, t))
    }
}

/// A fleet policy with every `decide` spanned.
pub struct TracedPolicy {
    pub inner: Box<dyn FleetScheduler>,
    pub tracer: Arc<Tracer>,
}

impl FleetScheduler for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, view: &FleetView<'_>) -> Decision {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Decide, || inner.decide(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(16);
        t.span(Layer::Plan, || {
            t.span(Layer::Search, || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let plan = t.agg(Layer::Plan);
        let search = t.agg(Layer::Search);
        assert_eq!(plan.calls, 1);
        assert!(search.total_ns >= 20_000_000);
        assert!(plan.self_ns < plan.total_ns - search.total_ns + 1);
        assert!(plan.self_ns < 5_000_000, "child time leaked into parent self time");
    }
}
