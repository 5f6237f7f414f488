//! The digest-binned scheduler: pending jobs queue per structural netlist
//! digest, and each dispatch drains one bin into a single pass serving up
//! to `max_lanes_per_batch` tenants.
//!
//! Dispatch order is oldest-job-first across bins (job ids are monotonic),
//! so a hot digest cannot starve a cold one: the bin holding the oldest
//! queued job always dispatches next, and everything else waiting on the
//! same digest rides along in its lanes.
//!
//! Each pass picks its engine once, by the paper's §3 trade-off: compiled
//! mode evaluates every element every step, which pays only when lanes
//! share the work. A pass of one job on a netlist whose delays are all 1
//! runs [`EventDriven::run_lane`] on the scheduler thread and never lowers
//! the netlist; every other pass runs the word-parallel
//! [`CompiledMode::run_batch_with_program`] on `threads` workers, with the
//! program the [`NetlistStore`] compiles once per digest. On a unit-delay
//! netlist the two engines give byte-identical waveforms, and on any other
//! the compiled kernel's unit-delay semantics are what the server has
//! always served, so the choice never changes an artifact.
//!
//! Deadlines and cancellation piggyback on the checkpoint-segment API:
//! when `segment_ticks > 0` a pass runs as a chain of segment calls
//! ([`EventDriven::run_lane_segment`] or
//! [`CompiledMode::run_batch_segment_with_program`]), and between
//! cuts the scheduler evicts lanes whose tenant cancelled or whose
//! wall-clock budget expired (synthesizing
//! [`SimError::DeadlineExceeded`] with `engine: "server"`). With
//! `segment_ticks == 0` a pass is one uninterruptible engine run and those
//! checks happen only at dispatch and completion.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use parsim_checkpoint::{netlist_digest, EngineSnapshot};
use parsim_core::{
    CompiledMode, EventDriven, LaneStimulus, SimConfig, SimError, SimResult, StallDiagnostic,
};
use parsim_logic::{Delay, Time};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::Netlist;
use parsim_telemetry::{RunTelemetry, ServerCounter, ServerGauge, ServerRegistry};

use crate::job::{JobArtifact, JobId, JobOutcome, JobSpec, JobStatus, SubmitError};
use crate::store::NetlistStore;

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine worker threads per compiled pass. An event-driven pass (one
    /// job, unit delays) runs on the scheduler thread alone.
    pub threads: usize,
    /// Most jobs packed into one pass (the service-level lane bound; the
    /// kernel chunks beyond its SIMD word width internally, so this caps
    /// latency coupling, not correctness).
    pub max_lanes_per_batch: usize,
    /// Checkpoint-segment length in simulated ticks. `0` runs each pass
    /// as a single uninterruptible kernel execution; otherwise cancel and
    /// deadline eviction take effect at each cut.
    pub segment_ticks: u64,
    /// Circuits (parsed netlist + compiled program) kept by the
    /// [`NetlistStore`]'s LRU.
    pub cache_capacity: usize,
    /// Most queued-or-running jobs one tenant may hold.
    pub tenant_quota: usize,
    /// Start with dispatch paused (tests use this to pack a bin before
    /// the first pass). [`Server::resume`] unblocks.
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 2,
            max_lanes_per_batch: 64,
            segment_ticks: 0,
            cache_capacity: 8,
            tenant_quota: 4,
            start_paused: false,
        }
    }
}


/// Finished job records kept for late `status`/`result` reads. Beyond it
/// the oldest finished id is forgotten and answers as unknown (HTTP 404),
/// which is what bounds the server's memory in the number of jobs served.
pub const RETAINED_FINISHED_JOBS: usize = 1024;

/// Where a job is, holding only what that phase needs: the spec (netlist,
/// stimulus, watch) exists while the job waits, moves into the pass that
/// runs it, and is gone once the job is terminal.
enum Phase {
    Queued(JobSpec),
    Running,
    Done(Arc<JobArtifact>),
    Failed(SimError),
    Cancelled,
}

impl Phase {
    fn status(&self) -> JobStatus {
        match self {
            Phase::Queued(_) => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Done(_) => JobStatus::Done,
            Phase::Failed(_) => JobStatus::Failed,
            Phase::Cancelled => JobStatus::Cancelled,
        }
    }
}

struct Job {
    tenant: String,
    digest: u64,
    phase: Phase,
    cancel_requested: bool,
    expires_at: Option<Instant>,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.expires_at.is_some_and(|at| now >= at)
    }
}

#[derive(Default)]
struct State {
    next_id: u64,
    /// Queued, running and the last [`RETAINED_FINISHED_JOBS`] terminal jobs.
    jobs: HashMap<JobId, Job>,
    /// The nonempty digest bins; ids within a bin are FIFO.
    bins: Vec<(u64, VecDeque<JobId>)>,
    /// Terminal ids still in `jobs`, oldest first.
    finished: VecDeque<JobId>,
    /// Jobs in `Phase::Queued` / `Phase::Running`, kept on each transition.
    queued: usize,
    running: usize,
    /// Tenants with queued or running jobs, and how many.
    active_per_tenant: HashMap<String, usize>,
    paused: bool,
    shutdown: bool,
}

struct Inner {
    config: ServerConfig,
    store: NetlistStore,
    metrics: Arc<ServerRegistry>,
    state: Mutex<State>,
    /// Wakes the scheduler thread (submit / resume / shutdown).
    sched_cv: Condvar,
    /// Wakes result waiters on any terminal transition.
    done_cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant simulation server. Dropping it shuts the scheduler
/// down (the in-flight pass, if any, completes first).
pub struct Server {
    inner: Arc<Inner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server (and its scheduler thread) with `config`.
    pub fn start(config: ServerConfig) -> Server {
        let metrics = Arc::new(ServerRegistry::new());
        let inner = Arc::new(Inner {
            store: NetlistStore::new(config.cache_capacity, metrics.clone()),
            metrics,
            state: Mutex::new(State {
                paused: config.start_paused,
                ..State::default()
            }),
            sched_cv: Condvar::new(),
            done_cv: Condvar::new(),
            config,
        });
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name("parsim-server-sched".into())
            .spawn(move || scheduler_loop(&worker_inner))
            .expect("spawn scheduler thread");
        Server { inner, worker: Some(worker) }
    }

    /// Accepts a job into its digest bin. Fails fast on quota, and on a
    /// stimulus the engines would refuse, so one tenant's bad override
    /// never fails the jobs packed with it.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let digest = netlist_digest(&spec.netlist);
        self.submit_digested(spec, digest)
    }

    /// [`Server::submit`] for a spec whose netlist came out of
    /// [`Server::store`] with `digest` already known.
    pub(crate) fn submit_digested(&self, spec: JobSpec, digest: u64) -> Result<JobId, SubmitError> {
        spec.stimulus
            .validate(&spec.netlist)
            .map_err(|reason| SubmitError::Invalid { reason })?;
        let mut st = self.inner.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let active = st.active_per_tenant.get(&spec.tenant).copied().unwrap_or(0);
        if active >= self.inner.config.tenant_quota {
            self.inner.metrics.inc(ServerCounter::QuotaRejections);
            return Err(SubmitError::QuotaExceeded {
                tenant: spec.tenant,
                limit: self.inner.config.tenant_quota,
            });
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        *st.active_per_tenant.entry(spec.tenant.clone()).or_insert(0) += 1;
        st.jobs.insert(
            id,
            Job {
                tenant: spec.tenant.clone(),
                digest,
                cancel_requested: false,
                expires_at: spec.deadline.map(|d| Instant::now() + d),
                phase: Phase::Queued(spec),
            },
        );
        match st.bins.iter_mut().find(|(d, _)| *d == digest) {
            Some((_, bin)) => bin.push_back(id),
            None => st.bins.push((digest, VecDeque::from([id]))),
        }
        st.queued += 1;
        self.inner.metrics.inc(ServerCounter::JobsSubmitted);
        publish_gauges(&self.inner, &st);
        self.inner.sched_cv.notify_one();
        Ok(id)
    }

    /// The job's current status (`None` for unknown ids, which includes
    /// finished jobs older than the retention bound). Lazily expires a
    /// queued job whose deadline has passed, so a paused or saturated
    /// server still reports expiry.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.lock();
        expire_if_due(&self.inner, &mut st, id);
        st.jobs.get(&id).map(|j| j.phase.status())
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs are evicted at the next segment cut (or on pass completion
    /// when segmenting is off). Returns `false` if the job is unknown or
    /// already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.lock();
        let Some(job) = st.jobs.get_mut(&id) else { return false };
        match job.phase {
            Phase::Queued(_) => {
                job.cancel_requested = true;
                finish_job(&self.inner, &mut st, id, Phase::Cancelled);
                true
            }
            Phase::Running => {
                job.cancel_requested = true;
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job reaches a terminal status, up to `timeout`.
    /// Returns the terminal status, or `None` on timeout / unknown id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            expire_if_due(&self.inner, &mut st, id);
            match st.jobs.get(&id).map(|j| j.phase.status()) {
                None => return None,
                Some(status) if status.is_terminal() => return Some(status),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .done_cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// A terminal job's outcome: the artifact (shared, not copied) or the
    /// error. `None` while the job is still pending, or for
    /// cancelled/unknown jobs.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        match &self.inner.lock().jobs.get(&id)?.phase {
            Phase::Done(artifact) => Some(JobOutcome::Done(artifact.clone())),
            Phase::Failed(err) => Some(JobOutcome::Failed(err.clone())),
            Phase::Queued(_) | Phase::Running | Phase::Cancelled => None,
        }
    }

    /// Pauses dispatch (in-flight passes complete).
    pub fn pause(&self) {
        self.inner.lock().paused = true;
    }

    /// Resumes dispatch.
    pub fn resume(&self) {
        self.inner.lock().paused = false;
        self.inner.sched_cv.notify_one();
    }

    /// The content-addressed netlist and program store.
    pub fn store(&self) -> &NetlistStore {
        &self.inner.store
    }

    /// The service-level metrics registry.
    pub fn metrics(&self) -> &ServerRegistry {
        &self.inner.metrics
    }

    /// Prometheus text exposition of the service metrics.
    pub fn metrics_text(&self) -> String {
        self.inner.metrics.render()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.sched_cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("Server")
            .field("jobs", &st.jobs.len())
            .field("bins", &st.bins.len())
            .field("paused", &st.paused)
            .finish()
    }
}

/// The synthesized error for a job whose wall-clock budget ran out while
/// it was the *server's* responsibility (queued or between segments) —
/// same variant the engine watchdog uses, so tenants handle one shape.
fn deadline_error(budget: Option<Duration>) -> SimError {
    SimError::DeadlineExceeded {
        engine: "server",
        deadline: budget.unwrap_or_default(),
        diagnostic: Box::new(StallDiagnostic::default()),
    }
}

/// Fails `id` if it is still queued and past its deadline.
fn expire_if_due(inner: &Inner, st: &mut State, id: JobId) {
    let Some(job) = st.jobs.get(&id) else { return };
    if let Phase::Queued(spec) = &job.phase {
        if job.expired(Instant::now()) {
            let err = deadline_error(spec.deadline);
            inner.metrics.inc(ServerCounter::DeadlineExpirations);
            finish_job(inner, st, id, Phase::Failed(err));
        }
    }
}

/// The one terminal transition: moves `id` into `end`, dropping whatever
/// its previous phase held, and settles the counts, the tenant's quota,
/// the bin and the retention queue.
fn finish_job(inner: &Inner, st: &mut State, id: JobId, end: Phase) {
    let Some(job) = st.jobs.get_mut(&id) else { return };
    debug_assert!(!job.phase.status().is_terminal(), "finishing an already-terminal job");
    inner.metrics.inc(match end {
        Phase::Done(_) => ServerCounter::JobsCompleted,
        Phase::Failed(_) => ServerCounter::JobsFailed,
        Phase::Cancelled => ServerCounter::JobsCancelled,
        Phase::Queued(_) | Phase::Running => unreachable!("terminal phases only"),
    });
    match std::mem::replace(&mut job.phase, end) {
        Phase::Queued(_) => {
            st.queued -= 1;
            let digest = job.digest;
            if let Some(pos) = st.bins.iter().position(|(d, _)| *d == digest) {
                st.bins[pos].1.retain(|&queued| queued != id);
                if st.bins[pos].1.is_empty() {
                    st.bins.swap_remove(pos);
                }
            }
        }
        Phase::Running => st.running -= 1,
        _ => {}
    }
    if let Some(active) = st.active_per_tenant.get_mut(&job.tenant) {
        *active -= 1;
        if *active == 0 {
            st.active_per_tenant.remove(&job.tenant);
        }
    }
    st.finished.push_back(id);
    if st.finished.len() > RETAINED_FINISHED_JOBS {
        let oldest = st.finished.pop_front().expect("nonempty");
        st.jobs.remove(&oldest);
    }
    publish_gauges(inner, st);
    inner.done_cv.notify_all();
}

fn publish_gauges(inner: &Inner, st: &State) {
    inner.metrics.set_gauge(ServerGauge::QueueDepth, st.queued as u64);
    inner.metrics.set_gauge(ServerGauge::JobsRunning, st.running as u64);
    inner.metrics.set_gauge(ServerGauge::JobsRetained, st.jobs.len() as u64);
}

/// One dispatched batch: the shared digest and the member jobs with their
/// specs, which the pass now owns (the state lock is not held while the
/// kernel runs).
struct Batch {
    digest: u64,
    members: Vec<(JobId, JobSpec)>,
}

fn scheduler_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = inner.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.paused {
                    if let Some(batch) = pick_batch(inner, &mut st) {
                        break batch;
                    }
                }
                st = inner.sched_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_pass(inner, batch);
    }
}

/// Picks the bin holding the oldest queued job and takes up to
/// `max_lanes_per_batch` of its members, marking them running. Queued
/// jobs already past their deadline are failed first, so expired work
/// never occupies a lane.
fn pick_batch(inner: &Inner, st: &mut State) -> Option<Batch> {
    let now = Instant::now();
    let expired: Vec<JobId> = st
        .bins
        .iter()
        .flat_map(|(_, bin)| bin.iter().copied())
        .filter(|id| st.jobs[id].expired(now))
        .collect();
    for id in expired {
        expire_if_due(inner, st, id);
    }

    // Oldest queued job wins; its whole bin rides along.
    let pos = (0..st.bins.len()).min_by_key(|&i| st.bins[i].1.front().copied())?;
    let (digest, bin) = &mut st.bins[pos];
    let digest = *digest;
    let lanes = bin.len().min(inner.config.max_lanes_per_batch.max(1));
    let ids: Vec<JobId> = bin.drain(..lanes).collect();
    if bin.is_empty() {
        st.bins.swap_remove(pos);
    }
    let members: Vec<(JobId, JobSpec)> = ids
        .into_iter()
        .map(|id| {
            let job = st.jobs.get_mut(&id).expect("binned job exists");
            match std::mem::replace(&mut job.phase, Phase::Running) {
                Phase::Queued(spec) => (id, spec),
                _ => unreachable!("binned jobs are queued"),
            }
        })
        .collect();
    st.queued -= members.len();
    st.running += members.len();
    publish_gauges(inner, st);
    Some(Batch { digest, members })
}

/// Builds the pass-wide engine config: union watch set, furthest end
/// time, and (when every member carries a budget) an engine deadline of
/// the largest remaining budget — generous enough that no member is
/// killed early by a *peer's* tighter budget, which the segment cuts
/// enforce instead.
fn pass_config(inner: &Inner, members: &[(JobId, JobSpec)]) -> (SimConfig, Time) {
    let end = members.iter().map(|(_, s)| s.end).max().unwrap_or(Time::ZERO);
    let watch: BTreeSet<_> = members
        .iter()
        .flat_map(|(_, s)| s.watch.iter().copied())
        .collect();
    let mut cfg = SimConfig::new(end)
        .watch_all(watch)
        .threads(inner.config.threads.max(1));
    let budgets: Vec<Option<Duration>> = members.iter().map(|(_, s)| s.deadline).collect();
    if budgets.iter().all(|b| b.is_some()) {
        if let Some(widest) = budgets.into_iter().flatten().max() {
            cfg = cfg.with_deadline(widest.max(Duration::from_millis(1)));
        }
    }
    (cfg, end)
}

/// The engine one pass runs on, chosen once in [`run_pass`].
enum Engine {
    /// [`EventDriven::run_lane`]: one lane, nothing lowered.
    EventDriven,
    /// [`CompiledMode::run_batch_with_program`] on the store's program.
    Compiled {
        program: Arc<CompiledProgram>,
        cache_hit: bool,
    },
}

impl Engine {
    /// The paper's §3 choice, made for one pass. Compiled mode evaluates
    /// every element every step, so it pays only when lanes share that
    /// work; one job on a unit-delay netlist (where the two engines agree
    /// byte for byte) runs event-driven and is never lowered. Any other
    /// pass keeps the compiled kernel and its unit-delay semantics.
    fn choose(inner: &Inner, batch: &Batch) -> Engine {
        let netlist = &batch.members[0].1.netlist;
        let unit_delay = netlist.min_delay() == Delay(1) && netlist.max_delay() == Delay(1);
        if batch.members.len() == 1 && unit_delay {
            Engine::EventDriven
        } else {
            let (program, cache_hit) = inner.store.program(batch.digest, netlist);
            Engine::Compiled { program, cache_hit }
        }
    }

    /// The engine's tag, as its own errors carry it.
    fn name(&self) -> &'static str {
        match self {
            Engine::EventDriven => "event-driven",
            Engine::Compiled { .. } => "compiled-mode",
        }
    }
}

/// What every member of one pass shares.
struct Pass<'a> {
    inner: &'a Inner,
    netlist: &'a Netlist,
    cfg: &'a SimConfig,
    engine: Engine,
    lanes_in_batch: usize,
}

/// One run of a pass's engine: per-lane results in stimulus order, their
/// resume snapshots (segment runs only), and the run telemetry the lanes
/// share.
struct PassOut {
    lanes: Vec<SimResult>,
    snapshots: Vec<EngineSnapshot>,
    telemetry: Option<Arc<RunTelemetry>>,
}

impl Pass<'_> {
    /// Runs `stimuli` on the pass's engine: whole with `cut == None`,
    /// otherwise one segment up to `cut`, from `resume` when given.
    fn run(
        &self,
        stimuli: &[LaneStimulus],
        resume: Option<&[EngineSnapshot]>,
        cut: Option<Time>,
    ) -> Result<PassOut, SimError> {
        self.inner.metrics.inc(ServerCounter::Segments);
        let (netlist, cfg) = (self.netlist, self.cfg);
        match &self.engine {
            Engine::EventDriven => {
                let [stimulus] = stimuli else {
                    unreachable!("an event-driven pass has one lane")
                };
                let (mut lane, snapshots) = match cut {
                    None => (EventDriven::run_lane(netlist, cfg, stimulus)?, Vec::new()),
                    Some(cut) => {
                        let resume = resume.map(|snaps| &snaps[0]);
                        let (lane, snapshot) =
                            EventDriven::run_lane_segment(netlist, cfg, stimulus, resume, cut)?;
                        (lane, vec![snapshot])
                    }
                };
                let telemetry = lane.telemetry.take().map(Arc::new);
                Ok(PassOut {
                    lanes: vec![lane],
                    snapshots,
                    telemetry,
                })
            }
            Engine::Compiled { program, .. } => {
                let (batch, snapshots) = match cut {
                    None => {
                        let batch =
                            CompiledMode::run_batch_with_program(netlist, cfg, program, stimuli)?;
                        (batch, Vec::new())
                    }
                    Some(cut) => CompiledMode::run_batch_segment_with_program(
                        netlist, cfg, program, stimuli, resume, cut,
                    )?,
                };
                let telemetry = batch.telemetry.map(Arc::new);
                Ok(PassOut {
                    lanes: batch.lanes,
                    snapshots,
                    telemetry,
                })
            }
        }
    }

    /// One member's deliverable: its lane restricted to its own watch list
    /// and end time. Built before the state lock is taken.
    fn artifact(
        &self,
        spec: &JobSpec,
        lane: usize,
        result: &SimResult,
        telemetry: &Option<Arc<RunTelemetry>>,
    ) -> Arc<JobArtifact> {
        Arc::new(JobArtifact {
            result: result.restricted(&spec.watch, spec.end),
            lane,
            lanes_in_batch: self.lanes_in_batch,
            engine: self.engine.name(),
            cache_hit: matches!(
                self.engine,
                Engine::Compiled {
                    cache_hit: true,
                    ..
                }
            ),
            telemetry: telemetry.clone(),
        })
    }

    fn fail(&self, ids: impl Iterator<Item = JobId>, err: &SimError) {
        let mut st = self.inner.lock();
        for id in ids {
            finish_job(self.inner, &mut st, id, Phase::Failed(err.clone()));
        }
    }
}

fn run_pass(inner: &Inner, batch: Batch) {
    let engine = Engine::choose(inner, &batch);
    let netlist = batch.members[0].1.netlist.clone();
    let (cfg, end) = pass_config(inner, &batch.members);
    let lanes = batch.members.len();
    inner.metrics.inc(ServerCounter::BatchPasses);
    if let Engine::EventDriven = engine {
        inner.metrics.inc(ServerCounter::EventDrivenPasses);
    }
    inner.metrics.add(ServerCounter::LanesPacked, lanes as u64);
    inner.metrics.set_gauge(ServerGauge::LastBatchLanes, lanes as u64);

    let pass = Pass {
        inner,
        netlist: &netlist,
        cfg: &cfg,
        engine,
        lanes_in_batch: lanes,
    };
    run_segments(&pass, batch.members, end, inner.config.segment_ticks);
}

/// A member still inside a pass.
struct Live {
    id: JobId,
    spec: JobSpec,
    /// Its lane in the pass as dispatched (lanes close up as members leave).
    lane: usize,
    /// Its waveforms over the segments run so far.
    acc: Option<SimResult>,
}

/// Runs a pass segment by segment, `segment_ticks` apart. A pass that
/// fits in one segment (or runs with segmenting off) is one whole-run
/// engine call, with no cut and no snapshot.
fn run_segments(pass: &Pass, members: Vec<(JobId, JobSpec)>, end: Time, segment_ticks: u64) {
    let inner = pass.inner;
    let whole = segment_ticks == 0 || segment_ticks >= end.ticks();
    // `live` and the resume snapshots stay index-parallel across segments.
    let mut live: Vec<Live> = members
        .into_iter()
        .enumerate()
        .map(|(lane, (id, spec))| Live { id, spec, lane, acc: None })
        .collect();
    let mut snaps: Option<Vec<EngineSnapshot>> = None;
    let mut from = 0u64;

    while !live.is_empty() {
        let cut = (!whole).then(|| Time(from.saturating_add(segment_ticks).min(end.ticks())));
        let stimuli: Vec<LaneStimulus> = live.iter().map(|l| l.spec.stimulus.clone()).collect();
        let PassOut {
            lanes,
            snapshots: mut new_snaps,
            telemetry,
        } = match pass.run(&stimuli, snaps.as_deref(), cut) {
            Ok(out) => out,
            Err(err) => return pass.fail(live.iter().map(|l| l.id), &err),
        };
        for (l, lane_result) in live.iter_mut().zip(lanes) {
            match &mut l.acc {
                Some(whole) => whole.append_segment(&lane_result),
                None => l.acc = Some(lane_result),
            }
        }
        from = cut.unwrap_or(end).ticks();
        let finished = from >= end.ticks();

        // Between cuts: deliver members whose own end was reached, evict
        // cancelled/expired ones, and carry the rest into the next
        // segment with their snapshots. Artifacts are built first, so the
        // lock covers only the status flips.
        let ready: Vec<Option<Arc<JobArtifact>>> = live
            .iter_mut()
            .map(|l| {
                (finished || l.spec.end.ticks() <= from).then(|| {
                    let whole = l.acc.take().expect("at least one segment accumulated");
                    pass.artifact(&l.spec, l.lane, &whole, &telemetry)
                })
            })
            .collect();
        let keep: Vec<bool> = {
            let mut st = inner.lock();
            let now = Instant::now();
            live.iter()
                .zip(ready)
                .map(|(l, ready)| {
                    let job = &st.jobs[&l.id];
                    let (cancelled, expired) = (job.cancel_requested, job.expired(now));
                    if cancelled {
                        finish_job(inner, &mut st, l.id, Phase::Cancelled);
                    } else if let Some(artifact) = ready {
                        finish_job(inner, &mut st, l.id, Phase::Done(artifact));
                    } else if expired {
                        inner.metrics.inc(ServerCounter::DeadlineExpirations);
                        let err = deadline_error(l.spec.deadline);
                        finish_job(inner, &mut st, l.id, Phase::Failed(err));
                    } else {
                        return true;
                    }
                    false
                })
                .collect()
        };
        let mut kept = keep.iter();
        live.retain(|_| *kept.next().expect("one flag per member"));
        let mut kept = keep.iter();
        new_snaps.retain(|_| *kept.next().expect("one snapshot per member"));
        snaps = Some(new_snaps);
    }
}
