//! Run-scoped resource governor: cooperative cancellation, byte-accurate
//! memory accounting, and the graceful-degradation ladder.
//!
//! SMASH at the ISP vantage point must *survive* whatever the tap sends:
//! a degenerate day that explodes posting lists, a stage that stalls, a
//! box with less memory than the trace deserves. The governor is the
//! mechanism (DESIGN.md §11): the pipeline opens one [`Governor`] per
//! run, every heavy stage registers a [`StageScope`], and the stage's
//! inner loops then
//!
//! 1. **poll** — [`StageScope::tick`] is an atomic-load-cheap
//!    cancellation point (plus the deterministic `<stage>/tick`
//!    failpoint), so deadline and budget violations stop work mid-stage
//!    instead of after the stage burned its full wall time;
//! 2. **charge** — [`StageScope::charge`] / [`release`](StageScope::release)
//!    account the bytes of the dominant allocations (postings, LSH band
//!    tables, graph edges) against per-stage soft and hard budgets;
//! 3. **degrade** — on a soft-budget breach the *caller* walks the
//!    deterministic ladder (DESIGN.md §11.3; the rungs are the [`Rung`]
//!    variants, in ladder order), recording every rung that fires with
//!    [`StageScope::record`] so the run's health report shows exactly
//!    what was traded away. Crossing the hard budget cancels the stage.
//!
//! Cancellation is delivered by panicking with a `governor:`-prefixed
//! message from a poll point; the pipeline's existing panic-isolation
//! boundaries (`par::run_isolated`) catch it and triage the stage into
//! `DimensionStatus`, so a cancelled dimension degrades exactly like a
//! crashed one — renormalized away, never fatal.
//!
//! Everything the governor decides from *charged bytes* is deterministic:
//! charges happen at deterministic points with deterministic sizes, and
//! ladder decisions are taken in sequential stage code. Wall-clock
//! deadlines are inherently nondeterministic and only ever map to the
//! same degraded statuses a wall-clock budget always produced. With no
//! budgets configured every poll is a pair of relaxed loads and every
//! charge a pair of atomic adds, and reports stay byte-identical.

use crate::failpoint;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant; // lint:allow(wallclock): deadline enforcement is inherently wall-clock

/// The panic-message prefix every governor cancellation carries; the
/// pipeline's triage recognizes cancelled stages by it.
pub const CANCEL_PREFIX: &str = "governor: ";

/// Run-scoped governor knobs, kept out of the pipeline config: they
/// bound what one run may spend, not what it computes, and the daemon
/// sets them per mine (`ServeOptions::mine_memory_budget_bytes`).
#[derive(Debug, Clone, Default)]
pub struct GovernorOptions {
    /// Hard per-stage memory budget in bytes (0 = unlimited). The soft
    /// budget — where the degradation ladder engages — is
    /// [`SOFT_NUM`]/[`SOFT_DEN`] of this.
    pub memory_budget_bytes: u64,
    /// Whole-run wall-clock deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Optional external parent for the run token. When set, the run's
    /// token is a child of this one, so cancelling the parent cancels
    /// the whole run cooperatively — how the serve layer's miner stops
    /// a stale mine the moment a fresh epoch supersedes it.
    pub cancel: Option<CancelToken>,
}

impl GovernorOptions {
    /// No budgets: every governor operation is a no-op-priced poll.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the hard per-stage memory budget in bytes.
    pub fn with_memory_budget_bytes(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Sets the whole-run deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Chains the run token under an external cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Verbatim ladder events kept per stage; further events are counted
/// and folded into one summary line per stage.
pub const MAX_RECORDED_EVENTS: usize = 64;

/// Soft budget numerator: the ladder engages at 4/5 of the hard budget.
pub const SOFT_NUM: u64 = 4;
/// Soft budget denominator.
pub const SOFT_DEN: u64 = 5;

/// One rung of the degradation ladder (DESIGN.md §11.3), in the order a
/// stage reaches them. [`StageScope::record`] takes the rung, so firings
/// are counted where they happen, not parsed back out of event text.
/// Cancellation, the last rung, is [`StageSummary::cancelled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The remaining LSH bands given up: their tables would not fit.
    Abandoned,
    /// `bucket_cap` lowered to fit a band's projected cliques.
    Tightened,
    /// LSH rare-feature path skipped: its index would not fit under soft
    /// beside the band tables.
    RareSkipped,
    /// A popular co-occurrence posting shed, longest first.
    Shed,
    /// The client index built over several windows of partner nodes
    /// because the whole did not fit under soft: costs time, no recall.
    Windowed,
    /// The finished graph thinned to its heaviest edges.
    Thinned,
    /// `smash serve` refused ingest: the open epoch is at its budget.
    IngestShed,
}

impl Rung {
    /// The rung's metric name: it is counted under `governor/<name>`.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Abandoned => "abandoned",
            Rung::Tightened => "tightened",
            Rung::RareSkipped => "rare_skipped",
            Rung::Shed => "shed",
            Rung::Windowed => "windowed",
            Rung::Thinned => "thinned",
            Rung::IngestShed => "ingest_shed",
        }
    }
}

/// A stage's recorded ladder events: the lines kept verbatim, and how
/// often each rung fired (lines past the cap included).
#[derive(Debug, Default)]
struct EventLog {
    lines: Vec<String>,
    rungs: BTreeMap<Rung, u64>,
}

/// A wall-clock deadline owned by a token.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    // lint:allow(wallclock): the deadline anchor is the one sanctioned wall-clock read
    start: Instant,
    budget_ms: u64,
    /// `true` for per-stage budgets ("dimension budget"), `false` for
    /// the whole-run deadline — chooses the cancellation message.
    per_stage: bool,
}

impl Deadline {
    /// Elapsed milliseconds past `start`, and whether the budget is blown.
    fn check(&self) -> Option<(u64, u64)> {
        let elapsed = self.start.elapsed().as_millis() as u64;
        (elapsed > self.budget_ms).then_some((elapsed, self.budget_ms))
    }
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    reason: Mutex<String>,
    deadline: Option<Deadline>,
    parent: Option<CancelToken>,
}

/// A cooperative cancellation token: cheap to poll (one relaxed load per
/// level when uncancelled and deadline-free), cloneable across threads,
/// first cancellation wins. Tokens form a chain — a stage token with a
/// per-stage deadline is a child of the run token with the run deadline —
/// and polling a child observes every ancestor.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A root token with no deadline.
    pub fn new() -> Self {
        Self::with(None, None)
    }

    /// A root token that cancels itself once `budget_ms` wall-clock
    /// milliseconds elapse (0 = no deadline).
    pub fn with_deadline_ms(budget_ms: u64) -> Self {
        let deadline = (budget_ms > 0).then(|| Deadline {
            // lint:allow(wallclock): deadline anchor
            start: Instant::now(),
            budget_ms,
            per_stage: false,
        });
        Self::with(deadline, None)
    }

    /// A child token: cancelled when the parent is, plus its own
    /// per-stage deadline of `budget_ms` milliseconds (0 = none).
    pub fn child_with_budget_ms(&self, budget_ms: u64) -> Self {
        let deadline = (budget_ms > 0).then(|| Deadline {
            // lint:allow(wallclock): deadline anchor
            start: Instant::now(),
            budget_ms,
            per_stage: true,
        });
        Self::with(deadline, Some(self.clone()))
    }

    fn with(deadline: Option<Deadline>, parent: Option<CancelToken>) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(String::new()),
                deadline,
                parent,
            }),
        }
    }

    /// Cancels the token with `reason`. The first cancellation wins;
    /// later calls are no-ops. Returns whether this call won.
    pub fn cancel(&self, reason: &str) -> bool {
        let mut slot = self
            .inner
            .reason
            .lock()
            .expect("cancel reason mutex not poisoned");
        if self.inner.cancelled.load(Ordering::Acquire) {
            return false;
        }
        *slot = reason.to_owned();
        self.inner.cancelled.store(true, Ordering::Release);
        true
    }

    /// Polls the token: checks the cancel flag, then the deadline (a
    /// blown deadline cancels the token), then the parent chain.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = &self.inner.deadline {
            if let Some((elapsed, budget)) = d.check() {
                let what = if d.per_stage {
                    "dimension budget"
                } else {
                    "run deadline"
                };
                self.cancel(&format!(
                    "{CANCEL_PREFIX}{what} exceeded: elapsed {elapsed} ms > budget {budget} ms"
                ));
                return true;
            }
        }
        match &self.inner.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }

    /// The cancellation reason, when cancelled (this level or an
    /// ancestor).
    pub fn reason(&self) -> Option<String> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(
                self.inner
                    .reason
                    .lock()
                    .expect("cancel reason mutex not poisoned")
                    .clone(),
            );
        }
        self.inner.parent.as_ref().and_then(CancelToken::reason)
    }

    /// A cancellation point: panics with the governor-prefixed reason
    /// when the token (or an ancestor) is cancelled, unwinding into the
    /// pipeline's panic-isolation boundary. A no-op otherwise.
    ///
    /// # Panics
    ///
    /// Panics with the cancellation reason when cancelled — that *is*
    /// the cooperative-cancellation delivery mechanism.
    pub fn bail(&self) {
        if self.is_cancelled() {
            let reason = self
                .reason()
                .unwrap_or_else(|| format!("{CANCEL_PREFIX}cancelled"));
            // lint:allow(panic): cancellation delivery is a controlled unwind
            panic!("{reason}");
        }
    }
}

/// Shared run-wide byte accounting: the concurrent sum of every live
/// stage's tracked bytes, and its high-water mark.
#[derive(Debug, Default)]
struct Totals {
    tracked: AtomicU64,
    peak: AtomicU64,
}

impl Totals {
    fn add(&self, bytes: u64) {
        let now = self.tracked.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        saturating_sub(&self.tracked, bytes);
    }
}

/// Saturating atomic subtract: a release can race a concurrent charge,
/// but tracked bytes never go negative.
fn saturating_sub(tracked: &AtomicU64, bytes: u64) {
    let mut cur = tracked.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(bytes);
        match tracked.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// One stage's governed scope: its cancellation token (chained to the
/// run token, carrying the per-stage wall-clock budget), its byte
/// account against the per-stage soft/hard budgets, and the ladder
/// events it recorded. Created through [`Governor::stage`]; shared by
/// the builder, the candidate generator, and the miner of one stage.
#[derive(Debug)]
pub struct StageScope {
    name: String,
    tick_site: String,
    token: CancelToken,
    soft_bytes: u64,
    hard_bytes: u64,
    tracked: AtomicU64,
    peak: AtomicU64,
    events: Mutex<EventLog>,
    totals: Arc<Totals>,
}

impl StageScope {
    /// The stage name (e.g. `dimension/client`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage's cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// A cancellation point for inner loops: fires the deterministic
    /// `<stage>/tick` failpoint (the "deliberately stalled dimension"
    /// hook of the fault-injection suite), then polls the token and
    /// panics out of the stage if it is cancelled.
    ///
    /// # Panics
    ///
    /// Panics with the cancellation reason when the stage is cancelled.
    pub fn tick(&self) {
        failpoint::fire(&self.tick_site);
        self.token.bail();
    }

    /// Charges `bytes` against the stage (and run) account. Crossing
    /// the hard budget cancels the stage and panics at once — the hard
    /// budget is the promise that a stage never outgrows its cap.
    ///
    /// # Panics
    ///
    /// Panics (cancelling the stage) when the charge crosses the hard
    /// budget.
    pub fn charge(&self, bytes: u64) {
        let now = self.tracked.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.totals.add(bytes);
        if self.hard_bytes > 0 && now > self.hard_bytes {
            self.token.cancel(&format!(
                "{CANCEL_PREFIX}memory hard budget exceeded in {}: {now} > {} tracked bytes",
                self.name, self.hard_bytes
            ));
            self.token.bail();
        }
    }

    /// Returns `bytes` to the account (shed postings, cleared buckets,
    /// dropped buffers).
    pub fn release(&self, bytes: u64) {
        saturating_sub(&self.tracked, bytes);
        self.totals.sub(bytes);
    }

    /// Currently tracked bytes.
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Whether the soft budget is currently exceeded — the ladder's
    /// engage signal. Always `false` without a memory budget.
    pub fn soft_exceeded(&self) -> bool {
        self.soft_bytes > 0 && self.tracked_bytes() > self.soft_bytes
    }

    /// The soft budget in bytes (0 = unlimited).
    pub fn soft_bytes(&self) -> u64 {
        self.soft_bytes
    }

    /// The hard budget in bytes (0 = unlimited): the bound
    /// [`charge`](Self::charge) enforces by cancelling the stage.
    pub fn hard_bytes(&self) -> u64 {
        self.hard_bytes
    }

    /// Records that `rung` fired, with one event line (deterministic
    /// text: byte counts and feature ids only, never wall-clock
    /// values). Every firing is counted; at most
    /// [`MAX_RECORDED_EVENTS`] lines are kept verbatim per stage — a
    /// rung that sheds tens of thousands of postings would otherwise
    /// bloat `RunHealth` — and [`Governor::stage_summaries`] folds the
    /// overflow into one summary line.
    pub fn record(&self, rung: Rung, event: String) {
        let mut log = self
            .events
            .lock()
            .expect("governor event mutex not poisoned");
        *log.rungs.entry(rung).or_insert(0) += 1;
        if log.lines.len() < MAX_RECORDED_EVENTS {
            log.lines.push(event);
        }
    }
}

/// One stage's final account, from [`Governor::stage_summaries`].
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage name (e.g. `dimension/client`).
    pub name: String,
    /// High-water mark of the stage's tracked bytes.
    pub peak_bytes: u64,
    /// Degradation-ladder events, in the order the stage recorded them.
    pub events: Vec<String>,
    /// How often each rung fired (rungs that never fired are absent).
    pub rungs: BTreeMap<Rung, u64>,
    /// Whether the stage's token ended cancelled.
    pub cancelled: bool,
}

#[derive(Debug)]
struct GovernorInner {
    opts: GovernorOptions,
    run_token: CancelToken,
    totals: Arc<Totals>,
    stages: Mutex<Vec<Arc<StageScope>>>,
}

/// The per-run governor: owns the run token (and deadline), hands out
/// per-stage scopes, and aggregates the final accounting. Cloning is
/// cheap (one `Arc`).
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<GovernorInner>,
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Governor {
    /// A governor with no budgets: polls and charges stay cheap and
    /// nothing is ever cancelled or degraded.
    pub fn unlimited() -> Self {
        Self::new(&GovernorOptions::unlimited())
    }

    /// A governor enforcing `opts` for one run.
    pub fn new(opts: &GovernorOptions) -> Self {
        // Built via the private constructor so a chained run token keeps
        // the run-deadline wording (`child_with_budget_ms` would label
        // the deadline a per-stage budget).
        let deadline = (opts.deadline_ms > 0).then(|| Deadline {
            // lint:allow(wallclock): deadline anchor
            start: Instant::now(),
            budget_ms: opts.deadline_ms,
            per_stage: false,
        });
        let run_token = CancelToken::with(deadline, opts.cancel.clone());
        Self {
            inner: Arc::new(GovernorInner {
                opts: opts.clone(),
                run_token,
                totals: Arc::new(Totals::default()),
                stages: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The run-level token (deadline-bearing); ingest paths poll this.
    pub fn run_token(&self) -> CancelToken {
        self.inner.run_token.clone()
    }

    /// Gets or creates the scope for `stage`. The first call creates it
    /// (starting its wall-clock budget of `budget_ms`, 0 = none); later
    /// calls return the same scope so a stage's builder and miner share
    /// one account.
    pub fn stage(&self, stage: &str, budget_ms: u64) -> Arc<StageScope> {
        let mut stages = self
            .inner
            .stages
            .lock()
            .expect("governor stage registry mutex not poisoned");
        if let Some(existing) = stages.iter().find(|s| s.name == stage) {
            return Arc::clone(existing);
        }
        let hard = self.inner.opts.memory_budget_bytes;
        let scope = Arc::new(StageScope {
            name: stage.to_owned(),
            tick_site: format!("{stage}/tick"),
            token: self.inner.run_token.child_with_budget_ms(budget_ms),
            soft_bytes: hard / SOFT_DEN * SOFT_NUM,
            hard_bytes: hard,
            tracked: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            events: Mutex::new(EventLog::default()),
            totals: Arc::clone(&self.inner.totals),
        });
        stages.push(Arc::clone(&scope));
        scope
    }

    /// Marks a stage finished: its tracked bytes leave the run total
    /// (the stage's structures are dropped or snapshotted by now). The
    /// stage's own peak and events stay for the final summary.
    pub fn close_stage(&self, stage: &str) {
        let stages = self
            .inner
            .stages
            .lock()
            .expect("governor stage registry mutex not poisoned");
        if let Some(s) = stages.iter().find(|s| s.name == stage) {
            let live = s.tracked.swap(0, Ordering::Relaxed);
            self.inner.totals.sub(live);
        }
    }

    /// High-water mark of concurrently tracked bytes across the run.
    pub fn peak_tracked_bytes(&self) -> u64 {
        self.inner.totals.peak.load(Ordering::Relaxed)
    }

    /// Final per-stage accounts, sorted by stage name (deterministic
    /// regardless of which stage registered first).
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let stages = self
            .inner
            .stages
            .lock()
            .expect("governor stage registry mutex not poisoned");
        let mut out: Vec<StageSummary> = stages
            .iter()
            .map(|s| {
                let log = s.events.lock().expect("governor event mutex not poisoned");
                let mut events = log.lines.clone();
                let suppressed = log.rungs.values().sum::<u64>() - events.len() as u64;
                if suppressed > 0 {
                    events.push(format!("{suppressed} further ladder events suppressed"));
                }
                StageSummary {
                    name: s.name.clone(),
                    peak_bytes: s.peak_bytes(),
                    events,
                    rungs: log.rungs.clone(),
                    cancelled: s.token.inner.cancelled.load(Ordering::Acquire),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// `true` when a panic/error message is a governor cancellation.
pub fn is_cancel_message(msg: &str) -> bool {
    msg.starts_with(CANCEL_PREFIX)
}

/// Parses `elapsed <e> ms > budget <b> ms` out of a deadline
/// cancellation message, for triage into a timed-out status.
pub fn parse_deadline_message(msg: &str) -> Option<(u64, u64)> {
    let rest = msg.split("elapsed ").nth(1)?;
    let (elapsed, rest) = rest.split_once(" ms > budget ")?;
    let budget = rest.strip_suffix(" ms")?;
    Some((elapsed.trim().parse().ok()?, budget.trim().parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_cancels_or_degrades() {
        let g = Governor::unlimited();
        let s = g.stage("dimension/client", 0);
        for _ in 0..1000 {
            s.tick();
            s.charge(1 << 20);
        }
        assert!(!s.soft_exceeded());
        assert!(!s.token().is_cancelled());
        assert_eq!(s.peak_bytes(), 1000 << 20);
    }

    #[test]
    fn stage_scope_is_shared_by_name() {
        let g = Governor::unlimited();
        let a = g.stage("dimension/whois", 0);
        let b = g.stage("dimension/whois", 0);
        a.charge(64);
        assert_eq!(b.tracked_bytes(), 64);
        assert_eq!(g.stage_summaries().len(), 1);
    }

    #[test]
    fn soft_budget_engages_before_hard() {
        let g = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(1000));
        let s = g.stage("dimension/uri-file", 0);
        s.charge(700);
        assert!(!s.soft_exceeded());
        s.charge(200); // 900 > 800 soft, under 1000 hard
        assert!(s.soft_exceeded());
        s.release(300);
        assert!(!s.soft_exceeded());
    }

    #[test]
    fn hard_budget_cancels_the_stage() {
        let g = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(100));
        let s = g.stage("dimension/ip-set", 0);
        let r = crate::par::run_isolated(|| {
            s.charge(60);
            s.charge(60); // 120 > 100: cancels and panics
            s.charge(1);
        });
        let msg = r.expect_err("hard breach must cancel");
        assert!(is_cancel_message(&msg), "got: {msg}");
        assert!(msg.contains("dimension/ip-set"), "got: {msg}");
        assert!(s.token().is_cancelled());
        // Subsequent ticks keep bailing.
        let again = crate::par::run_isolated(|| s.tick());
        assert!(again.is_err());
        let summary = g.stage_summaries();
        assert!(summary.first().is_some_and(|s| s.cancelled));
    }

    #[test]
    fn deadline_token_cancels_and_reports_elapsed() {
        let t = CancelToken::with_deadline_ms(10);
        assert!(!t.is_cancelled());
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(t.is_cancelled());
        let reason = t.reason().expect("cancelled tokens carry a reason");
        let (elapsed, budget) =
            parse_deadline_message(&reason).expect("deadline reason must parse");
        assert!(elapsed >= 10, "elapsed {elapsed}");
        assert_eq!(budget, 10);
    }

    #[test]
    fn child_token_observes_parent_cancellation() {
        let parent = CancelToken::new();
        let child = parent.child_with_budget_ms(0);
        assert!(!child.is_cancelled());
        parent.cancel("governor: run deadline exceeded: elapsed 9 ms > budget 1 ms");
        assert!(child.is_cancelled());
        assert!(child.reason().is_some_and(|r| r.contains("run deadline")));
    }

    #[test]
    fn first_cancellation_wins() {
        let t = CancelToken::new();
        assert!(t.cancel("governor: first"));
        assert!(!t.cancel("governor: second"));
        assert_eq!(t.reason().as_deref(), Some("governor: first"));
    }

    #[test]
    fn close_stage_releases_the_run_total() {
        let g = Governor::unlimited();
        let a = g.stage("dimension/client", 0);
        let b = g.stage("dimension/whois", 0);
        a.charge(100);
        b.charge(50);
        assert_eq!(g.peak_tracked_bytes(), 150);
        g.close_stage("dimension/client");
        b.charge(10);
        // Peak stays the high-water mark; the live total dropped.
        assert_eq!(g.peak_tracked_bytes(), 150);
        assert_eq!(a.peak_bytes(), 100);
    }

    #[test]
    fn event_overflow_is_folded_into_one_summary_line() {
        let g = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(1 << 30));
        let s = g.stage("dimension/client", 0);
        for i in 0..MAX_RECORDED_EVENTS + 36 {
            s.record(Rung::Shed, format!("shed posting feature={i} len=1"));
        }
        let summary = g.stage_summaries().remove(0);
        // Suppressed events are still counted against their rung.
        assert_eq!(
            summary.rungs,
            BTreeMap::from([(Rung::Shed, MAX_RECORDED_EVENTS as u64 + 36)])
        );
        assert_eq!(summary.events.len(), MAX_RECORDED_EVENTS + 1);
        assert_eq!(
            summary.events.last().map(String::as_str),
            Some("36 further ladder events suppressed")
        );
    }

    #[test]
    fn events_are_summarized_sorted_by_stage() {
        let g = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(1 << 30));
        let z = g.stage("dimension/whois", 0);
        let a = g.stage("dimension/client", 0);
        z.record(Rung::Shed, "shed posting feature=1 len=9".to_owned());
        a.record(
            Rung::Tightened,
            "bucket_cap tightened 512 -> 128".to_owned(),
        );
        let names: Vec<String> = g.stage_summaries().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["dimension/client", "dimension/whois"]);
    }

    #[test]
    fn deadline_message_round_trips() {
        assert_eq!(
            parse_deadline_message(
                "governor: dimension budget exceeded: elapsed 207 ms > budget 100 ms"
            ),
            Some((207, 100))
        );
        assert_eq!(parse_deadline_message("governor: memory hard budget"), None);
    }

    #[test]
    fn tick_fires_the_stage_failpoint() {
        let g = Governor::unlimited();
        let s = g.stage("dimension/timing", 0);
        failpoint::arm("dimension/timing/tick", failpoint::Action::Panic);
        let r = crate::par::run_isolated(|| s.tick());
        failpoint::disarm("dimension/timing/tick");
        assert!(r.is_err());
    }
}
