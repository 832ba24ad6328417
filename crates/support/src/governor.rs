//! Run-scoped governor: cooperative cancellation and a tracked-bytes
//! ledger.
//!
//! The pipeline opens one [`Governor`] per run (DESIGN.md §11), every
//! heavy stage registers a [`StageScope`], and the stage's inner loops
//! then
//!
//! 1. **poll** — [`StageScope::tick`] is an atomic-load-cheap
//!    cancellation point (plus the deterministic `<stage>/tick`
//!    failpoint), so a run deadline, a per-stage wall-clock budget or an
//!    external cancel stops work mid-stage instead of after the stage
//!    burned its full wall time;
//! 2. **charge** — [`StageScope::charge`] / [`release`](StageScope::release)
//!    account the bytes of the dominant allocations (postings, LSH band
//!    tables, graph edges). The ledger bounds nothing: it reports
//!    per-stage and run peaks.
//!
//! Cancellation is delivered by panicking with a `governor:`-prefixed
//! message from a poll point; the pipeline's existing panic-isolation
//! boundaries (`par::run_isolated`) catch it and triage the stage into
//! `DimensionStatus`, so a cancelled dimension degrades exactly like a
//! crashed one — renormalized away, never fatal.
//!
//! Charges happen at deterministic points with deterministic sizes, so
//! the ledger's peaks are deterministic. Wall-clock deadlines are
//! inherently nondeterministic. With no deadline every poll is a pair of
//! relaxed loads and every charge a pair of atomic adds, and reports stay
//! byte-identical.

use crate::failpoint;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant; // lint:allow(wallclock): deadline enforcement is inherently wall-clock

/// The panic-message prefix every governor cancellation carries; the
/// pipeline's triage recognizes cancelled stages by it.
pub const CANCEL_PREFIX: &str = "governor: ";

/// Run-scoped governor knobs, kept out of the pipeline config: they
/// bound how long one run may take, not what it computes. The daemon
/// sets them per mine (`ServeOptions::mine_deadline_ms` and the mine's
/// supersede token); `smash analyze` passes one token whose deadline
/// started before the trace was read, so ingest and mining share one
/// clock.
#[derive(Debug, Clone, Default)]
pub struct GovernorOptions {
    /// Wall-clock deadline in milliseconds, started when the
    /// [`Governor`] is created (0 = none).
    pub deadline_ms: u64,
    /// Optional external parent for the run token. When set, the run's
    /// token is a child of this one, so cancelling the parent — or the
    /// parent's own deadline expiring — cancels the whole run
    /// cooperatively. The serve layer's miner stops a stale mine this
    /// way the moment a fresh epoch supersedes it.
    pub cancel: Option<CancelToken>,
}

impl GovernorOptions {
    /// No deadline and no parent: every poll is no-op-priced.
    pub fn unlimited() -> Self {
        Self::default()
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
    /// blown deadline cancels the token), then the parent chain. A token
    /// that finds an ancestor cancelled takes the ancestor's reason as
    /// its own, so a stage that observed a run-wide cancel says so.
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
        let Some(parent) = &self.inner.parent else {
            return false;
        };
        if !parent.is_cancelled() {
            return false;
        }
        let reason = parent.reason().unwrap_or_default();
        self.cancel(&reason);
        true
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
/// run token, carrying the per-stage wall-clock budget) and its byte
/// account. Created through [`Governor::stage`]; shared by the builder,
/// the candidate generator, and the miner of one stage.
#[derive(Debug)]
pub struct StageScope {
    name: String,
    tick_site: String,
    token: CancelToken,
    tracked: AtomicU64,
    peak: AtomicU64,
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

    /// Charges `bytes` to the stage (and run) account.
    pub fn charge(&self, bytes: u64) {
        let now = self.tracked.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.totals.add(bytes);
    }

    /// Returns `bytes` to the account (built tables shrunk, scan state
    /// dropped).
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
}

/// One stage's final account, from [`Governor::stage_summaries`].
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage name (e.g. `dimension/client`).
    pub name: String,
    /// High-water mark of the stage's tracked bytes.
    pub peak_bytes: u64,
    /// Whether the stage's token ended cancelled — by its own budget or
    /// by a run-wide cancel it observed.
    pub cancelled: bool,
}

#[derive(Debug)]
struct GovernorInner {
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
    /// A governor with no deadline and no parent: polls and charges stay
    /// cheap and nothing is ever cancelled.
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
                run_token,
                totals: Arc::new(Totals::default()),
                stages: Mutex::new(Vec::new()),
            }),
        }
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
        let scope = Arc::new(StageScope {
            name: stage.to_owned(),
            tick_site: format!("{stage}/tick"),
            token: self.inner.run_token.child_with_budget_ms(budget_ms),
            tracked: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            totals: Arc::clone(&self.inner.totals),
        });
        stages.push(Arc::clone(&scope));
        scope
    }

    /// Marks a stage finished: its tracked bytes leave the run total
    /// (the stage's structures are dropped by now). The stage's own
    /// peak stays for the final summary.
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
            .map(|s| StageSummary {
                name: s.name.clone(),
                peak_bytes: s.peak_bytes(),
                cancelled: s.token.inner.cancelled.load(Ordering::Acquire),
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

/// Parses `elapsed <e> ms > budget <b> ms` out of a per-stage budget
/// cancellation message, for triage into a timed-out status. A run
/// deadline's message is not one: the run, not the stage, ran out.
pub fn parse_deadline_message(msg: &str) -> Option<(u64, u64)> {
    let rest = msg.strip_prefix(CANCEL_PREFIX)?;
    let rest = rest.strip_prefix("dimension budget exceeded: elapsed ")?;
    let (elapsed, rest) = rest.split_once(" ms > budget ")?;
    let budget = rest.strip_suffix(" ms")?;
    Some((elapsed.trim().parse().ok()?, budget.trim().parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_cancels() {
        let g = Governor::unlimited();
        let s = g.stage("dimension/client", 0);
        for _ in 0..1000 {
            s.tick();
            s.charge(1 << 20);
        }
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
    fn deadline_token_cancels_and_reports_elapsed() {
        let run = CancelToken::with_deadline_ms(10_000);
        let stage = run.child_with_budget_ms(10);
        assert!(!stage.is_cancelled());
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(stage.is_cancelled());
        assert!(!run.is_cancelled(), "a stage budget cancels its stage only");
        let reason = stage.reason().expect("cancelled tokens carry a reason");
        let (elapsed, budget) =
            parse_deadline_message(&reason).expect("deadline reason must parse");
        assert!(elapsed >= 10, "elapsed {elapsed}");
        assert_eq!(budget, 10);

        // A run deadline is no stage budget: it triages as a cancel.
        let run = CancelToken::with_deadline_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(run.is_cancelled());
        let reason = run.reason().expect("cancelled tokens carry a reason");
        assert!(reason.starts_with("governor: run deadline exceeded: elapsed "));
        assert_eq!(parse_deadline_message(&reason), None);
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
    fn a_stage_that_observes_a_run_cancel_is_summarized_cancelled() {
        let parent = CancelToken::new();
        let g = Governor::new(&GovernorOptions::unlimited().with_cancel(parent.clone()));
        let (polled, idle) = (
            g.stage("dimension/client", 0),
            g.stage("dimension/whois", 0),
        );
        parent.cancel("governor: cancelled by the caller");
        let r = crate::par::run_isolated(|| polled.tick());
        assert_eq!(
            r.expect_err("a cancelled run bails"),
            "governor: cancelled by the caller"
        );
        let cancelled: Vec<(String, bool)> = (g.stage_summaries().into_iter())
            .map(|s| (s.name, s.cancelled))
            .collect();
        let expected = [("dimension/client", true), ("dimension/whois", false)];
        assert_eq!(cancelled, expected.map(|(n, c)| (n.to_owned(), c)));
        assert!(!idle.token().inner.cancelled.load(Ordering::Acquire));
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
    fn summaries_are_sorted_by_stage() {
        let g = Governor::unlimited();
        g.stage("dimension/whois", 0).charge(9);
        g.stage("dimension/client", 0).charge(4);
        let names: Vec<(String, u64)> = (g.stage_summaries().into_iter())
            .map(|s| (s.name, s.peak_bytes))
            .collect();
        let expected = [("dimension/client", 4), ("dimension/whois", 9)];
        assert_eq!(names, expected.map(|(n, b)| (n.to_owned(), b)));
    }

    #[test]
    fn deadline_message_round_trips() {
        assert_eq!(
            parse_deadline_message(
                "governor: dimension budget exceeded: elapsed 207 ms > budget 100 ms"
            ),
            Some((207, 100))
        );
        assert_eq!(
            parse_deadline_message("governor: run deadline exceeded: elapsed 9 ms > budget 1 ms"),
            None
        );
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
