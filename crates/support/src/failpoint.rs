//! Deterministic fault injection for resilience testing.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator chasing a bug) can inject a failure without recompiling.
//! Sites are plain function calls — [`fire`] in infallible code,
//! [`check`] where the caller can return an error — and cost a single
//! relaxed atomic load when nothing is armed, so they are safe to leave
//! in hot paths.
//!
//! Arming is process-global and fully deterministic: a site either
//! always triggers or never does (no probabilities, no clocks). Sites
//! are armed programmatically with [`arm`] / [`arm_spec`], or from the
//! `SMASH_FAILPOINTS` environment variable, which is read once on first
//! use and holds a comma-separated spec:
//!
//! ```text
//! SMASH_FAILPOINTS=dimension/whois=panic,ingest/jsonl=error
//! ```
//!
//! Supported actions: `panic` (unwind at the site), `error` (make a
//! fallible site return an error; panics at infallible sites),
//! `error:<n>` (fail the first *n* hits, then disarm — a transient
//! fault, for exercising retry paths), `delay:<ms>` (sleep, for
//! exercising wall-clock budgets), and `abort` (kill the process
//! without unwinding — a deterministic stand-in for `kill -9` / OOM,
//! used by `tests/checkpoint.rs` and `tests/serve.rs` to test the
//! daemon's crash recovery; only meaningful when the target runs as a
//! subprocess).
//!
//! ```
//! use smash_support::failpoint::{self, Action};
//!
//! failpoint::arm("demo/site", Action::Error);
//! assert!(failpoint::check("demo/site").is_err());
//! failpoint::disarm("demo/site");
//! assert!(failpoint::check("demo/site").is_ok());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the site (simulates a bug in the guarded code).
    Panic,
    /// Make the site fail gracefully: [`check`] returns an error.
    /// Reaching an infallible [`fire`] site with this action panics.
    Error,
    /// Like [`Action::Error`], but transient: the site fails only the
    /// first `n` times it is reached, then disarms itself. This is how
    /// retry paths are tested — an `error:<n>` site with `n` below the
    /// retry limit must end up succeeding.
    ErrorTimes(u32),
    /// Sleep for the given number of milliseconds (simulates a stall;
    /// pairs with per-stage wall-clock budgets).
    Delay(u64),
    /// Kill the process on the spot — no unwinding, no destructors, no
    /// exit code discipline — simulating `kill -9`, OOM, or node
    /// preemption. Panic isolation cannot catch this, which is the
    /// point: it is how `tests/serve.rs` and `tests/checkpoint.rs` prove
    /// the daemon recovers from a *real* crash, not a caught panic.
    Abort,
}

impl Action {
    /// Parses an action keyword: `panic`, `error`, `error:<n>`,
    /// `abort`, or `delay:<ms>`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unrecognized keyword.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(ms) = s.strip_prefix("delay:") {
            return ms
                .parse()
                .map(Action::Delay)
                .map_err(|_| format!("bad delay milliseconds `{ms}`"));
        }
        if let Some(n) = s.strip_prefix("error:") {
            return n
                .parse()
                .map(Action::ErrorTimes)
                .map_err(|_| format!("bad error count `{n}`"));
        }
        match s {
            "panic" => Ok(Action::Panic),
            "error" => Ok(Action::Error),
            "abort" => Ok(Action::Abort),
            other => Err(format!(
                "unknown failpoint action `{other}` (expected panic|error[:<n>]|abort|delay:<ms>)"
            )),
        }
    }
}

/// Fast path: false ⇒ no site is armed, skip the registry lock entirely.
static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_LOADED: Once = Once::new();

fn registry() -> &'static Mutex<HashMap<String, Action>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Loads `SMASH_FAILPOINTS` into the registry, once per process. A
/// malformed spec from the environment panics loudly rather than being
/// silently ignored — an operator who set the variable meant it.
fn ensure_env_loaded() {
    ENV_LOADED.call_once(|| {
        if let Ok(spec) = std::env::var("SMASH_FAILPOINTS") {
            if !spec.trim().is_empty() {
                arm_parsed(&parse_spec(&spec).expect("malformed SMASH_FAILPOINTS"));
            }
        }
    });
}

fn arm_parsed(pairs: &[(String, Action)]) {
    let mut map = registry()
        .lock()
        .expect("failpoint registry mutex not poisoned");
    for (site, action) in pairs {
        map.insert(site.clone(), *action);
    }
    ARMED.store(!map.is_empty(), Ordering::SeqCst);
}

/// Parses a `site=action[,site=action…]` spec without arming anything
/// (the validation half of [`arm_spec`], usable from config checks).
///
/// # Errors
///
/// Returns a message pinpointing the malformed entry.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Action)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, action) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry `{entry}` is not site=action"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint entry `{entry}` has an empty site"));
        }
        out.push((site.to_owned(), Action::parse(action.trim())?));
    }
    Ok(out)
}

/// Arms every entry of a `site=action[,…]` spec.
///
/// # Errors
///
/// Returns the parse error without arming anything if any entry is
/// malformed.
pub fn arm_spec(spec: &str) -> Result<usize, String> {
    ensure_env_loaded();
    let pairs = parse_spec(spec)?;
    let n = pairs.len();
    arm_parsed(&pairs);
    Ok(n)
}

/// Arms one site.
pub fn arm(site: &str, action: Action) {
    ensure_env_loaded();
    arm_parsed(&[(site.to_owned(), action)]);
}

/// Disarms one site (a no-op if it was not armed).
pub fn disarm(site: &str) {
    ensure_env_loaded();
    let mut map = registry()
        .lock()
        .expect("failpoint registry mutex not poisoned");
    map.remove(site);
    ARMED.store(!map.is_empty(), Ordering::SeqCst);
}

/// Disarms every site, including ones armed from `SMASH_FAILPOINTS`
/// (the environment is read only once per process and will not re-arm).
pub fn disarm_all() {
    ensure_env_loaded();
    let mut map = registry()
        .lock()
        .expect("failpoint registry mutex not poisoned");
    map.clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// The armed action for `site`, if any. Zero-cost (one atomic load)
/// when nothing is armed anywhere.
pub fn action_for(site: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        // Nothing armed programmatically — but the env spec may not have
        // been loaded yet. Loading flips ARMED if the env arms anything.
        ensure_env_loaded();
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
    }
    registry()
        .lock()
        .expect("failpoint registry mutex not poisoned")
        .get(site)
        .copied()
}

/// Burns one trigger of a self-disarming `error:<n>` action: the
/// remaining count is decremented under the registry lock, and the site
/// disarms once it reaches zero. Persistent actions are untouched.
fn consume_transient(site: &str, action: Action) {
    let Action::ErrorTimes(n) = action else {
        return;
    };
    let mut map = registry()
        .lock()
        .expect("failpoint registry mutex not poisoned");
    if n <= 1 {
        map.remove(site);
    } else {
        map.insert(site.to_owned(), Action::ErrorTimes(n - 1));
    }
    ARMED.store(!map.is_empty(), Ordering::SeqCst);
}

/// Sites currently armed, sorted (diagnostics and tests).
pub fn armed_sites() -> Vec<String> {
    ensure_env_loaded();
    let mut v: Vec<String> = registry()
        .lock()
        .expect("failpoint registry mutex not poisoned")
        .keys()
        .cloned()
        .collect();
    v.sort();
    v
}

/// An infallible failpoint site. [`Action::Panic`] and [`Action::Error`]
/// both panic here (the caller has no error channel); [`Action::Delay`]
/// sleeps; [`Action::Abort`] kills the process.
///
/// # Panics
///
/// Panics when the site is armed with `panic` or `error`.
pub fn fire(site: &str) {
    match action_for(site) {
        None => {}
        Some(Action::Panic) | Some(Action::Error) => {
            // lint:allow(panic): the injected panic IS the failpoint's contract.
            panic!("failpoint `{site}` triggered: injected panic")
        }
        Some(a @ Action::ErrorTimes(_)) => {
            consume_transient(site, a);
            // lint:allow(panic): the injected panic IS the failpoint's contract.
            panic!("failpoint `{site}` triggered: injected panic")
        }
        Some(Action::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(Action::Abort) => abort_now(site),
    }
}

/// The `abort` action: a note on stderr (so a crash test's log shows
/// *which* site fired), then `std::process::abort()` — no unwinding, no atexit
/// handlers, the closest deterministic stand-in for `kill -9`.
fn abort_now(site: &str) -> ! {
    eprintln!("failpoint `{site}` triggered: aborting process");
    std::process::abort();
}

/// A fallible failpoint site: [`Action::Error`] returns an error the
/// caller propagates, [`Action::Delay`] sleeps then succeeds,
/// [`Action::Abort`] kills the process.
///
/// # Errors
///
/// Returns a message naming the site when armed with `error`.
///
/// # Panics
///
/// Panics when the site is armed with `panic`.
pub fn check(site: &str) -> Result<(), String> {
    match action_for(site) {
        None => Ok(()),
        // lint:allow(panic): the injected panic IS the failpoint's contract.
        Some(Action::Panic) => panic!("failpoint `{site}` triggered: injected panic"),
        Some(Action::Error) => Err(format!("failpoint `{site}` triggered: injected error")),
        Some(a @ Action::ErrorTimes(_)) => {
            consume_transient(site, a);
            Err(format!(
                "failpoint `{site}` triggered: injected transient error"
            ))
        }
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Action::Abort) => abort_now(site),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; serialize tests that mutate it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _g = locked();
        disarm_all();
        fire("nope/never");
        assert!(check("nope/never").is_ok());
        assert_eq!(action_for("nope/never"), None);
    }

    #[test]
    fn arm_and_disarm_round_trip() {
        let _g = locked();
        disarm_all();
        arm("t/a", Action::Error);
        assert_eq!(action_for("t/a"), Some(Action::Error));
        assert!(check("t/a").is_err());
        disarm("t/a");
        assert_eq!(action_for("t/a"), None);
    }

    #[test]
    fn panic_action_panics_at_fire() {
        let _g = locked();
        disarm_all();
        arm("t/boom", Action::Panic);
        let r = crate::quiet::silenced(|| std::panic::catch_unwind(|| fire("t/boom")));
        disarm_all();
        let msg = crate::quiet::panic_message(r.unwrap_err().as_ref());
        assert!(msg.contains("t/boom"), "got: {msg}");
    }

    #[test]
    fn spec_parses_and_arms() {
        let _g = locked();
        disarm_all();
        let n = arm_spec(" t/x = panic , t/y=delay:25 ,, t/z=error ").unwrap();
        assert_eq!(n, 3);
        assert_eq!(action_for("t/x"), Some(Action::Panic));
        assert_eq!(action_for("t/y"), Some(Action::Delay(25)));
        assert_eq!(action_for("t/z"), Some(Action::Error));
        assert_eq!(armed_sites(), vec!["t/x", "t/y", "t/z"]);
        disarm_all();
    }

    #[test]
    fn transient_error_disarms_after_n_hits() {
        let _g = locked();
        disarm_all();
        arm("t/flaky", Action::ErrorTimes(2));
        assert!(check("t/flaky").is_err());
        assert_eq!(action_for("t/flaky"), Some(Action::ErrorTimes(1)));
        assert!(check("t/flaky").is_err());
        assert!(check("t/flaky").is_ok(), "third hit must succeed");
        assert_eq!(action_for("t/flaky"), None);
        disarm_all();
    }

    #[test]
    fn transient_error_spec_parses() {
        assert_eq!(Action::parse("error:3"), Ok(Action::ErrorTimes(3)));
        assert!(Action::parse("error:x").is_err());
        assert!(parse_spec("ckpt/write=error:2").is_ok());
    }

    #[test]
    fn abort_action_parses() {
        assert_eq!(Action::parse("abort"), Ok(Action::Abort));
        assert!(parse_spec("serve/after/seal=abort").is_ok());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(parse_spec("no-equals").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("=panic").is_err());
        assert!(parse_spec("a=delay:abc").is_err());
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn delay_sleeps_roughly_that_long() {
        let _g = locked();
        disarm_all();
        arm("t/slow", Action::Delay(30));
        let t0 = std::time::Instant::now();
        fire("t/slow");
        disarm_all();
        assert!(t0.elapsed().as_millis() >= 25);
    }
}
