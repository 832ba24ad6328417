//! Transient-fault retry with a deterministic backoff schedule.
//!
//! One retry policy serves every durable write in the workspace: the
//! snapshot envelope ([`crate::ckpt`]) behind the serve layer's epoch
//! WAL and snapshot publishes, and the lenient-ingest quarantine
//! sidecar. A
//! transient `EINTR`-class failure costs a short, exponentially-growing
//! backoff instead of a forfeited artifact; a fault that persists across
//! all [`RETRY_ATTEMPTS`] attempts is treated as real and surfaced.
//!
//! The backoff jitter is drawn from a [`DetRng`] seeded by the caller
//! (by convention [`crate::ckpt::fnv1a`] of the destination path), so a
//! given destination always walks the same schedule — retry behavior is
//! reproducible, never a source of nondeterminism.
//!
//! Process-wide `retry/*` counters ([`counters`]) record how often the
//! policy engaged: total operations, backoff sleeps spent, and
//! operations that exhausted every attempt. They are observability
//! only — monotonic, shared by all callers, and never consulted by any
//! decision path.

use crate::rng::{DetRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Attempts per transient-I/O retry loop: the first try plus two
/// retries. A fault that persists across all three is treated as real.
pub const RETRY_ATTEMPTS: u32 = 3;

/// `retry/ops`: operations passed through [`retry_transient`].
static OPS: AtomicU64 = AtomicU64::new(0);
/// `retry/backoffs`: backoff sleeps spent (i.e. retries actually taken).
static BACKOFFS: AtomicU64 = AtomicU64::new(0);
/// `retry/exhausted`: operations that failed all [`RETRY_ATTEMPTS`].
static EXHAUSTED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide `retry/*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Operations passed through [`retry_transient`] (`retry/ops`).
    pub ops: u64,
    /// Backoff sleeps spent across all operations (`retry/backoffs`).
    pub backoffs: u64,
    /// Operations that failed every attempt (`retry/exhausted`).
    pub exhausted: u64,
}

/// Reads the process-wide `retry/*` counters. Monotonic; useful for
/// service stats endpoints and post-run diagnostics.
pub fn counters() -> RetryCounters {
    RetryCounters {
        ops: OPS.load(Ordering::Relaxed),
        backoffs: BACKOFFS.load(Ordering::Relaxed),
        exhausted: EXHAUSTED.load(Ordering::Relaxed),
    }
}

/// Runs `op` up to [`RETRY_ATTEMPTS`] times, sleeping a small
/// exponentially-growing backoff (with deterministic jitter drawn from
/// a [`DetRng`] seeded by `seed`) between failures. Returns the final
/// result plus how many retries were spent — a transient `EINTR`-class
/// write failure no longer forfeits a WAL epoch or a quarantine line.
///
/// The jitter seed should be a stable function of the destination (e.g.
/// [`crate::ckpt::fnv1a`] of the path), so the backoff schedule is
/// reproducible.
pub fn retry_transient<T, E>(
    seed: u64,
    mut op: impl FnMut() -> Result<T, E>,
) -> (Result<T, E>, u32) {
    OPS.fetch_add(1, Ordering::Relaxed);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(v) => return (Ok(v), retries),
            Err(e) => {
                if retries + 1 >= RETRY_ATTEMPTS {
                    EXHAUSTED.fetch_add(1, Ordering::Relaxed);
                    return (Err(e), retries);
                }
                retries += 1;
                BACKOFFS.fetch_add(1, Ordering::Relaxed);
                let backoff_ms = (1u64 << retries) + u64::from(rng.gen_range(0..2u32));
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            }
        }
    }
}

/// [`crate::ckpt::write_atomic`] wrapped in [`retry_transient`], with
/// the `ckpt/write` failpoint armed-checkable inside the loop (an
/// `error:<n>` action there is how the retry path is tested). Returns
/// the number of retries spent.
///
/// # Errors
///
/// [`crate::ckpt::CkptError::Io`] if all [`RETRY_ATTEMPTS`] attempts
/// fail.
pub fn write_atomic_retrying(
    path: &std::path::Path,
    contents: &[u8],
) -> Result<u32, crate::ckpt::CkptError> {
    let seed = crate::ckpt::fnv1a(path.to_string_lossy().as_bytes());
    let (result, retries) = retry_transient(seed, || {
        crate::failpoint::check("ckpt/write").map_err(crate::ckpt::CkptError::Io)?;
        crate::ckpt::write_atomic(path, contents)
    });
    result.map(|()| retries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_count_exhaustion() {
        let before = counters();
        let (ok, retries) = retry_transient::<_, ()>(1, || Ok(7u32));
        assert_eq!(ok, Ok(7));
        assert_eq!(retries, 0);
        let (err, retries) = retry_transient::<u32, _>(1, || Err("hard"));
        assert_eq!(err, Err("hard"));
        assert_eq!(retries, RETRY_ATTEMPTS - 1);
        let after = counters();
        assert!(after.ops >= before.ops + 2);
        assert!(after.exhausted > before.exhausted);
        assert!(after.backoffs >= before.backoffs + u64::from(RETRY_ATTEMPTS - 1));
    }

    #[test]
    fn recovers_after_transient_failures() {
        let mut fails = 2u32;
        let (r, retries) = retry_transient(9, || {
            if fails > 0 {
                fails -= 1;
                Err("transient")
            } else {
                Ok(42u32)
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(retries, 2);
    }
}
