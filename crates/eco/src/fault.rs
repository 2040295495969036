//! Deterministic failpoints: make the service break *on schedule*, in tests and soaks.
//!
//! Real services die at the worst moments — mid-journal-append, mid-frame, mid-batch. To
//! prove the recovery and wind-down paths, tests need those moments on demand and
//! *reproducibly*, so the injection schedule is explicit: a named failpoint either never
//! fires, always fires, fires on exactly the k-th hit, every k-th hit, or with a seeded
//! pseudo-random probability. Same configuration + same seed ⇒ the same fault schedule,
//! every run.
//!
//! Cost model mirrors `flex-obs`: when no failpoint has ever been armed, every check is a
//! single relaxed atomic load and a branch — safe to leave compiled into production paths.
//! Arming any rule flips the global flag; checks then take a mutex keyed by name (these
//! are crash-path checks, not per-site hot loops).
//!
//! Configuration from the environment (picked up by the binaries at startup):
//!
//! ```text
//! FLEX_FAULTS="eco.journal.write=nth:3,eco.socket.read=prob:0.01"
//! FLEX_FAULTS_SEED=42
//! FLEX_FAULTS_HANG_MS=500   # stall duration for the hang-style points
//! ```
//!
//! Failpoints the ECO service defines (grep for the literal names):
//!
//! | name                 | effect when it fires                                        |
//! |----------------------|-------------------------------------------------------------|
//! | `eco.journal.write`  | journal append fails with an injected I/O error             |
//! | `eco.journal.flush`  | journal flush fails with an injected I/O error              |
//! | `eco.snapshot.write` | snapshot write fails with an injected I/O error             |
//! | `eco.engine.panic`   | engine thread panics mid-batch                              |
//! | `eco.engine.hang`    | engine stalls mid-batch for [`hang_millis`] ms (watchdog)   |
//! | `eco.scrub.corrupt`  | scrubber's next audited range is deliberately corrupted first |
//! | `eco.rebuild.hold`   | supervisor rebuild stalls for [`hang_millis`] ms            |
//! | `eco.quarantine.write` | persisting a quarantine record fails with an injected I/O error |
//! | `eco.recover.fail`   | an engine recovery attempt fails with an injected I/O error |
//! | `eco.queue.full`     | job queue reports full → typed `Busy` response              |
//! | `eco.socket.read`    | server-side frame read fails with an injected I/O error     |
//! | `eco.socket.write`   | server-side frame write fails with an injected I/O error    |
//!
//! Replay is exempt: recovery and supervisor rebuilds run their `apply` replays inside
//! [`with_suppressed`], so a deterministic schedule (say `eco.engine.panic=nth:3`) strikes
//! live traffic exactly once instead of re-firing while the crash is being repaired.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// When a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRule {
    /// Never fires (same as not configured; useful to disarm one point).
    Off,
    /// Fires on every hit.
    Always,
    /// Fires on exactly the `k`-th hit (1-based), once.
    Nth(u64),
    /// Fires on every `k`-th hit (hit k, 2k, 3k, …).
    Every(u64),
    /// Fires each hit independently with probability `p/65536`, from the registry's
    /// seeded generator (deterministic for a fixed seed and hit order).
    Prob(u16),
}

struct Point {
    rule: FaultRule,
    hits: u64,
    fired: u64,
}

struct Registry {
    points: HashMap<String, Point>,
    /// xorshift64* state for `Prob` rules; never zero.
    rng: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

/// How long `maybe_hang` sleeps when its point fires, in milliseconds. Finite on purpose:
/// an abandoned worker thread must eventually wake up and exit so soak tests can assert
/// zero thread leaks.
static HANG_MILLIS: AtomicU64 = AtomicU64::new(1000);

thread_local! {
    /// Depth of `with_suppressed` scopes on this thread; non-zero disables every
    /// failpoint here without touching hit counters (replay must not consume schedules).
    static SUPPRESSED: Cell<u32> = const { Cell::new(0) };
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            points: HashMap::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        })
    })
}

/// Whether any failpoint has ever been armed this process. One relaxed load — the entire
/// cost of every `fires`/`fail_io`/`maybe_panic` call site while injection is off.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm `name` with `rule`. `FaultRule::Off` disarms that one point (the global armed flag
/// stays up once raised; per-check cost is then one mutex on the *failpoint* paths only).
pub fn configure(name: &str, rule: FaultRule) {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.points.insert(
        name.to_string(),
        Point {
            rule,
            hits: 0,
            fired: 0,
        },
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Seed the generator behind `Prob` rules. Call before the run for a reproducible
/// schedule; the default seed is fixed, so even unseeded runs repeat.
pub fn seed(seed: u64) {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.rng = scramble_seed(seed);
}

/// splitmix64 finalizer: adjacent seeds diverge immediately, and the result is forced
/// nonzero (xorshift state must be).
pub(crate) fn scramble_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1)
}

/// Disarm every failpoint and zero all hit counters (between tests).
pub fn reset() {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.points.clear();
}

/// How many times `name` has fired (for test assertions).
pub fn fired_count(name: &str) -> u64 {
    let reg = registry().lock().expect("fault registry poisoned");
    reg.points.get(name).map_or(0, |p| p.fired)
}

/// Run `f` with every failpoint suppressed on the current thread. Recovery replay and
/// supervisor rebuilds wrap their `EcoEngine::apply` calls in this: an injected fault
/// describes *live* traffic, and re-firing it while repairing the damage it caused would
/// wedge recovery forever. Suppressed hits are invisible — counters do not advance.
pub fn with_suppressed<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SUPPRESSED.with(|s| s.set(s.get() - 1));
        }
    }
    SUPPRESSED.with(|s| s.set(s.get() + 1));
    let _g = Guard;
    f()
}

/// Whether failpoints are suppressed on the current thread (inside [`with_suppressed`]).
pub fn suppressed() -> bool {
    SUPPRESSED.with(|s| s.get() > 0)
}

/// Set how long [`maybe_hang`] stalls when its point fires.
pub fn set_hang_millis(ms: u64) {
    HANG_MILLIS.store(ms, Ordering::Relaxed);
}

/// Current [`maybe_hang`] stall duration in milliseconds.
pub fn hang_millis() -> u64 {
    HANG_MILLIS.load(Ordering::Relaxed)
}

/// Record a hit on `name` and decide whether it fires this time.
pub fn fires(name: &str) -> bool {
    if !armed() || suppressed() {
        return false;
    }
    let mut reg = registry().lock().expect("fault registry poisoned");
    let (rule, hits) = match reg.points.get_mut(name) {
        Some(point) => {
            point.hits += 1;
            (point.rule, point.hits)
        }
        None => return false,
    };
    let fire = match rule {
        FaultRule::Off => false,
        FaultRule::Always => true,
        FaultRule::Nth(k) => hits == k.max(1),
        FaultRule::Every(k) => hits % k.max(1) == 0,
        FaultRule::Prob(p) => {
            // xorshift64*: advanced only when a Prob rule draws, so arming an unrelated
            // failpoint never perturbs another point's schedule
            let mut x = reg.rng;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            reg.rng = x;
            let draw = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 48) as u16;
            draw < p
        }
    };
    if fire {
        reg.points.get_mut(name).expect("point just present").fired += 1;
        drop(reg);
        flex_obs::global()
            .counter(&format!("eco_faults_injected_total{{point=\"{name}\"}}"))
            .inc();
    }
    fire
}

/// Fail with an injected `io::Error` if `name` fires, else `Ok(())`. Thread it into an
/// I/O path with `?`:
///
/// ```ignore
/// fault::fail_io("eco.journal.write")?;
/// file.write_all(&record)?;
/// ```
#[inline]
pub fn fail_io(name: &str) -> std::io::Result<()> {
    if armed() && fires(name) {
        return Err(std::io::Error::other(format!("injected fault: {name}")));
    }
    Ok(())
}

/// Panic if `name` fires (the engine-thread kill switch for wind-down tests).
#[inline]
pub fn maybe_panic(name: &str) {
    if armed() && fires(name) {
        panic!("injected panic: {name}");
    }
}

/// Stall the current thread for [`hang_millis`] milliseconds if `name` fires — the hung
/// batch the supervisor's watchdog is built to catch. The sleep is finite: an abandoned
/// worker wakes, finds its channel gone, and exits on its own.
#[inline]
pub fn maybe_hang(name: &str) {
    if armed() && fires(name) {
        std::thread::sleep(std::time::Duration::from_millis(hang_millis()));
    }
}

/// Human-readable panic payload (the `&str`/`String` most panics carry), for quarantine
/// reasons and fault reports.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Parse one `name=rule` pair. Rules: `off`, `always`, `nth:K`, `every:K`, `prob:P`
/// (P a probability in `[0,1]`).
fn parse_pair(pair: &str) -> Result<(String, FaultRule), String> {
    let (name, rule) = pair
        .split_once('=')
        .ok_or_else(|| format!("`{pair}`: expected name=rule"))?;
    let (kind, arg) = match rule.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (rule, None),
    };
    let num = |what: &str| -> Result<u64, String> {
        arg.ok_or_else(|| format!("`{pair}`: {kind} needs :{what}"))?
            .parse::<u64>()
            .map_err(|e| format!("`{pair}`: bad {what}: {e}"))
    };
    let rule = match kind {
        "off" => FaultRule::Off,
        "always" => FaultRule::Always,
        "nth" => FaultRule::Nth(num("K")?),
        "every" => FaultRule::Every(num("K")?),
        "prob" => {
            let p: f64 = arg
                .ok_or_else(|| format!("`{pair}`: prob needs :P"))?
                .parse()
                .map_err(|e| format!("`{pair}`: bad probability: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("`{pair}`: probability {p} outside [0,1]"));
            }
            FaultRule::Prob((p * 65536.0).round().min(65535.0) as u16)
        }
        other => return Err(format!("`{pair}`: unknown rule `{other}`")),
    };
    Ok((name.trim().to_string(), rule))
}

/// Arm failpoints from `FLEX_FAULTS` (comma-separated `name=rule` pairs) and seed the
/// `Prob` generator from `FLEX_FAULTS_SEED`. Returns the number of points armed;
/// malformed pairs are reported on stderr and skipped rather than aborting the service.
pub fn init_from_env() -> usize {
    if let Ok(s) = std::env::var("FLEX_FAULTS_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            seed(v);
        }
    }
    if let Ok(s) = std::env::var("FLEX_FAULTS_HANG_MS") {
        if let Ok(v) = s.parse::<u64>() {
            set_hang_millis(v);
        }
    }
    let Ok(spec) = std::env::var("FLEX_FAULTS") else {
        return 0;
    };
    let mut armed = 0usize;
    for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
        match parse_pair(pair.trim()) {
            Ok((name, rule)) => {
                configure(&name, rule);
                armed += 1;
            }
            Err(msg) => eprintln!("FLEX_FAULTS: {msg} (skipped)"),
        }
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // the registry is process-global; serialize tests that reconfigure it
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nth_fires_exactly_once_on_schedule() {
        let _g = LOCK.lock().unwrap();
        reset();
        configure("test.nth", FaultRule::Nth(3));
        let fires: Vec<bool> = (0..6).map(|_| fires("test.nth")).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(fired_count("test.nth"), 1);
    }

    #[test]
    fn every_fires_periodically_and_unconfigured_never_fires() {
        let _g = LOCK.lock().unwrap();
        reset();
        configure("test.every", FaultRule::Every(2));
        let pattern: Vec<bool> = (0..6).map(|_| fires("test.every")).collect();
        assert_eq!(pattern, [false, true, false, true, false, true]);
        assert!(!fires("test.never-configured"));
    }

    #[test]
    fn prob_is_deterministic_for_a_fixed_seed() {
        let _g = LOCK.lock().unwrap();
        reset();
        let schedule = |s: u64| -> Vec<bool> {
            reset();
            seed(s);
            configure("test.prob", FaultRule::Prob(32768)); // p = 0.5
            (0..32).map(|_| fires("test.prob")).collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed must repeat the schedule");
        assert_ne!(a, schedule(43), "a different seed must diverge");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "{a:?}");
    }

    #[test]
    fn suppression_hides_faults_without_consuming_the_schedule() {
        let _g = LOCK.lock().unwrap();
        reset();
        configure("test.suppress", FaultRule::Nth(1));
        with_suppressed(|| {
            assert!(suppressed());
            assert!(!fires("test.suppress"), "suppressed scopes never fire");
            assert!(fail_io("test.suppress").is_ok());
        });
        assert!(!suppressed());
        assert_eq!(fired_count("test.suppress"), 0);
        // the schedule was not consumed: the first live hit still fires
        assert!(fires("test.suppress"));
        assert_eq!(fired_count("test.suppress"), 1);
    }

    #[test]
    fn fail_io_and_parse_cover_the_env_grammar() {
        let _g = LOCK.lock().unwrap();
        reset();
        configure("test.io", FaultRule::Always);
        let err = fail_io("test.io").expect_err("must inject");
        assert!(err.to_string().contains("injected fault"));
        assert!(fail_io("test.io.other").is_ok());

        assert_eq!(parse_pair("a=always").unwrap().1, FaultRule::Always);
        assert_eq!(parse_pair("a=nth:4").unwrap().1, FaultRule::Nth(4));
        assert_eq!(parse_pair("a=every:2").unwrap().1, FaultRule::Every(2));
        assert_eq!(parse_pair("a=prob:0.5").unwrap().1, FaultRule::Prob(32768));
        assert_eq!(parse_pair("a=off").unwrap().1, FaultRule::Off);
        assert!(parse_pair("nonsense").is_err());
        assert!(parse_pair("a=prob:1.5").is_err());
        assert!(parse_pair("a=nth").is_err());
    }
}
