//! Seeded fault injection for chaos-testing the compilation pipeline.
//!
//! The search pipeline has a handful of places where the real world can go
//! wrong: equality saturation hits its node cap, Rival's precision ladder tops
//! out without converging, the sampler meets a degenerate domain, a worker
//! thread dies. Those paths are exactly the ones ordinary tests exercise
//! least, so this crate plants named **fault points** in them and lets a test
//! harness arm the points deterministically:
//!
//! * [`point`] is the per-site hook. Unarmed (the production state) it is a
//!   single relaxed atomic load returning `false` — no lock, no allocation,
//!   no branch on shared data — so instrumented code paths are bit-identical
//!   to uninstrumented ones.
//! * [`FaultPlan`] describes which sites misbehave and how: an
//!   [`Abort`](FaultAction::Abort) makes the site take its graceful early-out
//!   (the site decides what that means: a stopped saturation, a non-converged
//!   ground truth, an empty sample batch), a [`Panic`](FaultAction::Panic)
//!   panics right at the site, which is how the harness proves panics are
//!   isolated per job instead of killing the process. The latency actions —
//!   [`Delay`](FaultAction::Delay) (sleep, then proceed) and
//!   [`Stall`](FaultAction::Stall) (block until the plan is disarmed) — let
//!   a harness manufacture slow and hung executions for deadline/watchdog
//!   testing.
//! * [`FaultPlan::seeded`] derives a plan from a single `u64` with SplitMix64
//!   (the same construction as the `chassis` sampler's stream derivation and
//!   the `targets` mutation harness), so a chaos run is reproducible from its
//!   seed alone.
//! * [`install`] arms a plan process-globally and returns an [`ArmedPlan`]
//!   guard that disarms on drop. Installation is exclusive (a static mutex),
//!   which also serializes tests that inject faults against each other.
//!
//! This crate has no dependencies so the zero-dependency `egraph` crate (and
//! every other layer) can call [`point`] without new edges in the workspace
//! graph.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// The canonical fault points instrumented across the workspace, in pipeline
/// order. [`FaultPlan::seeded`] arms a subset of whatever site list it is
/// given; passing this constant covers the whole pipeline.
///
/// * `sample.points` — inside `chassis`'s sampling loop; an abort ends the
///   attempt budget early (typed `SampleError`).
/// * `rival.eval` — at the head of Rival's precision ladder; an abort forces
///   `GroundTruth::Unsamplable`, the ladder's own non-convergence outcome.
/// * `egraph.saturate` — at the top of each saturation iteration; an abort
///   stops the run as if the node cap had been hit.
/// * `par.spawn` — in `chassis::par`, before an index fan-out is published to
///   the helper threads; an abort makes the caller run the range alone (the
///   serial path), and so does a panic, which `par` catches: both stand for
///   helpers the OS refused.
/// * `session.compile` — at the head of each per-target compile job; the
///   direct way to prove per-job isolation in `compile_many`.
/// * `store.read` — in the service result store's disk-read path; an abort
///   makes the entry unreadable (as a corrupt or torn file would), so the
///   lookup degrades to a cache miss.
/// * `store.write` — in the service result store's disk-write path; an abort
///   skips persistence (disk-full style), degrading the store to memory-only
///   for that entry.
/// * `service.accept` — in the compile daemon's accept loop; an abort drops
///   one incoming connection (transient network failure), a panic exercises
///   the accept thread's isolation boundary.
pub const SITES: &[&str] = &[
    "sample.points",
    "rival.eval",
    "egraph.saturate",
    "par.spawn",
    "session.compile",
    "store.read",
    "store.write",
    "service.accept",
];

/// The compilation-pipeline subset of [`SITES`]: every point reachable from a
/// bare [`compile_many`] corpus run, with no daemon in the loop. The `chaos`
/// gate seeds its plans over this list so every plan can actually fire.
///
/// [`compile_many`]: https://docs.rs/ (chassis::Session::compile_many)
pub const PIPELINE_SITES: &[&str] = &[
    "sample.points",
    "rival.eval",
    "egraph.saturate",
    "par.spawn",
    "session.compile",
];

/// The service subset of [`SITES`]: the result store's disk paths and the
/// daemon's accept loop. The service chaos tests arm these (usually together
/// with [`PIPELINE_SITES`], since a daemon request runs the whole pipeline).
pub const SERVICE_SITES: &[&str] = &["store.read", "store.write", "service.accept"];

/// What an armed fault point does when it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The site takes its graceful early-out (resource-exhaustion style).
    Abort,
    /// The site panics, as a latent bug would.
    Panic,
    /// The site sleeps for the given number of milliseconds, then proceeds
    /// normally — a slow disk, a scheduling hiccup, a long GC pause in a
    /// neighbouring process. Fires on every hit at or past `after`.
    Delay(u64),
    /// The site blocks until the installed plan is dropped — a hung
    /// execution. Unlike the other actions this fires **exactly once** (on
    /// hit `after`): a stall models one wedged thread, and later hits must
    /// pass so a harness can prove the system recovers capacity *around* the
    /// stuck execution while it is still stuck.
    Stall,
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Abort => f.write_str("abort"),
            FaultAction::Panic => f.write_str("panic"),
            FaultAction::Delay(ms) => write!(f, "delay({ms}ms)"),
            FaultAction::Stall => f.write_str("stall"),
        }
    }
}

/// One armed site of a [`FaultPlan`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Arm {
    /// The fault-point name (see [`SITES`]).
    pub site: String,
    /// What happens when the point fires.
    pub action: FaultAction,
    /// How many hits of the site pass through unharmed first: `0` fires on
    /// the very first hit, `n` on hit `n` (and every one after, for aborts).
    pub after: u64,
}

/// A deterministic description of which fault points misbehave and how.
///
/// Plans are inert data until [`install`]ed. The builder form
/// ([`FaultPlan::arm`]) serves targeted tests; [`FaultPlan::seeded`] derives
/// arbitrary plans from a seed for the chaos harness.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    arms: Vec<Arm>,
}

/// SplitMix64 step (Steele et al.), the workspace's standard seed expander.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with no armed sites. Installing it turns the fault machinery on
    /// (every [`point`] takes the slow path) while firing nothing — the
    /// configuration the bit-identity gates compare against.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms `site` with `action`, firing after `after` unharmed hits
    /// (builder style; a site may be armed more than once).
    #[must_use]
    pub fn arm(mut self, site: &str, action: FaultAction, after: u64) -> FaultPlan {
        self.arms.push(Arm {
            site: site.to_string(),
            action,
            after,
        });
        self
    }

    /// Derives a plan from `seed` over the given site list: one to three
    /// arms, each with a site, action, and hit delay drawn from the
    /// SplitMix64 stream. Equal seeds give equal plans; panics are armed
    /// about a quarter of the time so most plans exercise the graceful
    /// degradation paths.
    ///
    /// Returns the empty plan when `sites` is empty.
    pub fn seeded(seed: u64, sites: &[&str]) -> FaultPlan {
        let mut state = seed;
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        let n_arms = 1 + (splitmix64(&mut state) % 3);
        for _ in 0..n_arms {
            let site = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
            let action = if splitmix64(&mut state).is_multiple_of(4) {
                FaultAction::Panic
            } else {
                FaultAction::Abort
            };
            let after = splitmix64(&mut state) % 6;
            plan = plan.arm(site, action, after);
        }
        plan
    }

    /// Like [`FaultPlan::seeded`] but with the latency actions in the mix:
    /// arms draw from abort, panic, [`Delay`](FaultAction::Delay) (10–150 ms),
    /// and — only on sites listed in `stall_sites` — [`Stall`](FaultAction::Stall).
    /// Kept separate from `seeded` on purpose: a stall blocks until the plan
    /// is disarmed, so it is only safe where a watchdog (or the harness
    /// itself) bounds how long the plan stays installed, and existing gates
    /// seeded over `seeded` keep their action distribution.
    ///
    /// Returns the empty plan when `sites` is empty.
    pub fn seeded_latency(seed: u64, sites: &[&str], stall_sites: &[&str]) -> FaultPlan {
        let mut state = seed ^ 0xA5A5_5A5A_C3C3_3C3C;
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        let n_arms = 1 + (splitmix64(&mut state) % 3);
        for _ in 0..n_arms {
            let site = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
            let roll = splitmix64(&mut state) % 8;
            let delay_ms = 10 + splitmix64(&mut state) % 140;
            let action = match roll {
                0 => FaultAction::Panic,
                1 | 2 => FaultAction::Abort,
                3 if stall_sites.contains(&site) => FaultAction::Stall,
                3 => FaultAction::Abort,
                _ => FaultAction::Delay(delay_ms),
            };
            let after = splitmix64(&mut state) % 6;
            plan = plan.arm(site, action, after);
        }
        plan
    }

    /// The armed sites.
    pub fn arms(&self) -> &[Arm] {
        &self.arms
    }

    /// True when no site is armed.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.arms.is_empty() {
            return f.write_str("(no faults armed)");
        }
        for (i, arm) in self.arms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}:{}@{}", arm.site, arm.action, arm.after)?;
        }
        Ok(())
    }
}

/// One installed arm: the plan data plus a hit counter.
struct ActiveArm {
    site: String,
    action: FaultAction,
    after: u64,
    hits: AtomicU64,
}

struct Active {
    arms: Vec<ActiveArm>,
    fired: Arc<AtomicU64>,
}

/// True iff a plan is installed; the only state [`point`] touches on the
/// production (unarmed) path.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The installed plan. A `RwLock` so concurrent fault points (worker threads)
/// read without contention; only install/disarm write.
static ACTIVE: RwLock<Option<Active>> = RwLock::new(None);
/// Serializes installations: one plan at a time, process-wide.
static INSTALL: Mutex<()> = Mutex::new(());
/// Bumped on every install *and* disarm; a firing [`Stall`](FaultAction::Stall)
/// captures the epoch and blocks until it changes, so dropping the
/// [`ArmedPlan`] releases every stalled thread.
static EPOCH: Mutex<u64> = Mutex::new(0);
static EPOCH_CV: std::sync::Condvar = std::sync::Condvar::new();

fn bump_epoch() {
    let mut epoch = EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
    *epoch = epoch.wrapping_add(1);
    EPOCH_CV.notify_all();
}

/// Blocks until the epoch moves past `entered` (i.e. the plan that armed the
/// stall is disarmed). The periodic timeout is belt-and-braces against a
/// missed notification; correctness comes from re-reading the epoch.
fn stall_until_disarmed(entered: u64) {
    let mut epoch = EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
    while *epoch == entered {
        let (guard, _) = EPOCH_CV
            .wait_timeout(epoch, std::time::Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner);
        epoch = guard;
    }
}

/// The guard of an installed [`FaultPlan`]: the plan stays armed until this
/// is dropped. Holding it gives exclusive use of the fault machinery, so
/// concurrent tests that inject faults serialize on [`install`].
pub struct ArmedPlan {
    fired: Arc<AtomicU64>,
    _exclusive: MutexGuard<'static, ()>,
}

impl ArmedPlan {
    /// How many times any armed point has fired (aborts and panics both
    /// count). A chaos run uses this to prove its plans did something.
    pub fn fires(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = None;
        bump_epoch();
    }
}

/// Arms `plan` process-globally and returns the guard that disarms it on
/// drop. Blocks until any previously installed plan is dropped.
pub fn install(plan: FaultPlan) -> ArmedPlan {
    let exclusive = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
    let fired = Arc::new(AtomicU64::new(0));
    let active = Active {
        arms: plan
            .arms
            .into_iter()
            .map(|arm| ActiveArm {
                site: arm.site,
                action: arm.action,
                after: arm.after,
                hits: AtomicU64::new(0),
            })
            .collect(),
        fired: Arc::clone(&fired),
    };
    *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = Some(active);
    ARMED.store(true, Ordering::SeqCst);
    bump_epoch();
    ArmedPlan {
        fired,
        _exclusive: exclusive,
    }
}

/// The fault point hook. Returns `true` when the calling site must take its
/// graceful early-out (an armed [`Abort`](FaultAction::Abort) fired), `false`
/// otherwise — which is the only possible answer while no plan is installed.
/// A firing [`Delay`](FaultAction::Delay) sleeps and then returns `false`
/// (the site proceeds, late); a firing [`Stall`](FaultAction::Stall) blocks
/// until the plan is disarmed and then returns `false`.
///
/// # Panics
///
/// Panics (with a message naming the site) when an armed
/// [`Panic`](FaultAction::Panic) fires — deliberately: that is the fault
/// being injected.
#[inline]
pub fn point(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    point_armed(site)
}

#[cold]
fn point_armed(site: &str) -> bool {
    // Decide which action fires under the read lock, but *act* only after
    // releasing it: a Delay or Stall must not hold the lock, or the plan's
    // disarm (which takes the write lock) could never run and a stalled
    // site would block forever.
    let fired: Option<(FaultAction, u64)> = {
        let guard = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
        let Some(active) = guard.as_ref() else {
            return false;
        };
        let mut decision = None;
        for arm in active.arms.iter().filter(|arm| arm.site == site) {
            let hit = arm.hits.fetch_add(1, Ordering::Relaxed);
            // A stall models exactly one wedged execution: it fires on hit
            // `after` only, so later hits pass and the system can prove it
            // recovers capacity around the stuck thread.
            let fires = match arm.action {
                FaultAction::Stall => hit == arm.after,
                _ => hit >= arm.after,
            };
            if fires {
                active.fired.fetch_add(1, Ordering::Relaxed);
                let entered = *EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
                decision = Some((arm.action, entered));
                break;
            }
        }
        decision
    };
    match fired {
        None => false,
        Some((FaultAction::Abort, _)) => true,
        Some((FaultAction::Panic, _)) => panic!("injected fault at {site}"),
        Some((FaultAction::Delay(ms), _)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some((FaultAction::Stall, entered)) => {
            stall_until_disarmed(entered);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_subsets_partition_the_registry() {
        let mut combined: Vec<&str> = Vec::new();
        combined.extend_from_slice(PIPELINE_SITES);
        combined.extend_from_slice(SERVICE_SITES);
        assert_eq!(combined, SITES, "PIPELINE_SITES + SERVICE_SITES == SITES");
    }

    #[test]
    fn unarmed_points_are_inert() {
        // Hold the install lock so no concurrently running test arms a plan
        // (and has one of these hits fire, or stall, its faults).
        let _exclusive = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
        for site in SITES {
            assert!(!point(site));
        }
    }

    #[test]
    fn installed_empty_plan_fires_nothing() {
        let armed = install(FaultPlan::new());
        for site in SITES {
            assert!(!point(site));
        }
        assert_eq!(armed.fires(), 0);
    }

    #[test]
    fn abort_fires_after_the_configured_hits() {
        let armed = install(FaultPlan::new().arm("egraph.saturate", FaultAction::Abort, 2));
        assert!(!point("egraph.saturate"));
        assert!(!point("egraph.saturate"));
        assert!(point("egraph.saturate"), "third hit fires");
        assert!(point("egraph.saturate"), "aborts keep firing");
        assert!(!point("rival.eval"), "other sites are untouched");
        assert_eq!(armed.fires(), 2);
        drop(armed);
        assert!(!point("egraph.saturate"), "disarmed on drop");
    }

    #[test]
    fn panic_faults_panic_with_the_site_name() {
        let armed = install(FaultPlan::new().arm("par.spawn", FaultAction::Panic, 0));
        let payload =
            std::panic::catch_unwind(|| point("par.spawn")).expect_err("the armed panic must fire");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("par.spawn"), "got: {message}");
        assert_eq!(armed.fires(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_nonempty() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, SITES);
            let b = FaultPlan::seeded(seed, SITES);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(!a.is_empty(), "seed {seed} armed nothing");
            assert!(a.arms().len() <= 3);
            for arm in a.arms() {
                assert!(SITES.contains(&arm.site.as_str()));
            }
        }
        assert_ne!(FaultPlan::seeded(1, SITES), FaultPlan::seeded(2, SITES));
        assert!(FaultPlan::seeded(7, &[]).is_empty());
    }

    #[test]
    fn seeded_plans_cover_both_actions() {
        let mut aborts = 0;
        let mut panics = 0;
        for seed in 0..128 {
            for arm in FaultPlan::seeded(seed, SITES).arms() {
                match arm.action {
                    FaultAction::Abort => aborts += 1,
                    FaultAction::Panic => panics += 1,
                    other => panic!("seeded() must not arm {other}"),
                }
            }
        }
        assert!(aborts > 0 && panics > 0, "{aborts} aborts, {panics} panics");
    }

    #[test]
    fn seeded_latency_plans_cover_the_latency_actions_and_respect_stall_sites() {
        let stall_sites = &["session.compile"];
        let (mut delays, mut stalls, mut classic) = (0, 0, 0);
        for seed in 0..256 {
            let plan = FaultPlan::seeded_latency(seed, SITES, stall_sites);
            assert_eq!(
                plan,
                FaultPlan::seeded_latency(seed, SITES, stall_sites),
                "seed {seed} not reproducible"
            );
            for arm in plan.arms() {
                match arm.action {
                    FaultAction::Delay(ms) => {
                        assert!((10..160).contains(&ms));
                        delays += 1;
                    }
                    FaultAction::Stall => {
                        assert!(stall_sites.contains(&arm.site.as_str()));
                        stalls += 1;
                    }
                    _ => classic += 1,
                }
            }
        }
        assert!(
            delays > 0 && stalls > 0 && classic > 0,
            "{delays} delays, {stalls} stalls, {classic} abort/panic"
        );
        assert!(FaultPlan::seeded_latency(7, &[], stall_sites).is_empty());
    }

    #[test]
    fn delay_faults_sleep_then_proceed() {
        let armed = install(FaultPlan::new().arm("store.write", FaultAction::Delay(30), 1));
        let start = std::time::Instant::now();
        assert!(!point("store.write"), "hit 0 passes untouched");
        assert!(start.elapsed() < std::time::Duration::from_millis(20));
        let start = std::time::Instant::now();
        assert!(!point("store.write"), "a delay still lets the site proceed");
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(armed.fires(), 1);
    }

    #[test]
    fn stall_faults_block_until_disarm_and_fire_exactly_once() {
        let armed = install(FaultPlan::new().arm("store.read", FaultAction::Stall, 0));
        let stalled = std::thread::spawn(|| point("store.read"));
        // Wait for the thread's hit to fire the stall; the bound only turns
        // a broken stall into a failure instead of a hang.
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while armed.fires() == 0 {
            assert!(std::time::Instant::now() < give_up, "the stall never fired");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // The stall fired exactly once: the *second* hit passes while the
        // first is still stuck, and only the disarm releases it.
        assert!(!point("store.read"), "later hits pass");
        assert_eq!(armed.fires(), 1);
        assert!(!stalled.is_finished(), "the stalled hit is still blocked");
        drop(armed);
        let aborted = stalled.join().expect("stalled thread must not panic");
        assert!(!aborted, "a released stall proceeds normally");
    }

    #[test]
    fn plans_render_for_logs() {
        assert_eq!(FaultPlan::new().to_string(), "(no faults armed)");
        let plan = FaultPlan::new()
            .arm("rival.eval", FaultAction::Abort, 1)
            .arm("par.spawn", FaultAction::Panic, 0);
        assert_eq!(plan.to_string(), "rival.eval:abort@1, par.spawn:panic@0");
    }
}
