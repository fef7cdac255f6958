//! Content-addressed result cache with single-flight coalescing.
//!
//! A gate-evaluation request is normalized to a canonical JSON form
//! (defaults filled in, keys sorted — see [`crate::eval::normalize`]),
//! and the FNV-1a hash of that canonical string is the cache key: two
//! requests that *mean* the same thing share one entry, regardless of
//! field order or formatting in the original bodies.
//!
//! The cache is also the coalescing point. [`ResultCache::begin`]
//! classifies a request as a **hit** (answer cached), a **leader** (first
//! request for this key — it must compute), or a **follower** (an
//! identical request is already being computed — it waits on the
//! leader's flight instead of spawning a duplicate evaluation). N
//! identical concurrent requests therefore cost exactly one evaluation.
//!
//! Only successes are cached; a failed or shed flight wakes its
//! followers with the error and leaves no entry behind, so the next
//! request retries. Capacity is bounded with FIFO eviction — the cache
//! is a working set, not a database.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// 64-bit FNV-1a over a canonical request rendering — the content
/// address of a request.
pub fn content_key(canonical: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a flight did not produce a cached body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// The leader was shed by admission control before evaluating.
    Shed,
    /// The evaluation itself failed (bad request or backend error).
    Eval(String),
    /// The leader disappeared without reporting (a panic on its thread).
    Aborted,
}

type FlightResult = Result<Arc<String>, FlightError>;

/// One in-flight evaluation that followers can wait on.
#[derive(Debug)]
pub struct Flight {
    result: Mutex<Option<FlightResult>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Blocks until the leader resolves this flight.
    pub fn wait(&self) -> FlightResult {
        let mut result = self.result.lock().expect("flight poisoned");
        while result.is_none() {
            result = self.done.wait(result).expect("flight poisoned");
        }
        result.clone().expect("checked above")
    }

    fn finish(&self, outcome: FlightResult) {
        let mut result = self.result.lock().expect("flight poisoned");
        *result = Some(outcome);
        drop(result);
        self.done.notify_all();
    }
}

#[derive(Debug, Default)]
struct CacheState {
    ready: HashMap<u64, Arc<String>>,
    /// Insertion order of `ready` keys, for FIFO eviction.
    order: VecDeque<u64>,
    in_flight: HashMap<u64, Arc<Flight>>,
}

/// The bounded result cache.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

/// How [`ResultCache::begin`] classified a request.
pub enum Begin {
    /// The answer was cached.
    Hit(Arc<String>),
    /// An identical request is being computed; wait on its flight.
    Follower(Arc<Flight>),
    /// First request for this key — compute, then resolve the token.
    Leader(LeaderToken),
}

/// The leader's obligation: exactly one of [`ResultCache::complete`] or
/// [`ResultCache::abandon`] must resolve the flight. Dropping the token
/// unresolved (a panicking handler) wakes followers with
/// [`FlightError::Aborted`] so nobody hangs.
pub struct LeaderToken {
    key: u64,
    flight: Arc<Flight>,
    resolved: bool,
}

impl ResultCache {
    /// A cache holding at most `capacity` ready results (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Classifies the request for `key` (see [`Begin`]).
    pub fn begin(&self, key: u64) -> Begin {
        let mut state = self.state.lock().expect("cache poisoned");
        if let Some(body) = state.ready.get(&key) {
            return Begin::Hit(Arc::clone(body));
        }
        if let Some(flight) = state.in_flight.get(&key) {
            // `complete`/`abandon` remove the entry before resolving, so
            // a resolved flight still registered here means its leader's
            // token was dropped unresolved (the handler panicked). Don't
            // follow a dead flight — take over as the new leader.
            let stale = flight.result.lock().expect("flight poisoned").is_some();
            if !stale {
                return Begin::Follower(Arc::clone(flight));
            }
            state.in_flight.remove(&key);
        }
        let flight = Flight::new();
        state.in_flight.insert(key, Arc::clone(&flight));
        Begin::Leader(LeaderToken {
            key,
            flight,
            resolved: false,
        })
    }

    /// Stores a leader's successful result, wakes followers, and caches
    /// the body (evicting the oldest entry if full).
    pub fn complete(&self, mut token: LeaderToken, body: String) -> Arc<String> {
        let body = Arc::new(body);
        token.resolved = true;
        {
            let mut state = self.state.lock().expect("cache poisoned");
            let state = &mut *state;
            state.in_flight.remove(&token.key);
            if let std::collections::hash_map::Entry::Vacant(slot) = state.ready.entry(token.key) {
                slot.insert(Arc::clone(&body));
                state.order.push_back(token.key);
                while state.ready.len() > self.capacity {
                    if let Some(old) = state.order.pop_front() {
                        state.ready.remove(&old);
                    }
                }
            }
        }
        token.flight.finish(Ok(Arc::clone(&body)));
        body
    }

    /// Resolves a leader's flight with an error (shed or failed) and
    /// caches nothing — the next identical request starts fresh.
    pub fn abandon(&self, mut token: LeaderToken, error: FlightError) {
        token.resolved = true;
        self.state
            .lock()
            .expect("cache poisoned")
            .in_flight
            .remove(&token.key);
        token.flight.finish(Err(error));
    }

    /// Number of ready entries (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache poisoned").ready.len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if !self.resolved {
            self.flight.finish(Err(FlightError::Aborted));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn content_key_is_stable_and_content_sensitive() {
        let a = content_key(r#"{"gate":"maj3","inputs":[0,1,1]}"#);
        let b = content_key(r#"{"gate":"maj3","inputs":[0,1,1]}"#);
        let c = content_key(r#"{"gate":"maj3","inputs":[1,1,1]}"#);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Pinned: the FNV-1a of the empty string.
        assert_eq!(content_key(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn leader_then_hit() {
        let cache = ResultCache::new(4);
        let Begin::Leader(token) = cache.begin(1) else {
            panic!("first request must lead");
        };
        let body = cache.complete(token, "answer".to_string());
        assert_eq!(*body, "answer");
        match cache.begin(1) {
            Begin::Hit(cached) => assert_eq!(*cached, "answer"),
            _ => panic!("second request must hit"),
        }
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let cache = Arc::new(ResultCache::new(4));
        let evaluations = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let evaluations = Arc::clone(&evaluations);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    match cache.begin(42) {
                        Begin::Hit(body) => (*body).clone(),
                        Begin::Follower(flight) => (*flight.wait().unwrap()).clone(),
                        Begin::Leader(token) => {
                            evaluations.fetch_add(1, Ordering::SeqCst);
                            // A slow evaluation, so followers really pile up.
                            thread::sleep(Duration::from_millis(50));
                            (*cache.complete(token, "computed".to_string())).clone()
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "computed");
        }
        assert_eq!(evaluations.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    #[test]
    fn errors_are_not_cached_and_wake_followers() {
        let cache = Arc::new(ResultCache::new(4));
        let Begin::Leader(token) = cache.begin(7) else {
            panic!("must lead");
        };
        let follower = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match cache.begin(7) {
                Begin::Follower(flight) => flight.wait(),
                Begin::Hit(_) => panic!("nothing is cached yet"),
                Begin::Leader(_) => panic!("leader already exists"),
            })
        };
        // Give the follower time to attach to the flight.
        thread::sleep(Duration::from_millis(20));
        cache.abandon(token, FlightError::Eval("bad gate".into()));
        assert_eq!(
            follower.join().unwrap(),
            Err(FlightError::Eval("bad gate".into()))
        );
        // The failure left no entry; the next request leads again.
        assert!(matches!(cache.begin(7), Begin::Leader(_)));
        assert!(cache.is_empty());
    }

    #[test]
    fn dropped_leader_token_aborts_followers_and_frees_the_key() {
        let cache = Arc::new(ResultCache::new(4));
        let Begin::Leader(token) = cache.begin(9) else {
            panic!("must lead");
        };
        let follower = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match cache.begin(9) {
                Begin::Follower(flight) => flight.wait(),
                _ => panic!("a flight is active"),
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(token); // handler panicked without resolving
        assert_eq!(follower.join().unwrap(), Err(FlightError::Aborted));
        // The dead flight is reclaimed: the next request leads afresh.
        assert!(matches!(cache.begin(9), Begin::Leader(_)));
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let cache = ResultCache::new(2);
        for key in 0..3u64 {
            let Begin::Leader(token) = cache.begin(key) else {
                panic!("fresh keys lead");
            };
            cache.complete(token, format!("v{key}"));
        }
        assert_eq!(cache.len(), 2);
        // Key 0 was evicted first-in-first-out.
        assert!(matches!(cache.begin(0), Begin::Leader(_)));
        assert!(matches!(cache.begin(2), Begin::Hit(_)));
    }
}
