//! Shared by the socket suites: the spawn-policy matrix and a wall-clock
//! bound that turns a hang into a failure within seconds.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use zipline_engine::SpawnPolicy;

/// Every socket test runs under both pipeline modes: inline (the
/// single-core fallback) and a real engine worker thread per stream.
pub const SPAWN_POLICIES: [SpawnPolicy; 2] = [SpawnPolicy::Inline, SpawnPolicy::Threads];

/// Wall-clock bound of one run of one test, generous enough for a debug
/// build on a loaded host.
pub const TEST_BOUND: Duration = Duration::from_secs(30);

/// Runs `test` on its own thread and fails once it has run for
/// [`TEST_BOUND`]. A panic inside `test` propagates unchanged; a hung
/// thread is left behind, and the test process exits around it.
pub fn bounded<T: Send + 'static>(name: &str, test: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = mpsc::channel();
    let runner = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || drop(done.send(test())))
        .expect("spawn test thread");
    match outcome.recv_timeout(TEST_BOUND) {
        Ok(value) => {
            drop(runner.join());
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("{name} still running after {TEST_BOUND:?}"),
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("{name} finished without a result"),
        },
    }
}

/// Runs `test` once per spawn policy, each run under [`bounded`] and
/// named after `test`'s type (its path, for a function).
pub fn for_each_policy<F: Fn(SpawnPolicy) + Clone + Send + 'static>(test: F) {
    let name = std::any::type_name::<F>();
    for spawn in SPAWN_POLICIES {
        let test = test.clone();
        bounded(&format!("{name} [{spawn:?}]"), move || test(spawn));
    }
}
