//! A run that cannot hang: every phase declares a time budget, and a phase
//! that overruns three times its budget ends the process, naming itself.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A phase may take this many times its budget before the process is ended.
const OVERRUN_FACTOR: u32 = 3;
/// Exit code of a run the watchdog ended.
const EXIT_CODE: i32 = 3;

#[derive(Default)]
struct State {
    /// What is running and when it must be over.
    phase: Option<(String, Duration, Instant)>,
    stopped: bool,
}

pub struct Watchdog {
    shared: Arc<(Mutex<State>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let shared = Arc::new((Mutex::new(State::default()), Condvar::new()));
        let watched = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                let (state, wake) = &*watched;
                let mut state = state.lock().expect("watchdog state poisoned");
                while !state.stopped {
                    if let Some((what, budget, deadline)) = &state.phase {
                        if Instant::now() >= *deadline {
                            eprintln!(
                                "watchdog: {what} is still running after {OVERRUN_FACTOR}x its budget of \
                                 {budget:?}; aborting"
                            );
                            std::process::exit(EXIT_CODE);
                        }
                    }
                    state = wake
                        .wait_timeout(state, Duration::from_millis(100))
                        .expect("watchdog state poisoned")
                        .0;
                }
            })
            .expect("spawn watchdog");
        Watchdog { shared, thread: Some(thread) }
    }

    /// Declares that `what` starts now and should take at most `budget`.
    pub fn phase(&self, what: String, budget: Duration) {
        let deadline = Instant::now() + budget * OVERRUN_FACTOR;
        self.shared.0.lock().expect("watchdog state poisoned").phase =
            Some((what, budget, deadline));
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // A poisoned lock means the watchdog thread already died; either way
        // there is nothing left to stop, and `drop` must not panic.
        if let Ok(mut state) = self.shared.0.lock() {
            state.stopped = true;
        }
        self.shared.1.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
