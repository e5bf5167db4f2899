//! Timers: `sleep` and `interval`, parked in the driver's timer map.
//!
//! A pending timer registers `(deadline, id, waker)` with the runtime's
//! `Driver`; the worker blocked in `epoll_wait` sleeps no longer than the
//! earliest deadline. Dropped timers cancel their registration.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::reactor::Driver;
use crate::runtime::current;

/// Completes once `duration` has elapsed.
pub fn sleep(duration: Duration) -> Sleep {
    sleep_until(Instant::now() + duration)
}

pub(crate) fn sleep_until(deadline: Instant) -> Sleep {
    let driver = &current().driver;
    Sleep { driver, deadline, id: driver.next_id() }
}

/// Future returned by [`sleep`]. Re-polls replace the parked waker (the id
/// keys the driver's entry); dropping the future cancels the timer.
#[derive(Debug)]
pub struct Sleep {
    driver: &'static Driver,
    deadline: Instant,
    id: u64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            Poll::Ready(())
        } else {
            self.driver.register_timer(self.deadline, self.id, cx.waker());
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.driver.cancel_timer(self.deadline, self.id);
    }
}

/// Creates an interval timer; the first tick completes immediately.
pub fn interval(period: Duration) -> Interval {
    Interval { period, next: Instant::now() }
}

/// Ticks at a fixed period.
#[derive(Debug)]
pub struct Interval {
    period: Duration,
    next: Instant,
}

impl Interval {
    /// Waits until the next tick.
    pub async fn tick(&mut self) -> Instant {
        let deadline = self.next;
        sleep_until(deadline).await;
        self.next = deadline.max(Instant::now() - self.period) + self.period;
        Instant::now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::block_on;

    #[test]
    fn sleep_waits_roughly_the_requested_time() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn interval_first_tick_is_immediate() {
        block_on(async {
            let mut interval = interval(Duration::from_millis(50));
            let start = Instant::now();
            interval.tick().await;
            assert!(start.elapsed() < Duration::from_millis(40));
        });
    }
}
