//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel`: an unbounded MPMC channel with cloneable
//! senders *and* receivers, disconnect detection, `len`, and the blocking /
//! non-blocking / timed receive operations the runtime uses. Built on
//! `std::sync` primitives; the API mirrors the real crate's subset.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        cv: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The items, and how many receivers are blocked waiting for one. A
    /// send wakes a receiver only when one is blocked: a condvar notify
    /// with nobody waiting still costs a futex syscall.
    struct Queue<T> {
        items: VecDeque<T>,
        parked: usize,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, Queue<T>> {
            self.queue.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Block on the condvar, counted as parked while waiting; `None`
        /// waits without a deadline.
        fn park<'a>(
            &self,
            mut q: MutexGuard<'a, Queue<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, Queue<T>> {
            q.parked += 1;
            let mut q = match timeout {
                None => self.cv.wait(q).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    self.cv
                        .wait_timeout(q, t)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            q.parked -= 1;
            q
        }
    }

    /// Error on send: all receivers are gone; the value is returned.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }
    impl std::error::Error for TryRecvError {}

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "channel is empty and disconnected")
                }
            }
        }
    }
    impl std::error::Error for RecvTimeoutError {}

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                parked: 0,
            }),
            cv: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(v));
            }
            let mut q = self.inner.lock();
            q.items.push_back(v);
            let wake = q.parked > 0;
            drop(q);
            if wake {
                self.inner.cv.notify_one();
            }
            Ok(())
        }

        /// Push a whole batch under one queue lock (FIFO, in iteration
        /// order) and wake a blocked receiver once. Returns the number of
        /// items enqueued, or an error when all receivers are gone (the
        /// batch is dropped, mirroring `send`).
        pub fn send_iter<I: IntoIterator<Item = T>>(
            &self,
            batch: I,
        ) -> Result<usize, SendError<()>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(()));
            }
            let mut q = self.inner.lock();
            let before = q.items.len();
            q.items.extend(batch);
            let n = q.items.len() - before;
            let wake = n > 0 && q.parked > 0;
            drop(q);
            if wake {
                self.inner.cv.notify_one();
            }
            Ok(n)
        }

        pub fn len(&self) -> usize {
            self.inner.lock().items.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect. Reading `parked` under the lock orders
                // this against a receiver between its check and its wait.
                let wake = self.inner.lock().parked > 0;
                if wake {
                    self.inner.cv.notify_all();
                }
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.lock();
            if let Some(v) = q.items.pop_front() {
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.lock();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.inner.park(q, None);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.inner.lock();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = self.inner.park(q, Some(deadline - now));
            }
        }

        /// Move everything currently queued into `into` under one lock
        /// (FIFO order preserved). Returns the number of items moved.
        pub fn drain_into<E: Extend<T>>(&self, into: &mut E) -> usize {
            let mut q = self.inner.lock();
            let n = q.items.len();
            if n > 0 {
                into.extend(q.items.drain(..));
            }
            n
        }

        pub fn len(&self) -> usize {
            self.inner.lock().items.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// How many receivers are blocked waiting for an item.
        #[cfg(test)]
        pub(crate) fn parked(&self) -> usize {
            self.inner.lock().parked
        }

        /// Non-blocking iterator: drains currently available items.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx2, rx2) = unbounded::<u32>();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn timeout_and_cross_thread() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(2)), Ok(42));
        h.join().unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    /// Run `wait` on `rx` in a thread, `wake` once it is blocked, and
    /// return what the waiter got. A lost wake-up fails here instead of
    /// hanging the suite.
    fn parked_waiter<T: Send + 'static, R: Send + 'static>(
        rx: Receiver<T>,
        wait: fn(&Receiver<T>) -> R,
        wake: impl FnOnce(),
    ) -> R {
        let probe = rx.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || done_tx.send(wait(&rx)).unwrap());
        while probe.parked() == 0 {
            std::thread::yield_now();
        }
        wake();
        let got = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the parked receiver was woken");
        h.join().unwrap();
        got
    }

    fn recv(rx: &Receiver<u32>) -> Result<u32, RecvError> {
        rx.recv()
    }

    fn recv_timeout(rx: &Receiver<u32>) -> Result<u32, RecvTimeoutError> {
        rx.recv_timeout(std::time::Duration::from_secs(60))
    }

    #[test]
    fn a_parked_receiver_is_woken_by_send() {
        let (tx, rx) = unbounded();
        assert_eq!(parked_waiter(rx, recv, || tx.send(1).unwrap()), Ok(1));
        let (tx, rx) = unbounded();
        assert_eq!(
            parked_waiter(rx, recv_timeout, || tx.send(2).unwrap()),
            Ok(2)
        );
    }

    #[test]
    fn a_parked_receiver_is_woken_by_send_iter() {
        let (tx, rx) = unbounded();
        let wake = || assert_eq!(tx.send_iter([3, 4]), Ok(2));
        assert_eq!(parked_waiter(rx, recv, wake), Ok(3));
        let (tx, rx) = unbounded();
        let wake = || assert_eq!(tx.send_iter([5]), Ok(1));
        assert_eq!(parked_waiter(rx, recv_timeout, wake), Ok(5));
    }

    #[test]
    fn a_parked_receiver_is_woken_by_the_last_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        let other = tx.clone();
        let wake = move || {
            drop(tx);
            drop(other);
        };
        assert_eq!(parked_waiter(rx, recv, wake), Err(RecvError));
        let (tx, rx) = unbounded::<u32>();
        let wake = move || drop(tx);
        assert_eq!(
            parked_waiter(rx, recv_timeout, wake),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
