//! Edge cases of the poller's wake channel and dialing, through its
//! public API: a wake channel filled past its socket buffer, and a dial
//! over IPv6 (the other arm of the hand-built sockaddr).
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::{Duration, Instant};

use ditico_rt::poller::{connect_start, wake_pipe, ConnectStart, Interest, Poller};

#[test]
fn a_full_wake_channel_never_blocks_the_waker_and_drains_in_one_call() {
    let (reader, waker) = wake_pipe().unwrap();
    let mut poller = Poller::new().unwrap();
    poller.register(reader.raw_fd(), 0, Interest::READ).unwrap();
    // A socket pair takes a few hundred unconsumed wakes; the rest
    // find it full. A waker that blocked would never send `done`.
    // The clone keeps the write end open once the thread is done.
    let (done, finished) = std::sync::mpsc::channel();
    let w2 = waker.clone();
    let waking = std::thread::spawn(move || {
        for _ in 0..10_000 {
            w2.wake();
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .expect("a wake on a full channel blocked");
    waking.join().unwrap();
    let mut evs = Vec::new();
    poller.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
    assert!(
        evs.len() == 1 && evs[0].token == 0 && evs[0].readable,
        "{evs:?}"
    );
    reader.drain();
    evs.clear();
    poller
        .wait(&mut evs, Some(Duration::from_millis(10)))
        .unwrap();
    assert!(evs.is_empty(), "one drain empties the channel: {evs:?}");
}

#[test]
fn an_ipv6_dial_connects() {
    let listener = match TcpListener::bind("[::1]:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("note: no IPv6 loopback on this host ({e}); skipping");
            return;
        }
    };
    let addr = listener.local_addr().unwrap();
    let sock = match connect_start(&addr).unwrap() {
        ConnectStart::Connected(s) => s,
        ConnectStart::Pending(p) => {
            let mut poller = Poller::new().unwrap();
            poller.register(p.raw_fd(), 1, Interest::WRITE).unwrap();
            let mut evs = Vec::new();
            let t0 = Instant::now();
            while evs.is_empty() {
                assert!(t0.elapsed() < Duration::from_secs(5), "dial never resolved");
                poller
                    .wait(&mut evs, Some(Duration::from_millis(100)))
                    .unwrap();
            }
            poller.deregister(p.raw_fd()).unwrap();
            p.finish().expect("the IPv6 dial connects")
        }
    };
    let (server, from) = listener.accept().unwrap();
    assert_eq!(sock.peer_addr().unwrap(), addr);
    assert_eq!(from, sock.local_addr().unwrap());
    drop(server);
}
