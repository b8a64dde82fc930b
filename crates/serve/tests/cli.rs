//! Usage errors of the `rcpn-serve` binary: a configuration that could
//! never finish a job must be refused at startup, not served.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn zero_workers_exits_2_instead_of_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rcpn-serve"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcpn-serve");
    // A daemon that accepted the flag would serve forever; bound the wait
    // so that regression fails the test instead of hanging it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll rcpn-serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("rcpn-serve --workers 0 started serving instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--workers must be at least 1"), "stderr: {stderr}");
}
