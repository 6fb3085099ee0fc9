//! `perfbench-spawn OUT ERR CMD [ARG...]` — run one command with its
//! stdout and stderr sent to the files OUT and ERR, and print
//! `wall_ns maxrss_kb exit_code` for it on one line.
//!
//! The kernel folds the pre-`exec` memory of a child into its
//! `ru_maxrss`, so a child spawned straight from the Python driver
//! reads about 10 MB whatever it runs. This spawner links nothing but
//! `std` and holds about 1 MB at spawn time, so the figure it reports
//! is the analysing process's own high-water mark whenever that is
//! larger than the spawner's.

use std::fs::File;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("usage: perfbench-spawn OUT ERR CMD [ARG...]");
        return ExitCode::from(2);
    }
    let (out, err) = match (File::create(&args[0]), File::create(&args[1])) {
        (Ok(out), Ok(err)) => (out, err),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench-spawn: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let status = Command::new(&args[2])
        .args(&args[3..])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .status();
    let wall_ns = started.elapsed().as_nanos();
    let status = match status {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench-spawn: {}: {e}", args[2]);
            return ExitCode::from(2);
        }
    };
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // duration of the call, and RUSAGE_CHILDREN is a valid selector.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("perfbench-spawn: getrusage failed");
        return ExitCode::from(2);
    }
    // A child killed by a signal has no exit code; report -1.
    println!("{wall_ns} {} {}", usage.maxrss, status.code().unwrap_or(-1));
    ExitCode::SUCCESS
}
