//! A clock that runs at reference speed.
//!
//! The hosts this benchmark runs on are small shared VMs whose CPU speed
//! swings by up to 2× over tens of seconds (neighbours, SMT siblings,
//! frequency), far more than any bound a regression check could use: ten
//! runs of a pure-CPU workload spread by 15–25 % of their median. So the
//! generator interleaves a fixed *reference kernel* — 0.4 ms of dependent
//! random reads and writes over a small table, the access pattern of the
//! engine's hash operators — with the statements it times, and rescales
//! each stretch of wall-clock time between two kernel runs by
//! `NOMINAL_NS / (mean kernel time around it)`.
//!
//! Times on that clock are "at reference speed": a host that is 30 % slow
//! for a minute runs the kernel 30 % slower as well, and the two cancel. A
//! change to the engine does not touch the kernel, so it shows in full.
//! The end-to-end metrics are taken on this clock; the same numbers on the
//! wall clock are reported beside them as `raw.*`, and the clock's own
//! rate as `host.speed_factor`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the table walk takes at reference speed (about what it takes on
/// the development host when nothing else runs, so that reference-speed
/// numbers read like wall-clock numbers of a quiet host).
const WALK_NOMINAL_NS: f64 = 400_000.0;
/// The same for one loopback round trip of the wire part.
const ECHO_NOMINAL_NS: f64 = 8_000.0;
/// Round trips per measurement of a kernel with a wire part.
const ECHO_ROUND_TRIPS: usize = 32;

/// 256 KiB: stays in a core's L2 whatever the statements between two
/// measurements did to the caches.
const TABLE_WORDS: usize = 1 << 15;
const STEPS: usize = 64_000;
/// Measurements the clock's rate is averaged over. The mean (not the
/// fastest) is what matters: a burst that slows the kernel slows the
/// statements next to it as well.
const SMOOTH_OVER: usize = 8;

/// The wire part of the kernel: one-byte round trips over loopback to a
/// thread that blocks in `read`, the way a server session does. Half of a
/// served request is socket and thread hand-off, which a busy host slows
/// down differently from arithmetic — and this peer is the benchmark's
/// own, so a change to `div_server` cannot move it.
struct Echo {
    stream: TcpStream,
    peer: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut served, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        served.set_nodelay(true)?;
        let peer = std::thread::Builder::new()
            .name("divbench-echo".to_string())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while matches!(served.read(&mut byte), Ok(1)) {
                    if served.write_all(&byte).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Echo {
            stream,
            peer: Some(peer),
        })
    }

    fn round_trip(&mut self) -> io::Result<()> {
        let mut byte = [1u8; 1];
        self.stream.write_all(&byte)?;
        self.stream.read_exact(&mut byte)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // The peer's `read` returns 0 and its loop ends.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

pub struct Reference {
    table: Vec<u64>,
    echo: Option<Echo>,
    /// What one measurement takes at reference speed.
    nominal_ns: f64,
    recent: VecDeque<f64>,
}

impl Reference {
    /// The kernel for in-process work: the table walk alone.
    pub fn cpu() -> Reference {
        let mut reference = Reference {
            table: (0..TABLE_WORDS as u64).collect(),
            echo: None,
            nominal_ns: WALK_NOMINAL_NS,
            recent: VecDeque::with_capacity(SMOOTH_OVER),
        };
        // Fault the table in before anything is measured.
        reference.run();
        reference
    }

    /// The kernel for requests that cross a socket: the table walk plus
    /// [`ECHO_ROUND_TRIPS`] loopback round trips.
    pub fn with_wire() -> io::Result<Reference> {
        Ok(Reference {
            echo: Some(Echo::start()?),
            nominal_ns: WALK_NOMINAL_NS + ECHO_ROUND_TRIPS as f64 * ECHO_NOMINAL_NS,
            ..Reference::cpu()
        })
    }

    /// One run of the kernel: a xorshift walk whose every step depends on
    /// the word it just read.
    fn run(&mut self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x ^ acc) as usize & mask];
            acc = acc.wrapping_add(*slot).rotate_left(5) ^ x;
            *slot = acc;
        }
        acc
    }

    /// Run the kernel and return the rate of the reference-speed clock
    /// now — reference nanoseconds per wall-clock nanosecond — from the
    /// mean of this and the measurements just before it.
    pub fn measure(&mut self) -> f64 {
        // Pull the table back into cache first, so that the timed run does
        // not depend on what the statement before it evicted.
        black_box(self.table.iter().step_by(8).fold(0u64, |a, w| a ^ w));
        let started = Instant::now();
        black_box(self.run());
        if let Some(echo) = &mut self.echo {
            for _ in 0..ECHO_ROUND_TRIPS {
                // A broken echo pair would only make the clock run fast;
                // the peer lives as long as `self`, so it does not break.
                let _ = echo.round_trip();
            }
        }
        if self.recent.len() == SMOOTH_OVER {
            self.recent.pop_front();
        }
        self.recent.push_back(started.elapsed().as_nanos() as f64);
        self.nominal_ns / (self.recent.iter().sum::<f64>() / self.recent.len() as f64)
    }
}

/// Wall-clock time converted to reference speed stretch by stretch: every
/// [`RefClock::tick`] ends a stretch with a kernel run.
pub struct RefClock {
    reference: Reference,
    stretch_started: Instant,
    /// Time ticked off so far at reference speed and on the wall clock
    /// (the kernel runs themselves are in neither).
    pub ref_ns: f64,
    pub raw_ns: f64,
}

impl RefClock {
    pub fn start(mut reference: Reference) -> RefClock {
        reference.measure();
        RefClock {
            reference,
            stretch_started: Instant::now(),
            ref_ns: 0.0,
            raw_ns: 0.0,
        }
    }

    /// End the open stretch and start the next; returns the stretch's
    /// wall-clock length in ns and the clock's rate over it.
    pub fn tick(&mut self) -> (f64, f64) {
        let wall_ns = self.stretch_started.elapsed().as_nanos() as f64;
        let rate = self.reference.measure();
        self.raw_ns += wall_ns;
        self.ref_ns += wall_ns * rate;
        self.stretch_started = Instant::now();
        (wall_ns, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work_and_the_rate_is_smoothed() {
        let (mut a, mut b) = (Reference::cpu(), Reference::cpu());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
        for _ in 0..2 * SMOOTH_OVER {
            assert!(a.measure() > 0.0);
        }
        assert_eq!(a.recent.len(), SMOOTH_OVER);
        // A host at reference speed keeps wall-clock time; one half as
        // fast counts each wall-clock nanosecond as half.
        a.recent = VecDeque::from(vec![2.0 * a.nominal_ns; SMOOTH_OVER - 1]);
        assert!(a.measure() < 0.6);
    }

    #[test]
    fn clock_adds_up_its_stretches() {
        let mut clock = RefClock::start(Reference::with_wire().unwrap());
        let mut expected = 0.0;
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let (wall_ns, rate) = clock.tick();
            assert!(wall_ns >= 2e6 && rate > 0.0);
            expected += wall_ns * rate;
        }
        assert!(clock.raw_ns >= 6e6);
        assert!((clock.ref_ns - expected).abs() < 1.0);
    }
}
